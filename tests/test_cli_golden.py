"""Replay the CLI corpus: same exit code, byte-identical stdout and stderr.

tests/data/cli_corpus.py draws every argv once and its record,
tests/data/cli_corpus.json, holds each argv's exit code, one SHA-256 of
its stdout and stderr, and the text of the short ones. Every entry is
run in process from the repository root, where its table paths point,
and must give the same record; the record must hold exactly the argv
the module draws, in order, so that no drawn argv goes unchecked. The
module's docstring lists what the corpus covers and how to regenerate
the record after an intended change of output.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "data"))
import cli_corpus  # noqa: E402

RECORD = cli_corpus.load()


def test_record_holds_every_drawn_argv():
    assert [e["argv"] for e in RECORD] == cli_corpus.corpus()


@pytest.mark.parametrize(
    "entry", RECORD, ids=[f"{i}-{e['argv'][0]}" for i, e in enumerate(RECORD)]
)
def test_cli_transcript_replays(entry, monkeypatch):
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    monkeypatch.chdir(cli_corpus.ROOT)
    argv = entry["argv"]
    assert cli_corpus.entry(argv, *cli_corpus.run(argv)) == entry
