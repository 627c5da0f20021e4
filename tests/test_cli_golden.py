"""Replay the recorded CLI transcript: same exit code, byte-identical stdout.

tests/data/cli_golden.json holds seeded ``present`` (all three formats),
``invariants`` (with --up-to-conjugacy and extra targets), ``isocheck``
(interior braid relations, relabeling maps, a found sequence),
``verify``, ``graph`` (every format and sign convention), ``bricks`` and
``render`` commands; tests/data/make_cli_golden.py regenerates it.
"""

import json
from pathlib import Path

import pytest

from braidforge.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize(
    "entry", GOLDEN, ids=[f"{i}-{e['argv'][0]}" for i, e in enumerate(GOLDEN)]
)
def test_cli_transcript_replays(entry, capsys, monkeypatch):
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    code = main(list(entry["argv"]))
    assert (code, capsys.readouterr().out) == (entry["exit"], entry["stdout"])
