"""Replay the recorded CLI transcript: same exit code, byte-identical stdout.

tests/data/cli_golden.json holds seeded ``present`` (all three formats),
``invariants`` (with --up-to-conjugacy and extra targets), ``isocheck``
(interior braid relations, relabeling maps, found sequences),
``verify``, ``graph`` (every format and sign convention), ``bricks``,
``render``, ``nf`` (plain and json), ``conj`` (conjugate and fresh
pairs), ``summit --full``, ``halftwist`` and ``moveseq`` commands. The
found sequences (``moveseq`` and ``isocheck`` without --moves) cover
half-twist pairs, one needing a summit hop, and two exits 1: a
non-conjugate pair and a pair without a half twist. The last entries
pin Garside output at the benchmark's sizes: normal forms of 100-500
letters on 6-10 strands, six- and five-strand half-twist summit sets,
walked 4-strand found sequences and one capped search. After them come
the move-invariance benchmark's sizes: ``verify --moves 20`` on words of
13-16 letters, one-move ``isocheck`` scripts of every kind on words of
6-24 letters, and ``invariants`` of 60-100-letter words. Last come
``invariants --up-to-conjugacy`` hom counts with the generator caps
lifted on 3-4-strand words of 30-60 letters, and ``isocheck`` across a
Markov stabilization and a destabilization, each word at its own strand
count. The very last entries check move maps against S3, S4, D4, D6 and
Q8 with the generator caps raised: two one-move scripts of each kind on
words of 6-16 letters, and two found sequences.
tests/data/make_cli_golden.py regenerates it.
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
