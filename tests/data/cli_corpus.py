"""The CLI corpus: every braidforge argv the suite replays, drawn once.

Regenerate the record from the repository root, with the version whose
output is the reference:

    PYTHONPATH=src python tests/data/cli_corpus.py

This runs every argv of ``corpus()`` in process, rewrites cli_corpus.json
and prints each argv whose exit code, stdout or stderr changed; on an
unchanged tree it prints none and leaves the file byte for byte as it
was. It is the one step an intended change of CLI output takes.
tests/test_cli_golden.py replays every entry in process and requires the
same record, and ``tests/data/differential.py REV`` runs the same argv on
a git revision and on the working tree.

The record holds one entry per argv, one line each: the argv, its exit
code, the SHA-256 of ``json.dumps([stdout, stderr])``, and the text of
each of stdout and stderr that has 1 to SHORT characters, so that a
failure shows a diff. ``--tables`` argv name the files in tables/ by
paths relative to the repository root, from where every argv runs.

``corpus()`` is, in order:

- the reference commands (seed 20261018): ``present`` (all three
  formats), ``invariants`` (with --up-to-conjugacy and extra targets),
  ``isocheck`` (interior braid relations, relabeling maps, found
  sequences), ``verify``, ``graph`` (every format and sign convention),
  ``bricks``, ``render``, ``nf`` (plain and json), ``conj`` (conjugate
  and fresh pairs), ``summit --full``, ``halftwist`` and ``moveseq``; the
  found sequences (``moveseq`` and ``isocheck`` without --moves) cover
  half-twist pairs, one needing a summit hop, and two exits 1: a
  non-conjugate pair and a pair without a half twist. Then ``parse``,
  plain ``bricks`` and the drawings' brick numbering; Garside output at
  the benchmark's sizes (normal forms of 100-500 letters on 6-10
  strands, six- and five-strand half-twist summit sets, walked 4-strand
  found sequences and one usage error); the move-invariance benchmark's
  sizes (``verify --moves 20`` on words of 13-16 letters, one-move
  ``isocheck`` scripts of every kind on words of 6-24 letters,
  ``invariants`` of 60-100-letter words); ``invariants
  --up-to-conjugacy`` with the generator caps lifted on 3-4-strand words
  of 30-60 letters; ``isocheck`` across a Markov stabilization and a
  destabilization, each word at its own strand count; and move maps
  checked against S3, S4, D4, D6 and Q8 with the generator caps raised.
- the seeded commands (seed 20261019): ``isocheck --moves`` scripts of
  1-5 moves checked against S3, S4, D4, D6 and Q8, ``invariants
  --up-to-conjugacy``, ``verify --moves 20``, and the Garside commands
  ``conj``, ``moveseq``, ``summit --full`` and ``halftwist`` on 3-6-strand
  words with and without a half twist, paired with walked conjugates or
  random words; with generator caps lifted, ``invariants
  --up-to-conjugacy`` and ``isocheck --moves`` against S3, D4 and Q8 on
  2-3-strand words of 20-60 letters; ``isocheck --moves`` scripts of 6-12
  moves mixing conjugations at both ends, braid relations and far
  commutations on 3-4-strand words of 8-16 letters; with generator caps
  lifted, ``invariants --up-to-conjugacy`` against S3, S4 and D6 on
  words of 3-7 pairwise commuting bricks, every third with one linked
  pair; the constructors' outputs (``bricks``, ``graph``, ``present`` in
  both sign conventions, ``render --dot`` and ``render --svg --what
  both``) on 2-8-strand words of 0-40 letters, the empty word and words
  without bricks among them; ``invariants --tables`` over tables/: a
  relabelled S3, D4 (shadowing the built-in) and a table with an element
  without an inverse; ``halftwist`` on 7-8-strand words of 20-60 letters,
  every other one a rotation of a half twist and a tail; ``invariants``
  on words of 9, 10, 11, 14, 15 and 16 bricks, on both sides of the
  default S3 and S4 caps, with or without --up-to-conjugacy, in either
  sign convention, and with no cap, S4 or S3 lifted; ``verify --moves
  20`` on words of the same brick counts; and ``isocheck --moves``
  scripts of 3-8 moves that stabilize and destabilize, with no
  --strands, every fifth against the wrong second word.
- the exceeded summit-set cap, exit 2: ``summit``, ``conj``, ``moveseq``
  and ``isocheck`` with ``--caps.summit-set 1`` on a pair whose summit
  set has two members.

Each part is appended after the last, so earlier draws keep their
random stream.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from pathlib import Path

from braidforge.garside import delta_word
from braidforge.words import BraidWord, MoveKind, WordMove, apply_move, enumerate_moves

ROOT = Path(__file__).resolve().parents[2]
RECORD = Path(__file__).with_name("cli_corpus.json")
TABLES = "tests/data/tables"
SHORT = 200
TARGETS = "S3,S4,D4,D6,Q8"
MARKOV = (MoveKind.MARKOV_STAB, MoveKind.MARKOV_DESTAB)


def text(letters) -> str:
    return " ".join(map(str, letters))


def random_letters(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, strands - 1) for _ in range(length))


def reference_commands() -> list[list[str]]:
    rng = random.Random(20261018)
    cmds: list[list[str]] = []
    fixed = [("1 2 1 1 2 1", 3), ("1 1 1", 2), ("1", 2), ("1 3", 4), ("1 2 1 2 2 1", 3)]
    for word, n in fixed:
        for fmt in ("plain", "gap-style", "json"):
            cmds.append(["present", word, "--strands", str(n), "--format", fmt])
    for _ in range(8):
        n = rng.randint(3, 6)
        word = text(random_letters(rng, n, rng.randint(6, 22)))
        for fmt in ("plain", "gap-style", "json"):
            cmds.append(["present", word, "--strands", str(n), "--format", fmt])
    cmds.append(["present", "1 2 1 1 2 1", "--sign-convention", "right-positive"])

    for i in range(14):
        n = rng.randint(3, 5)
        word = text(random_letters(rng, n, rng.randint(4, 18)))
        cmd = ["invariants", word, "--strands", str(n)]
        if i % 2:
            cmd.append("--up-to-conjugacy")
        if i % 5 == 0:
            cmd += ["--targets", "S3,S4,S5,D4,D5,D6,Q8"]
        cmds.append(cmd)
    cmds.append(["invariants", "1 2 1 1 2 1 2 1 1 2", "--caps.generators", "S3=3"])

    # isocheck along move scripts; every interior braid relation in the words
    # below is exercised, with a conjugation or far commutation after some.
    isochecks = 0
    while isochecks < 24:
        n = rng.randint(3, 5)
        w = BraidWord(n, random_letters(rng, n, rng.randint(5, 14)))
        interior = [
            m for m in enumerate_moves(w)
            if m.kind is MoveKind.BRAID_REL and m.position + 2 < len(w.letters)
        ]
        if not interior:
            continue
        m = rng.choice(interior)
        moves = [m]
        v = apply_move(w, m)
        if isochecks % 3 == 1:
            moves.append(WordMove(MoveKind.ELEM_CONJ_RIGHT, len(v.letters)))
        elif isochecks % 3 == 2:
            far = [x for x in enumerate_moves(v) if x.kind is MoveKind.FAR_COMM]
            if far:
                moves.append(rng.choice(far))
        script = ", ".join(
            mv.kind.value + (f"@{mv.position}" if mv.kind is not MoveKind.ELEM_CONJ_RIGHT else "")
            for mv in moves
        )
        for mv in moves[1:]:
            v = apply_move(v, mv)
        cmds.append(["isocheck", text(w.letters), text(v.letters), "--strands", str(n),
                     "--moves", script])
        isochecks += 1
    # relabeling maps (far commutation, conjugation of a lone letter), a found
    # sequence, and a script that does not reach the second word
    cmds += [
        ["isocheck", "1 3 2 1 2", "3 1 2 1 2", "--strands", "4", "--moves", "farcomm@1"],
        ["isocheck", "1 1 2 1 1 3", "3 1 1 2 1 1", "--strands", "4", "--moves", "conjR"],
        ["isocheck", "1 2 1 1 2 1", "1 1 2 1 1 2", "--moves", "conjR"],
        ["isocheck", "1 2 1 1 2 1", "1 1 2 1 1 2"],
        ["isocheck", "1 2 2 1 2 1 1", "2 1 2 1 1 1 2", "--moves", "conjL, conjL"],
        ["isocheck", "1 2 1 1 2 1", "2 1 2 1 2 1", "--moves", "conjR"],
    ]
    for seed, (n, length) in enumerate([(3, 8), (4, 10), (4, 12), (5, 9)]):
        word = text(random_letters(rng, n, length))
        cmds.append(["verify", word, "--strands", str(n), "--moves", "15", "--seed", str(seed)])

    # edges, regions and positions as printed by graph, bricks and render
    drawn = []
    for _ in range(8):
        n = rng.randint(3, 6)
        drawn.append((text(random_letters(rng, n, rng.randint(6, 40))), n))
    for word, n in fixed + drawn:
        base = [word, "--strands", str(n)]
        for convention in ("left-positive", "right-positive"):
            for fmt in ("json", "dot", "svg"):
                cmds.append(["graph", *base, "--format", fmt, "--sign-convention", convention])
        cmds.append(["bricks", *base, "--format", "json"])
        cmds.append(["render", *base, "--what", "both"])
        cmds.append(["render", *base, "--dot"])

    # Garside: normal forms, summit sets and half twists of seeded words,
    # conjugacy of walked and of fresh pairs, and conjugacy realized as moves
    # (moveseq, isocheck without --moves) on half-twist pairs, walked by the
    # moves that keep the conjugacy class
    walk_kinds = (MoveKind.BRAID_REL, MoveKind.FAR_COMM,
                  MoveKind.ELEM_CONJ_LEFT, MoveKind.ELEM_CONJ_RIGHT)

    def walked(w: BraidWord, steps: int) -> BraidWord:
        for _ in range(steps):
            w = apply_move(w, rng.choice([m for m in enumerate_moves(w) if m.kind in walk_kinds]))
        return w

    for _ in range(6):
        n = rng.randint(3, 5)
        w = BraidWord(n, random_letters(rng, n, rng.randint(4, 14)))
        base = [text(w.letters), "--strands", str(n)]
        cmds.append(["nf", *base, "--format", "plain"])
        cmds.append(["nf", *base, "--format", "json"])
        cmds.append(["summit", *base, "--full"])
        cmds.append(["halftwist", *base])
        other = walked(w, rng.randint(1, 10))
        cmds.append(["conj", *base[:1], text(other.letters), *base[1:]])
        fresh = random_letters(rng, n, len(w.letters))
        cmds.append(["conj", *base[:1], text(fresh), *base[1:]])
    for i in range(6):
        n = rng.randint(3, 4)
        half = "1 2 1" if n == 3 else "1 2 3 1 2 1"
        w = BraidWord(n, tuple(map(int, half.split())) + random_letters(rng, n, rng.randint(0, 4)))
        pair = [text(w.letters), text(walked(w, rng.randint(1, 10)).letters), "--strands", str(n)]
        cmds.append(["moveseq" if i % 2 else "isocheck", *pair])
    cmds += [
        # a summit hop between the two representatives
        ["moveseq", "1 2 1 2 2 1", "1 2 2 2 1 2"],
        ["isocheck", "1 2 1 2 2 1", "1 2 2 2 1 2"],
        ["moveseq", "1 2 1 1 1", "1 2 1 2 2"],
        # four strands: the searches order braid relations before far commutations
        ["moveseq", "1 2 3 1 2 1 2 2", "1 2 1 3 1 1 2 1"],
        ["isocheck", "1 2 3 1 2 1 2", "1 1 2 1 1 2 3"],
        # not conjugate, and conjugate without a half twist: both exit 1
        ["moveseq", "1 2 1 1 2 1", "1 2 1 2 2 2"],
        ["moveseq", "1 1", "2 2", "--strands", "3"],
        ["isocheck", "1 1", "2 2", "--strands", "3"],
    ]

    # brick numbering as printed by parse, plain bricks and the drawings
    for word, n in fixed:
        base = [word, "--strands", str(n)]
        cmds.append(["parse", *base])
        cmds.append(["bricks", *base, "--format", "plain"])
        cmds.append(["render", *base, "--what", "bricks"])
        cmds.append(["render", *base, "--what", "graph"])

    # Garside at benchmark sizes: long normal forms on 6-10 strands, the
    # summit set shapes and conjugacy pairs the benchmark draws, found
    # sequences of walked 4-strand half-twist words, and one capped search
    for _ in range(5):
        n = rng.randint(6, 10)
        base = [text(random_letters(rng, n, rng.randint(100, 500))), "--strands", str(n)]
        cmds.append(["nf", *base, "--format", "plain"])
        cmds.append(["nf", *base, "--format", "json"])
    shapes = [
        (6, delta_word(6) + random_letters(rng, 6, 1)),
        (5, delta_word(5) + random_letters(rng, 5, 3)),
        (4, random_letters(rng, 4, rng.randint(10, 12))),
        (4, random_letters(rng, 4, rng.randint(10, 12))),
    ]
    for n, letters in shapes:
        w = BraidWord(n, letters)
        base = [text(letters), "--strands", str(n)]
        cmds.append(["summit", *base, "--full"])
        cmds.append(["conj", text(letters), text(walked(w, rng.randint(5, 15)).letters),
                     "--strands", str(n)])
        cmds.append(["conj", text(letters), text(random_letters(rng, n, len(letters))),
                     "--strands", str(n)])
    for i in range(6):
        w = BraidWord(4, delta_word(4) + random_letters(rng, 4, rng.randint(0, 6)))
        pair = [text(w.letters), text(walked(w, rng.randint(5, 10)).letters), "--strands", "4"]
        cmds.append(["moveseq" if i % 2 else "isocheck", *pair])
    # no search runs, so no word-search cap is left to set: a usage error
    cmds.append(["moveseq", "1 2 3 1 2 1 2 2", "1 2 1 3 1 1 2 1", "--caps.word-search", "5"])

    # The move-invariance benchmark's sizes: verify --moves 20 on 3-4-strand
    # words of 13-16 letters, one move of each kind on words of 6-24
    # letters (a stabilization undone by a destabilization), and invariants
    # of 60-100 letters
    for seed in range(4):
        n = 3 + seed % 2
        word = text(random_letters(rng, n, rng.randint(13, 16)))
        cmds.append(["verify", "--moves", "20", "--seed", str(seed), word, "--strands", str(n)])
    kinds = (MoveKind.BRAID_REL, MoveKind.ELEM_CONJ_LEFT, MoveKind.ELEM_CONJ_RIGHT,
             MoveKind.FAR_COMM, MoveKind.MARKOV_STAB)
    for i in range(15):
        kind = kinds[i % 5]
        n = 4 if kind is MoveKind.FAR_COMM else 3 + i % 2
        length = 6 + 18 * i // 14
        while True:
            w = BraidWord(n, random_letters(rng, n, length))
            sites = [m for m in enumerate_moves(w) if m.kind is kind]
            if sites:
                break
        m = rng.choice(sites)
        if kind is MoveKind.MARKOV_STAB:
            script, v = "stab, destab", w
        else:
            script, v = f"{kind.value}@{m.position}", apply_move(w, m)
        cmds.append(["isocheck", text(w.letters), text(v.letters), "--strands", str(n),
                     "--moves", script])
    for j, length in enumerate((60, 70, 80, 90, 100)):
        n = 3 + j
        cmds.append(["invariants", text(random_letters(rng, n, length)), "--strands", str(n)])

    # Hom counts with the generator caps lifted: 3-4-strand words of 30-60
    # letters, whose 28-58 generators the default caps would skip
    for i in range(6):
        n = 3 + i % 2
        word = text(random_letters(rng, n, rng.randint(30, 60)))
        cmds.append(["invariants", word, "--strands", str(n), "--up-to-conjugacy",
                     "--caps.generators", "S3=60,S4=60"])

    # a Markov stabilization and its inverse: with --moves each word keeps
    # its own strand count
    cmds += [
        ["isocheck", "1 2 1 1 2", "1 2 1 1 2 3", "--moves", "stab"],
        ["isocheck", "1 2 1 1 2 3", "1 2 1 1 2", "--moves", "destab"],
    ]

    # Move maps checked against D4, D6 and Q8 as well, with the generator
    # caps raised so that no target is skipped: two one-move scripts of
    # each kind on 3-4-strand words of 6-16 letters, and two found
    # sequences of walked half-twist words
    wide = ["--targets", "S3,S4,D4,D6,Q8", "--caps.generators", "S3=16,S4=16,*=16"]
    for i in range(10):
        kind = kinds[i % 5]
        n = 4 if kind is MoveKind.FAR_COMM else 3 + i % 2
        length = 6 + 10 * i // 9
        while True:
            w = BraidWord(n, random_letters(rng, n, length))
            sites = [m for m in enumerate_moves(w) if m.kind is kind]
            if sites:
                break
        m = rng.choice(sites)
        if kind is MoveKind.MARKOV_STAB:
            script, v = "stab, destab", w
        else:
            script, v = f"{kind.value}@{m.position}", apply_move(w, m)
        cmds.append(["isocheck", text(w.letters), text(v.letters), "--strands", str(n),
                     "--moves", script, *wide])
    for _ in range(2):
        w = BraidWord(3, (1, 2, 1) + random_letters(rng, 3, rng.randint(3, 6)))
        pair = [text(w.letters), text(walked(w, rng.randint(5, 10)).letters), "--strands", "3"]
        cmds.append(["isocheck", *pair, *wide])
    return cmds


def seeded_commands() -> list[list[str]]:
    rng = random.Random(20261019)
    cmds: list[list[str]] = []

    def word(lo: int, hi: int) -> BraidWord:
        n = rng.randint(3, 5)
        return BraidWord(n, random_letters(rng, n, rng.randint(lo, hi)))

    for _ in range(420):
        w = word(4, 12)
        moves, v = [], w
        for _ in range(rng.randint(1, 5)):
            # a Markov move would change the strand count --strands gives
            m = rng.choice([m for m in enumerate_moves(v) if m.kind not in MARKOV])
            moves.append(m)
            v = apply_move(v, m)
        script = ", ".join(f"{m.kind.value}@{m.position}" for m in moves)
        cmds.append(["isocheck", text(w.letters), text(v.letters), "--strands", str(w.strands),
                     "--moves", script, "--targets", TARGETS])
    for _ in range(160):
        w = word(1, 16)
        cmds.append(["invariants", text(w.letters), "--strands", str(w.strands),
                     "--up-to-conjugacy"])
    for i in range(120):
        w = word(6, 16)
        cmds.append(["verify", text(w.letters), "--strands", str(w.strands),
                     "--moves", "20", "--seed", str(i)])

    def garside_word(n: int, twist: bool) -> BraidWord:
        # a half twist and a short tail, or a plain word of 4-12 letters
        length = rng.randint(0, 8 - n) if twist else rng.randint(4, 12)
        tail = random_letters(rng, n, length)
        return BraidWord(n, delta_word(n) + tail if twist else tail)

    def walked(w: BraidWord) -> BraidWord:
        for _ in range(rng.randint(1, 12)):
            w = apply_move(w, rng.choice([m for m in enumerate_moves(w) if m.kind not in MARKOV]))
        return w

    for i in range(320):
        command = ("conj", "moveseq", "summit", "halftwist")[i % 4]
        n = rng.randint(3, 5) if command == "moveseq" else rng.randint(3, 6)
        a = garside_word(n, twist=rng.random() < 0.7)
        if command in ("summit", "halftwist"):
            words = [walked(a)]
        elif rng.random() < 0.7:
            words = [a, walked(a)]
        else:
            words = [a, BraidWord(n, random_letters(rng, n, len(a.letters)))]
        extra = ["--full"] if command == "summit" else []
        cmds.append([command, *(text(w.letters) for w in words), "--strands", str(n), *extra])
    # caps lifted: 2-3-strand words of 20-60 letters reach wide pair windows
    lifted = ["--targets", "S3,D4,Q8", "--caps.generators", "S3=64,*=64"]
    for i in range(60):
        n = 3 if i % 4 == 3 else rng.randint(2, 3)
        w = BraidWord(n, random_letters(rng, n, rng.randint(20, 60)))
        if i % 4 != 3:
            cmds.append(["invariants", text(w.letters), "--strands", str(n), "--up-to-conjugacy",
                         *lifted])
            continue
        moves, v = [], w
        for _ in range(rng.randint(1, 3)):
            m = rng.choice([m for m in enumerate_moves(v) if m.kind not in MARKOV])
            moves.append(m)
            v = apply_move(v, m)
        script = ", ".join(f"{m.kind.value}@{m.position}" for m in moves)
        cmds.append(["isocheck", text(w.letters), text(v.letters), "--strands", str(n),
                     "--moves", script, *lifted])
    # long move scripts: each move's kind drawn evenly from the kinds that
    # apply, so conjugations at both ends, braid relations at every height
    # and far commutations mix along one map
    for _ in range(40):
        n = rng.randint(3, 4)
        w = BraidWord(n, random_letters(rng, n, rng.randint(8, 16)))
        moves, v = [], w
        for _ in range(rng.randint(6, 12)):
            by_kind: dict[MoveKind, list] = {}
            for m in enumerate_moves(v):
                if m.kind not in MARKOV:
                    by_kind.setdefault(m.kind, []).append(m)
            m = rng.choice(by_kind[rng.choice(list(by_kind))])
            moves.append(m)
            v = apply_move(v, m)
        script = ", ".join(f"{m.kind.value}@{m.position}" for m in moves)
        cmds.append(["isocheck", text(w.letters), text(v.letters), "--strands", str(n),
                     "--moves", script, "--targets", TARGETS])
    # caps lifted: 3-7 bricks in columns two or more apart commute pairwise,
    # so every commuting tuple is a hom and D6 with 7 of them tries about
    # 2 * 10^5 values, the growth the search budget bounds; every third
    # word links one pair, laterally (c c+1 c c+1) or vertically (c c c)
    for i in range(20):
        k = rng.randint(3, 7)
        linked = i % 3 == 2
        columns, c = [], 0
        for _ in range(k - linked):
            c += rng.randint(2, 3)
            columns.append(c)
        runs = [[c, c] for c in columns]
        if linked:
            top = runs[-1][0]
            runs[-1] = [top, top + 1, top, top + 1] if rng.random() < 0.5 else [top] * 3
        letters = []
        while runs:  # interleave the columns' runs, each kept in order
            run = rng.choice(runs)
            letters.append(run.pop(0))
            runs = [r for r in runs if r]
        cmds.append(["invariants", text(letters), "--up-to-conjugacy", "--targets", "S3,S4,D6",
                     "--caps.generators", "S3=64,S4=64,*=64"])
    # one form per command, in turn: 2-8-strand words of 0-40 letters, every
    # tenth the empty word and every tenth after it a word without bricks
    conventions = [["--sign-convention", c] for c in ("left-positive", "right-positive")]
    forms = [["bricks"], ["bricks", "--format", "plain"]]
    for convention in conventions:
        forms += [["graph", *convention], ["graph", "--format", "dot", *convention]]
        forms += [["present", "--format", f, *convention] for f in ("plain", "gap-style", "json")]
    forms += [["render", "--dot"], ["render", "--svg", "--what", "both"]]
    for i in range(120):
        n = rng.randint(2, 8)
        if i % 10 == 0:
            letters = ()
        elif i % 10 == 1:
            letters = tuple(rng.sample(range(1, n), rng.randint(1, n - 1)))
        else:
            letters = random_letters(rng, n, rng.randint(0, 40))
        command, *flags = forms[i % len(forms)]
        cmds.append([command, text(letters), "--strands", str(n), *flags])
    # table files in tables/: S3r.txt is S3 with its elements renamed by
    # this draw (identity kept at 0), D4.txt shadows the built-in, and
    # noinverse.txt is a table whose element 1 has no inverse
    rng.sample(range(1, 6), 5)
    good = f"{TABLES}/S3r.txt,{TABLES}/D4.txt"
    for i in range(20):
        w = word(1, 12)
        paths = f"{good},{TABLES}/noinverse.txt" if i % 5 == 4 else good
        cmds.append(["invariants", text(w.letters), "--strands", str(w.strands),
                     "--tables", paths, "--targets", "S3r,D4,S3"])
    # 7-8-strand words of 20-60 letters, whose cycling and decycling orbits
    # run past n(n-1)/2 steps: every other one a rotation of a half twist
    # and a tail, which hides the twist from the normal form
    for i in range(60):
        n = rng.randint(7, 8)
        half = delta_word(n) if i % 2 else ()
        tail = rng.randint(20, 60) - len(half)
        letters = half + random_letters(rng, n, tail)
        cut = rng.randint(0, len(letters))
        letters = letters[cut:] + letters[:cut]
        cmds.append(["halftwist", text(letters), "--strands", str(n)])
    # brick counts on both sides of the S3 and S4 caps (14 and 10), with and
    # without --up-to-conjugacy, in both sign conventions, and with one cap
    # lifted: the counts that build no linking graph next to those that do
    lifts = [[], ["--caps.generators", "S4=12"], ["--caps.generators", "S3=16"]]

    def bricks(k: int) -> tuple[int, list[int]]:
        # a word on 2-6 strands with k bricks: k letters past each column's first
        n = rng.randint(2, 6)
        letters: list[int] = []
        seen = set()
        while len(letters) - len(seen) < k:
            letters.append(rng.randint(1, n - 1))
            seen.add(letters[-1])
        return n, letters

    for k in (9, 10, 11, 14, 15, 16):
        for i in range(12):  # every combination of the three choices
            n, letters = bricks(k)
            extra = ["--up-to-conjugacy"] if i % 2 else []
            cmds.append(["invariants", text(letters), "--strands", str(n), *extra,
                         *conventions[i // 2 % 2], *lifts[i // 4]])
    # verify walks on the same brick counts, so steps fall on both sides of
    # the S3 and S4 caps: as given, in the other sign convention, with S3
    # lifted to 16, and against the table files
    variants = [[], conventions[1], lifts[2], ["--tables", good, "--targets", "S3r,D4,S3"]]
    for k in (9, 10, 11, 14, 15, 16):
        for i in range(8):
            n, letters = bricks(k)
            cmds.append(["verify", text(letters), "--strands", str(n), "--moves", "20",
                         "--seed", str(rng.randrange(1000)), *variants[i % 4]])
    # move scripts with Markov moves: each word keeps its own strand count,
    # so no --strands; each move's kind drawn evenly from the kinds that
    # apply, every other token without its position, and every fifth
    # script checked against the first word in place of the one it reaches
    for i in range(40):
        n = rng.randint(3, 5)
        w = BraidWord(n, random_letters(rng, n, rng.randint(4, 10)) + (n - 1,))
        while True:
            tokens, v = [], w
            for _ in range(rng.randint(3, 8)):
                by_kind = {}
                for m in enumerate_moves(v):
                    by_kind.setdefault(m.kind, []).append(m)
                m = rng.choice(by_kind[rng.choice(list(by_kind))])
                positional = m.kind in (MoveKind.BRAID_REL, MoveKind.FAR_COMM) or rng.random() < 0.5
                tokens.append(f"{m.kind.value}@{m.position}" if positional else m.kind.value)
                v = apply_move(v, m)
            kinds = {t.partition("@")[0] for t in tokens}
            if {"stab", "destab"} <= kinds and max(v.letters, default=0) == v.strands - 1:
                break
        b = w if i % 5 == 4 else v
        cmds.append(["isocheck", text(w.letters), text(b.letters), "--moves", ", ".join(tokens)])
    return cmds


def capped_commands() -> list[list[str]]:
    """The summit set of 1 2 1 2 2 1 has two members, past the cap 1."""
    return [
        ["summit", "1 2 1 2 2 1", "--caps.summit-set", "1"],
        ["conj", "1 2 1 2 2 1", "1 2 2 2 1 2", "--caps.summit-set", "1"],
        ["moveseq", "1 2 1 2 2 1", "1 2 2 2 1 2", "--caps.summit-set", "1"],
        ["isocheck", "1 2 1 2 2 1", "1 2 2 2 1 2", "--caps.summit-set", "1"],
    ]


def corpus() -> list[list[str]]:
    return reference_commands() + seeded_commands() + capped_commands()


def run(argv: list[str]) -> tuple[int | str, str, str]:
    """argv's exit code, stdout and stderr, run in process through
    braidforge.cli.main; an exception that escapes main is recorded by its
    type. Imports main on first use, so that a child interpreter on another
    tree's src runs that tree's CLI."""
    from braidforge.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def entry(argv: list[str], code: int | str, out: str, err: str) -> dict:
    """The record of one run: argv, exit code, one digest of both streams,
    and the text of each stream that is short and not empty."""
    digest = hashlib.sha256(json.dumps([out, err]).encode()).hexdigest()
    texts = {name: s for name, s in (("stdout", out), ("stderr", err)) if 0 < len(s) <= SHORT}
    return {"argv": argv, "exit": code, "sha256": digest, **texts}


def load() -> list[dict]:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def dump(entries: list[dict]) -> str:
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


def main() -> None:
    os.chdir(ROOT)
    os.environ.pop("BRAIDFORGE_CONFIG", None)
    old = {json.dumps(e["argv"]): e for e in load()} if RECORD.exists() else {}
    entries = [entry(argv, *run(argv)) for argv in corpus()]
    changed = [e["argv"] for e in entries if old.get(json.dumps(e["argv"])) != e]
    for argv in changed:
        print(json.dumps(argv))
    RECORD.write_text(dump(entries), encoding="utf-8")
    print(f"{len(entries)} commands, {len(changed)} changed, "
          f"{RECORD.stat().st_size} bytes -> {RECORD.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
