"""Write cli_golden.json: seeded braidforge commands with their exit code and stdout.

Run from the repository root, with the version whose output is the
reference:

    PYTHONPATH=src python tests/data/make_cli_golden.py

tests/test_cli_golden.py replays every command in-process and requires
the same exit code and byte-identical stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from pathlib import Path

from braidforge.cli import main
from braidforge.garside import delta_word
from braidforge.words import BraidWord, MoveKind, WordMove, apply_move, enumerate_moves

OUT = Path(__file__).with_name("cli_golden.json")


def text(letters) -> str:
    return " ".join(map(str, letters))


def random_letters(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, strands - 1) for _ in range(length))


def commands() -> list[list[str]]:
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

    # brick numbering as printed by parse, plain bricks and the drawings;
    # appended last so the entries above keep their random stream
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


def record(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": buf.getvalue()}


if __name__ == "__main__":
    os.environ.pop("BRAIDFORGE_CONFIG", None)
    entries = [record(argv) for argv in commands()]
    OUT.write_text(json.dumps(entries, indent=0) + "\n", encoding="utf-8")
    print(f"{len(entries)} commands, {OUT.stat().st_size} bytes -> {OUT}")
