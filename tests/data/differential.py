"""Differential run: the CLI of a git revision against the working tree.

Run from anywhere in the repository, with the revision to compare:

    python tests/data/differential.py REV [--seed N]

REV is exported with ``git archive`` into a temporary directory (local,
no network). The corpus is every argv of cli_golden.json plus seeded
commands: ``isocheck --moves`` scripts of 1-5 moves checked against
S3, S4, D4, D6 and Q8, ``invariants --up-to-conjugacy``,
``verify --moves 20``, and the Garside commands ``conj``, ``moveseq``,
``summit --full`` and ``halftwist`` on 3-6-strand words with and without
a half twist, paired with walked conjugates or random words, and, with
generator caps lifted, ``invariants --up-to-conjugacy`` and ``isocheck
--moves`` against S3, D4 and Q8 on 2-3-strand words of 20-60 letters.
Then come ``isocheck --moves`` scripts of 6-12 moves, against the five
targets, mixing conjugations at both ends, braid relations and far
commutations on 3-4-strand words of 8-16 letters, and last, with
generator caps lifted, ``invariants --up-to-conjugacy`` against S3, S4
and D6 on words of 3-7 pairwise commuting bricks, every third with one
linked pair. Then the constructors' outputs: ``bricks`` (json and
plain), ``graph`` (json and dot), ``present`` (plain, gap-style and
json) in both sign conventions, ``render --dot`` and ``render --svg
--what both`` on 2-8-strand words of 0-40 letters, the empty word and
words without bricks among them; and last ``invariants --tables`` over
table files written to one temporary directory that both trees read: a
relabelled S3, D4 (shadowing the built-in), and a table with an element
without an inverse; and last ``halftwist`` on 7-8-strand words of 20-60
letters, every other one a rotation of a half twist and a tail; and
last ``invariants`` on words of 9, 10, 11, 14, 15 and 16 bricks, on both
sides of the default S3 and S4 caps, each brick count in every
combination of with or without ``--up-to-conjugacy``, either sign
convention, and no cap lifted, S4 lifted to 12 or S3 to 16; then
``verify --moves 20`` on words of the same brick counts, as given, in the
right-positive convention, with S3 lifted to 16, and against the table
files; and last ``isocheck --moves`` scripts of 3-8 moves that stabilize
and destabilize, with no ``--strands``, every fifth against the wrong
second word; 1,849 commands in all. Each tree runs the whole
corpus in one child interpreter, in-process through
``braidforge.cli.main``, under its own address-space limit. Every argv
whose exit code, stdout or stderr differ is printed, and the exit code
is 1 if any do, 0 otherwise. Before the count, one line per command
kind, ``moveseq`` and ``isocheck``, sums up its commands that differ:
on each side the total moves, image letters, exit codes and
``replay_ok`` values.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("cli_golden.json")
TARGETS = "S3,S4,D4,D6,Q8"
ADDRESS_SPACE = 1536 << 20

# Runs in each child: the argv list on stdin, [exit, stdout, stderr] per
# argv on stdout. An exception that escapes main is recorded by its type.
CHILD = """
import contextlib, io, json, os, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
from braidforge.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except BaseException as exc:
            code = f"raised {type(exc).__name__}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def corpus(seed: int, tables: Path) -> list[list[str]]:
    """Every golden argv, then the seeded commands; the table files the
    commands read are written into tables."""
    sys.path.insert(0, str(ROOT / "src"))
    from braidforge.finite_groups import dihedral_group, symmetric_group
    from braidforge.words import BraidWord, MoveKind, apply_move, enumerate_moves

    MARKOV = (MoveKind.MARKOV_STAB, MoveKind.MARKOV_DESTAB)

    def text(letters) -> str:
        return " ".join(map(str, letters))

    def word(rng: random.Random, lo: int, hi: int) -> BraidWord:
        n = rng.randint(3, 5)
        return BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(lo, hi))))

    cmds = [entry["argv"] for entry in json.loads(GOLDEN.read_text(encoding="utf-8"))]
    rng = random.Random(seed)
    for _ in range(420):
        w = word(rng, 4, 12)
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
        w = word(rng, 1, 16)
        cmds.append(["invariants", text(w.letters), "--strands", str(w.strands),
                     "--up-to-conjugacy"])
    for i in range(120):
        w = word(rng, 6, 16)
        cmds.append(["verify", text(w.letters), "--strands", str(w.strands),
                     "--moves", "20", "--seed", str(i)])

    def garside_word(n: int, twist: bool) -> BraidWord:
        # a half twist and a short tail, or a plain word of 4-12 letters
        length = rng.randint(0, 8 - n) if twist else rng.randint(4, 12)
        tail = tuple(rng.randint(1, n - 1) for _ in range(length))
        half = tuple(i for top in range(n - 1, 0, -1) for i in range(1, top + 1))
        return BraidWord(n, half + tail if twist else tail)

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
            words = [a, BraidWord(n, tuple(rng.randint(1, n - 1) for _ in a.letters))]
        extra = ["--full"] if command == "summit" else []
        cmds.append([command, *(text(w.letters) for w in words), "--strands", str(n), *extra])
    # caps lifted: 2-3-strand words of 20-60 letters reach wide pair windows
    lifted = ["--targets", "S3,D4,Q8", "--caps.generators", "S3=64,*=64"]
    for i in range(60):
        n = 3 if i % 4 == 3 else rng.randint(2, 3)
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(20, 60))))
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
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(8, 16))))
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
            letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 40)))
        command, *flags = forms[i % len(forms)]
        cmds.append([command, text(letters), "--strands", str(n), *flags])
    # table files: S3 with its elements renamed (identity kept at 0), D4
    # shadowing the built-in, and a table whose element 1 has no inverse
    rename = [0, *rng.sample(range(1, 6), 5)]
    s3 = symmetric_group(3).table
    renamed = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            renamed[rename[a]][rename[b]] = rename[s3[a][b]]
    files = {"S3r": renamed, "D4": dihedral_group(4).table, "noinverse": [[0, 1], [1, 1]]}
    for name, table in files.items():
        rows = "".join(" ".join(map(str, row)) + "\n" for row in table)
        (tables / f"{name}.txt").write_text(f"{len(table)}\n{rows}", encoding="utf-8")
    good = ",".join(str(tables / f"{name}.txt") for name in ("S3r", "D4"))
    for i in range(20):
        w = word(rng, 1, 12)
        paths = f"{good},{tables / 'noinverse.txt'}" if i % 5 == 4 else good
        cmds.append(["invariants", text(w.letters), "--strands", str(w.strands),
                     "--tables", paths, "--targets", "S3r,D4,S3"])
    # 7-8-strand words of 20-60 letters, whose cycling and decycling orbits
    # run past n(n-1)/2 steps: every other one a rotation of a half twist
    # and a tail, which hides the twist from the normal form
    for i in range(60):
        n = rng.randint(7, 8)
        half: tuple[int, ...] = ()
        if i % 2:
            half = tuple(j for top in range(n - 1, 0, -1) for j in range(1, top + 1))
        tail = rng.randint(20, 60) - len(half)
        letters = half + tuple(rng.randint(1, n - 1) for _ in range(tail))
        cut = rng.randint(0, len(letters))
        letters = letters[cut:] + letters[:cut]
        cmds.append(["halftwist", text(letters), "--strands", str(n)])
    # brick counts on both sides of the S3 and S4 caps (14 and 10), with and
    # without --up-to-conjugacy, in both sign conventions, and with one cap
    # lifted: the counts that build no linking graph next to those that do
    lifts = [[], ["--caps.generators", "S4=12"], ["--caps.generators", "S3=16"]]
    for k in (9, 10, 11, 14, 15, 16):
        for i in range(12):  # every combination of the three choices
            n = rng.randint(2, 6)
            letters, seen = [], set()
            while len(letters) - len(seen) < k:
                letters.append(rng.randint(1, n - 1))
                seen.add(letters[-1])
            extra = ["--up-to-conjugacy"] if i % 2 else []
            cmds.append(["invariants", text(letters), "--strands", str(n), *extra,
                         *conventions[i // 2 % 2], *lifts[i // 4]])
    # verify walks on the same brick counts, so steps fall on both sides of
    # the S3 and S4 caps: as given, in the other sign convention, with S3
    # lifted to 16, and against the table files
    variants = [[], conventions[1], lifts[2], ["--tables", good, "--targets", "S3r,D4,S3"]]
    for k in (9, 10, 11, 14, 15, 16):
        for i in range(8):
            n = rng.randint(2, 6)
            letters, seen = [], set()
            while len(letters) - len(seen) < k:
                letters.append(rng.randint(1, n - 1))
                seen.add(letters[-1])
            cmds.append(["verify", text(letters), "--strands", str(n), "--moves", "20",
                         "--seed", str(rng.randrange(1000)), *variants[i % 4]])
    # move scripts with Markov moves: each word keeps its own strand count,
    # so no --strands; each move's kind drawn evenly from the kinds that
    # apply, every other token without its position, and every fifth
    # script checked against the first word in place of the one it reaches
    for i in range(40):
        n = rng.randint(3, 5)
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(4, 10))) + (n - 1,))
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


def run_tree(tree: Path, cmds: list[list[str]]) -> list[list]:
    env = {k: v for k, v in os.environ.items() if k != "BRAIDFORGE_CONFIG"}
    env["PYTHONPATH"] = str(tree / "src")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ADDRESS_SPACE)],
        input=json.dumps(cmds), capture_output=True, text=True, env=env, cwd=tree, check=True,
    )
    return json.loads(done.stdout)


def export(rev: str, into: Path) -> None:
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def move_summary(cmds: list[list[str]], before: list[list], after: list[list]) -> list[str]:
    """One line per command kind, moveseq and isocheck, over its argvs that
    differ: on each side the total moves, the total image and inverse
    image letters, and the counts of exit codes and replay_ok values."""
    lines = []
    for kind in ("moveseq", "isocheck"):
        pairs = [(old, new) for argv, old, new in zip(cmds, before, after)
                 if argv[0] == kind and old != new]
        if not pairs:
            continue
        sides = []
        for name, results in (("rev", [p[0] for p in pairs]), ("tree", [p[1] for p in pairs])):
            moves = letters = 0
            exits: dict[str, int] = {}
            replay_ok: dict[str, int] = {}
            for code, out, _ in results:
                exits[str(code)] = exits.get(str(code), 0) + 1
                if code not in (0, 1) or not out:
                    continue
                data = json.loads(out)
                moves += len(data["moves"])
                letters += sum(map(len, data.get("images", []) + data.get("inverse_images", [])))
                if "replay_ok" in data:
                    key = str(data["replay_ok"]).lower()
                    replay_ok[key] = replay_ok.get(key, 0) + 1
            sides.append(f"{name}: {moves} moves, {letters} image letters, "
                         f"exits {json.dumps(exits)}, replay_ok {json.dumps(replay_ok)}")
        lines.append(f"{kind}, {len(pairs)} differ; " + "; ".join(sides))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--seed", type=int, default=20261019)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tables, tempfile.TemporaryDirectory() as tmp:
        cmds = corpus(args.seed, Path(tables))
        export(args.rev, Path(tmp))
        before = run_tree(Path(tmp), cmds)
        after = run_tree(ROOT, cmds)
    differ = 0
    for argv, old, new in zip(cmds, before, after):
        if old != new:
            differ += 1
            fields = [name for name, a, b in zip(("exit", "stdout", "stderr"), old, new) if a != b]
            print(json.dumps({"argv": argv, "differ": fields, "rev": old, "tree": new}))
    for line in move_summary(cmds, before, after):
        print(line)
    print(f"{len(cmds)} commands, {differ} differ ({args.rev} against the working tree)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
