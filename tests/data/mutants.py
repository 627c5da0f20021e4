"""Mutation checks: one-edit mutants of src/ that the test suite must kill.

Run from anywhere in the repository, optionally naming mutants:

    python tests/data/mutants.py [NAME ...]

Each mutant replaces one exact text, which must occur once in its file,
in a fresh copy of the working tree in a temporary directory. The test
module named in its entry runs first, then tier-1 with ``-x``; the first
failing run kills the mutant. One line per mutant says killed (and by
what) or survived, with the seconds it took. The exit code is 1 if any
mutant not marked equivalent survives, 0 otherwise. A mutant is never
deleted or weakened to make the run pass: a survivor is killed by a new
test, or marked equivalent with the argument in its ``why``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "results")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/braidforge
    old: str
    new: str
    module: str  # the test module expected to kill it, relative to tests/
    why: str  # why it must die, or why it is equivalent
    equivalent: bool = False


MUTANTS = [
    Mutant(
        "conjR-end-position", "words.py",
        "    if kind is MoveKind.ELEM_CONJ_LEFT:\n        return 1\n",
        "    if kind is MoveKind.ELEM_CONJ_LEFT:\n        return 1\n"
        "    if kind is MoveKind.ELEM_CONJ_RIGHT:\n        return n - 1\n",
        "test_move_rules.py",
        "conjR stands at the last letter, n; at n - 1 it moves a letter that is not last",
    ),
    Mutant(
        "conjL-undone-by-conjL", "words.py",
        "    MoveKind.ELEM_CONJ_LEFT: MoveKind.ELEM_CONJ_RIGHT,\n",
        "    MoveKind.ELEM_CONJ_LEFT: MoveKind.ELEM_CONJ_LEFT,\n",
        "test_move_rules.py",
        "a second conjL rotates the word further instead of back",
    ),
    Mutant(
        "neutral-without-destab", "words.py",
        "NEUTRAL = frozenset({MoveKind.FAR_COMM, MoveKind.MARKOV_STAB, MoveKind.MARKOV_DESTAB})",
        "NEUTRAL = frozenset({MoveKind.FAR_COMM, MoveKind.MARKOV_STAB})",
        "test_move_rules.py",
        "destab drops a letter with no brick, so it keeps every brick in place",
    ),
    Mutant(
        "left-weight-no-step-back", "garside.py",
        "            if i > 1:\n                i -= 1\n",
        "",
        "test_garside_kernels.py",
        "a swap can open a descent one place to the left, which a scan that"
        " never steps back leaves, so the factors are not left-weighted",
    ),
    Mutant(
        "is-inverse-always-true", "isomaps.py",
        "    n = len(F)\n    return all(",
        "    return True\n    return all(",
        "test_check_map_reference.py",
        "a map whose abelian round trip F·B is not the identity must be reported",
    ),
    Mutant(
        "hom-search-values-2^30", "invariants.py",
        "HOM_SEARCH_VALUES = 1 << 20",
        "HOM_SEARCH_VALUES = 1 << 30",
        "test_hom_budget.py",
        "the hom search's budget is part of the contract: a search past 2^20"
        " values is refused with ResourceCapError",
    ),
    Mutant(
        "word-without-lookahead", "words.py",
        r'_WORD = re.compile(r"(?:[\s,]*(?:s|σ)?\d+(?=[\s,]|\Z))*[\s,]*")',
        r'_WORD = re.compile(r"(?:[\s,]*(?:s|σ)?\d+)*[\s,]*")',
        "test_front_end.py",
        "without the lookahead, letters run together: '1s2' is read as 1 2, not refused",
    ),
    Mutant(
        "summit-closure-skips-last-generator", "garside.py",
        "        for i in range(1, n):\n            c = _minimal_simple(u, back, i)",
        "        for i in range(1, n - 1 if n > 3 else n):\n"
        "            c = _minimal_simple(u, back, i)",
        "test_garside_oracles.py",
        "the minimal simple elements above every generator are needed to"
        " connect the super summit set; without sigma_{n-1} members go missing",
    ),
    Mutant(
        "summit-closure-repeats-conjugators", "garside.py",
        "            if c in tried:\n                continue\n",
        "",
        "test_garside_kernels.py",
        "generators often share their minimal simple element, and the closure"
        " conjugates each member once per distinct one, not once per generator",
    ),
    Mutant(
        "column-runs-linked-pair-unjoined", "bricks.py",
        "            i = bisect_right(x, y[0])\n",
        "            i = bisect_right(x, y[0]) + 1\n",
        "test_column_runs.py",
        "columns are joined by the first recurrence of the earlier one inside"
        " the other's span; testing the second leaves 1 2 1 2's columns apart",
    ),
    Mutant(
        "column-runs-label-never-advances", "bricks.py",
        "            if i < len(x) and x[i] < y[-1]:\n",
        "            if runs:\n",
        "test_column_runs.py",
        "a column not joined to the one before starts a new run; without it"
        " every brick lands in one component",
    ),
    Mutant(
        "column-runs-inclusive-span", "bricks.py",
        "            if i < len(x) and x[i] < y[-1]:\n",
        "            if i < len(x) and x[i] <= y[-1]:\n",
        "test_column_runs.py",
        "equivalent: x and y are the positions of two different letters, so"
        " x[i] == y[-1] never holds and < and <= decide alike",
        equivalent=True,
    ),
    Mutant(
        "summit-log-form-reached", "garside.py",
        "                log += [(op, f) for f in trail]\n",
        "                log += [(op, f) for f in trail[1:] + [cur]]\n",
        "test_garside_oracles.py",
        "each logged step holds the form it is taken from; the form it"
        " reaches is the next step's, so realizing from it skips a step",
    ),
    Mutant(
        "hop-rest-full-delta-power", "garside.py",
        "_spelled(u.strands, u.delta_power - 1, u.factors)",
        "_spelled(u.strands, u.delta_power, u.factors)",
        "test_realization.py",
        "a hop by c stages Delta = c c', so the rest holds one half twist"
        " fewer than u; with all of them the staged word is too long",
    ),
    Mutant(
        "emit-trailing-space", "cli.py",
        "    sys.stdout.write(text)\n",
        "    sys.stdout.write(text + \" \")\n",
        "test_cli_golden.py",
        "stdout is a contract byte for byte: one space after the text changes"
        " every command that exits 0",
    ),
    Mutant(
        "cap-error-misspelt", "cli.py",
        'print(f"resource cap exceeded: {exc}", file=sys.stderr)',
        'print(f"resource cap exceedad: {exc}", file=sys.stderr)',
        "test_cli_golden.py",
        "stderr is a contract too: the corpus's capped commands record the"
        " cap error's text",
    ),
    Mutant(
        "up-to-conjugacy-prints-count", "cli.py",
        "{h.target: len(h.reps) for h in found}",
        "{h.target: h.count for h in found}",
        "test_cli_errors.py",
        "the count up to conjugacy is the number of orbit representatives,"
        " fewer than the hom count whenever some orbit has two members",
    ),
    Mutant(
        "hom-count-counts-orbits", "invariants.py",
        'object.__setattr__(self, "count", sum(self.sizes))',
        'object.__setattr__(self, "count", len(self.sizes))',
        "test_invariants.py",
        "the hom count is the orbit sizes summed; counting orbits gives the"
        " count up to conjugacy",
    ),
    Mutant(
        "equal-forms-not-conjugate", "garside.py",
        "    if nfa == nfb:\n        return (nfa, []), (nfb, []), []\n",
        "    if nfa == nfb:\n        return None\n",
        "test_form_path.py",
        "equal normal forms are one braid, conjugate to itself; the one"
        " decision must say so, as are_conjugate and moveseq ask only it",
    ),
    Mutant(
        "half-twist-refusal-without-steps", "garside.py",
        "    if (log_a or log_b or hops) and rep_a.delta_power < 1:",
        "    if rep_a.delta_power < 1:",
        "test_form_path.py",
        "two spellings of one braid take no conjugation step, so they are"
        " joined with or without a half twist; refusing them refuses words"
        " the path of their normal form joins",
    ),
    Mutant(
        "presentation-negative-count", "presentations.py",
        "if type(n_generators) is not int or n_generators < 0:",
        "if type(n_generators) is not int:",
        "test_constructors.py",
        "a negative generator count names no generators: it answered"
        " abelianization 1 and failed later in hom_count",
    ),
]


def pytest_fails(tree: Path, *args: str) -> bool:
    """Whether pytest fails in tree (exit 1, a failing test, or 2, a
    collection error); any other nonzero exit is a broken entry."""
    env = {k: v for k, v in os.environ.items() if k != "BRAIDFORGE_CONFIG"}
    env["PYTHONPATH"] = str(tree / "src")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    code = subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode
    if code not in (0, 1, 2):
        raise SystemExit(f"pytest {' '.join(args)} exited {code} in {tree}")
    return code != 0


def run(m: Mutant) -> str:
    """'killed by ...' or 'survived', on a fresh mutated copy of the tree."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        path = tree / "src" / "braidforge" / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            raise SystemExit(f"{m.name}: the old text occurs {text.count(m.old)} times in {m.file}")
        path.write_text(text.replace(m.old, m.new))
        if pytest_fails(tree, f"tests/{m.module}"):
            return f"killed by {m.module}"
        return "killed by tier-1" if pytest_fails(tree) else "survived"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args()
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    failed = 0
    start = time.perf_counter()
    for m in chosen:
        t = time.perf_counter()
        verdict = run(m)
        note = " (marked equivalent)" if m.equivalent else ""
        print(f"{m.name}: {verdict}{note} in {time.perf_counter() - t:.1f} s", flush=True)
        failed += verdict == "survived" and not m.equivalent
    print(f"{len(chosen)} mutants, {failed} unexpected survivors, {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
