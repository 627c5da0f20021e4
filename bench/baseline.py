"""Regenerate the ROADMAP Baseline table, one row per subprocess.

    python3 bench/run.py --baseline [--limit 300]

Opt-in and ungated: it is not part of the per-workload runs and checks
no bound. Each row runs in its own fresh interpreter under a time limit;
a row that hits it reads "did not finish in N s". Library rows use
seeded random words of the shape the Baseline table names, so the
member counts of the summit rows are reported as found.
"""

from __future__ import annotations

import json
import os
import platform
import random
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]

# (row id, label); rows with a pytest command are timed from outside.
ROWS = (
    ("tier1", "Tier-1 suite"),
    ("suite5", "`test_criterion_5_and_6_invariance_suite` (of that)"),
    ("abel50", "`abelianization`, random 4-strand word, 50 letters"),
    ("abel200", "`abelianization`, random 4-strand word, 200 letters"),
    ("nf1000", "`normal_form`, 10 strands, 1000 letters"),
    ("summit5", "`summit` (super summit set), random 5-strand word, 12 letters"),
    ("summit6", "`summit` (super summit set), random 6-strand word, 10 letters"),
    ("move40", "`move_map` then `check_map`, braid relation at position 8 of a 40-letter word"),
    ("move80", "Same pair of calls on an 80-letter word"),
)
PYTEST_ROWS = {
    "tier1": PYTEST,
    "suite5": PYTEST + ["tests/test_acceptance.py::test_criterion_5_and_6_invariance_suite"],
}


def seeded_word(row: str, strands: int, length: int):
    from braidforge.words import BraidWord

    rng = random.Random(f"baseline:{row}")
    return BraidWord(strands, tuple(rng.randint(1, strands - 1) for _ in range(length)))


def run_row(row: str) -> dict:
    """Time one library row in this process; returns seconds and detail."""
    from braidforge import bricks, finite_groups, garside, invariants, isomaps, linking, presentations
    from braidforge.words import BraidWord, MoveKind, WordMove

    if row in ("abel50", "abel200"):
        w = seeded_word(row, 4, 50 if row == "abel50" else 200)
        p = presentations.presentation_of(linking.build_graph(bricks.build_bricks(w)))
        start = time.perf_counter()
        ab = invariants.abelianization(p)
        return {"seconds": time.perf_counter() - start,
                "detail": f"{p.n_generators} gens, {len(p.relators)} relators, {ab}"}
    if row == "nf1000":
        w = seeded_word(row, 10, 1000)
        start = time.perf_counter()
        nf = garside.normal_form(w)
        return {"seconds": time.perf_counter() - start, "detail": f"canonical length {nf.canonical_length}"}
    if row in ("summit5", "summit6"):
        w = seeded_word(row, 5, 12) if row == "summit5" else seeded_word(row, 6, 10)
        start = time.perf_counter()
        data = garside.summit(garside.normal_form(w))
        return {"seconds": time.perf_counter() - start, "detail": f"{len(data.summit_set)} members"}
    if row in ("move40", "move80"):
        w = seeded_word(row, 4, 40 if row == "move40" else 80)
        w = BraidWord(4, w.letters[:7] + (1, 2, 1) + w.letters[10:])
        targets = finite_groups.builtin_targets()
        start = time.perf_counter()
        phi = isomaps.move_map(w, WordMove(MoveKind.BRAID_REL, 8))
        mid = time.perf_counter()
        report = isomaps.check_map(phi, [targets["S3"], targets["S4"]])
        end = time.perf_counter()
        return {"seconds": end - start,
                "detail": f"move_map {mid - start:.1f} s, check_map {end - mid:.1f} s, "
                          f"skipped {list(report.skipped_targets)}, consistent {report.consistent}"}
    raise ValueError(f"unknown baseline row {row!r}")


def main(limit: float) -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("BRAIDFORGE_CONFIG", None)
    print(f"Baseline, {os.cpu_count()} CPUs, Python {platform.python_version()}, "
          f"limit {limit:.0f} s per row")
    print()
    print("| Workload | Time | Detail |")
    print("|---|---|---|")
    for row, label in ROWS:
        argv = PYTEST_ROWS.get(row, [sys.executable, str(Path(__file__)), row])
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=limit)
        except subprocess.TimeoutExpired:
            print(f"| {label} | did not finish in {limit:.0f} s | |", flush=True)
            continue
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
            print(f"| {label} | failed (exit {proc.returncode}) | {' '.join(tail)} |", flush=True)
            continue
        if row in PYTEST_ROWS:
            summary = re.search(r"\d+ passed[^\n]*", proc.stdout)
            print(f"| {label} | {wall:.1f} s | {summary.group(0) if summary else ''} |", flush=True)
        else:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"| {label} | {out['seconds']:.1f} s | {out['detail']} |", flush=True)
    return 0


if __name__ == "__main__":
    print(json.dumps(run_row(sys.argv[1])))
