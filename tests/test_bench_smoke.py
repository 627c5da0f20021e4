"""Smoke-test the benchmark's Garside and move-invariance workloads and
their answer oracles.

One short timed run of ``bench/run.py --workload W`` per workload in a
subprocess, as bench/README.md shows it: it must exit 0 and report every
answer correct with no failed operation. The invariance oracles recheck
answers the per-process caches give back (bricks, graphs, presentations,
lattices, hom counts). Records go to the git-ignored bench/results/.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_workload(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed), "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_garside_workload_answers_correctly():
    result = run_workload("garside", 2)
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0


def test_invariance_workload_answers_correctly():
    result = run_workload("invariance", 3)
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0
