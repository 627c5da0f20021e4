"""Smoke-test the benchmark's Garside workload and its answer oracles.

One short timed run of ``bench/run.py --workload garside`` in a
subprocess, as bench/README.md shows it: it must exit 0 and report every
answer correct with no failed operation. Its records go to the
git-ignored bench/results/.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_garside_workload_answers_correctly():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "garside", "--seed", "2", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0
