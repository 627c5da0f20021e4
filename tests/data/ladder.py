"""Length ladder: `present` and `invariants` on ever longer words, one
fresh process per run.

Run from anywhere in the repository:

    python tests/data/ladder.py [--rev REV] [--repeat N] [--out FILE]

The words are 4-strand, of 300, 600 and 1,200 letters, each drawn from
its own ``random.Random(3)`` as ``randint(1, 3)`` per letter. Every run
is a fresh child interpreter, started from this small process, that
calls the CLI's ``main`` on one argv with stdout going nowhere but into
a SHA-256 and a byte count. For each run the record holds the wall
seconds from start to exit (interpreter start and imports included),
the child's peak RSS, its exit code, the stdout bytes and their SHA-256.
With ``--rev``, REV is exported with ``git archive`` and each rung runs
on it and on the working tree, in alternating order. The records, with
the command, lengths and seed, go to FILE (default ``BENCH_ladder.json``
at the root); one line per run goes to stdout.

Peak RSS is the child's own ``ru_maxrss``. Linux carries a process's
resident size across fork and exec into that figure, so the children
must be started from a parent that stays small: this one never holds an
output, only its digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEED, STRANDS, LENGTHS, COMMANDS = 3, 4, (300, 600, 1200), ("present", "invariants")
ADDRESS_SPACE = 2048 << 20

# Runs in each child: the CLI on argv sys.argv[3:], its stdout hashed and
# dropped, then one JSON record on the real stdout.
CHILD = """
import hashlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
sys.path.insert(0, sys.argv[2])
from braidforge.cli import main

class Digest(io.RawIOBase):
    def __init__(self):
        self.sha, self.size = hashlib.sha256(), 0
    def writable(self):
        return True
    def write(self, b):
        self.sha.update(b)
        self.size += len(b)
        return len(b)

digest, real = Digest(), sys.stdout
sys.stdout = io.TextIOWrapper(io.BufferedWriter(digest), encoding="utf-8")
code = main(sys.argv[3:])
sys.stdout.flush()
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
json.dump({"exit": code, "peak_rss_mib": round(peak / 1024, 1),
           "stdout_bytes": digest.size, "sha256": digest.sha.hexdigest()}, real)
"""


def export(rev: str, into: Path) -> None:
    """REV's tree, from ``git archive``, into a directory. (differential.py
    has the same, but importing it would import braidforge here.)"""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def word(letters: int) -> str:
    rng = random.Random(SEED)
    return " ".join(str(rng.randint(1, STRANDS - 1)) for _ in range(letters))


def run(tree: Path, command: str, letters: int) -> dict:
    """One fresh child on tree's src: the record of `command word(letters)`."""
    argv = [command, word(letters), "--strands", str(STRANDS)]
    env = {k: v for k, v in os.environ.items() if k != "BRAIDFORGE_CONFIG"}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ADDRESS_SPACE), str(tree / "src"), *argv],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    seconds = time.perf_counter() - start
    record = {"command": command, "letters": letters, "seconds": round(seconds, 2)}
    if done.returncode:  # killed, or out of address space
        lines = done.stderr.strip().splitlines() or [""]
        return {**record, "exit": done.returncode, "error": lines[-1]}
    return {**record, **json.loads(done.stdout)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="git revision to run beside the working tree")
    parser.add_argument("--repeat", type=int, default=1, help="runs per rung and tree")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_ladder.json")
    args = parser.parse_args()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = [("working tree", ROOT)]
        if args.rev:
            export(args.rev, Path(tmp))
            trees.append((args.rev, Path(tmp)))
        for letters in LENGTHS:
            for command in COMMANDS:
                for r in range(args.repeat):
                    for name, tree in trees[r % 2 :] + trees[: r % 2]:
                        record = {"tree": name, **run(tree, command, letters)}
                        print(json.dumps(record), flush=True)
                        runs.append(record)
    cmd = "python tests/data/ladder.py" + "".join(
        f" {flag} {value}" for flag, value in (("--rev", args.rev), ("--repeat", args.repeat))
        if value not in (None, 1)
    )
    args.out.write_text(json.dumps({
        "command": cmd, "seed": SEED, "strands": STRANDS, "lengths": list(LENGTHS),
        "word": f"random.Random({SEED}).randint(1, {STRANDS - 1}) per letter",
        "python": platform.python_version(), "cpus": os.cpu_count(), "runs": runs,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
