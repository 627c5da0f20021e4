"""Differential run: the CLI of a git revision against the working tree.

Run from anywhere in the repository, with the revision to compare:

    python tests/data/differential.py REV

REV is exported with ``git archive`` into a temporary directory (local,
no network). The argv are ``cli_corpus.corpus()``, the corpus tier-1
replays; cli_corpus's docstring lists what it covers. Each tree runs the
whole corpus in one child interpreter, in-process through
``cli_corpus.run``, under its own address-space limit, and both run from
the working tree's root, so that they read the same table files. Every
argv whose exit code, stdout or stderr differ is printed, and the exit
code is 1 if any do, 0 otherwise. Before the count, one line per command
kind, ``moveseq`` and ``isocheck``, sums up its commands that differ: on
each side the total moves, image letters, exit codes and ``replay_ok``
values.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
from cli_corpus import corpus  # noqa: E402

ADDRESS_SPACE = 1536 << 20

# Runs in each child: the argv list on stdin, [exit, stdout, stderr] per
# argv on stdout, read by cli_corpus.run from the braidforge on PYTHONPATH.
CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
sys.path.insert(0, sys.argv[2])
from cli_corpus import run
json.dump([run(argv) for argv in json.load(sys.stdin)], sys.stdout)
"""


def run_tree(tree: Path, cmds: list[list[str]]) -> list[list]:
    env = {k: v for k, v in os.environ.items() if k != "BRAIDFORGE_CONFIG"}
    env["PYTHONPATH"] = str(tree / "src")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ADDRESS_SPACE), str(Path(__file__).parent)],
        input=json.dumps(cmds), capture_output=True, text=True, env=env, cwd=ROOT, check=True,
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
    args = parser.parse_args()
    cmds = corpus()
    with tempfile.TemporaryDirectory() as tmp:
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
