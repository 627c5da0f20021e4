"""The orbit search is bounded by its work, not only by its generator count.

Isolated bricks commute pairwise, so every commuting tuple is a hom and
ten of them into D6 leave the generator cap untouched while the search
grows past any memory. invariants.HOM_SEARCH_VALUES bounds the values
one search tries: past it the target is refused with ResourceCapError,
which the CLI reports as a skipped target, and a memoized result answers
exactly when a fresh search under the same budget would.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from braidforge import invariants
from braidforge.bricks import build_bricks
from braidforge.errors import ResourceCapError
from braidforge.finite_groups import builtin_targets
from braidforge.invariants import enumerate_homs, hom_count
from braidforge.linking import build_graph
from braidforge.presentations import presentation_of
from braidforge.words import parse_word

SRC = Path(__file__).resolve().parent.parent / "src"
TARGETS = builtin_targets()

# the address-space limit tests/data/differential.py gives its children
CHILD = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1200 << 20, 1200 << 20))
from braidforge.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps([code, out.getvalue()]))
"""


def test_ten_isolated_bricks_into_d6_are_skipped_not_out_of_memory():
    word = " ".join(f"{c} {c}" for c in range(1, 20, 2))
    env = {k: v for k, v in os.environ.items() if k != "BRAIDFORGE_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", CHILD, "invariants", word, "--targets", "D6"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    code, out = json.loads(done.stdout)
    payload = json.loads(out)
    assert code == 0
    assert payload["rank"] == 10
    assert payload["hom_counts"] == {} and payload["skipped_targets"] == ["D6"]
    # about 1.3 s on 2 cores; without the budget it ran out of memory after 7.9 s
    assert elapsed < 6.0


def presentation(text):
    return presentation_of(build_graph(build_bricks(parse_word(text))))


def answers(p, t):
    """What each orbit-search reader gives, or None for each refusal."""
    out = []
    for call in (hom_count, enumerate_homs):
        try:
            out.append(call(p, t, {"*": 64}))
        except ResourceCapError:
            out.append(None)
    return out


@pytest.mark.parametrize(
    "text, name",
    [("1 2 1 1 2 1 2", "S3"), ("1 1 3 3 5 5", "D6"), ("1 2 1 2 4 4 6 6", "S4"), ("1 1", "Q8")],
)
def test_memoized_and_fresh_searches_agree_under_every_budget(monkeypatch, text, name):
    p, t = presentation(text), TARGETS[name]
    invariants._memo.cache_clear()
    tried = invariants._assignments(p, t).tried
    want = answers(p, t)
    assert None not in want
    small = range(tried + 2) if tried < 200 else ()
    for budget in (b for b in (*small, tried, tried - 1, tried, tried + 1) if b >= 0):
        # warm: the memo holds the result of a search under the default budget
        monkeypatch.setattr(invariants, "HOM_SEARCH_VALUES", 1 << 20)
        answers(p, t)
        monkeypatch.setattr(invariants, "HOM_SEARCH_VALUES", budget)
        warm = answers(p, t)
        invariants._memo.cache_clear()
        fresh = answers(p, t)
        assert warm == fresh == (want if budget >= tried else [None] * 2), budget
        # a refused search keeps nothing
        assert (t in invariants._memo(p)) == (budget >= tried)
