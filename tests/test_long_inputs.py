"""Long words and large strand counts: exact answers, no recursion limit,
and work that follows the word rather than the strand count.

The errors.py contract is an exact answer or ResourceCapError; a
RecursionError is neither. The last test keeps every function in the
library free of direct self-calls, so depth never tracks input size.
"""

import ast
import json
import random
import time
from pathlib import Path

import pytest

from braidforge import invariants
from braidforge.bricks import build_bricks
from braidforge.cli import main
from braidforge.finite_groups import builtin_targets
from braidforge.invariants import hom_count
from braidforge.linking import build_graph, graphs_isomorphic_as_trees
from braidforge.presentations import Presentation, presentation_of
from braidforge.words import BraidWord, parse_word

from test_orbit_search_reference import reference_assignments

SRC = Path(__file__).resolve().parent.parent / "src" / "braidforge"
S3 = builtin_targets()["S3"]


def test_hom_search_on_a_long_word_is_exact(capsys):
    w = BraidWord(2, (1,) * 1100)
    p = presentation_of(build_graph(build_bricks(w)))
    assert p.n_generators == 1099
    caps = {"S3": 100_000}
    invariants._memo.cache_clear()
    assert hom_count(p, S3, caps).count == 6
    invariants._memo.cache_clear()  # the command searches again
    code = main(
        ["invariants", " ".join(["1"] * 1100), "--targets", "S3", "--caps.generators", "S3=100000"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["hom_counts"] == {"S3": 6}


def test_hom_search_on_a_graph_presentation_reads_no_pair_table(monkeypatch):
    # every pair off the braid pairs commutes: one running commutant stands
    # for them, so 2,999 generators take k small windows, not k^2 / 2 pairs
    p = presentation_of(build_graph(build_bricks(BraidWord(2, (1,) * 3000))))
    assert p.n_generators == 2999

    def refused(self):
        raise AssertionError("the search read the full pair table")

    monkeypatch.setattr(Presentation, "pair_table", refused)
    invariants._memo.cache_clear()
    start = time.perf_counter()
    assert hom_count(p, S3, {"S3": 10**6}).count == 6
    assert time.perf_counter() - start < 1.0


_rng = random.Random(12)
HUNDRED_LETTERS = [
    BraidWord(n, tuple(_rng.randint(1, n - 1) for _ in range(100))) for n in (3, 4, 3, 4)
]


@pytest.mark.parametrize(
    "word", HUNDRED_LETTERS, ids=[f"{i}-{w.strands}" for i, w in enumerate(HUNDRED_LETTERS)]
)
@pytest.mark.parametrize("name", ["S3", "S4"])
def test_hom_search_with_caps_lifted_follows_the_columns(word, name):
    # generators in brick-id order close each region's cycle relator soon
    # after it opens, so about 100 generators take milliseconds, not seconds
    p = presentation_of(build_graph(build_bricks(word)))
    t = builtin_targets()[name]
    invariants._memo.cache_clear()
    start = time.perf_counter()
    count = hom_count(p, t, {name: 1000}).count
    assert time.perf_counter() - start < 1.0
    assert count == len(list(reference_assignments(p, t)))


def test_forest_signature_of_a_long_path():
    g = build_graph(build_bricks(BraidWord(2, (1,) * 2500)))
    assert len(g.diagram.bricks) == 2499 and len(g.edges) == 2498
    assert graphs_isomorphic_as_trees(g, g)
    star = build_graph(build_bricks(parse_word("1 2 1 3 1")))
    assert not graphs_isomorphic_as_trees(g, star)


@pytest.mark.parametrize("text", ["2000000", "1999999 2000000 1999999"])
def test_cost_follows_the_word_not_the_strand_count(text):
    start = time.perf_counter()
    w = parse_word(text)
    d = build_bricks(w)
    g = build_graph(d)
    p = presentation_of(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert d.n_bricks == len(d.bricks) == p.n_generators
    assert (len(g.edges), len(g.regions)) == (0, 0)
    assert len(d.bricks) == (0 if len(w) == 1 else 1)


def _self_calls(tree: ast.Module) -> list[str]:
    """Functions (module level, nested or methods) that call themselves by name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func  # f(...), or obj.f(...) for a method
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if name == node.name:
                    found.append(f"{node.name} (line {call.lineno})")
    return found


def test_no_function_in_the_library_calls_itself():
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        calls = _self_calls(ast.parse(path.read_text(), filename=str(path)))
        if calls:
            offenders[path.name] = calls
    assert offenders == {}
