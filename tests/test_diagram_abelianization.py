"""The abelianization read off a brick diagram's column runs.

invariants.diagram_abelianization counts the maximal runs of joined
adjacent columns and builds no linking graph. It must equal the
presentation-level reading, abelianization(presentation_of(build_graph(d))),
in both sign conventions, and Z^c with c the networkx component count of
the bricks joined by conftest.linked_oracle, on seeded and generated
words of 2-9 strands and 0-60 letters.
"""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
from hypothesis import given, settings, strategies as st

from braidforge.bricks import Brick, build_bricks
from braidforge.invariants import abelianization, diagram_abelianization
from braidforge.linking import SIGN_CONVENTIONS, build_graph
from braidforge.presentations import presentation_of
from braidforge.words import BraidWord

from conftest import brick_pairs_oracle, linked_oracle

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)

words = st.integers(2, 9).flatmap(
    lambda n: st.lists(st.integers(1, n - 1), max_size=60).map(
        lambda letters: BraidWord(n, tuple(letters))
    )
)


def nx_components(w: BraidWord) -> int:
    bricks = [Brick(b, *span) for b, span in enumerate(brick_pairs_oracle(w), start=1)]
    graph = nx.Graph()
    graph.add_nodes_from(b.id for b in bricks)
    graph.add_edges_from((a.id, b.id) for a, b in combinations(bricks, 2) if linked_oracle(w, a, b))
    return nx.number_connected_components(graph)


def check(w: BraidWord) -> None:
    d = build_bricks(w)
    got = diagram_abelianization(d)
    for convention in SIGN_CONVENTIONS:
        assert got == abelianization(presentation_of(build_graph(d, convention))), w
    c = nx_components(w)
    assert got.invariant_factors == (1,) * (d.n_bricks - c) + (0,) * c, w


def test_diagram_abelianization_on_seeded_words():
    rng = random.Random(4242)
    ranks = set()
    for _ in range(600):
        n = rng.randint(2, 9)
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 60))))
        check(w)
        ranks.add(diagram_abelianization(build_bricks(w)).rank)
    assert {0, 1, 2, 3} <= ranks  # empty, connected and split diagrams all occur


@SETTINGS
@given(words)
def test_diagram_abelianization_on_generated_words(w):
    check(w)


def test_adjacent_columns_join_at_four_runs():
    # 1 2 1 2 has four alternating runs, the least that links the columns
    assert diagram_abelianization(build_bricks(BraidWord(3, (1, 2, 1, 2)))).rank == 1
    assert diagram_abelianization(build_bricks(BraidWord(3, (1, 1, 2, 2)))).rank == 2
    assert diagram_abelianization(build_bricks(BraidWord(3, (1, 2, 2, 1)))).rank == 2
    assert diagram_abelianization(build_bricks(BraidWord(3, (2, 1, 2, 1, 1)))).rank == 1
