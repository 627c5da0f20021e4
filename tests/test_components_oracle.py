"""networkx oracles for the one components routine, linking.components.

Both of its readers are checked against an independent library: the
forest test (graphs_isomorphic_as_trees groups its trees by the labels)
against networkx.is_isomorphic on seeded forests, and the column lattice
against networkx.connected_components of the graph with one edge per
nonzero relator column, summed here from the spelled relator words, on
presentations whose cycles are given as words: hand-built with
Presentation(n, relators), from shuffled relators and from a pair table
(conftest.table_presentation), and shifted with
shifted_cycle_presentation.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import networkx as nx

from braidforge.bricks import build_bricks
from braidforge.invariants import ColumnLattice, abelianization
from braidforge.linking import build_graph, components, graphs_isomorphic_as_trees
from braidforge.presentations import (
    Presentation,
    Relator,
    braid_relator,
    comm_relator,
    cycle_relator,
    presentation_of,
    shifted_cycle_presentation,
)
from braidforge.words import BraidWord

from conftest import table_presentation


def forest_word(rng: random.Random) -> BraidWord:
    """A word with no regions on 2-6 strands and 0-30 letters: each letter
    is drawn among those that keep the graph a forest."""
    n = rng.randint(2, 6)
    letters: list[int] = []
    for _ in range(rng.randint(0, 30)):
        choices = list(range(1, n))
        rng.shuffle(choices)
        for x in choices:
            if not build_graph(build_bricks(BraidWord(n, (*letters, x)))).raw_regions:
                letters.append(x)
                break
    return BraidWord(n, tuple(letters))


def nx_graph(g) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(1, g.diagram.n_bricks + 1))
    out.add_edges_from((a, b) for a, b, _, _ in g.raw_edges)
    return out


def size(g) -> tuple[int, int]:
    return g.diagram.n_bricks, len(g.raw_edges)


def test_forest_isomorphism_matches_networkx():
    rng = random.Random(31)
    graphs = [build_graph(build_bricks(forest_word(rng))) for _ in range(160)]
    by_size: dict[tuple[int, int], list] = {}
    for g in graphs:
        by_size.setdefault(size(g), []).append(g)
    pairs = [pair for group in by_size.values() for pair in combinations(group, 2)]
    pairs += [tuple(rng.sample(graphs, 2)) for _ in range(200)]
    verdicts = Counter()
    for g1, g2 in pairs:
        want = nx.is_isomorphic(nx_graph(g1), nx_graph(g2))
        assert graphs_isomorphic_as_trees(g1, g2) == want, (g1.diagram.word, g2.diagram.word)
        # equal vertex and edge counts: a negative must tell tree shapes apart
        verdicts[want, size(g1) == size(g2)] += 1
    assert verdicts[True, True] >= 50 and verdicts[False, True] >= 50, verdicts
    assert max(g.diagram.n_bricks - len(g.raw_edges) for g in graphs) >= 3  # many trees


def expected_labels(p: Presentation) -> list[int]:
    """Component labels, numbered by least generator, of the graph with one
    edge per nonzero column of the spelled relator words."""
    graph = nx.Graph()
    graph.add_nodes_from(range(p.n_generators))
    for r in p.relators:
        column = Counter()
        for x in r.word:
            column[abs(x) - 1] += 1 if x > 0 else -1
        nonzero = sorted((e, g) for g, e in column.items() if e)
        if nonzero:
            assert [e for e, _ in nonzero] == [-1, 1], r
            graph.add_edge(nonzero[0][1], nonzero[1][1])
    label = [0] * p.n_generators
    for c, members in enumerate(sorted(nx.connected_components(graph), key=min)):
        for g in members:
            label[g] = c
    return label


def word_cycle(rng: random.Random, k: int) -> Relator:
    """A cycle relator given as a word whose column is zero or e_a - e_b:
    commutator-like letters and their inverses shuffled, plus one a and one
    b^-1 about half of the time."""
    letters = rng.choices(range(1, k + 1), k=rng.randint(1, 4))
    word = letters + [-g for g in letters]
    if rng.random() < 0.5 and k >= 2:
        a, b = rng.sample(range(1, k + 1), 2)
        word += [a, -b]
    rng.shuffle(word)
    return Relator(tuple(word), (), ("word",))


def hand_built(rng: random.Random) -> list[Presentation]:
    k = rng.randint(1, 9)
    pairs = list(combinations(range(1, k + 1), 2))
    braid = rng.sample(pairs, rng.randint(0, min(len(pairs), 4)))
    comm = rng.sample(pairs, rng.randint(0, min(len(pairs), 4)))
    cycles = [cycle_relator(tuple(rng.sample(range(1, k + 1), rng.randint(3, k))))
              for _ in range(rng.randint(0, 2)) if k >= 3]
    cycles += [word_cycle(rng, k) for _ in range(rng.randint(0, 3))]
    relators = [braid_relator(*pair) for pair in braid] + [comm_relator(*pair) for pair in comm]
    relators += cycles
    rng.shuffle(relators)
    return [
        Presentation(k, tuple(relators)),
        table_presentation(k, braid, tuple(cycles)),
    ]


def test_column_lattice_partition_matches_networkx():
    rng = random.Random(47)
    cases = [p for _ in range(150) for p in hand_built(rng)]
    for _ in range(80):
        n = rng.randint(3, 5)
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(6, 24))))
        base = presentation_of(build_graph(build_bricks(w)))
        for index, words in enumerate(base.cycle_words[:2]):
            cases += [shifted_cycle_presentation(base, index, s) for s in (1, len(words) // 4)]
        hand = table_presentation(base.n_generators, base.braid_pairs, base.cycles)
        if hand.cycles:
            cases.append(shifted_cycle_presentation(hand, len(hand.cycles) - 1, 1))
    assert sum(p.region_cycles is None for p in cases) == len(cases) > 400
    linked = 0
    for p in cases:
        lattice = ColumnLattice(p)
        assert lattice.component == expected_labels(p), p
        assert lattice.n_components == len(set(lattice.component)) == abelianization(p).rank
        linked += lattice.n_components < p.n_generators
    assert linked > len(cases) // 2


def test_components_numbers_by_least_vertex():
    assert components(0, []) == ([], 0)
    assert components(6, [(4, 1), (5, 3), (1, 1), (3, 5)]) == ([0, 1, 2, 3, 1, 3], 4)
    # a path longer than the recursion limit
    assert components(5000, [(v + 1, v) for v in range(4999)]) == ([0] * 5000, 1)
