import networkx
import pytest
from hypothesis import given, settings, strategies as st

from braidforge.bricks import build_bricks
from braidforge.errors import NotAForestError
from braidforge.linking import (
    EdgeKind,
    Side,
    LinkingGraph,
    build_graph,
    graphs_isomorphic_as_trees,
    is_forest,
)
from braidforge.words import BraidWord, MoveKind, apply_move, enumerate_moves, parse_word

from conftest import linked_oracle, random_word


def graph_of(text, strands=None, convention="left-positive"):
    return build_graph(build_bricks(parse_word(text, strands)), convention)


def test_four_cycle_example():
    g = graph_of("1 2 1 1 2 1")
    kinds = sorted((e.a, e.b, e.kind.value) for e in g.edges)
    assert kinds == [
        (1, 2, "vertical"), (1, 4, "lateral"), (2, 3, "vertical"), (3, 4, "lateral"),
    ]
    assert len(g.regions) == 1
    region = g.regions[0]
    assert region.vertices == (1, 2, 3, 4)
    assert region.anchor_column == 1
    assert region.side is Side.RIGHT
    assert region.sign == -1  # default left-positive convention


def test_sign_convention_flips_label_not_cycle():
    g = graph_of("1 2 1 1 2 1", convention="right-positive")
    assert g.regions[0].sign == 1
    assert g.regions[0].vertices == (1, 2, 3, 4)


def test_tree_example():
    g = graph_of("1 1 2 1 1 2")
    assert sorted((e.a, e.b) for e in g.edges) == [(1, 2), (2, 3), (2, 4)]
    assert g.regions == ()
    # three edges sharing the common vertex 2
    assert sorted(b if a == 2 else a for a, b, _, _ in g.raw_edges if 2 in (a, b)) == [1, 3, 4]


def test_two_points():
    g = graph_of("1 2 2 1")
    assert len(g.diagram.bricks) == 2
    assert g.edges == ()


def test_torus_3_3_regions():
    # Euler: V=4, E=5, connected, so two bounded faces.
    g = graph_of("1 2 1 2 1 2")
    assert len(g.edges) == 5
    assert len(g.regions) == 2
    for r in g.regions:
        assert len(r.vertices) == 3


def test_figure_word_regions():
    g = graph_of("1 3 1 2 1 3 1 3 1 2 3 1 3 2")
    assert len(g.edges) == 14
    assert len(g.regions) == 4


def test_edges_match_brute_force_predicates(rng):
    for _ in range(200):
        w = random_word(rng, max_strands=5, max_len=14)
        g = build_graph(build_bricks(w))
        have = {(e.a, e.b) for e in g.edges}
        bricks = g.diagram.bricks
        for i, b1 in enumerate(bricks):
            for b2 in bricks[i + 1 :]:
                expected = linked_oracle(w, b1, b2)
                assert ((b1.id, b2.id) in have) == expected


def segments_properly_cross(
    p1: tuple[float, float],
    p2: tuple[float, float],
    q1: tuple[float, float],
    q2: tuple[float, float],
) -> bool:
    """Interior intersection test, used to check the embedding is plane."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if abs(v) < 1e-12 else (1 if v > 0 else -1)

    if len({p1, p2} & {q1, q2}) > 0:
        return False
    d1, d2 = orient(p1, p2, q1), orient(p1, p2, q2)
    d3, d4 = orient(q1, q2, p1), orient(q1, q2, p2)
    return d1 * d2 < 0 and d3 * d4 < 0


def embedding_is_plane(g: LinkingGraph) -> bool:
    segs = [(g.positions[e.a], g.positions[e.b]) for e in g.edges]
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if segments_properly_cross(*segs[i], *segs[j]):
                return False
    return True


def test_embedding_is_plane(rng):
    for _ in range(100):
        w = random_word(rng, max_strands=5, max_len=14)
        assert embedding_is_plane(build_graph(build_bricks(w)))


def test_region_structure_claim(rng):
    # >=1 vertical edges with one common column, exactly two laterals into
    # one common neighbouring column.
    for _ in range(300):
        w = random_word(rng, max_strands=4, max_len=14)
        g = build_graph(build_bricks(w))
        kind_of = {(a, b): kind for a, b, kind, _ in g.raw_edges}
        for r in g.regions:
            cycle = r.vertices
            boundary = [
                tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)]))) for i in range(len(cycle))
            ]
            assert all(pair in kind_of for pair in boundary)
            verticals = [pair for pair in boundary if kind_of[pair] is EdgeKind.VERTICAL]
            laterals = [pair for pair in boundary if kind_of[pair] is EdgeKind.LATERAL]
            assert len(laterals) == 2
            assert len(verticals) >= 1
            cols = {g.diagram.brick(a).column for a, _ in verticals}
            assert cols == {r.anchor_column}


def test_euler_count(rng):
    for _ in range(200):
        w = random_word(rng, max_strands=4, max_len=14)
        g = build_graph(build_bricks(w))
        n = len(g.diagram.bricks)
        if n == 0:
            assert g.regions == ()
            continue
        ids = set(range(1, n + 1))
        # component count by DFS
        adj = {i: set() for i in ids}
        for e in g.edges:
            adj[e.a].add(e.b)
            adj[e.b].add(e.a)
        seen = set()
        comps = 0
        for v in ids:
            if v in seen:
                continue
            comps += 1
            stack = [v]
            seen.add(v)
            while stack:
                u = stack.pop()
                for x in adj[u]:
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
        assert len(g.regions) == len(g.edges) - n + comps


def test_neutral_moves_keep_graph(rng):
    for _ in range(150):
        w = random_word(rng)
        g = build_graph(build_bricks(w))
        for m in enumerate_moves(w):
            if m.kind in (MoveKind.FAR_COMM, MoveKind.MARKOV_STAB, MoveKind.MARKOV_DESTAB):
                g2 = build_graph(build_bricks(apply_move(w, m)))
                assert g.combinatorial_signature() == g2.combinatorial_signature()


def test_faces_returns_regions():
    # the bounded faces are the regions: Euler count E - V + C
    g = graph_of("1 2 1 1 2 1")
    assert len(g.regions) == len(g.edges) - len(g.diagram.bricks) + 1


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(1, n - 1), min_size=0, max_size=40)
        )
    )
)
def test_planar_and_euler_against_networkx(case):
    n, letters = case
    g = build_graph(build_bricks(BraidWord(n, tuple(letters))))
    nxg = networkx.Graph()
    nxg.add_nodes_from(b.id for b in g.diagram.bricks)
    nxg.add_edges_from((e.a, e.b) for e in g.edges)
    planar, _ = networkx.check_planarity(nxg)
    assert planar
    components = networkx.number_connected_components(nxg)
    assert len(g.regions) == len(g.edges) - len(g.diagram.bricks) + components
    # networkx rejects the null graph as pointless; it is a forest
    assert is_forest(g) == (not nxg or networkx.is_forest(nxg))


def test_tree_isomorphism_examples():
    g1 = graph_of("1 1 1 1 2 2 2 1 3 2 2 2 3")  # first mutant word
    g2 = graph_of("1 1 1 1 2 2 1 3 2 2 2 3 3")  # second mutant word
    assert is_forest(g1) and is_forest(g2)
    assert graphs_isomorphic_as_trees(g1, g2)

    path3 = graph_of("1 1 1 1")  # path on 3 vertices
    star3 = graph_of("1 2 2 1 2 2")  # D4 star has 4 vertices; build A3 another way
    assert graphs_isomorphic_as_trees(path3, path3)

    path4 = graph_of("1 1 1 1 1")  # path on 4 vertices
    with_cycle = graph_of("1 2 1 1 2 1")
    assert not graphs_isomorphic_as_trees(path4, star3)
    with pytest.raises(NotAForestError):
        graphs_isomorphic_as_trees(path4, with_cycle)


def test_lateral_side_field(rng):
    # side records where the upper brick sits relative to the lower one
    for _ in range(100):
        w = random_word(rng)
        g = build_graph(build_bricks(w))
        for e in g.edges:
            if e.kind is EdgeKind.LATERAL:
                a, b = g.diagram.brick(e.a), g.diagram.brick(e.b)
                lower, upper = (a, b) if a.midpoint < b.midpoint else (b, a)
                expected = Side.RIGHT if upper.column == lower.column + 1 else Side.LEFT
                assert e.side is expected
            else:
                assert e.side is None
