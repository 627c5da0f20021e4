"""The column-pair sweep against the face tracer it replaced.

reference_edges compares every pair of bricks, and reference_regions
traces every face of the straight-line embedding by angle-sorted darts,
keeps those of positive signed area and reads each one's anchor column,
side and cycle off its boundary, as build_graph did before regions were
read off bridging bricks. The two must agree on edges, on regions (order,
cycles, signs, anchors and sides) and on the presentation read off them.
The views a diagram and a graph spell from their compact form (bricks,
id ranges, edges, regions, positions, JSON and the combinatorial
signature) must equal those built eagerly from a direct scan of the word
and from the face tracer. A graph built from shuffled views with flipped
signs reads its signature and JSON off what it was given, and its
presentation still lists braid pairs in lex order.
"""

import json
import math

from hypothesis import given, settings, strategies as st

from braidforge.bricks import Brick, BrickDiagram, build_bricks
from braidforge.linking import (
    SIGN_CONVENTIONS,
    EdgeKind,
    LinkEdge,
    LinkingGraph,
    Region,
    Side,
    _graph,
    build_graph,
)
from braidforge.presentations import presentation_of
from braidforge.words import BraidWord

words = st.integers(2, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n - 1), max_size=60))
)


def reference_edges(d: BrickDiagram) -> tuple[LinkEdge, ...]:
    """Vertical: same column, shared crossing. Lateral: adjacent columns, alternating."""
    edges = []
    bricks = d.bricks
    for i, b in enumerate(bricks):
        for c in bricks[i + 1 :]:
            if b.column == c.column:
                if b.hi == c.lo or c.hi == b.lo:
                    edges.append(LinkEdge(b.id, c.id, EdgeKind.VERTICAL))
            elif abs(b.column - c.column) == 1:
                if (b.lo < c.lo < b.hi < c.hi) or (c.lo < b.lo < c.hi < b.hi):
                    lower, upper = (b, c) if b.midpoint < c.midpoint else (c, b)
                    side = Side.RIGHT if upper.column == lower.column + 1 else Side.LEFT
                    edges.append(LinkEdge(b.id, c.id, EdgeKind.LATERAL, side))
    return tuple(edges)


def trace_faces(positions, edges) -> list[tuple[list[int], float]]:
    """All face walks of the straight-line embedding with signed areas.

    The successor of dart (u, v) is the dart before (v, u) in the
    counterclockwise rotation at v, which walks each face with its
    interior on the left: bounded faces come out with positive area.
    """
    rot: dict[int, list[tuple[int, int]]] = {}
    for e in edges:
        rot.setdefault(e.a, []).append((e.a, e.b))
        rot.setdefault(e.b, []).append((e.b, e.a))
    for v, darts in rot.items():
        x0, y0 = positions[v]
        darts.sort(key=lambda d: math.atan2(positions[d[1]][1] - y0, positions[d[1]][0] - x0))
    index = {(v, d): i for v, darts in rot.items() for i, d in enumerate(darts)}
    faces = []
    seen: set[tuple[int, int]] = set()
    for v in sorted(rot):
        for start in rot[v]:
            if start in seen:
                continue
            walk, area2, dart = [], 0.0, start
            while True:
                seen.add(dart)
                walk.append(dart[0])
                (x1, y1), (x2, y2) = positions[dart[0]], positions[dart[1]]
                area2 += x1 * y2 - x2 * y1
                u, w = dart
                dart = rot[w][(index[(w, (w, u))] - 1) % len(rot[w])]
                if dart == start:
                    break
            faces.append((walk, area2 / 2.0))
    return faces


def reference_regions(d: BrickDiagram, edges, sign_convention: str) -> tuple[Region, ...]:
    positions = {b.id: (float(b.column), b.midpoint) for b in d.bricks}
    edge_lookup = {(e.a, e.b): e for e in edges}
    edge_lookup.update({(e.b, e.a): e for e in edges})
    regions = []
    for walk, area in trace_faces(positions, edges):
        if area <= 1e-9:
            continue
        assert len(set(walk)) == len(walk), walk
        boundary = [edge_lookup[(walk[i], walk[(i + 1) % len(walk)])] for i in range(len(walk))]
        verticals = [e for e in boundary if e.kind is EdgeKind.VERTICAL]
        laterals = [e for e in boundary if e.kind is EdgeKind.LATERAL]
        assert verticals and len(laterals) == 2, walk
        anchor_cols = {d.brick(e.a).column for e in verticals}
        assert len(anchor_cols) == 1, walk
        anchor = anchor_cols.pop()
        off_cols = set()
        for e in laterals:
            cols = {d.brick(e.a).column, d.brick(e.b).column}
            assert anchor in cols, walk
            off_cols.update(cols - {anchor})
        assert len(off_cols) == 1, walk
        side = Side.RIGHT if off_cols.pop() == anchor + 1 else Side.LEFT
        # Traversal is counterclockwise; right-side regions read clockwise.
        cycle = list(walk)
        if side is Side.RIGHT:
            cycle = [cycle[0]] + cycle[1:][::-1]
        start = cycle.index(min(cycle))
        cycle = cycle[start:] + cycle[:start]
        plus_side = Side.LEFT if sign_convention == "left-positive" else Side.RIGHT
        regions.append(Region(tuple(cycle), 1 if side is plus_side else -1, anchor, side))
    regions.sort(key=lambda r: r.vertices)
    return tuple(regions)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(words)
def test_sweep_matches_face_tracer(case):
    n, letters = case
    d = build_bricks(BraidWord(n, tuple(letters)))
    edges = reference_edges(d)
    for convention in SIGN_CONVENTIONS:
        g = build_graph(d, convention)
        regions = reference_regions(d, edges, convention)
        assert g.edges == edges
        assert g.regions == regions
        reference = LinkingGraph(d, edges, g.positions, regions, convention)
        assert presentation_of(g) == presentation_of(reference)


wide_words = st.integers(2, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n - 1), max_size=60))
)


def reference_bricks(w: BraidWord) -> tuple[Brick, ...]:
    """Bricks by direct scan, column by column, bottom to top."""
    bricks = []
    for column in range(1, w.strands):
        occ = [p for p, i in enumerate(w.letters, start=1) if i == column]
        for lo, hi in zip(occ, occ[1:]):
            bricks.append(Brick(len(bricks) + 1, column, lo, hi))
    return tuple(bricks)


def eager_signature(g: LinkingGraph) -> tuple:
    """combinatorial_signature read off the graph's views."""
    d = g.diagram
    verts = tuple((b.id,) + d.column_rank(b.id) for b in d.bricks)
    edges = tuple((e.a, e.b, e.kind.value, e.side.value if e.side else None) for e in g.edges)
    regions = tuple((r.vertices, r.sign, r.anchor_column, r.side.value) for r in g.regions)
    return (verts, edges, regions)


def eager_json(g: LinkingGraph) -> dict:
    """The graph's JSON document, read off its views."""
    word = {"strands": g.diagram.word.strands, "letters": list(g.diagram.word.letters)}
    return {
        "word": word,
        "sign_convention": g.sign_convention,
        "vertices": [
            {"id": b.id, "column": b.column, "lo": b.lo, "hi": b.hi,
             "x": g.positions[b.id][0], "y": g.positions[b.id][1]}
            for b in g.diagram.bricks
        ],
        "edges": [
            {"a": e.a, "b": e.b, "kind": e.kind.value, "side": e.side.value if e.side else None}
            for e in g.edges
        ],
        "regions": [
            {"vertices": list(r.vertices), "sign": r.sign, "anchor_column": r.anchor_column,
             "side": r.side.value}
            for r in g.regions
        ],
    }


@settings(derandomize=True, max_examples=300, deadline=None)
@given(wide_words)
def test_views_match_eager_references(case):
    n, letters = case
    w = BraidWord(n, tuple(letters))
    d = build_bricks(w)
    bricks = reference_bricks(w)
    word = {"strands": n, "letters": list(letters)}
    columns: dict[int, list[int]] = {}
    for b in bricks:
        columns.setdefault(b.column, []).append(b.id)
    assert json.loads(d.to_json()) == {
        "word": word,
        "bricks": [{"id": b.id, "column": b.column, "lo": b.lo, "hi": b.hi} for b in bricks],
    }
    assert d.n_bricks == len(bricks)
    assert {c: list(ids) for c, ids in d.column_ids.items()} == columns
    assert d.bricks == bricks
    edges = reference_edges(d)
    positions = {b.id: (float(b.column), b.midpoint) for b in bricks}
    for convention in SIGN_CONVENTIONS:
        # a graph no other caller has read: its signature and JSON come
        # before any view is spelled
        g = _graph.__wrapped__(d, convention)
        signature, document = g.combinatorial_signature(), json.loads(g.to_json())
        regions = reference_regions(d, edges, convention)
        reference = LinkingGraph(d, edges, positions, regions, convention)
        assert g == reference
        assert g.edges == reference.edges
        assert g.regions == reference.regions
        assert g.positions == reference.positions
        assert signature == eager_signature(reference)
        assert document == eager_json(reference)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(wide_words, st.randoms(use_true_random=False))
def test_view_built_graph_keeps_given_order_and_signs(case, rnd):
    n, letters = case
    d = build_bricks(BraidWord(n, tuple(letters)))
    for convention in SIGN_CONVENTIONS:
        g = build_graph(d, convention)
        edges, regions = list(g.edges), list(g.regions)
        rnd.shuffle(edges)
        rnd.shuffle(regions)
        flipped = [Region(r.vertices, -r.sign, r.anchor_column, r.side) for r in regions]
        shuffled = LinkingGraph(d, edges, g.positions, flipped, convention)
        assert shuffled.edges == tuple(edges)
        assert shuffled.regions == tuple(flipped)
        assert shuffled.combinatorial_signature() == eager_signature(shuffled)
        assert json.loads(shuffled.to_json()) == eager_json(shuffled)
        # the presentation lists braid pairs in lex order, whatever the
        # edges' order, and its cycles in the regions' given order
        same_regions = LinkingGraph(d, edges, g.positions, g.regions, convention)
        p = presentation_of(same_regions)
        assert list(p.braid_pairs) == sorted(p.braid_pairs)
        assert p == presentation_of(g)
        assert hash(p) == hash(presentation_of(g))
        assert p.relators == presentation_of(g).relators
