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
and from the face tracer.
"""

import json
import math

from hypothesis import given, settings, strategies as st

from braidforge.bricks import Brick, BrickDiagram, build_bricks
from braidforge.linking import (
    SIGN_CONVENTIONS,
    EdgeKind,
    LinkEdge,
    Region,
    Side,
    _graph,
    build_graph,
)
from braidforge.presentations import (
    Presentation,
    braid_relator,
    comm_relator,
    cycle_relator,
    presentation_of,
)
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


def reference_presentation(n: int, edges, regions) -> Presentation:
    """Braid relator per edge, commutation per other pair, cycle per region,
    read by the relator constructor."""
    linked = {(e.a, e.b) for e in edges}
    pairs = ((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    relators = tuple(
        braid_relator(i, j) if (i, j) in linked else comm_relator(i, j) for i, j in pairs
    )
    return Presentation(n, relators + tuple(cycle_relator(r.vertices) for r in regions))


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
        assert presentation_of(g) == reference_presentation(d.n_bricks, edges, regions)


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


def eager_signature(bricks, edges, regions) -> tuple:
    """combinatorial_signature read off reference bricks, edges and regions."""
    ranks: dict[int, int] = {}
    verts = []
    for b in bricks:
        ranks[b.column] = ranks.get(b.column, 0) + 1
        verts.append((b.id, b.column, ranks[b.column]))
    edges = tuple((e.a, e.b, e.kind.value, e.side.value if e.side else None) for e in edges)
    regions = tuple((r.vertices, r.sign, r.anchor_column, r.side.value) for r in regions)
    return (tuple(verts), edges, regions)


def eager_json(w: BraidWord, convention, bricks, edges, regions, positions) -> dict:
    """The graph's JSON document, read off reference lists."""
    return {
        "word": {"strands": w.strands, "letters": list(w.letters)},
        "sign_convention": convention,
        "vertices": [
            {"id": b.id, "column": b.column, "lo": b.lo, "hi": b.hi,
             "x": positions[b.id][0], "y": positions[b.id][1]}
            for b in bricks
        ],
        "edges": [
            {"a": e.a, "b": e.b, "kind": e.kind.value, "side": e.side.value if e.side else None}
            for e in edges
        ],
        "regions": [
            {"vertices": list(r.vertices), "sign": r.sign, "anchor_column": r.anchor_column,
             "side": r.side.value}
            for r in regions
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
        assert g.raw_edges == tuple((e.a, e.b, e.kind, e.side) for e in edges)
        assert g.raw_regions == tuple(
            (r.vertices, r.sign, r.anchor_column, r.side) for r in regions
        )
        assert g.edges == edges
        assert g.regions == regions
        assert g.positions == positions
        assert signature == eager_signature(bricks, edges, regions)
        assert document == eager_json(w, convention, bricks, edges, regions, positions)
