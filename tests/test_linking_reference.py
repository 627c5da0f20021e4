"""The column-pair sweep against the face tracer it replaced.

reference_edges compares every pair of bricks, and reference_regions
traces every face of the straight-line embedding by angle-sorted darts,
keeps those of positive signed area and reads each one's anchor column,
side and cycle off its boundary, as build_graph did before regions were
read off bridging bricks. The two must agree on edges, on regions (order,
cycles, signs, anchors and sides) and on the presentation read off them.
"""

import math

from hypothesis import given, settings, strategies as st

from braidforge.bricks import BrickDiagram, build_bricks
from braidforge.linking import (
    SIGN_CONVENTIONS,
    EdgeKind,
    LinkEdge,
    LinkingGraph,
    Region,
    Side,
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
