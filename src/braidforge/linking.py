"""Signed plane linking graphs of brick diagrams.

Vertices are bricks, placed at (column, interval midpoint). Two bricks
are linked either vertically (same column, shared middle crossing) or
laterally (adjacent columns, strictly alternating boundary crossings);
nested or disjoint intervals carry no edge. The straight-line embedding
at these positions is plane, and its bounded faces are the regions.

Every bounded region is bounded by vertical edges of one common column
(the anchor) and exactly two lateral edges reaching into the same
neighbouring column; that neighbouring side fixes the region's reading
direction and, through a configurable convention, its sign. With the
default ``left-positive`` convention a region whose lateral edges point
right of the anchor column is negative (drawn shaded) and its vertex
cycle is recorded clockwise; left-side regions are positive and
counterclockwise. ``right-positive`` flips the sign labels only; the
recorded cycles, and hence all derived relators, do not depend on the
convention. Cycles start at their smallest brick id. Each process keeps
the CACHE_SIZE most recent graphs, keyed on the brick diagram and the
convention; a cached graph is immutable (read-only positions).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .bricks import BrickDiagram
from .errors import LinkingStructureError, NotAForestError

SIGN_CONVENTIONS = ("left-positive", "right-positive")
DEFAULT_SIGN_CONVENTION = "left-positive"
# Entries of each per-process analysis cache: linking graphs here, hom sets in invariants.
CACHE_SIZE = 64


class EdgeKind(Enum):
    VERTICAL = "vertical"
    LATERAL = "lateral"


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class LinkEdge:
    """Edge between bricks a < b.

    For lateral edges, ``side`` records where the upper brick sits
    relative to the lower one (their heights never tie). Note this is a
    property of the single edge; the side of a *region* is taken
    relative to its anchor column.
    """

    a: int
    b: int
    kind: EdgeKind
    side: Side | None = None


@dataclass(frozen=True)
class Region:
    """A bounded face: vertex cycle, sign, and the column of its vertical edges."""

    vertices: tuple[int, ...]
    sign: int
    anchor_column: int
    side: Side

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class LinkingGraph:
    diagram: BrickDiagram
    edges: tuple[LinkEdge, ...]
    positions: Mapping[int, tuple[float, float]]
    regions: tuple[Region, ...]
    sign_convention: str = DEFAULT_SIGN_CONVENTION

    def neighbors(self, brick_id: int) -> list[int]:
        out = [e.b for e in self.edges if e.a == brick_id]
        out += [e.a for e in self.edges if e.b == brick_id]
        return sorted(out)

    def edge_between(self, a: int, b: int) -> LinkEdge | None:
        a, b = min(a, b), max(a, b)
        for e in self.edges:
            if (e.a, e.b) == (a, b):
                return e
        return None

    def combinatorial_signature(self) -> tuple:
        """Labeled structure (ids, columns, edges, signed regions), footprint-free.

        Far commutativity and Markov moves leave this unchanged even though
        brick footprints shift.
        """
        verts = tuple(
            (b.id,) + self.diagram.column_rank(b.id) for b in self.diagram.bricks
        )
        edges = tuple(
            (e.a, e.b, e.kind.value, e.side.value if e.side else None)
            for e in self.edges
        )
        regions = tuple(
            (r.vertices, r.sign, r.anchor_column, r.side.value) for r in self.regions
        )
        return (verts, edges, regions)

    def to_json(self) -> str:
        return json.dumps(
            {
                "word": {
                    "strands": self.diagram.word.strands,
                    "letters": list(self.diagram.word.letters),
                },
                "sign_convention": self.sign_convention,
                "vertices": [
                    {
                        "id": b.id,
                        "column": b.column,
                        "lo": b.lo,
                        "hi": b.hi,
                        "x": self.positions[b.id][0],
                        "y": self.positions[b.id][1],
                    }
                    for b in self.diagram.bricks
                ],
                "edges": [
                    {
                        "a": e.a,
                        "b": e.b,
                        "kind": e.kind.value,
                        "side": e.side.value if e.side else None,
                    }
                    for e in self.edges
                ],
                "regions": [
                    {
                        "vertices": list(r.vertices),
                        "sign": r.sign,
                        "anchor_column": r.anchor_column,
                        "side": r.side.value,
                    }
                    for r in self.regions
                ],
            }
        )


def _intervals_alternate(p: int, q: int, r: int, s: int) -> bool:
    """Strict interleaving of [p,q] and [r,s] (endpoints all distinct)."""
    return (p < r < q < s) or (r < p < s < q)


def _build_edges(d: BrickDiagram) -> tuple[LinkEdge, ...]:
    edges = []
    bricks = d.bricks
    for i, b in enumerate(bricks):
        for c in bricks[i + 1 :]:
            if b.column == c.column:
                if b.hi == c.lo or c.hi == b.lo:
                    edges.append(LinkEdge(b.id, c.id, EdgeKind.VERTICAL))
            elif abs(b.column - c.column) == 1:
                if _intervals_alternate(b.lo, b.hi, c.lo, c.hi):
                    lower, upper = (b, c) if b.midpoint < c.midpoint else (c, b)
                    side = Side.RIGHT if upper.column == lower.column + 1 else Side.LEFT
                    edges.append(LinkEdge(b.id, c.id, EdgeKind.LATERAL, side))
    return tuple(edges)


def _trace_faces(
    positions: Mapping[int, tuple[float, float]], edges: tuple[LinkEdge, ...]
) -> list[tuple[list[int], float]]:
    """All face walks of the straight-line embedding with signed areas.

    Uses the rotation system (darts sorted counterclockwise at each
    vertex); the successor of dart (u, v) is the dart before (v, u) in
    the rotation at v, which walks each face with its interior on the
    left. Bounded faces come out with positive area; bridges are walked
    twice and contribute zero.
    """
    rot: dict[int, list[tuple[int, int]]] = {}
    for e in edges:
        rot.setdefault(e.a, []).append((e.a, e.b))
        rot.setdefault(e.b, []).append((e.b, e.a))
    for v, darts in rot.items():
        x0, y0 = positions[v]
        darts.sort(key=lambda d: math.atan2(positions[d[1]][1] - y0, positions[d[1]][0] - x0))
    index = {
        (v, d): i for v, darts in rot.items() for i, d in enumerate(darts)
    }

    def successor(dart: tuple[int, int]) -> tuple[int, int]:
        u, v = dart
        darts = rot[v]
        i = index[(v, (v, u))]
        return darts[(i - 1) % len(darts)]

    faces = []
    seen: set[tuple[int, int]] = set()
    for v in sorted(rot):
        for start in rot[v]:
            if start in seen:
                continue
            walk = []
            area2 = 0.0
            dart = start
            while True:
                seen.add(dart)
                walk.append(dart[0])
                (x1, y1), (x2, y2) = positions[dart[0]], positions[dart[1]]
                area2 += x1 * y2 - x2 * y1
                dart = successor(dart)
                if dart == start:
                    break
            faces.append((walk, area2 / 2.0))
    return faces


def _connected_components(n_vertices: int, edges: tuple[LinkEdge, ...]) -> int:
    parent = list(range(n_vertices + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        ra, rb = find(e.a), find(e.b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(1, n_vertices + 1)})


def build_graph(
    d: BrickDiagram, sign_convention: str = DEFAULT_SIGN_CONVENTION
) -> LinkingGraph:
    """Edges, plane positions and signed bounded regions of a brick diagram.

    The graph is shared with every caller passing an equal diagram and
    convention while it is among the CACHE_SIZE most recent; it is
    immutable, positions being a read-only mapping.
    """
    if sign_convention not in SIGN_CONVENTIONS:
        raise ValueError(f"unknown sign convention {sign_convention!r}")
    return _graph(d, sign_convention)


@lru_cache(maxsize=CACHE_SIZE)
def _graph(d: BrickDiagram, sign_convention: str) -> LinkingGraph:
    positions = MappingProxyType({b.id: (float(b.column), b.midpoint) for b in d.bricks})
    edges = _build_edges(d)
    regions = _extract_regions(d, positions, edges, sign_convention)
    return LinkingGraph(d, edges, positions, tuple(regions), sign_convention)


def _extract_regions(
    d: BrickDiagram,
    positions: Mapping[int, tuple[float, float]],
    edges: tuple[LinkEdge, ...],
    sign_convention: str,
) -> list[Region]:
    edge_lookup = {(e.a, e.b): e for e in edges}
    edge_lookup.update({(e.b, e.a): e for e in edges})
    regions = []
    for walk, area in _trace_faces(positions, edges):
        if area <= 1e-9:
            continue
        if len(set(walk)) != len(walk):
            raise LinkingStructureError(
                f"bounded face walk revisits a vertex: {walk}"
            )
        boundary = [
            edge_lookup[(walk[i], walk[(i + 1) % len(walk)])] for i in range(len(walk))
        ]
        verticals = [e for e in boundary if e.kind is EdgeKind.VERTICAL]
        laterals = [e for e in boundary if e.kind is EdgeKind.LATERAL]
        if not verticals or len(laterals) != 2:
            raise LinkingStructureError(
                f"face {walk} has {len(verticals)} vertical and "
                f"{len(laterals)} lateral edges"
            )
        anchor_cols = {d.brick(e.a).column for e in verticals}
        if len(anchor_cols) != 1:
            raise LinkingStructureError(
                f"face {walk} has vertical edges in columns {sorted(anchor_cols)}"
            )
        anchor = anchor_cols.pop()
        off_cols = set()
        for e in laterals:
            cols = {d.brick(e.a).column, d.brick(e.b).column}
            if anchor not in cols:
                raise LinkingStructureError(
                    f"face {walk}: lateral edge {e.a}-{e.b} misses anchor column"
                )
            off_cols.update(cols - {anchor})
        if len(off_cols) != 1:
            raise LinkingStructureError(
                f"face {walk}: lateral edges straddle columns {sorted(off_cols)}"
            )
        side = Side.RIGHT if off_cols.pop() == anchor + 1 else Side.LEFT

        # Traversal is counterclockwise; right-side regions read clockwise.
        cycle = list(walk)
        if side is Side.RIGHT:
            cycle = [cycle[0]] + cycle[1:][::-1]
        start = cycle.index(min(cycle))
        cycle = cycle[start:] + cycle[:start]

        plus_side = Side.LEFT if sign_convention == "left-positive" else Side.RIGHT
        sign = 1 if side is plus_side else -1
        regions.append(Region(tuple(cycle), sign, anchor, side))
    regions.sort(key=lambda r: r.vertices)
    return regions


def is_forest(g: LinkingGraph) -> bool:
    n = len(g.diagram.bricks)
    return len(g.edges) == n - _connected_components(n, g.edges)


def _canonical_rooted(adj: dict[int, set[int]], root: int, parent: int) -> str:
    subs = sorted(
        _canonical_rooted(adj, c, root) for c in adj[root] if c != parent
    )
    return "(" + "".join(subs) + ")"


def _tree_center(adj: dict[int, set[int]], nodes: list[int]) -> list[int]:
    # Peel leaves until one or two nodes remain.
    degree = {v: len(adj[v]) for v in nodes}
    layer = [v for v in nodes if degree[v] <= 1]
    remaining = len(nodes)
    while remaining > 2:
        nxt = []
        for v in layer:
            remaining -= 1
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt
    return layer


def _forest_signature(g: LinkingGraph) -> tuple[str, ...]:
    adj: dict[int, set[int]] = {b.id: set() for b in g.diagram.bricks}
    for e in g.edges:
        adj[e.a].add(e.b)
        adj[e.b].add(e.a)
    seen: set[int] = set()
    comps = []
    for v in sorted(adj):
        if v in seen:
            continue
        stack, nodes = [v], []
        seen.add(v)
        while stack:
            u = stack.pop()
            nodes.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        centers = _tree_center(adj, nodes)
        comps.append(min(_canonical_rooted(adj, c, -1) for c in centers))
    return tuple(sorted(comps))


def graphs_isomorphic_as_trees(g1: LinkingGraph, g2: LinkingGraph) -> bool:
    """Abstract isomorphism of two forests via canonical rooted encodings."""
    for g in (g1, g2):
        if not is_forest(g):
            raise NotAForestError("input linking graph contains a cycle")
    return _forest_signature(g1) == _forest_signature(g2)


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
