"""Signed plane linking graphs of brick diagrams.

Vertices are bricks, placed at (column, interval midpoint). Two bricks
are linked either vertically (consecutive bricks of one column, sharing
their middle crossing: consecutive ids of the column's id range
``BrickDiagram.column_ids``) or laterally (adjacent columns, strictly
alternating boundary crossings); nested or disjoint intervals carry no
edge. The straight-line embedding at these positions is plane, and its
bounded faces are the regions.

Lateral edges and regions are read off one adjacent column pair at a
time. A bridging brick of the pair is a brick of either column with at
least one crossing of the other column strictly inside it. Sorted by
their lower crossings, consecutive bridging bricks are exactly the
pair's lateral edges, a zigzag path between the two columns, and there
is one region per three consecutive bridging bricks x, y, z: the
vertical chain from x up to z in x's column (the anchor, ids x..z)
closed through y, its cycle being its ids in increasing order. That is
the anchor chain bottom to top with y first when y lies left of the anchor
(counterclockwise) and last when y lies right (clockwise). The side of
y fixes, through a configurable convention, the region's sign. With the
default ``left-positive`` convention right-side regions are negative
(drawn shaded) and left-side regions positive; ``right-positive`` flips
the sign labels only, so cycles, and hence all derived relators, do not
depend on the convention. Each process keeps the CACHE_SIZE most recent
graphs, keyed on the brick diagram and the convention; a cached graph
is immutable (read-only positions) and carries its presentation once
presentations.presentation_of has built it.
"""

from __future__ import annotations

import json
from bisect import bisect
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .bricks import CACHE_SIZE, Brick, BrickDiagram
from .errors import NotAForestError

SIGN_CONVENTIONS = ("left-positive", "right-positive")
DEFAULT_SIGN_CONVENTION = "left-positive"


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
    # set once by presentations.presentation_of; no part of the graph's value
    _presentation: object = field(default=None, init=False, repr=False, compare=False)

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
        d = self.diagram
        verts = tuple((b.id,) + d.column_rank(b.id) for b in d.bricks)
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


def _bridging(bricks: tuple[Brick, ...], others: list[int]) -> list[Brick]:
    """The bricks with at least one of the sorted positions ``others`` strictly inside."""
    return [b for b in bricks if bisect(others, b.lo) != bisect(others, b.hi)]


def _sweep(
    d: BrickDiagram, sign_convention: str
) -> tuple[tuple[LinkEdge, ...], tuple[Region, ...]]:
    """Edges and regions, read off one adjacent column pair at a time."""
    # only the columns that occur, and only adjacent pairs of them: the
    # cost follows the word, not the strand count
    occ = d.word.occurrences_by_letter()
    vertical = (a for ids in d.column_ids.values() for a in ids[:-1])
    edges = [LinkEdge(a, a + 1, EdgeKind.VERTICAL) for a in vertical]
    plus_side = Side.LEFT if sign_convention == "left-positive" else Side.RIGHT
    regions = []
    for c in occ:
        if c + 1 not in occ:
            continue
        bridging = sorted(
            _bridging(d.by_column(c), occ[c + 1]) + _bridging(d.by_column(c + 1), occ[c]),
            key=lambda b: b.lo,
        )
        for lower, upper in zip(bridging, bridging[1:]):
            side = Side.RIGHT if upper.column > lower.column else Side.LEFT
            a, b = sorted((lower.id, upper.id))
            edges.append(LinkEdge(a, b, EdgeKind.LATERAL, side))
        for x, y, z in zip(bridging, bridging[1:], bridging[2:]):
            side = Side.RIGHT if y.column > x.column else Side.LEFT
            vertices = tuple(sorted([*range(x.id, z.id + 1), y.id]))
            regions.append(Region(vertices, 1 if side is plus_side else -1, x.column, side))
    edges.sort(key=lambda e: (e.a, e.b))
    regions.sort(key=lambda r: r.vertices)
    return tuple(edges), tuple(regions)


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
    edges, regions = _sweep(d, sign_convention)
    return LinkingGraph(d, edges, positions, regions, sign_convention)


def is_forest(g: LinkingGraph) -> bool:
    # A plane graph has E - V + C bounded faces, so it is a forest when it has none.
    return not g.regions


def _canonical_rooted(adj: dict[int, set[int]], root: int) -> str:
    """The tree's nested-parenthesis code from root: each vertex wraps its
    children's codes, sorted, computed children first without recursion."""
    parent = {root: -1}
    order = [root]
    for v in order:  # breadth first, growing as it goes
        for c in adj[v]:
            if c != parent[v]:
                parent[c] = v
                order.append(c)
    code: dict[int, str] = {}
    for v in reversed(order):
        code[v] = "(" + "".join(sorted(code[c] for c in adj[v] if c != parent[v])) + ")"
    return code[root]


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
        comps.append(min(_canonical_rooted(adj, c) for c in centers))
    return tuple(sorted(comps))


def graphs_isomorphic_as_trees(g1: LinkingGraph, g2: LinkingGraph) -> bool:
    """Abstract isomorphism of two forests via canonical rooted encodings."""
    for g in (g1, g2):
        if not is_forest(g):
            raise NotAForestError("input linking graph contains a cycle")
    return _forest_signature(g1) == _forest_signature(g2)
