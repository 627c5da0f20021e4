"""Signed plane linking graphs of brick diagrams.

Vertices are bricks, placed at (column, interval midpoint). Two bricks
are linked either vertically (consecutive bricks of one column, sharing
their middle crossing: consecutive ids of the column's id range
``BrickDiagram.column_ids``) or laterally (adjacent columns, strictly
alternating boundary crossings); nested or disjoint intervals carry no
edge. The straight-line embedding at these positions is plane, and its
bounded faces are the regions.

Lateral edges and regions are read off one adjacent column pair at a
time, its two columns' occurrences merged into alternating runs. The
bricks starting at the last letter of each run but the final two are
the pair's bridging bricks: those with a crossing of the other column
strictly inside. In run order, consecutive bridging bricks are the
pair's lateral edges, a zigzag path between the two columns, and there
is one region per three consecutive bridging bricks x, y, z: the
vertical chain x..z in x's column (the anchor) closed through y, its
cycle (y, x..z) when y lies left of the anchor (counterclockwise) and
(x..z, y) when y lies right (clockwise). The side of y fixes, through a
configurable convention, the region's sign. With the default
``left-positive`` convention right-side regions are negative (drawn
shaded) and left-side regions positive; ``right-positive`` flips the
sign labels only, so cycles, and hence all derived relators, do not
depend on the convention. The one constructor,
``LinkingGraph(diagram, sign_convention)``, sweeps the diagram, so a
graph holds only its diagram's edges and regions, in compact form
(``raw_edges``, ``raw_regions``), and spells ``edges``, ``regions`` and
``positions`` on first read. Each process keeps the CACHE_SIZE most
recent graphs, keyed on the brick diagram and the convention; a cached
graph is immutable (read-only positions) and carries its presentation
once presentations.presentation_of has built it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .bricks import CACHE_SIZE, BrickDiagram
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


# the fields of a LinkEdge and of a Region, in order
RawEdge = tuple[int, int, EdgeKind, Side | None]
RawRegion = tuple[tuple[int, ...], int, int, Side]


@dataclass(frozen=True, init=False)
class LinkingGraph:
    """A diagram's edges and regions in compact form, and their views.

    ``LinkingGraph(diagram, sign_convention)`` sweeps the diagram, edges
    and regions in lex order; an unknown convention raises ValueError.
    Graphs are equal when their diagrams, compact forms and conventions
    are.
    """

    diagram: BrickDiagram
    raw_edges: tuple[RawEdge, ...]  # (a, b, kind, side) per edge, side None when vertical
    raw_regions: tuple[RawRegion, ...]  # (cycle, sign, anchor column, side) per region
    sign_convention: str = DEFAULT_SIGN_CONVENTION
    # set once by presentations.presentation_of; no part of the graph's value
    _presentation: object = field(default=None, repr=False, compare=False)

    def __init__(
        self, diagram: BrickDiagram, sign_convention: str = DEFAULT_SIGN_CONVENTION
    ) -> None:
        if sign_convention not in SIGN_CONVENTIONS:
            raise ValueError(f"unknown sign convention {sign_convention!r}")
        raw_edges, raw_regions = _sweep(diagram, sign_convention)
        self.__dict__.update(
            diagram=diagram, raw_edges=raw_edges, raw_regions=raw_regions,
            sign_convention=sign_convention,
        )

    @cached_property
    def edges(self) -> tuple[LinkEdge, ...]:
        return tuple(LinkEdge(*e) for e in self.raw_edges)

    @cached_property
    def regions(self) -> tuple[Region, ...]:
        return tuple(Region(*r) for r in self.raw_regions)

    @cached_property
    def positions(self) -> Mapping[int, tuple[float, float]]:
        spans = self.diagram.spans()
        return MappingProxyType({b: (float(c), (lo + hi) / 2.0) for b, c, lo, hi in spans})

    def combinatorial_signature(self) -> tuple:
        """Labeled structure (ids, columns, edges, signed regions), footprint-free,
        read off the compact form.

        Far commutativity and Markov moves leave this unchanged even though
        brick footprints shift.
        """
        verts = tuple(
            (b, column, rank)
            for column, ids in self.diagram.column_ids.items()
            for rank, b in enumerate(ids, start=1)
        )
        edges = tuple(
            (a, b, kind.value, side.value if side else None) for a, b, kind, side in self.raw_edges
        )
        regions = tuple(
            (cycle, sign, anchor, side.value) for cycle, sign, anchor, side in self.raw_regions
        )
        return (verts, edges, regions)

    def to_json(self) -> str:
        pos = self.positions
        _, edges, regions = self.combinatorial_signature()
        return json.dumps(
            {
                "word": self.diagram.word.to_dict(),
                "sign_convention": self.sign_convention,
                "vertices": [
                    {"id": b, "column": c, "lo": lo, "hi": hi, "x": pos[b][0], "y": pos[b][1]}
                    for b, c, lo, hi in self.diagram.spans()
                ],
                "edges": [{"a": a, "b": b, "kind": k, "side": s} for a, b, k, s in edges],
                "regions": [
                    {"vertices": list(cycle), "sign": sign, "anchor_column": anchor, "side": side}
                    for cycle, sign, anchor, side in regions
                ],
            }
        )


def _sweep(
    d: BrickDiagram, sign_convention: str
) -> tuple[tuple[RawEdge, ...], tuple[RawRegion, ...]]:
    """Raw edges and regions, read off one adjacent column pair at a time."""
    # only the columns that occur, and only adjacent pairs of them: the
    # cost follows the word, not the strand count
    occ, column_ids = d.occurrences, d.column_ids
    vertical, lateral = EdgeKind.VERTICAL, EdgeKind.LATERAL
    edges: list[RawEdge] = [
        (a, a + 1, vertical, None) for ids in column_ids.values() for a in ids[:-1]
    ]
    right_sign = -1 if sign_convention == "left-positive" else 1
    regions: list[RawRegion] = []
    for c, lower in occ.items():
        upper = occ.get(c + 1)
        if upper is None:
            continue
        # the brick starting at each run's last letter, lower[i - 1] or
        # upper[j - 1], with the side the other column lies on; the loop
        # stops short of the final run, and the run before it is dropped
        first_c = column_ids.get(c, range(0)).start - 1
        first_up = column_ids.get(c + 1, range(0)).start - 1
        bridging: list[tuple[int, Side]] = []
        i = j = 0
        n, m = len(lower), len(upper)
        while i < n and j < m:
            if lower[i] < upper[j]:
                while i < n and lower[i] < upper[j]:
                    i += 1
                bridging.append((first_c + i, Side.RIGHT))
            else:
                while j < m and upper[j] < lower[i]:
                    j += 1
                bridging.append((first_up + j, Side.LEFT))
        del bridging[-1:]
        for (x, side), (y, _) in zip(bridging, bridging[1:]):
            edges.append((x, y, lateral, side) if side is Side.RIGHT else (y, x, lateral, side))
        for (x, side), (y, _), (z, _) in zip(bridging, bridging[1:], bridging[2:]):
            if side is Side.RIGHT:
                regions.append(((*range(x, z + 1), y), right_sign, c, side))
            else:
                regions.append(((y, *range(x, z + 1)), -right_sign, c + 1, side))
    # pairs (a, b) and cycles are distinct, so no sort compares kinds or sides
    edges.sort()
    regions.sort()
    return tuple(edges), tuple(regions)


def build_graph(
    d: BrickDiagram, sign_convention: str = DEFAULT_SIGN_CONVENTION
) -> LinkingGraph:
    """Edges, plane positions and signed bounded regions of a brick diagram.

    The graph is shared with every caller passing an equal diagram and
    convention while it is among the CACHE_SIZE most recent; it is
    immutable, positions being a read-only mapping.
    """
    return _graph(d, sign_convention)


_graph = lru_cache(maxsize=CACHE_SIZE)(LinkingGraph)


def is_forest(g: LinkingGraph) -> bool:
    # A plane graph has E - V + C bounded faces, so it is a forest when it
    # has none; a graph is swept from its diagram, so its regions are those.
    return not g.raw_regions


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


def components(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Component labels of the graph on 0..n-1 with the given vertex pairs
    as edges, numbered by each component's least vertex, and their number:
    one linear pass with an explicit stack (Hopcroft and Tarjan 1973)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    label, count = [-1] * n, 0
    for v in range(n):
        if label[v] < 0:
            label[v], stack = count, [v]
            while stack:
                for w in adj[stack.pop()]:
                    if label[w] < 0:
                        label[w] = count
                        stack.append(w)
            count += 1
    return label, count


def _forest_signature(g: LinkingGraph) -> tuple[str, ...]:
    n = g.diagram.n_bricks
    adj: dict[int, set[int]] = {b: set() for b in range(1, n + 1)}
    for a, b, _, _ in g.raw_edges:
        adj[a].add(b)
        adj[b].add(a)
    label, count = components(n, ((a - 1, b - 1) for a, b, _, _ in g.raw_edges))
    trees: list[list[int]] = [[] for _ in range(count)]
    for b, c in enumerate(label, start=1):
        trees[c].append(b)
    return tuple(
        sorted(min(_canonical_rooted(adj, c) for c in _tree_center(adj, nodes)) for nodes in trees)
    )


def graphs_isomorphic_as_trees(g1: LinkingGraph, g2: LinkingGraph) -> bool:
    """Abstract isomorphism of two forests via canonical rooted encodings."""
    for g in (g1, g2):
        if not is_forest(g):
            raise NotAForestError("input linking graph contains a cycle")
    return _forest_signature(g1) == _forest_signature(g2)
