"""Group presentations read off a linking graph.

Generators are the bricks (1-based ids). Every linked pair contributes a
braid relator, every unlinked pair a commutation relator (including
diagonals of regions), and every bounded region a cycle relator read
along the region's stored cyclic order. Relator words are kept as
LHS * RHS^-1, freely reduced; relator equality means equality of those
words.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .linking import LinkingGraph

# A group word is a tuple of signed 1-based generator indices.
GroupWord = tuple[int, ...]


class RelatorKind(Enum):
    BRAID = "braid"
    COMM = "comm"
    CYCLE = "cycle"


def free_reduce(word: GroupWord) -> GroupWord:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_word(word: GroupWord) -> GroupWord:
    return tuple(-x for x in reversed(word))


def concat(*words: GroupWord) -> GroupWord:
    return free_reduce(tuple(x for w in words for x in w))


@dataclass(frozen=True)
class Relator:
    """A relator with its display equation and provenance."""

    kind: RelatorKind
    word: GroupWord  # freely reduced lhs * rhs^-1
    lhs: GroupWord
    rhs: GroupWord
    provenance: tuple

    @staticmethod
    def from_equation(
        kind: RelatorKind, lhs: GroupWord, rhs: GroupWord, provenance: tuple
    ) -> Relator:
        return Relator(kind, concat(lhs, invert_word(rhs)), lhs, rhs, provenance)


@dataclass(frozen=True)
class Presentation:
    n_generators: int
    relators: tuple[Relator, ...]

    def relator_words(self) -> tuple[GroupWord, ...]:
        return tuple(r.word for r in self.relators)

    def by_kind(self, kind: RelatorKind) -> tuple[Relator, ...]:
        return tuple(r for r in self.relators if r.kind is kind)

    def key(self) -> tuple:
        """Hashable identity: generator count plus relator words."""
        return (self.n_generators, tuple(sorted(r.word for r in self.relators)))


# For distinct generators i < j the pair relators are already freely
# reduced, so their words are written out in closed form.
def braid_relator(i: int, j: int, provenance: tuple = ()) -> Relator:
    i, j = min(i, j), max(i, j)
    return Relator(
        RelatorKind.BRAID, (i, j, i, -j, -i, -j), (i, j, i), (j, i, j),
        provenance or ("edge", (i, j)),
    )


def comm_relator(i: int, j: int, provenance: tuple = ()) -> Relator:
    i, j = min(i, j), max(i, j)
    return Relator(
        RelatorKind.COMM, (i, j, -i, -j), (i, j), (j, i), provenance or ("pair", (i, j))
    )


def cycle_equation(cycle: tuple[int, ...]) -> tuple[GroupWord, GroupWord]:
    """The two sides of the cycle relation for vertices in cyclic order.

    For (i1, ..., in):  i_n ... i_1 i_n ... i_3  =  i_{n-1} ... i_1 i_n ... i_2,
    a product of 2n - 2 generators on each side.
    """
    n = len(cycle)
    rev = tuple(reversed(cycle))  # (i_n, ..., i_1)
    lhs = rev + rev[: n - 2]
    rhs = rev[1:] + rev[: n - 1]
    return lhs, rhs


def cycle_relator(cycle: tuple[int, ...], provenance: tuple = ()) -> Relator:
    lhs, rhs = cycle_equation(cycle)
    return Relator.from_equation(
        RelatorKind.CYCLE, lhs, rhs, provenance or ("region", cycle)
    )


def cycle_commutation_word(cycle: tuple[int, ...]) -> GroupWord:
    """The commutation form equivalent to the cycle relation.

    [i1, C] with C = i_n ... i_3 i_2 i_3^-1 ... i_n^-1; equivalent to the
    cycle relator in the presence of the braid and commutation relators.
    """
    tail = tuple(reversed(cycle[2:]))  # (i_n, ..., i_3)
    conj = concat(tail, (cycle[1],), invert_word(tail))
    first = (cycle[0],)
    return concat(first, conj, invert_word(first), invert_word(conj))


def presentation_of(g: LinkingGraph) -> Presentation:
    """Braid relator per edge, commutation per non-edge, cycle per region."""
    k = len(g.diagram.bricks)
    linked = {(e.a, e.b) for e in g.edges}
    relators = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if (i, j) in linked:
                relators.append(braid_relator(i, j))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if (i, j) not in linked:
                relators.append(comm_relator(i, j))
    for idx, region in enumerate(g.regions):
        relators.append(cycle_relator(region.vertices, ("region", idx)))
    return Presentation(k, tuple(relators))


def _shifted_cycle_relator(r: Relator, shift: int) -> Relator:
    """A cycle relator with its region's tuple rotated left by shift."""
    # Recover the tuple from the stored equation: lhs starts with (i_n .. i_1).
    n = (len(r.lhs) + 2) // 2
    tup = tuple(reversed(r.lhs[:n]))
    k = shift % n
    return cycle_relator(tup[k:] + tup[:k], r.provenance)


def cycle_relator_shift(p: Presentation, region_index: int, shift: int) -> GroupWord:
    """The cycle relator word with the region's tuple rotated left by shift."""
    cycles = p.by_kind(RelatorKind.CYCLE)
    if not 0 <= region_index < len(cycles):
        raise IndexError(f"presentation has {len(cycles)} cycle relators")
    return _shifted_cycle_relator(cycles[region_index], shift).word


def shifted_cycle_presentation(
    p: Presentation, region_index: int, shift: int
) -> Presentation:
    """The presentation with one cycle relator replaced by a shifted version."""
    cycles = [i for i, r in enumerate(p.relators) if r.kind is RelatorKind.CYCLE]
    target = cycles[region_index]
    relators = list(p.relators)
    relators[target] = _shifted_cycle_relator(p.relators[target], shift)
    return Presentation(p.n_generators, tuple(relators))


def _word_plain(word: GroupWord) -> str:
    return " ".join(f"s{x}" if x > 0 else f"s{-x}^-1" for x in word)


def _relator_plain(r: Relator) -> str:
    if r.kind is RelatorKind.COMM:
        i, j = r.lhs
        return f"[s{i},s{j}] = 1"
    return f"{_word_plain(r.lhs)} = {_word_plain(r.rhs)}"


def _word_gap(word: GroupWord) -> str:
    if not word:
        return "One(F)"
    return "*".join(f"F.{x}" if x > 0 else f"F.{-x}^-1" for x in word)


def serialize(p: Presentation, format: str = "plain") -> str:
    """Render as plain text, gap-style source, or JSON."""
    if format == "plain":
        gens = ",".join(f"s{i}" for i in range(1, p.n_generators + 1))
        rels = ", ".join(_relator_plain(r) for r in p.relators)
        return f"<{gens} | {rels}>" if rels else f"<{gens} | >"
    if format == "gap-style":
        lines = [f"F := FreeGroup({p.n_generators});;"]
        rels = ", ".join(_word_gap(r.word) for r in p.relators)
        lines.append(f"rels := [{rels}];")
        return "\n".join(lines)
    if format == "json":
        return json.dumps(
            {
                "generators": p.n_generators,
                "relators": [
                    {
                        "kind": r.kind.value,
                        "word": list(r.word),
                        "lhs": list(r.lhs),
                        "rhs": list(r.rhs),
                        "provenance": _provenance_json(r.provenance),
                    }
                    for r in p.relators
                ],
            }
        )
    raise ValueError(f"unknown format {format!r}")


def _provenance_json(prov: tuple):
    return [list(x) if isinstance(x, tuple) else x for x in prov]
