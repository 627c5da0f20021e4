"""Group presentations, read off relator words or swept from a linking graph.

Generators are the bricks (1-based ids). Every linked pair contributes a
braid relator, every unlinked pair a commutation relator (including
diagonals of regions), and every bounded region a cycle relator read
along the region's stored cyclic order. Only the cycle relators carry
information beyond the edge set, so every presentation is stored as a
pair table and its cycles, and spells its pair relators on each read of
``relators``, never storing them. A presentation has two ways in:
``Presentation(n, relators)`` reads the table off the words and keeps
the cycle relators, and ``presentation_of(graph)`` stores the sweep's
table and its cycles as the regions' vertex tuples, spelling each word
(in closed form) and each Relator only when read; it is built once and
kept on the (immutable) graph. A cycle shift is read back through
``Presentation(n, relators)``. A relator is built from its equation
alone, ``Relator(lhs, rhs, provenance)``: the equation decides the word,
LHS * RHS^-1 freely reduced, and the word the kind. Presentation
equality means equality of those words, and the word decides the region
a cycle shift rotates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from .errors import PresentationError
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


@dataclass(frozen=True, slots=True)
class Relator:
    """The relation lhs = rhs, with its provenance. Its word, lhs * rhs^-1
    freely reduced, and its kind are derived: BRAID or COMM when the word
    is that relator of a pair i < j, CYCLE otherwise. So a relator prints
    the relation it counts."""

    lhs: GroupWord
    rhs: GroupWord
    provenance: tuple
    word: GroupWord = field(init=False)
    kind: RelatorKind = field(init=False)

    def __post_init__(self) -> None:
        word = free_reduce(self.lhs + invert_word(self.rhs))
        pair = _pair_of(word)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "kind", RelatorKind.CYCLE if pair is None else pair[0])


def exponent_sums(word: GroupWord) -> dict[int, int]:
    """Nonzero exponent sums of a word, keyed by 0-based generator."""
    sums: dict[int, int] = {}
    for x in word:
        g = abs(x) - 1
        sums[g] = sums.get(g, 0) + (1 if x > 0 else -1)
    return {g: e for g, e in sums.items() if e}


def _pair_of(w: GroupWord) -> tuple[RelatorKind, tuple[int, int]] | None:
    """The kind and pair i < j whose braid or commutation relator has the
    word w, or None."""
    if len(w) in (4, 6) and 0 < w[0] < w[1]:
        i, j = w[0], w[1]
        if w == (i, j, i, -j, -i, -j):
            return RelatorKind.BRAID, (i, j)
        if w == (i, j, -i, -j):
            return RelatorKind.COMM, (i, j)
    return None


def _region_of(w: GroupWord) -> tuple[int, ...] | None:
    """The cycle of n >= 3 distinct generators (i_1, ..., i_n) whose cycle
    relator has the word w, read off its first n of 4n - 4 letters. A
    region has at least three vertices; a two-vertex cycle's word rotates
    to a commutation relator, which the pair table holds."""
    cycle = tuple(reversed(w[: len(w) // 4 + 1]))
    if len(w) % 4 or len(w) < 8 or len(set(cycle)) < len(cycle) or min(cycle) < 1:
        return None
    return cycle if _cycle_word(cycle) == w else None


class Presentation:
    """Generators 1..n_generators, pair relators as a table, and the rest.

    There are two ways in: ``Presentation(n, relators)``, and
    ``presentation_of(graph)``, which stores the graph's sweep.
    ``braid_pairs`` and ``comm_pairs`` list, in lex order, the pairs
    i < j that carry a braid or a commutation relator; ``comm_pairs`` is
    None when that is every other pair and no more, as on every graph's
    presentation. ``cycles`` holds every other relator, in the order
    given. ``relators`` spells braid pairs, then commutation pairs, each
    in lex order, then the cycles. ``Presentation(n, relators)`` reads
    the table off the BRAID and COMM relators, whose kinds their words
    decide, so the order, repeats, equations and provenance of pair
    relators are not kept; a pair may carry both kinds. Every CYCLE
    relator is kept as given. Equal generator counts, pair tables and
    cycle words make equal presentations, whatever the cycles' equations
    and provenance. A generator count that is no int >= 0, or a letter
    of a relator's word or equation that names no generator, raises
    PresentationError. A graph's presentation stores
    ``region_cycles``, each region's vertex tuple (None when relators
    were given), and spells ``cycle_words`` on first need (equality,
    hashing, the orbit search) and ``cycles`` on first read, keeping
    both, and ``_runs``, its diagram's column runs (None when relators
    were given). ``_lattice`` holds the column lattice once invariants
    has built it, and ``_hash`` the hash once it is first asked for.
    """

    __slots__ = (
        "n_generators", "braid_pairs", "comm_pairs", "region_cycles", "_cycles", "_words",
        "_runs", "_lattice", "_hash",
    )

    def __init__(self, n_generators: int, relators: tuple[Relator, ...]) -> None:
        if type(n_generators) is not int or n_generators < 0:
            raise PresentationError(f"the generator count {n_generators!r} is no int >= 0")
        braid: set[tuple[int, int]] = set()
        comm: set[tuple[int, int]] = set()
        cycles = []
        for index, r in enumerate(relators):
            bad = [x for x in (*r.word, *r.lhs, *r.rhs) if not 0 < abs(x) <= n_generators]
            if bad:
                raise PresentationError(
                    f"relator {index} has the letter {bad[0]}; "
                    f"the generators are 1..{n_generators}"
                )
            if r.kind is RelatorKind.CYCLE:
                cycles.append(r)
            else:
                (braid if r.kind is RelatorKind.BRAID else comm).add(r.word[:2])
        k = n_generators
        full = not braid & comm and len(braid) + len(comm) == k * (k - 1) // 2
        comm_pairs = None if full else tuple(sorted(comm))
        self._store(n_generators, tuple(sorted(braid)), comm_pairs, None, tuple(cycles))

    def _store(
        self, n_generators, braid_pairs, comm_pairs, region_cycles, cycles=None, runs=None
    ) -> None:
        self.n_generators, self.braid_pairs = n_generators, braid_pairs
        self.comm_pairs, self.region_cycles, self._cycles = comm_pairs, region_cycles, cycles
        self._runs = runs
        self._words = self._lattice = self._hash = None

    def pair_table(self) -> Iterator[tuple[int, int, RelatorKind]]:
        """(i, j, BRAID | COMM) per pair relator; lex order when comm_pairs is None."""
        if self.comm_pairs is None:
            linked = set(self.braid_pairs)
            k = self.n_generators
            for i in range(1, k + 1):
                for j in range(i + 1, k + 1):
                    kind = RelatorKind.BRAID if (i, j) in linked else RelatorKind.COMM
                    yield i, j, kind
            return
        for i, j in self.braid_pairs:
            yield i, j, RelatorKind.BRAID
        for i, j in self.comm_pairs:
            yield i, j, RelatorKind.COMM

    @property
    def cycles(self) -> tuple[Relator, ...]:
        """The cycle relators; a region's is built on first read, with
        provenance ("region", its index)."""
        if self._cycles is None:
            regions = enumerate(self.region_cycles)
            self._cycles = tuple(cycle_relator(cycle, ("region", i)) for i, cycle in regions)
        return self._cycles

    @property
    def cycle_words(self) -> tuple[GroupWord, ...]:
        """The cycle relators' words; a region's is spelled on first need."""
        if self._words is None:
            regions = self.region_cycles
            words = map(_cycle_word, regions) if regions else (r.word for r in self.cycles)
            self._words = tuple(words)
        return self._words

    @property
    def relators(self) -> tuple[Relator, ...]:
        return (
            tuple(braid_relator(i, j) for i, j in self.braid_pairs)
            + tuple(
                comm_relator(i, j) for i, j, kind in self.pair_table() if kind is RelatorKind.COMM
            )
            + self.cycles
        )

    def _content(self) -> tuple:
        return self.n_generators, self.braid_pairs, self.comm_pairs, self.cycle_words

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Presentation):
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._content())
        return self._hash

    def __repr__(self) -> str:
        return f"Presentation(n_generators={self.n_generators}, relators={self.relators!r})"


def braid_relator(i: int, j: int, provenance: tuple = ()) -> Relator:
    i, j = min(i, j), max(i, j)
    return Relator((i, j, i), (j, i, j), provenance or ("edge", (i, j)))


def comm_relator(i: int, j: int, provenance: tuple = ()) -> Relator:
    pair = min(i, j), max(i, j)
    i, j = pair
    return Relator(pair, (j, i), provenance or ("pair", pair))


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


def _cycle_word(cycle: tuple[int, ...]) -> GroupWord:
    """lhs * rhs^-1 of the cycle relation in closed form, i_n .. i_1 i_n ..
    i_3 i_2^-1 .. i_n^-1 i_1^-1 .. i_{n-1}^-1: freely reduced for distinct
    generators, as lhs ends with i_3 and rhs^-1 starts with i_2^-1."""
    rev = cycle[::-1]
    neg = tuple(-x for x in cycle)
    return rev + rev[:-2] + neg[1:] + neg[:-1]


def cycle_relator(cycle: tuple[int, ...], provenance: tuple = ()) -> Relator:
    """The relator of a cycle's equation."""
    lhs, rhs = cycle_equation(cycle)
    return Relator(lhs, rhs, provenance or ("region", cycle))


def presentation_of(g: LinkingGraph) -> Presentation:
    """Braid relator per edge, commutation per non-edge, cycle per region:
    the graph's pair table and region cycles, with its diagram's column
    runs, stored on the first call and kept on the graph for every later
    one."""
    if g._presentation is None:
        pairs = tuple((a, b) for a, b, _, _ in g.raw_edges)  # swept in lex order
        regions = tuple(cycle for cycle, _, _, _ in g.raw_regions)
        p = Presentation.__new__(Presentation)
        p._store(g.diagram.n_bricks, pairs, None, regions, runs=g.diagram._runs)
        object.__setattr__(g, "_presentation", p)
    return g._presentation


def relabels_onto(src: Presentation, dst: Presentation, sigma: list[int]) -> bool:
    """Whether renaming generator g to sigma[g - 1], a bijection, carries
    the relator words of src exactly onto those of dst."""
    if src == dst and all(s == g for g, s in enumerate(sigma, start=1)):
        return True
    renamed = {
        free_reduce(tuple(sigma[x - 1] if x > 0 else -sigma[-x - 1] for x in r.word))
        for r in src.relators
    }
    return renamed == {r.word for r in dst.relators}


def shifted_cycle_presentation(
    p: Presentation, region_index: int, shift: int
) -> Presentation:
    """The presentation with p.cycles[region_index] replaced by the cycle
    relator of its region's tuple rotated left by shift, keeping its
    provenance, read back through Presentation(n, relators) from p's
    relators; so the pair table and every other cycle are kept. A word
    that is no region's cycle relator raises PresentationError."""
    words = p.cycle_words
    if not 0 <= region_index < len(words):
        raise IndexError(f"presentation has {len(words)} cycle relators")
    relators = list(p.relators)
    t = len(relators) - len(words) + region_index
    cycle = _region_of(words[region_index])
    if cycle is None:
        raise PresentationError(f"relator {t} is not the cycle relator of a region")
    k = shift % len(cycle)
    relators[t] = cycle_relator(cycle[k:] + cycle[:k], relators[t].provenance)
    return Presentation(p.n_generators, tuple(relators))


def _word_plain(word: GroupWord) -> str:
    return " ".join(f"s{x}" if x > 0 else f"s{-x}^-1" for x in word) or "1"


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
