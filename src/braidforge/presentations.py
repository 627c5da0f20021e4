"""Group presentations, read off relator words or swept from a linking graph.

Generators are the bricks (1-based ids). Every linked pair contributes a
braid relator, every unlinked pair a commutation relator (including
diagonals of regions), and every bounded region a cycle relator read
along the region's stored cyclic order. Only the cycle relators carry
information beyond the edge set, so every presentation is stored as a
pair table and its cycles. Its ``relators`` are a sized, read-only
sequence over them: the length comes from the table, and a pair relator
is spelled each time it is read, never stored, so ``serialize_pieces``
streams all k(k-1)/2 while holding one piece's worth. A presentation
has two ways in: ``Presentation(n, relators)`` reads the table off the
words and keeps the cycle relators, and ``presentation_of(graph)``
stores the sweep's table and its cycles as the regions' vertex tuples,
spelling each word (in closed form) and each Relator only when read; it
is built once and kept on the (immutable) graph. A cycle shift is read
back through ``Presentation(n, relators)``. A relator is built from its
equation alone, ``Relator(lhs, rhs, provenance)``: the equation decides
the word, LHS * RHS^-1 freely reduced, and the word the kind.
Presentation equality means equality of those words, and the word
decides the region a cycle shift rotates.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice

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
    given. ``relators`` is a Relators view: braid pairs, then commutation
    pairs, each in lex order, then the cycles, read as that tuple would
    be, but sized without spelling and spelled one relator at a time.
    ``Presentation(n, relators)`` reads the table off the BRAID and COMM
    relators, whose kinds their words decide, so the order, repeats,
    equations and provenance of pair relators are not kept; a pair may
    carry both kinds. Every CYCLE relator is kept as given. Equal
    generator counts, pair tables and cycle words make equal
    presentations, whatever the cycles' equations and provenance. A
    generator count that is no int >= 0, or a letter of a relator's word
    or equation that names no generator, raises PresentationError. A
    graph's presentation stores
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
    def relators(self) -> Relators:
        return Relators(self)

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


class Relators(Sequence):
    """A presentation's relators as a read-only sequence: braid pairs, then
    commutation pairs, each in lex order, then the cycles. Its length comes
    from the table, spelling nothing; a pair relator is spelled, through
    braid_relator or comm_relator, each time it is read, and none is kept.
    Indexing, slices (tuples), equality with a tuple, hashing and repr read
    as the tuple of its relators would."""

    __slots__ = ("_p",)

    def __init__(self, p: Presentation) -> None:
        self._p = p

    def _counts(self) -> tuple[int, int]:
        """The number of braid relators, and of pair relators."""
        p = self._p
        k, braid = p.n_generators, len(p.braid_pairs)
        return braid, k * (k - 1) // 2 if p.comm_pairs is None else braid + len(p.comm_pairs)

    def __len__(self) -> int:
        p = self._p
        cycles = p._cycles if p.region_cycles is None else p.region_cycles
        return self._counts()[1] + len(cycles)

    def __iter__(self) -> Iterator[Relator]:
        p = self._p
        for i, j in p.braid_pairs:
            yield braid_relator(i, j)
        for i, j, kind in p.pair_table():
            if kind is RelatorKind.COMM:
                yield comm_relator(i, j)
        yield from p.cycles

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            r = range(*index.indices(n))
            if not r:
                return ()
            lo = min(r)
            return tuple(islice(self, lo, max(r) + 1))[r.start - lo :: r.step]
        i = operator.index(index)
        if not -n <= i < n:
            raise IndexError("tuple index out of range")
        i %= n
        p = self._p
        braid, pairs = self._counts()
        if i < braid:
            return braid_relator(*p.braid_pairs[i])
        if i >= pairs:
            return p.cycles[i - pairs]
        m = i - braid
        if p.comm_pairs is not None:
            return comm_relator(*p.comm_pairs[m])
        # the m-th pair in lex order without a braid relator: step m past
        # each braid pair at or before it, then read it off its row
        k = p.n_generators
        for a, b in p.braid_pairs:
            if (a - 1) * (2 * k - a) // 2 + b - a - 1 > m:
                break
            m += 1
        a = 1
        while m >= k - a:
            m, a = m - (k - a), a + 1
        return comm_relator(a, a + 1 + m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, Relators)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


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
    return "".join(serialize_pieces(p, format))


def serialize_pieces(p: Presentation, format: str = "plain") -> Iterator[str]:
    """serialize(p, format) in pieces, each spelled as it is asked for and
    none holding more than _PIECE_RELATORS relators; an unknown format
    raises ValueError here, before any piece."""
    if format not in _PIECES:
        raise ValueError(f"unknown format {format!r}")
    return _PIECES[format](p)


_PIECE_RELATORS = 256


def _joined(p: Presentation, text: Callable[[list[Relator]], str]) -> Iterator[str]:
    """The pieces of ", ".join over p's relators, text spelling each batch."""
    relators, comma = iter(p.relators), ""
    while batch := list(islice(relators, _PIECE_RELATORS)):
        yield comma + text(batch)
        comma = ", "


def _plain_pieces(p: Presentation) -> Iterator[str]:
    gens = ",".join(f"s{i}" for i in range(1, p.n_generators + 1))
    yield f"<{gens} | "
    yield from _joined(p, lambda batch: ", ".join(map(_relator_plain, batch)))
    yield ">"


def _gap_pieces(p: Presentation) -> Iterator[str]:
    yield f"F := FreeGroup({p.n_generators});;\nrels := ["
    yield from _joined(p, lambda batch: ", ".join(_word_gap(r.word) for r in batch))
    yield "];"


def _json_pieces(p: Presentation) -> Iterator[str]:
    # a batch's list, as json.dumps spells it, without its brackets
    yield f'{{"generators": {p.n_generators}, "relators": ['
    yield from _joined(p, lambda batch: json.dumps(list(map(_relator_json, batch)))[1:-1])
    yield "]}"


def _relator_json(r: Relator) -> dict:
    return {
        "kind": r.kind.value,
        "word": list(r.word),
        "lhs": list(r.lhs),
        "rhs": list(r.rhs),
        "provenance": _provenance_json(r.provenance),
    }


_PIECES = {"plain": _plain_pieces, "gap-style": _gap_pieces, "json": _json_pieces}


def _provenance_json(prov: tuple):
    return [list(x) if isinstance(x, tuple) else x for x in prov]
