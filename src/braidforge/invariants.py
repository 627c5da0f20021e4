"""Presentation-level isomorphism invariants.

The column lattice is the one reader of a presentation's exponent
columns. Every relator a linking graph yields has exponent sums zero or
e_i - e_j, so the generator-by-relator exponent matrix is a graph
incidence matrix and totally unimodular: the components of the graph of
the (+1, -1) pairs give the abelianization Z^c (c components, every
other invariant factor 1), and a vector lies in the column lattice iff
its sum on each component is zero. The lattice is built once per
presentation and kept on it. A swept presentation's components are its
diagram's column runs, the maximal runs of adjacent columns joined by a
lateral edge (BrickDiagram._runs), so its lattice expands those and
diagram_abelianization counts them. A presentation read off relator
words is labelled by linking.components over its braid pairs, a braid
relator on i < j having the column e_i - e_j and a commutation relator
none, and its cycle words' summed columns; one with any other column
shape has no such reading and raises PresentationError on every call.

Homomorphisms into small finite groups are found by one orbit search per
presentation content and target: pruned backtracking over the
generators in id order, in which pair relators become compatibility
bitmasks ANDed when the larger generator is assigned, each cycle
relator is evaluated when its largest generator is assigned, and an
orderly rule (Read 1978; McKay 1998) keeps only the least member of each
orbit under simultaneous conjugation in the target. When every pair off
the braid pairs commutes (comm_pairs None, every graph's presentation),
every generator before step j's least braid-linked one, start[j],
commutes with j: the search keeps a running commutant per depth,
prefix[s + 1] = prefix[s] & comm[image of s], ANDs prefix[start[j]]
once, and reads a braid or commutation mask per pair only in the window
[start[j], j), so it never walks the k(k-1)/2 pairs. An explicit table
has start 0 and masks for its listed pairs (a pair carrying both kinds
gets both). Cycle words are evaluated through a signed letter table,
value[x] the image of letter x for x in -k..k. Per target element v,
cent[v] is the mask of conjugators fixing v and lower[v] of those
sending it to a smaller index; the search carries stab, the centralizer
of the images so far, tries v only if stab & lower[v] == 0, and descends
with stab & cent[v]. A leaf's orbit has |G| / |stab| members. That one
search's record, a HomCount, is the one answer hom_count returns: its
representatives, their orbit sizes, the values tried, and the count,
the sizes summed; the count up to conjugacy is the number of
representatives, and images are a hom iff their least conjugate
(least_conjugate) is one of those representatives. The full hom list is
expanded only on request, every representative by every conjugator, in
lexicographic order of image tuples. Id order is what keeps the search narrow: brick ids run
column by column and each region's bricks lie in two adjacent
columns, so a cycle relator is tested soon after its first generator is
assigned and a dead branch is cut near the top (variable order sets the
width of a backtracking search: Freuder 1982; Dechter 2003). Exceeding
a configured generator cap raises, never guesses: the cap test runs
before any cache lookup. The cap bounds k, not the work (k pairwise
commuting generators make every commuting k-tuple a hom), so a search
also refuses its target with ResourceCapError once it has tried
HOM_SEARCH_VALUES values; a record keeps the values it tried and is
tested against the budget before the cache answers. Records are
memoized per process for the CACHE_SIZE most recent presentations, per
target table; equal presentations (generator count, pair table, cycle
words) share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import NamedTuple, Sequence

from .bricks import CACHE_SIZE, BrickDiagram
from .errors import PresentationError, ResourceCapError
from .finite_groups import FiniteTarget
from .linking import components
from .presentations import GroupWord, Presentation, exponent_sums

DEFAULT_GENERATOR_CAPS = {"S3": 14, "S4": 10, "S5": 8, "*": 10}
# values one orbit search may try before it refuses its target
HOM_SEARCH_VALUES = 1 << 20


@dataclass(frozen=True)
class Abelianization:
    """Z^c over k generators, always as invariant factors (1,) * (k - c) +
    (0,) * c: an incidence matrix leaves no torsion."""

    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d == 0)

    def __str__(self) -> str:
        return {0: "1", 1: "Z"}.get(self.rank, f"Z^{self.rank}")


@dataclass(frozen=True)
class HomCount:
    """The orbit search's answer for one presentation and target: one hom
    per orbit under simultaneous conjugation in the target, the least of
    each in lexicographic order of image tuples, in the order the search
    found them; each orbit's size; the number of values the search tried;
    and count, the hom count, which is the sizes summed."""

    target: str
    reps: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    tried: int
    count: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", sum(self.sizes))


class ColumnLattice:
    """Integer span of a presentation's exponent columns, as the components
    of the graph they join.

    The columns must form a graph incidence matrix. The span is the
    kernel of the map onto Z^c that sums a vector on each component, so
    the per-presentation work is one labelling, done here: ``component``
    labels each generator 0..n_components-1, in order of each
    component's least generator. A swept presentation's labels are its
    diagram's column runs, each run an id range. A presentation read off
    relator words is labelled by linking.components over its braid pairs
    (a braid relator on i < j has the column e_i - e_j and a commutation
    relator none) and the summed columns of its cycle words; a summed
    column other than zero or e_i - e_j raises PresentationError naming
    its relator. ``ColumnLattice.of`` keeps it on the presentation.
    """

    __slots__ = ("component", "n_components")

    def __init__(self, p: Presentation) -> None:
        if p._runs is not None:
            self.component = [c for c, ids in enumerate(p._runs) for _ in ids]
            self.n_components = len(p._runs)
            return
        pairs = [(i - 1, j - 1) for i, j in p.braid_pairs]
        for c, word in enumerate(p.cycle_words):
            col = exponent_sums(word)
            if not col:
                continue
            # a column of any other length fails the test as (0, 0), (0, 0)
            (a, ea), (b, eb) = col.items() if len(col) == 2 else ((0, 0), (0, 0))
            if ea + eb or abs(ea) != 1:
                sums = " ".join(f"s{g + 1}^{e}" for g, e in sorted(col.items()))
                # the cycles follow every pair relator in p.relators
                t = sum(1 for _ in p.pair_table()) + c
                raise PresentationError(
                    f"relator {t} has exponent sums {sums}, not zero or e_i - e_j"
                )
            pairs.append((a, b))
        self.component, self.n_components = components(p.n_generators, pairs)

    @classmethod
    def of(cls, p: Presentation) -> ColumnLattice:
        """p's lattice, built on first use and kept on p."""
        if p._lattice is None:
            p._lattice = cls(p)
        return p._lattice


def abelianization(p: Presentation) -> Abelianization:
    """Z^c, c the number of components of the exponent columns' graph."""
    k = p.n_generators
    c = ColumnLattice.of(p).n_components
    return Abelianization((1,) * (k - c) + (0,) * c)


def diagram_abelianization(d: BrickDiagram) -> Abelianization:
    """abelianization(presentation_of(build_graph(d))) with no graph: c counts
    the diagram's column runs."""
    c = len(d._runs)
    return Abelianization((1,) * (d.n_bricks - c) + (0,) * c)


def evaluate_word(t: FiniteTarget, images: Sequence[int], word: GroupWord) -> int:
    """Image of a group word; images[g - 1] is the image of generator g."""
    acc = t.identity
    table = t.table
    inv = t.inverse
    for x in word:
        g = images[abs(x) - 1]
        acc = table[acc][g if x > 0 else inv[g]]
    return acc


class _Tables(NamedTuple):
    """Per-table bitmasks over element indices, for the hom search.

    braid[g] / comm[g]: the h with which g satisfies the braid /
    commutation relation; cent[v]: the conjugators c with c v c^-1 = v;
    lower[v]: the conjugators sending v to a smaller index; conj[c]: the
    map x -> c x c^-1. least maps a conjugator mask stab to the values v
    with stab & lower[v] == 0, and values an allowed mask to its values
    in increasing order, both filled as searches meet each mask.
    """

    braid: list[int]
    comm: list[int]
    cent: list[int]
    lower: list[int]
    conj: list[tuple[int, ...]]
    least: dict[int, int]
    values: dict[int, tuple[int, ...]]


# Keyed by the table itself: two targets may share a name (load_table's
# default "custom") and a size yet differ.
@cache
def _target_tables(t: FiniteTarget) -> _Tables:
    n, mul, inv = t.size, t.mul, t.inv
    braid, comm = [], []
    for g in range(n):
        bm = cm = 0
        for h in range(n):
            gh = mul(g, h)
            hg = mul(h, g)
            if mul(gh, g) == mul(hg, h):
                bm |= 1 << h
            if gh == hg:
                cm |= 1 << h
        braid.append(bm)
        comm.append(cm)
    conj = [tuple(mul(mul(c, x), inv(c)) for x in range(n)) for c in range(n)]
    cent, lower = [], []
    for v in range(n):
        cent.append(sum(1 << c for c in range(n) if conj[c][v] == v))
        lower.append(sum(1 << c for c in range(n) if conj[c][v] < v))
    return _Tables(braid, comm, cent, lower, conj, {}, {})


def generator_cap(t: FiniteTarget, caps: dict[str, int] | None = None) -> int:
    caps = caps or DEFAULT_GENERATOR_CAPS
    return caps.get(t.name, caps.get("*", DEFAULT_GENERATOR_CAPS["*"]))


def _over_budget(t: FiniteTarget) -> ResourceCapError:
    return ResourceCapError(
        f"the hom search for target {t.name} tried more than {HOM_SEARCH_VALUES} values"
    )


def _pair_windows(
    p: Presentation, tables: _Tables
) -> tuple[list[int], list[list[tuple[int, list[int]]]]]:
    """Per step j (0-based): start[j], such that every generator before it
    commutes with j, and window[j], a (letter, mask table) pair per pair
    relator on j and an earlier generator from start[j] on.

    With comm_pairs None, start[j] is j's least braid-linked earlier
    generator (j if none) and the window names every generator from
    there to j - 1, with the braid or the commutation masks; the search
    covers the generators before start[j] by its running commutant. An
    explicit table has start 0 and names its listed pairs, a pair
    carrying both kinds once with each.
    """
    k = p.n_generators
    braid, comm = tables.braid, tables.comm
    if p.comm_pairs is not None:
        window: list[list[tuple[int, list[int]]]] = [[] for _ in range(k)]
        for i, j in p.braid_pairs:
            window[j - 1].append((i, braid))
        for i, j in p.comm_pairs:
            window[j - 1].append((i, comm))
        return [0] * k, window
    linked: list[set[int]] = [set() for _ in range(k)]
    for i, j in p.braid_pairs:
        linked[j - 1].add(i)
    start = [min(ls, default=j + 1) - 1 for j, ls in enumerate(linked)]
    window = [
        [(i, braid if i in ls else comm) for i in range(s + 1, j + 1)]
        for j, (s, ls) in enumerate(zip(start, linked))
    ]
    return start, window


def _assignments(p: Presentation, t: FiniteTarget) -> HomCount:
    """One relator-satisfying assignment per orbit under simultaneous
    conjugation in the target, found by an orderly search.

    Generators are assigned in id order, values in increasing index, so
    the search order is the lexicographic order of image tuples. Brick
    ids run column by column and each region's bricks lie in two adjacent
    columns, so a cycle relator, tested when its largest generator is
    assigned, closes soon after it opens and the search prunes near the
    top. stab is the centralizer of the images assigned so far; a value v
    is tried only if no conjugator in stab sends it lower (stab &
    lower[v] == 0), which keeps exactly the least member of each orbit.
    At a leaf stab is the centralizer of the whole image, so the orbit
    has |G| / |stab| members.

    The loop is flat, so word length is not bounded by the recursion
    limit: per depth it keeps stab, the running commutant prefix (the
    values commuting with every image so far), the values to try and the
    next one's index. value[x] is the image of letter x for x in -k..k.
    Every value listed for a step is tried, so the search counts them as
    it lists them and refuses the target once they pass HOM_SEARCH_VALUES.
    """
    k = p.n_generators
    n = t.size
    tables = _target_tables(t)
    comm, cent, lower = tables.comm, tables.cent, tables.lower
    least, values = tables.least, tables.values
    start, window = _pair_windows(p, tables)
    # closing[g - 1]: the cycle words whose largest generator is g
    closing: list[list[GroupWord]] = [[] for _ in range(k)]
    for word in p.cycle_words:
        if word:
            closing[max(map(abs, word)) - 1].append(word)

    if k == 0:
        return HomCount(t.name, ((),), (1,), 0)
    table, inverse, ident = t.table, t.inverse, t.identity
    full = (1 << n) - 1
    value = [ident] * (2 * k + 1)
    stab = [full] * k
    prefix = [full] * k
    tries: list[tuple[int, ...]] = [()] * k
    nxt = [0] * k
    reps: list[tuple[int, ...]] = []
    sizes: list[int] = []
    budget = left = HOM_SEARCH_VALUES

    step, vals, i = 0, None, 0
    while True:
        if vals is None:  # step just entered: its allowed values
            s = stab[step]
            allowed = least.get(s)
            if allowed is None:
                allowed = least[s] = sum(1 << v for v in range(n) if not s & lower[v])
            allowed &= prefix[start[step]]
            for g, masks in window[step]:
                if not allowed:
                    break
                allowed &= masks[value[g]]
            vals = values.get(allowed)
            if vals is None:
                vals = values[allowed] = tuple(v for v in range(n) if allowed >> v & 1)
            left -= len(vals)
            if left < 0:
                raise _over_budget(t)
            i = 0
        if i == len(vals):
            if not step:
                return HomCount(t.name, tuple(reps), tuple(sizes), budget - left)
            step -= 1
            vals, i = tries[step], nxt[step]
            continue
        v = vals[i]
        i += 1
        value[step + 1], value[-step - 1] = v, inverse[v]
        for word in closing[step]:
            acc = ident
            for x in word:
                acc = table[acc][value[x]]
            if acc != ident:
                break
        else:
            s = stab[step] & cent[v]
            if step + 1 == k:
                reps.append(tuple(value[1 : k + 1]))
                sizes.append(n // s.bit_count())
            else:
                tries[step], nxt[step] = vals, i
                step += 1
                stab[step], prefix[step], vals = s, prefix[step - 1] & comm[v], None


@lru_cache(maxsize=CACHE_SIZE)
def _memo(p: Presentation) -> dict:
    """Orbit search records of one presentation (and those equal to it), by target."""
    return {}


def hom_count(
    p: Presentation, t: FiniteTarget, caps: dict[str, int] | None = None
) -> HomCount:
    """The orbit search's record for p and t, from which the hom count and
    the count up to conjugacy (the number of representatives) are read;
    no hom beyond one per orbit is ever built.

    The cap test runs first, so that a cap raises whatever is cached; a
    kept record that tried more values than HOM_SEARCH_VALUES allows
    raises as a fresh search would.
    """
    k = p.n_generators
    cap = generator_cap(t, caps)
    if k > cap:
        raise ResourceCapError(f"{k} generators exceed the cap {cap} for target {t.name}")
    memo = _memo(p)
    found = memo.get(t)
    if found is None:
        found = memo[t] = _assignments(p, t)
    elif found.tried > HOM_SEARCH_VALUES:
        raise _over_budget(t)
    return found


def enumerate_homs(
    p: Presentation, t: FiniteTarget, caps: dict[str, int] | None = None
) -> list[tuple[int, ...]]:
    """Every homomorphism as generator images, in lexicographic order of
    image tuples (the search order); a fresh list.

    Expanded on request from the orbit search: every representative
    under every conjugator, sorted.
    """
    conj = _target_tables(t).conj
    return sorted({tuple(map(c.__getitem__, h)) for h in hom_count(p, t, caps).reps for c in conj})


def least_conjugate(t: FiniteTarget, images: tuple[int, ...]) -> tuple[int, ...]:
    """The least of the images' conjugates in t, in lexicographic order of
    image tuples: the images satisfy p's relators iff it is one of
    hom_count(p, t)'s representatives, the least member of each orbit."""
    return min(tuple(map(c.__getitem__, images)) for c in _target_tables(t).conj)
