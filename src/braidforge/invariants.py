"""Presentation-level isomorphism invariants.

Abelianization and the column-lattice test read each relator's exponent
sums sparsely: off the pair table, a braid relator on i < j has the
column e_i - e_j and a commutation relator none, so only the cycle
relators are summed. When every column of the generator-by-relator
exponent matrix is zero or e_i - e_j, as it is for every presentation
built from a linking graph, the matrix is a graph incidence matrix and
so totally unimodular: union-find over the (+1, -1) pairs gives the
abelianization Z^c (c components, every other invariant factor 1), and
a vector lies in the column lattice iff it sums to zero on every
component. Any other column shape falls back to an exact integer Smith
normal form, computed once per matrix.

Homomorphisms into small finite groups are found by one orbit search per
presentation content and target: pruned backtracking in which the pair
table becomes per-pair compatibility bitmasks (every relator on a pair
applies, so a pair carrying both kinds gets both masks) intersected as
images are assigned, longer relators are evaluated as soon as their
support is complete, and an orderly rule (Read 1978; McKay 1998) keeps
only the least member of each orbit under simultaneous conjugation in
the target. Per target element v, cent[v] is the mask of conjugators
fixing v and lower[v] of those sending it to a smaller index; the search
carries stab, the centralizer of the images so far, tries v only if
stab & lower[v] == 0, and descends with stab & cent[v]. A leaf's orbit
has |G| / |stab| members. The count, the orbit count and the orbit
representatives are read off that one result; the full hom list is
expanded from it only on request. Exceeding a configured generator cap
raises, never guesses: the cap test runs before any cache lookup. Search
results are memoized per process for the CACHE_SIZE most recent
presentation contents (generator count, pair table, cycle words; never
a spelled relator tuple), per target table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from .errors import ResourceCapError
from .finite_groups import FiniteTarget
from .linking import CACHE_SIZE
from .presentations import GroupWord, Presentation, RelatorKind, exponent_sums

DEFAULT_GENERATOR_CAPS = {"S3": 14, "S4": 10, "S5": 8, "*": 10}


@dataclass(frozen=True)
class Abelianization:
    """Invariant factors d1 | d2 | ... with 0 marking free factors."""

    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d == 0)

    def __str__(self) -> str:
        torsion = [d for d in self.invariant_factors if d > 1]
        parts = [f"Z/{d}" for d in torsion]
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        return " x ".join(parts) if parts else "1"


@dataclass(frozen=True)
class HomCount:
    target: str
    count: int


def smith_normal_form(
    matrix: list[list[int]], track_rows: bool = False
) -> tuple[list[int], list[list[int]] | None]:
    """Diagonal of the Smith normal form; optionally the row transform U.

    With track_rows, returns (diag, U) where U @ M @ V = D for some
    unimodular V; U suffices to test membership in the column lattice.
    """
    a = [row[:] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)] if track_rows else None

    def row_op(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j
        ai, aj = a[i], a[j]
        for c in range(cols):
            ai[c] -= q * aj[c]
        if u is not None:
            ui, uj = u[i], u[j]
            for c in range(rows):
                ui[c] -= q * uj[c]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    t = 0
    while t < rows and t < cols:
        # Pivot: smallest nonzero magnitude in the remaining block.
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                row_op(i, t, q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                for i2 in range(rows):
                    a[i2][j] -= q * a[i2][t]
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Divisibility: pull a bad row up and redo this pivot.
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)  # row_t += row_bad
            continue
        t += 1
    diag = [abs(a[i][i]) for i in range(min(rows, cols))]
    return diag, u


def exponent_columns(p: Presentation) -> list[dict[int, int]]:
    """Sparse columns of the exponent matrix, one per relator (spells every relator)."""
    return [exponent_sums(r.word) for r in p.relators]


def _dense(columns: list[dict[int, int]], rows: int) -> list[list[int]]:
    mat = [[0] * len(columns) for _ in range(rows)]
    for j, col in enumerate(columns):
        for g, e in col.items():
            mat[g][j] = e
    return mat


def exponent_matrix(p: Presentation) -> list[list[int]]:
    """Rows = generators, columns = relators; entries are exponent sums."""
    return _dense(exponent_columns(p), p.n_generators)


def _incidence_components(columns: list[dict[int, int]], rows: int) -> list[int] | None:
    """Component label (0..c-1) per row if every column is zero or e_i - e_j.

    None when some column has another shape, so the caller needs SNF.
    """
    parent = list(range(rows))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for col in columns:
        if not col:
            continue
        if len(col) != 2:
            return None
        (a, ea), (b, eb) = col.items()
        if ea + eb != 0 or abs(ea) != 1:
            return None
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    labels: dict[int, int] = {}
    return [labels.setdefault(find(g), len(labels)) for g in range(rows)]


def abelianization(p: Presentation) -> Abelianization:
    k = p.n_generators
    columns = [column for _, column in p.columns()]
    component = _incidence_components(columns, k)
    if component is not None:
        c = len(set(component))
        return Abelianization((1,) * (k - c) + (0,) * c)
    diag, _ = smith_normal_form(_dense(columns, k))
    nonzero = sorted(d for d in diag if d != 0)
    factors = tuple(nonzero) + (0,) * (k - len(nonzero))
    return Abelianization(factors)


class ColumnLattice:
    """Integer span of an exponent matrix's columns, prepared for many tests.

    The per-matrix work happens once here: component labels on the
    incidence path, or the Smith normal form's diagonal and row transform
    U otherwise (v is in the span iff d_i divides (Uv)_i, with d_i = 0
    meaning (Uv)_i = 0).
    """

    __slots__ = ("component", "n_components", "diag", "u")

    def __init__(self, columns: list[dict[int, int]], rows: int) -> None:
        self.component = _incidence_components(columns, rows)
        self.n_components = len(set(self.component or ()))
        self.diag: list[int] = []
        self.u: list[list[int]] = []
        if self.component is None:
            diag, u = smith_normal_form(_dense(columns, rows), track_rows=True)
            self.diag = diag + [0] * (rows - len(diag))
            self.u = u or []

    @classmethod
    def of_matrix(cls, matrix: list[list[int]]) -> ColumnLattice:
        cols = len(matrix[0]) if matrix else 0
        columns = [
            {i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(cols)
        ]
        return cls(columns, len(matrix))

    def contains(self, vector: list[int]) -> bool:
        support = [(g, v) for g, v in enumerate(vector) if v]
        if not support:
            return True
        if self.component is not None:
            sums = [0] * self.n_components
            for g, v in support:
                sums[self.component[g]] += v
            return not any(sums)
        for d, row in zip(self.diag, self.u):
            uv = sum(row[g] * v for g, v in support)
            if (uv != 0) if d == 0 else (uv % d != 0):
                return False
        return True


def in_column_lattice(lattice: ColumnLattice | list[list[int]], vector: list[int]) -> bool:
    """Exact test that vector lies in the integer span of the matrix columns.

    Pass a ColumnLattice to share the per-matrix work across many vectors.
    """
    if not isinstance(lattice, ColumnLattice):
        lattice = ColumnLattice.of_matrix(lattice)
    return lattice.contains(vector)


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
    with stab & lower[v] == 0, filled as searches meet each stab.
    """

    braid: list[int]
    comm: list[int]
    cent: list[int]
    lower: list[int]
    conj: list[tuple[int, ...]]
    least: dict[int, int]


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
    return _Tables(braid, comm, cent, lower, conj, {})


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def generator_cap(t: FiniteTarget, caps: dict[str, int] | None = None) -> int:
    caps = caps or DEFAULT_GENERATOR_CAPS
    return caps.get(t.name, caps.get("*", DEFAULT_GENERATOR_CAPS["*"]))


class _Orbits(NamedTuple):
    """The orbit search's result: the generators in assignment order, one
    hom per orbit (the least in search order), the centralizer mask of its
    image, its orbit size, and the number of homs."""

    order: tuple[int, ...]
    reps: tuple[tuple[int, ...], ...]
    cents: tuple[int, ...]
    sizes: tuple[int, ...]
    count: int


def _assignments(p: Presentation, t: FiniteTarget) -> _Orbits:
    """One relator-satisfying assignment per orbit under simultaneous
    conjugation in the target, found by an orderly search.

    Generators are assigned in order of falling relator participation,
    values in increasing index, so the search order is the lexicographic
    order of image tuples read in that generator order. stab is the
    centralizer of the images assigned so far; a value v is tried only if
    no conjugator in stab sends it lower (stab & lower[v] == 0), which
    keeps exactly the least member of each orbit. At a leaf stab is the
    centralizer of the whole image, so the orbit has |G| / |stab| members.
    """
    k = p.n_generators
    n = t.size
    tables = _target_tables(t)
    cent, lower, least = tables.cent, tables.lower, tables.least
    full = (1 << n) - 1

    participation = [0] * (k + 1)
    # Mask table per pair; a second relator on a pair intersects with the first.
    pair: dict[tuple[int, int], list[int]] = {}
    for i, j, kind in p.pair_table():
        mask = tables.braid if kind is RelatorKind.BRAID else tables.comm
        prior = pair.get((i, j))
        pair[(i, j)] = mask if prior is None else [a & b for a, b in zip(prior, mask)]
        participation[i] += 1
        participation[j] += 1
    general: list[tuple[set[int], GroupWord]] = []
    for r in p.cycles:
        support = {abs(x) for x in r.word}
        if not support:
            continue
        for g in support:
            participation[g] += len(r.word)
        general.append((support, r.word))

    order = sorted(range(1, k + 1), key=lambda g: (-participation[g], g))
    pos = {g: i for i, g in enumerate(order)}

    # pair_rel[step][earlier_step] = mask table of the pair, or None
    pair_rel: list[list[list[int] | None]] = [[None] * k for _ in range(k)]
    for (i, j), masks in pair.items():
        si, sj = pos[i], pos[j]
        lo, hi = min(si, sj), max(si, sj)
        pair_rel[hi][lo] = masks
    general_at: list[list[GroupWord]] = [[] for _ in range(k)]
    for support, word in general:
        last = max(pos[g] for g in support)
        general_at[last].append(word)

    images = [0] * (k + 1)  # 1-based by generator id
    table = t.table
    inv = t.inverse
    ident = t.identity
    reps: list[tuple[int, ...]] = []
    cents: list[int] = []
    sizes: list[int] = []

    def eval_general(word: GroupWord) -> int:
        acc = ident
        for x in word:
            g = images[abs(x)]
            acc = table[acc][g if x > 0 else inv[g]]
        return acc

    # Depth-first with an explicit stack, so word length is not bounded by
    # the recursion limit: per assigned step, its stab and its values left.
    stack: list[tuple[int, Iterator[int]]] = []

    def descend(stab: int) -> None:
        """Record a leaf, or push the values to try for the next generator."""
        step = len(stack)
        if step == k:
            reps.append(tuple(images[1 : k + 1]))
            cents.append(stab)
            sizes.append(n // stab.bit_count())
            return
        allowed = least.get(stab)
        if allowed is None:
            allowed = least[stab] = sum(1 << v for v in range(n) if not stab & lower[v])
        for earlier in range(step):
            masks = pair_rel[step][earlier]
            if masks is not None:
                allowed &= masks[images[order[earlier]]]
                if not allowed:
                    break
        stack.append((stab, _iter_bits(allowed)))

    descend(full)
    while stack:
        step = len(stack) - 1
        stab, values = stack[-1]
        val = next(values, None)
        if val is None:
            stack.pop()
        else:
            images[order[step]] = val
            if all(eval_general(word) == ident for word in general_at[step]):
                descend(stab & cent[val])
    return _Orbits(tuple(order), tuple(reps), tuple(cents), tuple(sizes), sum(sizes))


@lru_cache(maxsize=CACHE_SIZE)
def _memo(content: tuple) -> dict:
    """Orbit search results of one presentation content, by target."""
    return {}


def _orbits(p: Presentation, t: FiniteTarget, caps: dict[str, int] | None) -> _Orbits:
    """The one orbit search for p's content (generator count, pair table,
    cycle words) and t, after the cap test, so that a cap raises whatever
    is cached."""
    k = p.n_generators
    cap = generator_cap(t, caps)
    if k > cap:
        raise ResourceCapError(f"{k} generators exceed the cap {cap} for target {t.name}")
    memo = _memo((k, p.braid_pairs, p.comm_pairs, tuple(r.word for r in p.cycles)))
    found = memo.get(t)
    if found is None:
        found = memo[t] = _assignments(p, t)
    return found


def hom_count(
    p: Presentation, t: FiniteTarget, caps: dict[str, int] | None = None
) -> HomCount:
    """Exact number of homomorphisms into the target: the orbit sizes of the
    orbit search summed; no hom beyond one per orbit is ever built."""
    return HomCount(t.name, _orbits(p, t, caps).count)


def enumerate_homs(
    p: Presentation, t: FiniteTarget, caps: dict[str, int] | None = None
) -> list[tuple[int, ...]]:
    """Every homomorphism as generator images, in search order; a fresh list.

    Expanded on request from the orbit search: each representative's
    conjugates, sorted into the order an unpruned search would list them.
    """
    found = _orbits(p, t, caps)
    conj, mul = _target_tables(t).conj, t.mul
    transversals: dict[int, list[int]] = {}
    members = []
    # conjugates in search order (generators permuted), sorted, put back
    order = [g - 1 for g in found.order]
    for h, cent in zip(found.reps, found.cents):
        cosets = transversals.get(cent)
        if cosets is None:
            # one conjugator per left coset of the centralizer: no repeats
            cosets = transversals[cent] = []
            seen = 0
            for c in range(t.size):
                if not seen >> c & 1:
                    cosets.append(c)
                    seen |= sum(1 << mul(c, z) for z in _iter_bits(cent))
        ordered = [h[g] for g in order]
        members += [tuple(map(conj[c].__getitem__, ordered)) for c in cosets]
    back = sorted(range(len(order)), key=order.__getitem__)
    return [tuple(h[i] for i in back) for h in sorted(members)]


def hom_orbits(
    p: Presentation, t: FiniteTarget, caps: dict[str, int] | None = None
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """One homomorphism per orbit under conjugation in the target, the first
    of each in search order, and the orbit sizes: the orbit search's own
    result, in the order it found them."""
    found = _orbits(p, t, caps)
    return found.reps, found.sizes


def hom_count_up_to_conjugacy(
    p: Presentation, t: FiniteTarget, caps: dict[str, int] | None = None
) -> HomCount:
    """Number of homomorphisms up to simultaneous target conjugacy: the
    number of orbit search representatives."""
    return HomCount(t.name, len(_orbits(p, t, caps).reps))


def is_hom(p: Presentation, t: FiniteTarget, images: tuple[int, ...]) -> bool:
    """Whether the generator images satisfy every relator: pair masks for
    the pair table, evaluation for the cycle words.

    When every pair off the braid pairs commutes (comm_pairs None), the
    commutation relators hold iff every non-commuting pair of generators
    is a braid pair: the non-commuting pairs, counted by image value, are
    as many as the non-commuting braid pairs.
    """
    tables = _target_tables(t)
    braid, comm = tables.braid, tables.comm
    braided = [(images[i - 1], images[j - 1]) for i, j in p.braid_pairs]
    if not all(braid[a] >> b & 1 for a, b in braided):
        return False
    if p.comm_pairs is not None:
        if not all(comm[images[i - 1]] >> images[j - 1] & 1 for i, j in p.comm_pairs):
            return False
    else:
        by_value = Counter(images)
        apart = sum(
            by_value[a] * by_value[b]
            for a, b in combinations(by_value, 2)
            if not comm[a] >> b & 1
        )
        if apart != sum(not comm[a] >> b & 1 for a, b in braided):
            return False
    return all(evaluate_word(t, images, r.word) == t.identity for r in p.cycles)
