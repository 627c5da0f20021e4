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
normal form, computed once per matrix. Homomorphism counts into small
finite groups use pruned backtracking: the pair table becomes per-pair compatibility bitmasks
(every relator on a pair applies, so a pair carrying both kinds gets
both masks) that are intersected as images are assigned; longer
relators are evaluated as soon as their support is complete.
Exceeding a configured generator cap raises, never guesses: the cap test
runs before any cache lookup. Hom data is memoized per process for the
CACHE_SIZE most recent presentation contents (generator count, pair
table, cycle words; never a spelled relator tuple), per target object:
the hom list, a streamed count (a count never lists the homs), and one
hom per orbit under conjugation in the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

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


def _compat_masks(t: FiniteTarget) -> tuple[list[int], list[int]]:
    n = t.size
    braid, comm = [], []
    for g in range(n):
        bm = cm = 0
        for h in range(n):
            gh = t.mul(g, h)
            hg = t.mul(h, g)
            if t.mul(gh, g) == t.mul(hg, h):
                bm |= 1 << h
            if gh == hg:
                cm |= 1 << h
        braid.append(bm)
        comm.append(cm)
    return braid, comm


# Keyed by the table itself: two targets may share a name (load_table's
# default "custom") and a size yet differ.
_MASK_CACHE: dict[FiniteTarget, tuple[list[int], list[int]]] = {}


def _cached_masks(t: FiniteTarget) -> tuple[list[int], list[int]]:
    masks = _MASK_CACHE.get(t)
    if masks is None:
        masks = _MASK_CACHE[t] = _compat_masks(t)
    return masks


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def generator_cap(t: FiniteTarget, caps: dict[str, int] | None = None) -> int:
    caps = caps or DEFAULT_GENERATOR_CAPS
    return caps.get(t.name, caps.get("*", DEFAULT_GENERATOR_CAPS["*"]))


def _assignments(p: Presentation, t: FiniteTarget) -> Iterator[tuple[int, ...]]:
    """All relator-satisfying generator images, as tuples indexed by generator."""
    k = p.n_generators
    if k == 0:
        yield ()
        return
    braid_mask, comm_mask = _cached_masks(t)
    full = (1 << t.size) - 1

    participation = [0] * (k + 1)
    # Mask table per pair; a second relator on a pair intersects with the first.
    pair: dict[tuple[int, int], list[int]] = {}
    for i, j, kind in p.pair_table():
        mask = braid_mask if kind is RelatorKind.BRAID else comm_mask
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

    def eval_general(word: GroupWord) -> int:
        acc = ident
        for x in word:
            g = images[abs(x)]
            acc = table[acc][g if x > 0 else inv[g]]
        return acc

    def dfs(step: int) -> Iterator[tuple[int, ...]]:
        if step == k:
            yield tuple(images[1 : k + 1])
            return
        g = order[step]
        allowed = full
        for earlier in range(step):
            masks = pair_rel[step][earlier]
            if masks is None:
                continue
            allowed &= masks[images[order[earlier]]]
            if not allowed:
                return
        for val in _iter_bits(allowed):
            images[g] = val
            ok = True
            for word in general_at[step]:
                if eval_general(word) != ident:
                    ok = False
                    break
            if ok:
                yield from dfs(step + 1)

    yield from dfs(0)


@lru_cache(maxsize=CACHE_SIZE)
def _memo(content: tuple) -> dict:
    """Hom data of one presentation content, by (target, "homs" | "count" | "orbits")."""
    return {}


def _hom_memo(p: Presentation, t: FiniteTarget, caps: dict[str, int] | None) -> dict:
    """The memo of p's content (generator count, pair table, cycle words),
    after the cap test, so that a cap raises whatever is cached."""
    k = p.n_generators
    cap = generator_cap(t, caps)
    if k > cap:
        raise ResourceCapError(f"{k} generators exceed the cap {cap} for target {t.name}")
    return _memo((k, p.braid_pairs, p.comm_pairs, tuple(r.word for r in p.cycles)))


def hom_count(
    p: Presentation, t: FiniteTarget, caps: dict[str, int] | None = None
) -> HomCount:
    """Exact number of homomorphisms into the target: the length of a cached
    hom list, or else a streamed count, of which only the integer is kept."""
    memo = _hom_memo(p, t, caps)
    homs = memo.get((t, "homs"))
    count = len(homs) if homs is not None else memo.get((t, "count"))
    if count is None:
        count = memo[t, "count"] = sum(1 for _ in _assignments(p, t))
    return HomCount(t.name, count)


def enumerate_homs(
    p: Presentation, t: FiniteTarget, caps: dict[str, int] | None = None
) -> list[tuple[int, ...]]:
    """Every homomorphism as generator images, in search order; a fresh list."""
    memo = _hom_memo(p, t, caps)
    homs = memo.get((t, "homs"))
    if homs is None:
        homs = memo[t, "homs"] = tuple(_assignments(p, t))
    return list(homs)


def hom_orbits(
    p: Presentation, t: FiniteTarget, caps: dict[str, int] | None = None
) -> tuple[tuple[tuple[int, ...], ...], frozenset]:
    """One homomorphism per orbit under conjugation in the target (the first
    of each in search order), and the set of all of them."""
    memo = _hom_memo(p, t, caps)
    orbits = memo.get((t, "orbits"))
    if orbits is None:
        homs = enumerate_homs(p, t, caps)
        n, table, inv = t.size, t.table, t.inverse
        inner = {tuple(table[table[inv[c]][x]][c] for x in range(n)) for c in range(n)}
        reps, seen = [], set()
        for h in homs:
            if h not in seen:
                reps.append(h)
                seen.update(tuple(a[x] for x in h) for a in inner)
        orbits = memo[t, "orbits"] = (tuple(reps), frozenset(homs))
    return orbits


def hom_count_up_to_conjugacy(
    p: Presentation, t: FiniteTarget, caps: dict[str, int] | None = None
) -> HomCount:
    """Number of homomorphisms up to simultaneous target conjugacy."""
    return HomCount(t.name, len(hom_orbits(p, t, caps)[0]))
