"""Small finite groups as multiplication tables.

Built-in targets are the symmetric groups S3..S5, the dihedral groups of
the square, pentagon and hexagon, and the quaternion group. Custom
targets load from a table file: first line |G|, then |G| rows of |G|
indices, identity at index 0. Built-in tables are immutable and built
once per process, on first use. Every target comes from the one
constructor, ``FiniteTarget(name, table, identity)``, which derives the
inverses from the table and refuses any table that is not a group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations
from operator import itemgetter
from typing import Callable


@dataclass(frozen=True)
class FiniteTarget:
    """A group as its multiplication table and each element's inverse.

    ``FiniteTarget(name, table, identity)`` reads the table into tuples
    of rows and derives the inverses; a table that is not a group raises
    ValueError naming the element, row, column or triple where it fails.
    Targets are equal by name, table and identity.
    """

    name: str
    table: tuple[tuple[int, ...], ...]
    identity: int = 0
    inverse: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.table, (tuple, list)):
            raise ValueError(f"{self.name}: the table {self.table!r} is no sequence of rows")
        for a, row in enumerate(self.table):
            if not isinstance(row, (tuple, list)):
                raise ValueError(f"{self.name}: row {a} is no sequence of elements: {row!r}")
        table = tuple(map(tuple, self.table))
        e, n = self.identity, len(table)
        if not (isinstance(e, int) and 0 <= e < n) or any(len(row) != n for row in table):
            raise ValueError(f"{self.name}: the table is not square or identity {e!r} is no element")
        try:
            inverse = tuple(row.index(e) for row in table)
        except ValueError:
            raise ValueError(
                f"group table {self.name!r} has an element without inverse"
            ) from None
        _check_group(self.name, table, e)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "inverse", inverse)
        # caches key on targets: the table (14 400 entries for S5) is hashed once
        object.__setattr__(self, "_hash", hash((self.name, table, self.identity)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]


def _check_group(name: str, table: tuple[tuple[int, ...], ...], e: int) -> None:
    """On a square table with an element e: two-sided identity e, Latin
    square, then Light's associativity test on generators A found by
    closing {e} under right multiplication, adding each element not yet
    reached: the a with (xa)y = x(ay) for all x, y are closed under
    products. O(n^2 |A|)."""
    n = len(table)
    full = set(range(n))
    for a, row, column in zip(range(n), table, zip(*table)):
        if table[e][a] != a or column[e] != a:
            raise ValueError(f"{name}: identity fails at {a}")
        for kind, line in (("row", row), ("column", column)):
            if set(line) != full:
                raise ValueError(f"{name}: {kind} {a} is not a permutation")
    reached, order, generators = {e}, [e], []
    for a in range(n):
        if a not in reached:
            generators.append(a)
            for x in order:  # order grows as new products are reached
                new = {table[x][g] for g in generators} - reached
                reached |= new
                order += new
    for a in generators:  # n >= 2 here, so the getter returns a tuple
        times_a_row = itemgetter(*table[a])
        for x, row in enumerate(table):
            if table[row[a]] != times_a_row(row):
                y = next(y for y in range(n) if table[row[a]][y] != row[table[a][y]])
                raise ValueError(f"{name}: associativity fails at {x},{a},{y}")


@cache
def symmetric_group(m: int) -> FiniteTarget:
    elems = sorted(permutations(range(m)))  # identity is lex-first
    index = {e: i for i, e in enumerate(elems)}
    # row a: each b composed after a, one C-level getter per row (below S2, b)
    compose = itemgetter if m > 1 else lambda *a: tuple
    table = [list(map(index.__getitem__, map(compose(*a), elems))) for a in elems]
    return FiniteTarget(f"S{m}", table)


@cache
def dihedral_group(m: int) -> FiniteTarget:
    # Element f*m+a encodes s^f r^a; r^a s = s r^-a.
    def mul(x: int, y: int) -> int:
        f1, a1 = divmod(x, m)
        f2, a2 = divmod(y, m)
        f = (f1 + f2) % 2
        a = ((-a1 if f2 else a1) + a2) % m
        return f * m + a

    table = [[mul(x, y) for y in range(2 * m)] for x in range(2 * m)]
    return FiniteTarget(f"D{m}", table)


@cache
def quaternion_group() -> FiniteTarget:
    # 0..7 = 1, -1, i, -i, j, -j, k, -k, as coefficients on (1, i, j, k)
    units = [tuple(s * (a == u) for a in range(4)) for u in range(4) for s in (1, -1)]

    def hamilton(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    index = {q: i for i, q in enumerate(units)}
    table = [[index[hamilton(p, q)] for q in units] for p in units]
    return FiniteTarget("Q8", table)


BUILTIN_TARGETS: dict[str, Callable[[], FiniteTarget]] = {
    "S3": lambda: symmetric_group(3),
    "S4": lambda: symmetric_group(4),
    "S5": lambda: symmetric_group(5),
    "D4": lambda: dihedral_group(4),
    "D5": lambda: dihedral_group(5),
    "D6": lambda: dihedral_group(6),
    "Q8": quaternion_group,
}


def builtin_targets() -> dict[str, FiniteTarget]:
    """Every built-in target (each table built on its first use)."""
    return {name: build() for name, build in BUILTIN_TARGETS.items()}


def load_table(text: str, name: str = "custom") -> FiniteTarget:
    """Parse the multiplication-table file format into a target."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty table file")
    n = int(tokens[0])
    values = [int(x) for x in tokens[1:]]
    if len(values) != n * n:
        raise ValueError(f"expected {n * n} table entries, got {len(values)}")
    table = [values[i * n : (i + 1) * n] for i in range(n)]
    return FiniteTarget(name, table, identity=0)


def direct_product(t1: FiniteTarget, t2: FiniteTarget) -> FiniteTarget:
    n1, n2 = t1.size, t2.size
    table = [
        [
            t1.mul(a1, b1) * n2 + t2.mul(a2, b2)
            for b1 in range(n1)
            for b2 in range(n2)
        ]
        for a1 in range(n1)
        for a2 in range(n2)
    ]
    return FiniteTarget(f"{t1.name}x{t2.name}", table, identity=0)
