import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import braidforge
from braidforge.finite_groups import (
    FiniteTarget,
    builtin_targets,
    dihedral_group,
    direct_product,
    load_table,
    quaternion_group,
    symmetric_group,
)

from conftest import oracle_group_table

# A loop of order 5 (identity 0, every row and column a permutation)
# that is not associative: (1*1)*2 = 2 but 1*(1*2) = 4.
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def test_builtins_validate():
    for name, t in builtin_targets().items():
        oracle_group_table(name, t.table, t.identity)
        assert t.name == name


def test_sizes():
    t = builtin_targets()
    assert {name: g.size for name, g in t.items()} == {
        "S3": 6, "S4": 24, "S5": 120, "D4": 8, "D5": 10, "D6": 12, "Q8": 8,
    }


def test_s3_structure():
    s3 = symmetric_group(3)
    assert s3.identity == 0
    orders = sorted(_element_order(s3, a) for a in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_quaternion_structure():
    q8 = quaternion_group()
    orders = sorted(_element_order(q8, a) for a in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_quaternion_table_matches_complex_matrices():
    # 1, i, j, k as 2x2 complex matrices; the table lists 1, -1, i, -i, j, -j, k, -k
    one = ((1, 0), (0, 1))
    i = ((1j, 0), (0, -1j))
    j = ((0, 1), (-1, 0))
    k = ((0, 1j), (1j, 0))

    def neg(a):
        return tuple(tuple(-x for x in row) for row in a)

    def matmul(a, b):
        return tuple(
            tuple(sum(a[r][t] * b[t][c] for t in range(2)) for c in range(2)) for r in range(2)
        )

    elements = [m for u in (one, i, j, k) for m in (u, neg(u))]
    index = {m: n for n, m in enumerate(elements)}
    assert len(index) == 8
    table = tuple(tuple(index[matmul(a, b)] for b in elements) for a in elements)
    assert quaternion_group().table == table


def test_dihedral_structure():
    d5 = dihedral_group(5)
    orders = sorted(_element_order(d5, a) for a in range(10))
    assert orders.count(2) == 5  # the five reflections
    assert max(orders) == 5


def _element_order(t, a):
    acc, n = a, 1
    while acc != t.identity:
        acc = t.mul(acc, a)
        n += 1
    return n


def test_load_table_roundtrip():
    s3 = symmetric_group(3)
    text = "6\n" + "\n".join(" ".join(str(x) for x in row) for row in s3.table)
    loaded = load_table(text, "S3copy")
    assert loaded.table == s3.table


def test_load_table_rejects_bad():
    with pytest.raises(ValueError):
        load_table("2\n0 1\n1 1")  # not a latin square
    with pytest.raises(ValueError):
        load_table("3\n0 1\n")  # wrong size
    # valid latin square, identity not at 0
    with pytest.raises(ValueError):
        load_table("2\n1 0\n0 1")


def test_direct_product():
    s3 = symmetric_group(3)
    q8 = quaternion_group()
    prod = direct_product(s3, q8)
    oracle_group_table(prod.name, prod.table, prod.identity)
    assert prod.size == 48


def random_loop(rng: random.Random, n: int) -> list[list[int]]:
    """A random Latin square of order n whose row and column 0 are 0..n-1,
    filled cell by cell in random order of symbols with backtracking."""
    table = [[r if c == 0 or r == 0 else None for c in range(n)] for r in range(n)]
    table[0] = list(range(n))
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(i: int) -> bool:
        if i == len(cells):
            return True
        r, c = cells[i]
        used = set(table[r][:c]) | {table[x][c] for x in range(r)}
        symbols = [s for s in range(n) if s not in used]
        rng.shuffle(symbols)
        for s in symbols:
            table[r][c] = s
            if fill(i + 1):
                return True
        table[r][c] = None
        return False

    assert fill(0)
    return table


def relabel(table, identity: int, perm: list[int]) -> tuple[list[list[int]], int]:
    """The table with element a renamed perm[a], and its identity renamed."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out, perm[identity]


def product(t1, t2) -> list[list[int]]:
    """The direct product of two tables with identity 0, pairs (a, b) as a*|t2| + b."""
    n1, n2 = len(t1), len(t2)
    return [
        [t1[a1][b1] * n2 + t2[a2][b2] for b1 in range(n1) for b2 in range(n2)]
        for a1 in range(n1)
        for a2 in range(n2)
    ]


def test_constructor_accepts_exactly_the_tables_the_oracle_accepts():
    rng = random.Random(37)
    sizes = [1, 2, 3] + [rng.randint(4, 7) for _ in range(400)]
    cases = [(random_loop(rng, n), 0) for n in sizes]
    cases += [(t.table, t.identity) for t in builtin_targets().values()]
    for t in builtin_targets().values():
        perm = list(range(t.size))
        rng.shuffle(perm)
        cases.append(relabel(t.table, t.identity, perm))
    small = [t.table for t in builtin_targets().values() if t.size <= 8]
    cases += [(product(a, b), 0) for a in small for b in small]
    cases += [(product(LOOP5, small[0]), 0), (LOOP5, 0)]
    cases += [(((0, 1, 2), (1, 0, 0), (2, 0, 0)), 0), (((1, 0), (0, 1)), 0)]
    verdicts = []
    for index, (table, identity) in enumerate(cases):
        name = f"table{index}"
        try:
            oracle_group_table(name, table, identity)
        except ValueError:
            expected = False
        else:
            expected = True
        try:
            FiniteTarget(name, table, identity)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == expected, (table, identity)
        verdicts.append(expected)
    # most random loops are not associative; the built-ins, their
    # relabellings and their products are groups, and nothing else is
    assert sum(verdicts[: len(sizes)]) < len(sizes) // 2
    assert sum(verdicts[len(sizes) :]) == 7 + 7 + len(small) ** 2


def test_builtin_tables_built_once_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(Path(braidforge.__file__).resolve().parents[1]))
    code = (
        "import braidforge.cli, braidforge.finite_groups as f;"
        "print(f.symmetric_group.cache_info().currsize, f.dihedral_group.cache_info().currsize,"
        " f.quaternion_group.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "0", "0"]  # nothing is built at import
    assert symmetric_group(4) is symmetric_group(4)
    assert builtin_targets()["D5"] is dihedral_group(5)
    assert quaternion_group() is builtin_targets()["Q8"]
