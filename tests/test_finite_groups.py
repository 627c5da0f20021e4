import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidforge
from braidforge.finite_groups import (
    builtin_targets,
    dihedral_group,
    direct_product,
    load_table,
    quaternion_group,
    symmetric_group,
    validate_target,
)


def test_builtins_validate():
    for name, t in builtin_targets().items():
        validate_target(t)
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
    validate_target(prod)
    assert prod.size == 48


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
