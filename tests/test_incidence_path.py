"""Differential checks of the incidence fast path against Smith normal form.

The references (conftest) are the general SNF computations: the
abelianization from the dense exponent matrix's SNF diagonal, and
lattice membership from the SNF row transform. The SNF itself is
checked against sympy.
"""

import random

from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from braidforge.bricks import build_bricks
from braidforge.invariants import (
    ColumnLattice,
    abelianization,
    exponent_columns,
    exponent_matrix,
    in_column_lattice,
    smith_normal_form,
)
from braidforge.linking import build_graph
from braidforge.presentations import (
    Presentation,
    Relator,
    RelatorKind,
    braid_relator,
    comm_relator,
    presentation_of,
    shifted_cycle_presentation,
)
from braidforge.words import BraidWord

from conftest import snf_abelianization, snf_membership

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def probe_vectors(p: Presentation, rng: random.Random) -> list[list[int]]:
    """Random vectors, most outside the lattice, and integer column combinations."""
    k = p.n_generators
    matrix = exponent_matrix(p)
    out = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(6)]
    out += [[0] * k]
    for _ in range(6):
        v = [0] * k
        for _ in range(rng.randint(1, 4)):
            j = rng.randrange(len(p.relators))
            q = rng.randint(-3, 3)
            for i in range(k):
                v[i] += q * matrix[i][j]
        out.append(v)
        # one unit step off a lattice vector
        w = list(v)
        w[rng.randrange(k)] += 1
        out.append(w)
    return out


words = st.tuples(st.integers(3, 6), st.integers(1, 30)).flatmap(
    lambda nl: st.tuples(
        st.just(nl[0]),
        st.lists(st.integers(1, nl[0] - 1), min_size=nl[1], max_size=nl[1]),
        st.integers(0, 2**32),
    )
)


def variants(p: Presentation) -> list[Presentation]:
    """p and every shifted-cycle variant of its first two cycle relators."""
    out = [p]
    cycles = [r for r in p.relators if r.kind is RelatorKind.CYCLE]
    for idx, r in enumerate(cycles[:2]):
        n = (len(r.lhs) + 2) // 2
        out += [shifted_cycle_presentation(p, idx, s) for s in range(1, n)]
    return out


@SETTINGS
@given(words)
def test_fast_path_agrees_with_snf(case):
    n, letters, seed = case
    rng = random.Random(seed)
    base = presentation_of(build_graph(build_bricks(BraidWord(n, tuple(letters)))))
    for p in variants(base):
        assert abelianization(p).invariant_factors == snf_abelianization(p)
        lattice = ColumnLattice(exponent_columns(p), p.n_generators)
        assert lattice.component is not None  # linking-graph presentations are incidence
        if not p.relators:
            continue
        member = snf_membership(exponent_matrix(p))
        for v in probe_vectors(p, rng):
            assert in_column_lattice(lattice, v) == member(v), v


def test_non_incidence_columns_take_snf_path():
    # Columns e1 - e2, 0, 2*e1 and e2 + e3: Z^3 modulo them is Z/2.
    p = Presentation(
        3,
        (
            braid_relator(1, 2),
            comm_relator(2, 3),
            Relator.from_equation(RelatorKind.CYCLE, (1, 1), (), ("power", 1)),
            Relator.from_equation(RelatorKind.CYCLE, (2, 3), (), ("sum", 2)),
        ),
    )
    lattice = ColumnLattice(exponent_columns(p), p.n_generators)
    assert lattice.component is None
    assert abelianization(p).invariant_factors == snf_abelianization(p) == (1, 1, 2)
    member = snf_membership(exponent_matrix(p))
    for v in ([2, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1], [0, 0, 0]):
        assert in_column_lattice(lattice, v) == member(v), v
    assert [in_column_lattice(lattice, v) for v in ([1, 0, 0], [1, 1, 0])] == [False, True]
    # Other shapes that are not e_i - e_j.
    for columns in ([{0: 1, 1: 1}], [{0: 1, 1: -1, 2: 1}], [{0: -2, 1: 2}], [{2: 1}]):
        assert ColumnLattice(columns, 3).component is None


@SETTINGS
@given(
    st.integers(1, 5).flatmap(
        lambda rows: st.lists(
            st.lists(st.integers(-6, 6), min_size=rows, max_size=rows), min_size=1, max_size=6
        )
    ),
    st.lists(st.integers(-6, 6), min_size=5, max_size=5),
)
def test_column_lattice_agrees_with_snf_on_any_matrix(columns, vector):
    rows = len(columns[0])
    matrix = [[col[i] for col in columns] for i in range(rows)]
    v = vector[:rows]
    assert in_column_lattice(matrix, v) == snf_membership(matrix)(v)


@SETTINGS
@given(
    st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols), min_size=1, max_size=5
        )
    )
)
def test_smith_normal_form_agrees_with_sympy(matrix):
    diag, _ = smith_normal_form(matrix)
    expected = sympy_snf(Matrix(matrix), domain=ZZ)
    assert diag == [abs(expected[i, i]) for i in range(len(diag))]


def test_smith_normal_form_agrees_with_sympy_on_exponent_matrices():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(3, 5)
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(2, 9))))
        p = presentation_of(build_graph(build_bricks(w)))
        if not p.relators:
            continue
        matrix = exponent_matrix(p)
        diag, _ = smith_normal_form(matrix)
        expected = sympy_snf(Matrix(matrix), domain=ZZ)
        assert diag == [abs(expected[i, i]) for i in range(len(diag))]
        assert exponent_columns(p) == [
            {i: matrix[i][j] for i in range(p.n_generators) if matrix[i][j]}
            for j in range(len(p.relators))
        ]
