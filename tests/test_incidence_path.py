"""Differential checks of the component path against Smith normal form,
and of what a presentation no braid word yields does instead.

The references (conftest) take sympy's Smith normal decomposition of the
dense exponent matrix spelled from the relator words: the abelianization
from its diagonal, and lattice membership from its row transform. A
graph's lattice joins each region's i_n and i_2 without spelling its
word; a hand-built copy of the same presentation sums its cycle words,
and the two must have the same components.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from braidforge.bricks import build_bricks
from braidforge.errors import PresentationError
from braidforge.finite_groups import builtin_targets
from braidforge.invariants import ColumnLattice, abelianization
from braidforge.isomaps import GeneratorMap, check_map
from braidforge.linking import build_graph
from braidforge.presentations import (
    Presentation,
    Relator,
    RelatorKind,
    braid_relator,
    comm_relator,
    cycle_relator,
    presentation_of,
    shifted_cycle_presentation,
)
from braidforge.words import BraidWord

from conftest import exponent_matrix, snf_abelianization, snf_membership, table_presentation

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def project(lattice: ColumnLattice, vector: dict[int, int]) -> tuple[int, ...]:
    """The vector's image in Z^c, coefficients by 0-based generator (absent
    ones zero) summed per component of the lattice: zero iff the vector
    lies in the span."""
    sums = [0] * lattice.n_components
    for g, v in vector.items():
        sums[lattice.component[g]] += v
    return tuple(sums)


def probe_vectors(p: Presentation, rng: random.Random) -> list[dict[int, int]]:
    """Random vectors, most outside the lattice, and integer column combinations,
    as project takes them: coefficients by 0-based generator."""
    k = p.n_generators
    matrix = exponent_matrix(p)
    out = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(6)]
    out += [[0] * k]
    for _ in range(6):
        v = [0] * k
        for _ in range(rng.randint(1, 4)):
            j = rng.randrange(len(matrix[0]))
            q = rng.randint(-3, 3)
            for i in range(k):
                v[i] += q * matrix[i][j]
        out.append(v)
        # one unit step off a lattice vector
        w = list(v)
        w[rng.randrange(k)] += 1
        out.append(w)
    return [dict(enumerate(v)) for v in out]


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
        lattice = ColumnLattice(p)
        if not p.relators:
            continue
        member = snf_membership(exponent_matrix(p))
        for v in probe_vectors(p, rng):
            assert (not any(project(lattice, v))) == member(v), v


wide_words = st.integers(2, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n - 1), max_size=60))
)


@SETTINGS
@given(wide_words)
def test_region_joins_match_summed_cycle_words(case):
    n, letters = case
    p = presentation_of(build_graph(build_bricks(BraidWord(n, tuple(letters)))))
    assert p.region_cycles is not None
    copy = table_presentation(p.n_generators, p.braid_pairs, p.cycles)
    assert copy.region_cycles is None and copy == p
    assert ColumnLattice(p).component == ColumnLattice(copy).component
    if p.n_generators:
        bad = Relator((1, 1), (), ())
        broken = table_presentation(p.n_generators, p.braid_pairs, p.cycles + (bad,))
        message = rf"^relator {len(p.relators)} has exponent sums s1\^2,"
        with pytest.raises(PresentationError, match=message):
            ColumnLattice(broken)


def test_non_incidence_columns_raise():
    # Columns 2*e1 and e2 + e3 belong to no graph's incidence matrix.
    power = Relator((1, 1), (), ("power", 1))
    total = Relator((2, 3), (), ("sum", 2))
    pairs = (braid_relator(1, 2), comm_relator(2, 3))
    target = Presentation(3, pairs)
    for relators, message in (
        (pairs + (power,), r"relator 2 has exponent sums s1\^2,"),
        (pairs + (comm_relator(1, 3), total), r"relator 3 has exponent sums s2\^1 s3\^1,"),
    ):
        p = Presentation(3, relators)
        # s2 -> s1 s2 s1^-1 keeps check_map off the relabeling shortcut
        m = GeneratorMap(p, target, ((1,), (1, 2, -1), (3,)), ((1,), (-1, 2, 1), (3,)))
        for call in (
            lambda: abelianization(p),
            lambda: ColumnLattice(p),
            lambda: check_map(m, [builtin_targets()["S3"]]),
        ):
            with pytest.raises(PresentationError, match=message):
                call()
    # Other shapes that are not e_i - e_j: e1 + e2, e1 - e2 + e3, 2 e2 - 2 e1, e3.
    for word in ((1, 2), (1, -2, 3), (-1, -1, 2, 2), (3,)):
        shape = Relator(word, (), ("shape", 3))
        with pytest.raises(PresentationError, match="relator 3 "):
            ColumnLattice(Presentation(3, pairs + (comm_relator(1, 3), shape)))


@pytest.mark.parametrize("k", [3, 40])
def test_bad_column_index_counts_the_pair_table(monkeypatch, k):
    # the cycles follow k(k-1)/2 pair relators on a full table; the index
    # of the bad one is counted off the table, spelling no relator
    power = Relator((1, 1), (), ())
    cycles = (cycle_relator((1, 2, 3)), power)
    p = table_presentation(k, [(i, i + 1) for i in range(1, k)], cycles)

    def spelled(self):
        raise AssertionError("relators spelled")

    monkeypatch.setattr(Presentation, "relators", property(spelled))
    index = k * (k - 1) // 2 + 1
    with pytest.raises(PresentationError, match=rf"^relator {index} has exponent sums s1\^2,"):
        abelianization(p)


def test_presentation_errors_hold_under_optimize_flag():
    script = (
        "from braidforge.errors import PresentationError\n"
        "from braidforge.invariants import abelianization\n"
        "from braidforge.presentations import Presentation, Relator\n"
        "assert False, 'asserts must be stripped'\n"
        "power = Relator((1, 1), (), ())\n"
        "for build in (lambda: abelianization(Presentation(1, (power,))),\n"
        "              lambda: Presentation(1, (Relator((0,), (1,), ()),))):\n"
        "    try:\n"
        "        build()\n"
        "    except PresentationError as e:\n"
        "        print(str(e).split(' has ')[0])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("BRAIDFORGE_CONFIG", None)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout.splitlines() == ["relator 0", "relator 0"]
