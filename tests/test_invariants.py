import math

import pytest

from braidforge.bricks import build_bricks
from braidforge.errors import ResourceCapError
from braidforge.finite_groups import builtin_targets, direct_product, load_table
from braidforge.invariants import (
    abelianization,
    enumerate_homs,
    exponent_matrix,
    hom_count,
    hom_count_up_to_conjugacy,
    in_column_lattice,
    smith_normal_form,
)
from braidforge.isomaps import GeneratorMap, check_map
from braidforge.linking import build_graph
from braidforge.presentations import (
    Presentation,
    braid_relator,
    comm_relator,
    presentation_of,
)
from braidforge.words import parse_word

from conftest import brute_hom_count, random_word

TARGETS = builtin_targets()


def presentation_for(text, strands=None):
    return presentation_of(build_graph(build_bricks(parse_word(text, strands))))


def _gcd_of_minors(matrix, k):
    from itertools import combinations

    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if k == 0:
        return 1
    g = 0
    for rs in combinations(range(rows), k):
        for cs in combinations(range(cols), k):
            sub = [[matrix[r][c] for c in cs] for r in rs]
            g = math.gcd(g, _int_det(sub))
    return g


def _int_det(m):
    # Bareiss elimination, exact
    n = len(m)
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def test_snf_against_determinantal_divisors(rng):
    # invariant factors equal quotients of gcds of k x k minors
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        matrix = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        diag, _ = smith_normal_form(matrix)
        prev = 1
        expected = []
        for k in range(1, min(rows, cols) + 1):
            g = _gcd_of_minors(matrix, k)
            if g == 0:
                expected.append(0)
            else:
                expected.append(g // prev)
                prev = g
        # truncate at the first zero (rank reached)
        for i, d in enumerate(expected):
            if d == 0:
                expected = expected[:i] + [0] * (len(expected) - i)
                break
        assert [abs(d) for d in diag] == expected


def test_snf_divisibility_chain(rng):
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        matrix = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        diag, _ = smith_normal_form(matrix)
        nonzero = [d for d in diag if d != 0]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def test_abelianization_examples():
    assert abelianization(presentation_for("1 2 2 1")).invariant_factors == (0, 0)
    assert abelianization(presentation_for("1 2 2 1 2 2")).invariant_factors == (1, 1, 1, 0)
    assert abelianization(presentation_for("1 1")).invariant_factors == (0,)
    assert abelianization(presentation_for("1", strands=3)).invariant_factors == ()
    assert str(abelianization(presentation_for("1 2 2 1"))) == "Z^2"


def test_rank_examples():
    assert abelianization(presentation_for("1", strands=2)).rank == 0
    for n in range(2, 7):
        word = " ".join(["1"] * n)
        assert abelianization(presentation_for(word, strands=2)).rank == 1
    assert abelianization(presentation_for("1 2 2 1")).rank == 2


def test_rank_positive_with_bricks(rng):
    for _ in range(50):
        w = random_word(rng)
        p = presentation_for(" ".join(map(str, w.letters)), w.strands)
        if p.n_generators:
            assert abelianization(p).rank >= 1


def test_hom_count_free_generator():
    p = Presentation(1, ())
    assert hom_count(p, TARGETS["S3"]).count == 6


def test_hom_count_braid_pair_frozen():
    # brute force over 36 pairs, frozen before the build: 12
    p = Presentation(2, (braid_relator(1, 2),))
    assert hom_count(p, TARGETS["S3"]).count == 12
    assert brute_hom_count([r.word for r in p.relators], 2, TARGETS["S3"]) == 12


def test_every_relator_on_a_pair_applies():
    # a braid and a commutation relator on one pair force s1 = s2
    s3 = TARGETS["S3"]
    both = (braid_relator(1, 2), comm_relator(1, 2))
    assert brute_hom_count([r.word for r in both], 2, s3) == 6
    for relators in (both, both[::-1]):
        p = Presentation(2, relators)
        assert hom_count(p, s3).count == 6
        assert sorted(enumerate_homs(p, s3)) == [(g, g) for g in range(6)]
    # s1 -> s1, s2 -> s1 s2 s1^-1 is no relabeling, so check_map counts homs
    m = GeneratorMap(
        Presentation(2, both), Presentation(2, both[::-1]),
        ((1,), (1, 2, -1)), ((1,), (-1, 2, 1)),
    )
    report = check_map(m, [s3])
    assert report.consistent and report.hom_counts == {"S3": (6, 6)}


def test_hom_count_matches_brute_force(rng):
    for _ in range(40):
        w = random_word(rng, max_strands=4, max_len=8)
        p = presentation_for(" ".join(map(str, w.letters)), w.strands)
        if p.n_generators > 4:
            continue
        for name in ("S3", "D4"):
            t = TARGETS[name]
            expected = brute_hom_count([r.word for r in p.relators], p.n_generators, t)
            assert hom_count(p, t).count == expected


def test_hom_count_direct_product_multiplies(rng):
    s3 = TARGETS["S3"]
    q8 = TARGETS["Q8"]
    prod = direct_product(s3, q8)
    for text in ("1 2 1 1 2 1", "1 1 2 1 1 2", "1 2 2 1"):
        p = presentation_for(text)
        assert (
            hom_count(p, prod).count
            == hom_count(p, s3).count * hom_count(p, q8).count
        )


def test_hom_count_invariant_under_relabeling(rng):
    # permuting relators or renumbering generators keeps the count
    import random

    p = presentation_for("1 2 1 1 2 1")
    t = TARGETS["S3"]
    base = hom_count(p, t).count
    relators = list(p.relators)
    random.Random(3).shuffle(relators)
    assert hom_count(Presentation(p.n_generators, tuple(relators)), t).count == base
    # renumber generators with the reversal permutation
    import dataclasses

    k = p.n_generators
    perm = {i: k + 1 - i for i in range(1, k + 1)}
    renamed = []
    for r in relators:
        word = tuple(perm[abs(x)] if x > 0 else -perm[abs(x)] for x in r.word)
        renamed.append(dataclasses.replace(r, word=word))
    assert hom_count(Presentation(k, tuple(renamed)), t).count == base


def test_trivial_hom_always_exists(rng):
    for _ in range(30):
        w = random_word(rng, max_len=8)
        p = presentation_for(" ".join(map(str, w.letters)), w.strands)
        if p.n_generators <= 8:
            assert hom_count(p, TARGETS["S3"]).count >= 1


def _table_text(table):
    return f"{len(table)}\n" + "\n".join(" ".join(map(str, row)) for row in table)


def test_custom_tables_sharing_name_and_size():
    # Both tables load under the default name "custom" with 8 elements;
    # the compatibility masks of the first must not serve the second.
    p = Presentation(3, (braid_relator(1, 2), comm_relator(1, 3), comm_relator(2, 3)))
    d4 = load_table(_table_text(TARGETS["D4"].table))
    z8 = load_table(_table_text([[(a + b) % 8 for b in range(8)] for a in range(8)]))
    assert d4.name == z8.name == "custom" and d4.size == z8.size
    assert hom_count(p, d4).count == brute_hom_count([r.word for r in p.relators], 3, d4)
    assert hom_count(p, z8).count == 64


def test_up_to_conjugacy():
    p = Presentation(1, ())
    # one free generator into S3: orbits = conjugacy classes of S3 = 3
    assert hom_count_up_to_conjugacy(p, TARGETS["S3"]).count == 3


def test_up_to_conjugacy_agrees_for_worked_pair():
    pa = presentation_for("1 2 1 1 2 1")
    pb = presentation_for("1 1 2 1 1 2")
    for name in ("S3", "S4"):
        t = TARGETS[name]
        assert (
            hom_count_up_to_conjugacy(pa, t).count
            == hom_count_up_to_conjugacy(pb, t).count
        )


def test_generator_cap():
    p = Presentation(11, ())
    with pytest.raises(ResourceCapError):
        hom_count(p, TARGETS["S4"])
    # caps are configurable per target
    small = Presentation(3, (comm_relator(1, 2), comm_relator(1, 3), comm_relator(2, 3)))
    with pytest.raises(ResourceCapError):
        hom_count(small, TARGETS["S4"], {"S4": 2, "*": 2})
    assert hom_count(small, TARGETS["S4"], {"*": 3}).count > 0


def test_in_column_lattice():
    matrix = [[2, 0], [0, 3]]
    assert in_column_lattice(matrix, [4, 3])
    assert not in_column_lattice(matrix, [1, 0])
    assert in_column_lattice([[0]], [0])
    assert not in_column_lattice([[0]], [1])


def _random_unimodular(rng, n):
    # product of elementary row operations
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        for c in range(n):
            m[i][c] += q * m[j][c]
    return m


def _matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_in_column_lattice_randomized(rng):
    # build M = P D Q with known diagonal D and unimodular P, Q; then
    # v = P w lies in the column lattice exactly when d_i | w_i throughout
    for _ in range(30):
        n = rng.randint(2, 4)
        diag = [rng.choice([0, 1, 2, 3, 4]) for _ in range(n)]
        d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        p = _random_unimodular(rng, n)
        q = _random_unimodular(rng, n)
        m = _matmul(_matmul(p, d), q)
        for _ in range(6):
            w = [rng.randint(-6, 6) for _ in range(n)]
            v = [sum(p[i][k] * w[k] for k in range(n)) for i in range(n)]
            expected = all(
                (w[i] == 0) if diag[i] == 0 else (w[i] % diag[i] == 0)
                for i in range(n)
            )
            assert in_column_lattice(m, v) == expected, (diag, w)


def test_exponent_matrix_shape():
    p = presentation_for("1 2 1 1 2 1")
    m = exponent_matrix(p)
    assert len(m) == 4
    assert len(m[0]) == len(p.relators)
    comm_cols = [
        j for j, r in enumerate(p.relators) if r.kind.value == "comm"
    ]
    for j in comm_cols:
        assert all(m[i][j] == 0 for i in range(4))


def test_cycle_relator_matrix_column(rng):
    # a cycle relator's exponent column is +1 at the last cycle entry and
    # -1 at the second, zero elsewhere
    found = 0
    while found < 10:
        w = random_word(rng, max_strands=4, max_len=12)
        p = presentation_for(" ".join(map(str, w.letters)), w.strands)
        matrix = exponent_matrix(p)
        for j, r in enumerate(p.relators):
            if r.kind.value != "cycle":
                continue
            found += 1
            n = (len(r.lhs) + 2) // 2
            cycle = tuple(reversed(r.lhs[:n]))
            col = [matrix[i][j] for i in range(p.n_generators)]
            expected = [0] * p.n_generators
            expected[cycle[-1] - 1] = 1
            expected[cycle[1] - 1] = -1
            assert col == expected


def test_enumerate_homs_consistency():
    p = presentation_for("1 1 1")
    homs = enumerate_homs(p, TARGETS["S3"])
    assert len(homs) == 12
    assert len(set(homs)) == 12
