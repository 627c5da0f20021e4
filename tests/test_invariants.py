import pytest

from braidforge.bricks import build_bricks
from braidforge.errors import PresentationError, ResourceCapError
from braidforge.finite_groups import builtin_targets, direct_product, load_table
from braidforge.invariants import (
    abelianization,
    enumerate_homs,
    hom_count,
)
from braidforge.isomaps import GeneratorMap, check_map
from braidforge.linking import build_graph
from braidforge.presentations import (
    Presentation,
    Relator,
    braid_relator,
    comm_relator,
    presentation_of,
)
from braidforge.words import parse_word

from conftest import brute_hom_count, exponent_matrix, random_word

TARGETS = builtin_targets()


def presentation_for(text, strands=None):
    return presentation_of(build_graph(build_bricks(parse_word(text, strands))))


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


@pytest.mark.parametrize(
    "relator, letter",
    [
        (Relator((0, 1), (1, 0), ()), 0),
        (Relator((1, 3, 2), (2, 1, 3), ()), 3),
        (braid_relator(1, 3), 3),
    ],
    ids=["letter-0", "generator-3", "braid-relator-1-3"],
)
@pytest.mark.parametrize(
    "invariant",
    [abelianization, lambda p: hom_count(p, TARGETS["S3"])],
    ids=["abelianization", "hom_count"],
)
def test_letters_outside_the_generators_raise(relator, letter, invariant):
    # Letter 0 would index the last generator, and 3 none of two.
    with pytest.raises(PresentationError, match=f"relator 1 has the letter -?{letter};"):
        invariant(Presentation(2, (comm_relator(1, 2), relator)))


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
    k = p.n_generators
    perm = {i: k + 1 - i for i in range(1, k + 1)}

    def rename(word):
        return tuple(perm[x] if x > 0 else -perm[-x] for x in word)

    renamed = [Relator(rename(r.lhs), rename(r.rhs), r.provenance) for r in relators]
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
    assert len(hom_count(p, TARGETS["S3"]).reps) == 3


def test_up_to_conjugacy_agrees_for_worked_pair():
    pa = presentation_for("1 2 1 1 2 1")
    pb = presentation_for("1 1 2 1 1 2")
    for name in ("S3", "S4"):
        t = TARGETS[name]
        assert len(hom_count(pa, t).reps) == len(hom_count(pb, t).reps)


def test_generator_cap():
    p = Presentation(11, ())
    with pytest.raises(ResourceCapError):
        hom_count(p, TARGETS["S4"])
    # caps are configurable per target
    small = Presentation(3, (comm_relator(1, 2), comm_relator(1, 3), comm_relator(2, 3)))
    with pytest.raises(ResourceCapError):
        hom_count(small, TARGETS["S4"], {"S4": 2, "*": 2})
    assert hom_count(small, TARGETS["S4"], {"*": 3}).count > 0


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
