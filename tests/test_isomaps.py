import pytest

from braidforge.bricks import build_bricks
from braidforge.finite_groups import builtin_targets
from braidforge.garside import conjugacy_move_sequence_detailed
from braidforge.isomaps import (
    GeneratorMap,
    check_map,
    maps_along_moves,
    move_map,
    substitute,
)
from braidforge.linking import build_graph
from braidforge.presentations import presentation_of
from braidforge.words import (
    BraidWord,
    MoveKind,
    WordMove,
    apply_move,
    enumerate_moves,
    parse_word,
)

from conftest import random_word

TARGETS = builtin_targets()
CHECK_TARGETS = [TARGETS["S3"], TARGETS["S4"]]


def presentation_for(w: BraidWord):
    return presentation_of(build_graph(build_bricks(w)))


def conj_right(w: BraidWord):
    """The map across the elementary conjugation at the word's right end."""
    return move_map(w, WordMove(MoveKind.ELEM_CONJ_RIGHT, len(w)))


def test_substitute_and_free_reduction():
    images = ((2,), (3, 1, -3))
    assert substitute((1, 2), images) == (2, 3, 1, -3)
    assert substitute((2, -2), images) == ()


def test_conjugation_map_degenerate_single_brick():
    # one brick in the moved column: empty conjugator
    w = BraidWord(2, (1, 1))
    phi = conj_right(w)
    assert phi.images == ((1,),)
    assert phi.inverse_images == ((1,),)


def test_conjugation_map_no_bricks_in_column():
    # moved letter's column has no bricks: identity relabeling
    w = BraidWord(3, (1, 1, 2))
    phi = conj_right(w)
    assert phi.is_relabeling()
    report = check_map(phi, CHECK_TARGETS)
    assert report.consistent


def test_conjugation_map_worked_example():
    w = parse_word("1 2 1 1 2 1")
    phi = conj_right(w)
    # column 1 has three bricks; the top one wraps to the new bottom brick
    assert phi.images == ((2,), (3,), (3, 2, 1, -2, -3), (4,))
    assert phi.inverse_images == ((-1, -2, 3, 2, 1), (1,), (2,), (4,))
    report = check_map(phi, CHECK_TARGETS)
    assert report.consistent
    assert report.hom_counts["S3"] == (12, 12)


def test_conjugation_map_left_is_inverse():
    w = parse_word("1 2 1 1 2 1")
    v = apply_move(w, WordMove(MoveKind.ELEM_CONJ_RIGHT, 6))
    left = move_map(v, WordMove(MoveKind.ELEM_CONJ_LEFT, 1))
    right = conj_right(w)
    assert left.images == right.inverse_images
    assert left.inverse_images == right.images


def test_cross_column_explicit_map_consistent():
    # the cross-column conjugating isomorphism between the two worked
    # presentations: s4 -> s3 s2 s4' s2^-1 s3^-1, first three fixed
    P = presentation_for(parse_word("1 2 1 1 2 1"))
    Q = presentation_for(parse_word("1 1 2 1 1 2"))
    phi = GeneratorMap(
        P, Q,
        images=((1,), (2,), (3,), (3, 2, 4, -2, -3)),
        inverse_images=((1,), (2,), (3,), (-2, -3, 4, 3, 2)),
    )
    report = check_map(phi, CHECK_TARGETS)
    assert report.consistent
    assert report.violations == ()


def test_corrupted_map_flagged():
    P = presentation_for(parse_word("1 2 1 1 2 1"))
    Q = presentation_for(parse_word("1 1 2 1 1 2"))
    bad = GeneratorMap(
        P, Q,
        images=((1,), (2,), (3,), (3, 2, 4, -2, -3, 1)),
        inverse_images=((1,), (2,), (3,), (-2, -3, 4, 3, 2)),
    )
    report = check_map(bad, [TARGETS["S3"]])
    assert not report.consistent
    assert any(v.target == "abelianization" for v in report.violations)
    assert any(v.target == "S3" for v in report.violations)


def test_identity_map_consistent():
    # no moves give the identity map
    report = check_map(maps_along_moves(parse_word("1 2 1 1 2 1"), []), CHECK_TARGETS)
    assert report.consistent
    assert report.method == "relabeling"


def test_relabeling_shortcut_needs_inverse_images_to_invert():
    # both directions relabel, but the round trip swaps s1 and s2
    P = presentation_for(parse_word("1 1 1"))
    m = GeneratorMap(P, P, ((1,), (2,)), ((2,), (1,)))
    assert not m.is_relabeling()
    report = check_map(m, [TARGETS["S3"]])
    assert not report.consistent
    assert report.method == "quotients"
    assert any(v.direction.startswith("roundtrip") for v in report.violations)


def test_braid_relation_map_top():
    w = BraidWord(3, (1, 1, 2, 1))  # pattern sigma1 sigma2 sigma1 at 2..4
    phi = move_map(w, WordMove(MoveKind.BRAID_REL, 2))
    nontrivial = [img for img in phi.images if len(img) != 1]
    assert len(nontrivial) == 1  # only s_{n-1} is conjugated
    report = check_map(phi, CHECK_TARGETS)
    assert report.consistent


def test_braid_relation_map_mirror():
    # pattern sigma2 sigma1 sigma2 at the top: the mirrored case
    w = BraidWord(3, (1, 2, 1, 2))
    phi = move_map(w, WordMove(MoveKind.BRAID_REL, 2))
    report = check_map(phi, CHECK_TARGETS)
    assert report.consistent


def test_braid_relation_roundtrip_is_identity():
    w = BraidWord(3, (1, 1, 2, 1))
    # the relation there and back again
    comp = maps_along_moves(w, [WordMove(MoveKind.BRAID_REL, 2)] * 2)
    assert comp.target == comp.source
    for g in range(1, comp.source.n_generators + 1):
        assert comp.images[g - 1] == (g,)


def test_move_map_interior_braid_rel():
    w = BraidWord(3, (1, 2, 1, 1, 1))
    phi = move_map(w, WordMove(MoveKind.BRAID_REL, 1))
    report = check_map(phi, CHECK_TARGETS)
    assert report.consistent


def test_move_map_every_kind_random(rng):
    for _ in range(25):
        w = random_word(rng, max_strands=4, max_len=9)
        for m in enumerate_moves(w):
            phi = move_map(w, m)
            report = check_map(phi, [TARGETS["S3"]])
            assert report.consistent, (w, m, report.violations[:2])


@pytest.mark.parametrize(
    "letters, case",
    [
        ((2, 1, 1, 2, 1), "neighbour linked with the top brick only"),
        ((1, 2, 1, 2, 1), "neighbour linked with the top brick and one below"),
        ((2, 1, 2, 1, 1), "neighbour linked with one lower brick only"),
        ((1, 2, 1, 2, 1, 1), "neighbour linked with two lower bricks"),
    ],
)
def test_conjugation_map_linking_cases(letters, case):
    # the four ways a neighbouring-column brick can link into the moved
    # column, each checked in quotients and the abelianization
    w = BraidWord(3, letters)
    phi = conj_right(w)
    report = check_map(phi, CHECK_TARGETS)
    assert report.consistent, (case, report.violations[:2])


def test_composites_along_found_sequences(rng):
    # composing the per-move maps along a discovered conjugacy move
    # sequence stays consistent end to end
    from braidforge.garside import delta_word

    for _ in range(6):
        suffix = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 4)))
        a = BraidWord(3, delta_word(3) + suffix)
        b = a
        for _ in range(rng.randint(1, 5)):
            moves = [
                m for m in enumerate_moves(b)
                if m.kind not in (MoveKind.MARKOV_STAB, MoveKind.MARKOV_DESTAB)
            ]
            b = apply_move(b, rng.choice(moves))
        seq = conjugacy_move_sequence_detailed(a, b)
        phi = maps_along_moves(a, list(seq.moves))
        report = check_map(phi, [TARGETS["S3"]])
        assert report.consistent, (a, b, seq.method)


def test_maps_along_move_sequence(rng):
    a = parse_word("1 2 1 2 2 1")
    b = parse_word("1 2 2 2 1 2")
    result = conjugacy_move_sequence_detailed(a, b)
    phi = maps_along_moves(a, list(result.moves))
    report = check_map(phi, CHECK_TARGETS)
    assert report.consistent


def test_worked_pair_single_move_composite():
    a = parse_word("1 2 1 1 2 1")
    phi = maps_along_moves(a, [WordMove(MoveKind.ELEM_CONJ_RIGHT, 6)])
    report = check_map(phi, CHECK_TARGETS)
    assert report.consistent
