"""Maps have their shape and compose move by move; cycle shifts check
their region.

A GeneratorMap raises ValueError unless it has one image per source
generator and one inverse image per target generator, each naming only
the other side's generators. The one-move maps along a sequence compose
to the sequence's map. shifted_cycle_presentation takes region indices
0 up to the number of cycle relators, reads the region off the
relator's word, raising PresentationError for a word that is no
region's cycle relator, and a shifted pair table stays a pair table.
"""

import random

import pytest

from braidforge.bricks import build_bricks
from braidforge.errors import PresentationError
from braidforge.isomaps import GeneratorMap, maps_along_moves, move_map, substitute
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
from braidforge.words import (
    BraidWord,
    MoveKind,
    WordMove,
    apply_move,
    enumerate_moves,
    parse_word,
)

from conftest import by_kind


def presentation(w: BraidWord) -> Presentation:
    return presentation_of(build_graph(build_bricks(w)))


@pytest.mark.parametrize(
    "images, inverse, message",
    [
        (((1,), (5,)), ((1,), (2,)), r"^image of s2: the letter 5 is not in 1\.\.2$"),
        (((1,), (2,)), ((2, -3, 1), (2,)), r"^inverse image of s1: the letter -3 "),
        (((1, 0), (2,)), ((1,), (2,)), r"^image of s1: the letter 0 "),
        (((1,),), ((1,), (2,)), r"^images: 1 for 2 generators$"),
        (((1,), (2,)), ((1,), (2,), (1,)), r"^inverse images: 3 for 2 generators$"),
    ],
    ids=["letter-past-k", "inverse-letter", "letter-zero", "too-few", "too-many"],
)
def test_maps_name_the_image_that_does_not_fit(images, inverse, message):
    p = Presentation(2, (braid_relator(1, 2),))
    with pytest.raises(ValueError, match=message):
        GeneratorMap(p, p, images, inverse)


def test_composed_one_move_maps_equal_maps_along_moves():
    rng = random.Random(20261018)
    for _ in range(30):
        n = rng.randint(3, 4)
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(3, 9))))
        moves, cur = [], w
        for _ in range(rng.randint(1, 4)):
            m = rng.choice(enumerate_moves(cur))
            moves.append(m)
            cur = apply_move(cur, m)
        composed, cur = move_map(w, moves[0]), apply_move(w, moves[0])
        for m in moves[1:]:
            step = move_map(cur, m)
            assert step.source == composed.target
            composed = GeneratorMap(
                composed.source,
                step.target,
                tuple(substitute(x, step.images) for x in composed.images),
                tuple(substitute(x, composed.inverse_images) for x in step.inverse_images),
            )
            cur = apply_move(cur, m)
        assert composed == maps_along_moves(w, moves)


@pytest.mark.parametrize("index", [-1, 2, 5])
def test_cycle_shifts_check_the_region_index(index):
    p = presentation(parse_word("1 2 1 1 2 1 1 2"))
    assert len(by_kind(p, RelatorKind.CYCLE)) == 2
    with pytest.raises(IndexError, match="presentation has 2 cycle relators"):
        shifted_cycle_presentation(p, index, 1)


def test_cycle_shifts_read_the_region_off_the_word():
    # s1^3 is no region's cycle relator: rotating its equation would give
    # another group's relator, so the shift raises, naming the relator
    power = Relator((1, 1, 1), (), ())
    p = Presentation(3, (power,))
    with pytest.raises(PresentationError, match="^relator 0 is not the cycle relator of"):
        shifted_cycle_presentation(p, 0, 1)
    # a region's word is one whatever its equation; indices count every
    # cycle relator, and the error counts the three pair relators before them
    region = Relator(cycle_relator((1, 3, 2)).word, (), ())
    pairs = (braid_relator(1, 2), comm_relator(1, 3), comm_relator(2, 3))
    q = Presentation(3, pairs + (power, region))
    assert shifted_cycle_presentation(q, 1, 1).cycle_words[1] == cycle_relator((3, 2, 1)).word
    assert shifted_cycle_presentation(q, 1, 3) == q
    with pytest.raises(PresentationError, match="^relator 3 is not the cycle relator of"):
        shifted_cycle_presentation(q, 0, 1)


def test_two_vertex_cycle_is_no_region():
    # no region has two vertices; rotating that cycle's word would give the
    # commutation relator of its pair, which the pair table holds
    two = cycle_relator((1, 2))
    assert two.word == (2, 1, -2, -1)
    pairs = (braid_relator(1, 2), comm_relator(1, 3), comm_relator(2, 3))
    p = Presentation(3, pairs + (two,))
    assert p.cycles == (two,)
    with pytest.raises(PresentationError, match="^relator 3 is not the cycle relator of"):
        shifted_cycle_presentation(p, 0, 1)


def test_shifted_pair_table_stays_a_table():
    rng = random.Random(20261019)
    for _ in range(60):
        n = rng.randint(3, 5)
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(4, 16))))
        p = presentation(w)
        cycles = by_kind(p, RelatorKind.CYCLE)
        for idx, r in enumerate(cycles):
            for shift in range(len(r.lhs) // 2 + 1):
                shifted = shifted_cycle_presentation(p, idx, shift)
                assert shifted.comm_pairs is None
                # what replacing the relator in the spelled-out tuple gives
                explicit = Presentation(
                    p.n_generators,
                    tuple(
                        s if s is not r else by_kind(shifted, RelatorKind.CYCLE)[idx]
                        for s in p.relators
                    ),
                )
                assert shifted == explicit
                assert shifted.relators == explicit.relators
                assert by_kind(shifted, RelatorKind.CYCLE)[idx].word == shifted.cycle_words[idx]
                assert shifted_cycle_presentation(explicit, idx, 0) == explicit
