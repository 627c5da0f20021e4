"""check_map's per-component decision of the round trips, and the seam join.

With every relator's image dead in Z^c, check_map decides all round trips
at once from the per-component constants of the images' sums; only when
that decision fails are the round trips summed generator by generator to
word the violations. These maps send that decision to the wording loop:
every image is inverted or squared, so the relators still die but no round
trip does. The report must equal the per-relator reference's.

_rotate joins freely reduced words by cancelling at their seams alone;
that join must equal free reduction of the concatenation.
"""

import random

from hypothesis import given, settings, strategies as st

from braidforge.finite_groups import builtin_targets
from braidforge.isomaps import GeneratorMap, _join, check_map, move_map
from braidforge.presentations import free_reduce, invert_word
from braidforge.words import enumerate_moves, parse_word

from test_check_map_reference import WORDS, reference_check_map

TARGETS = builtin_targets()
TARGET_SETS = ([TARGETS["S3"]], [TARGETS["S3"], TARGETS["S4"]])
ROUND_TRIPS = {"roundtrip-source", "roundtrip-target"}


def _abelian_directions(report):
    return {v.direction for v in report.violations if v.target == "abelianization"}


def _identity(k):
    return tuple((g,) for g in range(1, k + 1))


def _maps(rng):
    """Maps whose relators die in Z^c but whose round trips all fail."""
    for text in WORDS:
        w = parse_word(text)
        for move in rng.sample(enumerate_moves(w), 2):
            phi = move_map(w, move)
            p = phi.source
            k = p.n_generators
            # each generator to its inverse or its square, identity back
            yield GeneratorMap(p, p, tuple((-g,) for g in range(1, k + 1)), _identity(k))
            yield GeneratorMap(p, p, tuple((g, g) for g in range(1, k + 1)), _identity(k))
            # a move map with its images inverted
            inverted = tuple(invert_word(x) for x in phi.images)
            yield GeneratorMap(phi.source, phi.target, inverted, phi.inverse_images)


def test_failing_round_trips_are_worded_as_the_reference_words_them():
    maps = list(_maps(random.Random(45)))
    for m in maps:
        for targets in TARGET_SETS:
            report = check_map(m, targets)
            assert report == reference_check_map(m, targets)
            assert _abelian_directions(report) == ROUND_TRIPS
            trips = [v for v in report.violations if v.target == "abelianization"]
            assert len(trips) == m.source.n_generators + m.target.n_generators
    assert len(maps) == 6 * len(WORDS)


letters = st.integers(-4, 4).filter(bool)
reduced = st.lists(letters, max_size=12).map(lambda xs: free_reduce(tuple(xs)))


@settings(max_examples=300, deadline=None)
@given(reduced, reduced, st.integers(0, 12))
def test_seam_join_is_free_reduction(a, tail, cancelled):
    # b opens by undoing the last letters of a, so the seam cancels them
    b = free_reduce(invert_word(a[len(a) - min(cancelled, len(a)) :]) + tail)
    assert _join(a, b) == free_reduce(a + b)
    assert _join(b, a) == free_reduce(b + a)
    assert _join(a, tail, invert_word(a)) == free_reduce(a + tail + invert_word(a))


@given(reduced)
def test_seam_join_cancels_fully_and_keeps_empty_words(a):
    assert _join(a, invert_word(a)) == ()
    assert _join(invert_word(a), a) == ()
    assert _join((), a) == _join(a, ()) == _join(a) == a
    assert _join() == ()
