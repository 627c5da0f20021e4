"""The orbit search's pair window and signed letter table against references.

On a presentation whose every pair off the braid pairs commutes
(comm_pairs None), the search tests step j against one running
commutant for every generator before j's least braid-linked one, and
against a per-pair mask only in the window from there to j - 1. These
cases widen that window: interleaved words, where a generator's least
linked neighbour lies a whole column back, and hand-built tables with
far-apart braid pairs. Each must list the same homs, and the same
representatives in the same order, as reference_assignments and
reference_reps, on every target (identity off index 0 included). The
pullback reads letters from a signed table; it must agree with
evaluate_word on words with inverse letters, repeats and the empty word.
"""

import random

import pytest

from braidforge import invariants, isomaps
from braidforge.invariants import (
    _pair_windows,
    _target_tables,
    enumerate_homs,
    evaluate_word,
    hom_count,
)
from braidforge.presentations import cycle_relator

from conftest import table_presentation
from test_analysis_cache import presentation
from test_orbit_search_reference import TARGETS, reference_assignments, reference_reps

LIFTED = {"*": 1000}
# reference_assignments lists every hom; skip a target past this many
HOM_LIMIT = 5_000


def assert_window_matches_reference(p):
    invariants._memo.cache_clear()
    checked = 0
    for t in TARGETS:
        found = hom_count(p, t, LIFTED)
        if found.count > HOM_LIMIT:
            continue
        want = list(reference_assignments(p, t))
        assert enumerate_homs(p, t, LIFTED) == want
        assert list(found.reps) == reference_reps(t, want)
        assert found.count == len(want) == sum(found.sizes)
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize(
    "strands, pattern, repeats",
    [(3, (1, 2), 6), (3, (1, 2), 11), (4, (1, 3, 2), 5), (4, (1, 3, 2), 8), (4, (2, 1, 3), 6)],
)
def test_interleaved_words_reach_a_column_back(strands, pattern, repeats):
    p = presentation(strands, pattern * repeats)
    assert p.comm_pairs is None
    # a brick of the second column links to one at the start of the first
    _, window = _pair_windows(p, _target_tables(TARGETS[0]))
    assert max(map(len, window)) >= repeats - 1
    assert_window_matches_reference(p)


def test_interleaved_window_is_no_wider_than_the_pairs_it_replaces():
    p = presentation(3, (1, 2) * 40)
    start, window = _pair_windows(p, _target_tables(TARGETS[0]))
    assert all(len(w) == j - s for j, (s, w) in enumerate(zip(start, window)))
    assert sum(map(len, window)) < p.n_generators * (p.n_generators - 1) // 2
    # on a path each brick's window is its one linked predecessor
    start, window = _pair_windows(presentation(2, (1,) * 50), _target_tables(TARGETS[0]))
    assert start == [0, *range(48)] and list(map(len, window)) == [0] + [1] * 48


@pytest.mark.parametrize(
    "k, braid_pairs, cycles",
    [
        (6, [(1, 6)], []),
        (7, [(1, 7), (2, 6), (3, 5)], []),
        (7, [(1, 4), (4, 7), (2, 7)], [(1, 4, 7)]),
        (8, [(1, 8), (1, 5), (5, 8), (2, 3)], [(1, 5, 8), (2, 3, 8)]),
        (8, [(3, 8), (1, 2), (2, 3), (6, 8)], [(1, 2, 3, 8)]),
    ],
)
def test_hand_built_tables_take_the_prefix_path(k, braid_pairs, cycles):
    p = table_presentation(k, braid_pairs, tuple(cycle_relator(c) for c in cycles))
    assert p.comm_pairs is None
    assert_window_matches_reference(p)


@pytest.mark.parametrize("seed", range(6))
def test_random_hand_built_tables_take_the_prefix_path(seed):
    rng = random.Random(seed)
    k = rng.randint(5, 8)
    pairs = {tuple(sorted(rng.sample(range(1, k + 1), 2))) for _ in range(rng.randint(2, 2 * k))}
    cycles = [
        tuple(rng.sample(range(1, k + 1), rng.randint(3, 4))) for _ in range(rng.randint(1, 3))
    ]
    p = table_presentation(k, pairs, tuple(map(cycle_relator, cycles)))
    assert_window_matches_reference(p)


@pytest.mark.parametrize("t", TARGETS, ids=[t.name for t in TARGETS])
def test_pull_back_matches_evaluate_word(t):
    rng = random.Random(t.size)
    for k in (1, 2, 5, 9):
        hom = tuple(rng.randrange(t.size) for _ in range(k))
        letters = [*range(-k, 0), *range(1, k + 1)]
        images = ((),) + tuple(
            tuple(rng.choice(letters) for _ in range(rng.randint(1, 12))) for _ in range(8)
        ) + ((1, 1, -1, k, k, -k, -k, -k),)
        want = tuple(evaluate_word(t, hom, w) for w in images)
        assert isomaps._pull_back(t, hom, images) == want
        assert want[0] == t.identity
