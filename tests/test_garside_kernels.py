"""The Garside kernels at the benchmark's sizes, against brute force and oracles.

Minimal simple elements are checked over all of S_n at five strands and
at the six-strand "half twist plus one letter" shape the benchmark's
summit sets use; normal forms built from runs of simple letters against
the letter-by-letter oracle on 6-10-strand words of 100-500 letters
(tests/test_garside_oracles.py covers short words); and the memo of
division steps for its bound and for answers that do not depend on what
it holds.
"""

import random
from itertools import permutations

from braidforge import garside
from braidforge.garside import (
    DEFAULT_CAPS,
    delta_word,
    identity_perm,
    normal_form,
    perm_inv,
    perm_join,
    perm_length,
    perm_mul,
    summit,
)
from braidforge.words import BraidWord

from conftest import oracle_conjugate_nf, oracle_normal_form


def assert_minimal_simple_elements_are_least(w):
    """Every simple c above sigma_i with u^c in the super summit set has the
    computed conjugator as a prefix (u the summit representative of w)."""
    n = w.strands
    rep, _ = garside._summit_representative(normal_form(w), DEFAULT_CAPS)
    shape = (rep.delta_power, rep.canonical_length)
    good = []
    for c in permutations(range(n)):
        v = oracle_conjugate_nf(rep, c)
        if c != identity_perm(n) and (v.delta_power, v.canonical_length) == shape:
            good.append(c)
    back = garside._inverse_factors(rep)
    for i in range(1, n):
        c = garside._minimal_simple(rep, back, i)
        above = [d for d in good if d[i - 1] > d[i]]  # sigma_i is a prefix of d
        assert c in above
        for d in above:  # c is a prefix of d
            rest = perm_mul(perm_inv(c), d)
            assert perm_length(c) + perm_length(rest) == perm_length(d)


def test_minimal_simple_elements_are_least_on_five_strands(rng):
    for _ in range(6):
        tail = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
        assert_minimal_simple_elements_are_least(BraidWord(5, delta_word(5) + tail))
    for _ in range(3):
        letters = tuple(rng.randint(1, 4) for _ in range(rng.randint(8, 12)))
        assert_minimal_simple_elements_are_least(BraidWord(5, letters))


def test_minimal_simple_elements_are_least_on_six_strand_half_twists():
    for i in range(1, 6):
        assert_minimal_simple_elements_are_least(BraidWord(6, delta_word(6) + (i,)))


def test_normal_form_matches_oracle_at_benchmark_sizes():
    rng = random.Random(20261018)
    for _ in range(8):
        n = rng.randint(6, 10)
        letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(100, 500)))
        w = BraidWord(n, letters)
        assert normal_form(w) == oracle_normal_form(w)


def test_division_memo_is_bounded():
    # Every pair of S_5 is more pairs than the memo holds.
    assert garside._under.cache_info().maxsize == garside.DIVISION_MEMO
    perms = list(permutations(range(5)))
    assert len(perms) ** 2 > garside.DIVISION_MEMO
    for y in perms:
        for t in perms:
            assert garside._under(y, t) == perm_mul(perm_inv(y), perm_join(y, t))
    assert garside._under.cache_info().currsize == garside.DIVISION_MEMO


def test_division_memo_does_not_change_answers():
    words = [
        BraidWord(6, delta_word(6) + (3,)),
        BraidWord(5, delta_word(5) + (1, 4, 2)),
        BraidWord(4, (1, 2, 3, 2, 1, 2, 3, 3, 1, 2, 1)),
    ]
    summit_sets = [summit(normal_form(w)) for w in words]
    warm = [summit(normal_form(w)) for w in words]
    garside._under.cache_clear()
    cold = [summit(normal_form(w)) for w in words]
    assert warm == cold == summit_sets
    assert garside._under.cache_info().currsize <= garside.DIVISION_MEMO
