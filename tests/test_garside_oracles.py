"""Differential checks of the Garside kernels against test-only oracles.

The references (conftest) left-weight letter by letter in whole-list
passes until nothing moves, converge to super summit sets by walking
whole cycling and decycling orbits, and close super summit sets under
all n! - 1 permutation braids. The join is checked against a brute-force
least common multiple over all of S3, S4 and S5.
"""

from itertools import permutations

from hypothesis import given, settings, strategies as st

from braidforge import garside
from braidforge.garside import (
    DEFAULT_CAPS,
    conjugate_nf,
    cycling,
    decycling,
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

from conftest import (
    oracle_conjugate_nf,
    oracle_cycling,
    oracle_decycling,
    oracle_normal_form,
    oracle_normalize_factors,
    oracle_summit_closure,
    oracle_summit_representative,
)

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None)


@st.composite
def letter_words(draw, strands=st.integers(2, 7), max_len=40):
    n = draw(strands)
    letters = draw(st.lists(st.integers(1, n - 1), max_size=max_len))
    return BraidWord(n, tuple(letters))


@st.composite
def perm_sequences(draw):
    n = draw(st.integers(2, 7))
    perms = draw(st.lists(st.permutations(range(n)).map(tuple), max_size=8))
    return n, perms


@SETTINGS
@given(letter_words())
def test_normal_form_matches_oracle(w):
    assert normal_form(w) == oracle_normal_form(w)


@SETTINGS
@given(perm_sequences())
def test_normalize_factors_matches_oracle_on_permutations(case):
    n, perms = case
    expected = oracle_normalize_factors(n, perms)
    assert garside._normalize_factors(n, list(perms)) == expected


@SETTINGS
@given(letter_words(max_len=25), st.data())
def test_conjugate_cycling_decycling_match_oracle(w, data):
    nf = normal_form(w)
    c = tuple(data.draw(st.permutations(range(w.strands))))
    assert conjugate_nf(nf, c) == oracle_conjugate_nf(nf, c)
    assert cycling(nf) == oracle_cycling(nf)
    assert decycling(nf) == oracle_decycling(nf)


@st.composite
def summit_words(draw):
    """Words of 2-5 strands, half of them after a half twist."""
    n = draw(st.integers(2, 5))
    letters = tuple(draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=10)))
    if draw(st.booleans()):
        letters = delta_word(n) + letters[:4]
    return BraidWord(n, letters)


@st.composite
def converging_words(draw):
    """Words of 2-7 strands and up to 60 letters; half of them a rotation of
    a half twist and a tail, which hides the twist from the normal form,
    so that cycling has to find it."""
    n = draw(st.integers(2, 7))
    letters = tuple(draw(st.lists(st.integers(1, n - 1), max_size=60)))
    if draw(st.booleans()):
        letters = (delta_word(n) + letters)[:60]
        cut = draw(st.integers(0, len(letters)))
        letters = letters[cut:] + letters[:cut]
    return BraidWord(n, letters)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(converging_words())
def test_summit_representative_matches_unbounded_oracle(w):
    # the oracle walks whole orbits; each phase's first improvement comes
    # within ||Delta|| = n(n-1)/2 steps, so stopping there loses nothing
    nf = normal_form(w)
    rep, ops, improvements = oracle_summit_representative(nf)
    got, log = garside._summit_representative(nf)
    assert got == rep and [op for op, _ in log] == ops
    # each logged form is the one its step is taken from: the first is
    # nf, each stepped by its op gives the next, the last gives rep
    step = {"cycle": oracle_cycling, "decycle": oracle_decycling}
    forms = [form for _, form in log] + [rep]
    assert forms[0] == nf
    assert all(step[op](form) == after for (op, form), after in zip(log, forms[1:]))
    assert all(steps <= w.strands * (w.strands - 1) // 2 for steps in improvements)


def assert_closure_matches_oracle(w):
    rep, _ = garside._summit_representative(normal_form(w))
    members, parents = garside._summit_closure(rep, DEFAULT_CAPS)
    assert set(members) == oracle_summit_closure(rep)
    for key, parent in parents.items():
        if parent is None:
            assert key == rep.key()
            continue
        parent_key, c = parent
        assert conjugate_nf(members[parent_key], c) == members[key]
        assert oracle_conjugate_nf(members[parent_key], c) == members[key]
    assert summit(normal_form(w)).summit_set == frozenset(members.values())


@settings(derandomize=True, max_examples=50, deadline=None)
@given(summit_words())
def test_summit_closure_matches_oracle(w):
    assert_closure_matches_oracle(w)


def test_summit_closure_matches_oracle_six_strands():
    for tail in ((2,), (1, 3), (2, 4, 1), (5, 5), (3, 1, 2)):
        assert_closure_matches_oracle(BraidWord(6, delta_word(6) + tail))


def brute_joins(n):
    """Least common multiple of every pair of S_n, by scanning all upper bounds."""
    perms = sorted(permutations(range(n)), key=perm_length)
    length = {p: perm_length(p) for p in perms}

    def prefixes(z):
        return [
            a for a in perms
            if length[a] + length[perm_mul(perm_inv(a), z)] == length[z]
        ]

    joins = {}
    for z in perms:  # shortest first: the first common upper bound is the join
        below = prefixes(z)
        for a in below:
            for b in below:
                joins.setdefault((a, b), z)
    return joins


def test_join_is_least_common_multiple_exhaustively():
    for n in (3, 4, 5):
        joins = brute_joins(n)
        assert len(joins) == len(list(permutations(range(n)))) ** 2
        for (a, b), z in joins.items():
            assert perm_join(a, b) == z


def test_minimal_simple_elements_are_least(rng):
    # Brute force over S_n: every simple c above sigma_i with u^c in the
    # super summit set has the computed conjugator as a prefix.
    for n in (3, 4):
        for _ in range(12):
            tail = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 5)))
            nf = normal_form(BraidWord(n, delta_word(n) + tail))
            rep, _ = garside._summit_representative(nf)
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


def rewrite_chain(letters, choices):
    """Apply braid relations and far commutations picked by the choices."""
    for choice in choices:
        sites = [
            (p, "rel") for p in range(len(letters) - 2)
            if letters[p] == letters[p + 2] and abs(letters[p] - letters[p + 1]) == 1
        ] + [
            (p, "comm") for p in range(len(letters) - 1)
            if abs(letters[p] - letters[p + 1]) >= 2
        ]
        if not sites:
            break
        p, kind = sites[choice % len(sites)]
        if kind == "rel":
            a, b = letters[p], letters[p + 1]
            letters = letters[:p] + (b, a, b) + letters[p + 3:]
        else:
            letters = letters[:p] + (letters[p + 1], letters[p]) + letters[p + 2:]
    return letters


@SETTINGS
@given(letter_words(max_len=30), st.lists(st.integers(0, 10_000), max_size=40))
def test_normal_form_invariant_under_rewrite_chains(w, choices):
    other = rewrite_chain(w.letters, choices)
    assert normal_form(BraidWord(w.strands, other)) == normal_form(w)
