import pytest

from braidforge import garside
from braidforge.errors import (
    GarsideInvariantError,
    MoveError,
    ResourceCapError,
    StrandMismatchError,
)
from braidforge.garside import (
    GarsideCaps,
    NormalForm,
    are_conjugate,
    conjugacy_move_sequence_detailed,
    conjugate_nf,
    contains_half_twist,
    cycling,
    decycling,
    delta_perm,
    delta_word,
    identity_perm,
    left_complement,
    letter_perm,
    nf_word,
    normal_form,
    perm_inv,
    perm_length,
    perm_mul,
    perm_word,
    right_complement,
    summit,
    tau,
    words_equal_as_braids,
)
from braidforge.words import BraidWord, MoveKind, WordMove, apply_move, enumerate_moves, replay

from conftest import (
    conjugacy_word_class,
    finishing_set,
    random_word,
    rewriting_class,
    starting_set,
)


def is_left_weighted(nf: NormalForm) -> bool:
    n = nf.strands
    ident, delta = identity_perm(n), delta_perm(n)
    if any(p in (ident, delta) for p in nf.factors):
        return False
    return all(
        starting_set(nf.factors[i + 1]) <= finishing_set(nf.factors[i])
        for i in range(len(nf.factors) - 1)
    )


# -- permutation primitives ---------------------------------------------------

def test_perm_basics():
    assert perm_mul(letter_perm(3, 1), letter_perm(3, 2)) == (2, 0, 1)
    assert perm_inv((2, 0, 1)) == (1, 2, 0)
    assert perm_length(delta_perm(4)) == 6
    assert starting_set((2, 0, 1)) == {1}
    assert finishing_set((2, 0, 1)) == {2}
    assert tau(letter_perm(4, 1)) == letter_perm(4, 3)


def test_complements():
    for n in (3, 4):
        from itertools import permutations

        for p in permutations(range(n)):
            assert perm_mul(left_complement(p), p) == delta_perm(n)
            assert perm_mul(p, right_complement(p)) == delta_perm(n)


def test_perm_word_spells_back():
    from itertools import permutations

    for n in (3, 4):
        for p in permutations(range(n)):
            word = perm_word(p)
            acc = identity_perm(n)
            for i in word:
                acc = perm_mul(acc, letter_perm(n, i))
            assert acc == p
            assert len(word) == perm_length(p)


# -- normal form --------------------------------------------------------------

def test_delta_word_normal_form():
    for n in range(2, 6):
        nf = normal_form(BraidWord(n, delta_word(n)))
        assert nf.delta_power == 1
        assert nf.factors == ()


def test_empty_word_normal_form():
    nf = normal_form(BraidWord(3, ()))
    assert (nf.delta_power, nf.factors) == (0, ())


def test_worked_pair_is_equal_as_braids():
    # both words spell the full twist: two braid relations connect them
    a = BraidWord(3, (1, 2, 1, 1, 2, 1))
    b = BraidWord(3, (1, 1, 2, 1, 1, 2))
    assert normal_form(a) == NormalForm(3, 2, ())
    assert normal_form(a) == normal_form(b)
    assert words_equal_as_braids(a, b)
    assert rewriting_class(a) == rewriting_class(b)


def test_braid_relation_and_far_comm_equalities():
    assert words_equal_as_braids(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert words_equal_as_braids(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))


def test_strand_mismatch():
    with pytest.raises(StrandMismatchError):
        words_equal_as_braids(BraidWord(3, (1,)), BraidWord(4, (1,)))
    with pytest.raises(StrandMismatchError):
        are_conjugate(BraidWord(3, (1,)), BraidWord(4, (1,)))


def test_normal_form_matches_rewriting_closure(rng):
    # same rewriting class <=> same normal form, on a random sample
    seen: dict[tuple, frozenset] = {}
    for _ in range(80):
        w = random_word(rng, max_strands=4, max_len=7)
        cls = rewriting_class(w)
        nf = normal_form(w)
        for other_nf, other_cls in seen.items():
            if other_nf == nf.key():
                assert w.letters in other_cls
        seen.setdefault(nf.key(), cls)
        assert all(
            normal_form(BraidWord(w.strands, letters)) == nf for letters in cls
        )


def test_left_weighted_and_fixed_point(rng):
    for _ in range(100):
        w = random_word(rng)
        nf = normal_form(w)
        assert is_left_weighted(nf)
        assert normal_form(nf_word(nf)) == nf


def test_nf_word_requires_positive_power():
    with pytest.raises(ValueError):
        nf_word(NormalForm(3, -1, ()))


# -- cycling / summit ---------------------------------------------------------

def test_cycling_identity_on_delta_powers():
    nf = normal_form(BraidWord(3, delta_word(3) * 2))
    assert cycling(nf) == nf
    assert decycling(nf) == nf


def test_cycling_preserves_conjugacy(rng):
    for _ in range(40):
        w = random_word(rng, max_strands=4, max_len=8)
        nf = normal_form(w)
        for nf2 in (cycling(nf), decycling(nf)):
            if nf.delta_power >= 0 and nf2.delta_power >= 0:
                assert are_conjugate(nf_word(nf), nf_word(nf2))


def test_conjugate_nf_composition(rng):
    # conjugating by c then by its right complement equals conjugating by
    # Delta, and conjugating by Delta twice is the identity (Delta^2 central)
    from itertools import permutations

    for _ in range(30):
        w = random_word(rng, max_strands=4, max_len=6)
        nf = normal_form(w)
        delta = delta_perm(w.strands)
        assert conjugate_nf(conjugate_nf(nf, delta), delta) == nf
        for c in list(permutations(range(w.strands)))[1:4]:
            if c == identity_perm(w.strands):
                continue
            via_c = conjugate_nf(conjugate_nf(nf, c), right_complement(c))
            assert via_c == conjugate_nf(nf, delta)


def test_summit_of_full_twist():
    # {Delta^m} is its own summit set: any conjugate with the same power
    # and zero factors has the same (unique) normal form
    for m in (1, 2, 3):
        nf = normal_form(BraidWord(3, delta_word(3) * m))
        data = summit(nf)
        assert data.summit_power == m
        assert data.summit_set == frozenset({nf})


def test_iterated_cycling_raises_power():
    # sigma_1^2 sigma_2 is a conjugate of the half twist: one cycling step
    # already lifts the exponent to the summit power
    nf = normal_form(BraidWord(3, (1, 1, 2)))
    assert nf.delta_power == 0
    assert cycling(nf).delta_power == 1
    assert summit(nf).summit_power == 1


def test_summit_worked_example_brute_force():
    # closure under conjugation by the 5 nontrivial permutation braids of B3
    w = BraidWord(3, (1, 2, 1, 1, 2, 1))
    nf = normal_form(w)
    data = summit(nf)
    from itertools import permutations

    simples = [p for p in permutations(range(3)) if p != identity_perm(3)]
    seen = {nf.key(): nf}
    frontier = [nf]
    while frontier:
        u = frontier.pop()
        for c in simples:
            v = conjugate_nf(u, c)
            if v.key() not in seen:
                seen[v.key()] = v
                frontier.append(v)
    oracle_max = max(v.delta_power for v in seen.values())
    assert data.summit_power == oracle_max == 2
    assert data.summit_power >= 1


def test_conjugate_inputs_same_summit(rng):
    for _ in range(20):
        w = random_word(rng, max_strands=3, max_len=8)
        ms = [m for m in enumerate_moves(w) if m.kind in
              (MoveKind.ELEM_CONJ_LEFT, MoveKind.ELEM_CONJ_RIGHT, MoveKind.BRAID_REL,
               MoveKind.FAR_COMM)]
        v = apply_move(w, rng.choice(ms))
        sa = summit(normal_form(w))
        sb = summit(normal_form(v))
        assert sa.summit_power == sb.summit_power
        assert sa.summit_set == sb.summit_set


def test_are_conjugate_examples():
    assert are_conjugate(
        BraidWord(3, (1, 2, 1, 1, 2, 1)), BraidWord(3, (1, 1, 2, 1, 1, 2))
    )
    assert not are_conjugate(
        BraidWord(3, (1, 2, 2, 1)), BraidWord(3, (1, 2, 2, 1, 2, 2))
    )


def test_are_conjugate_elementary(rng):
    for _ in range(30):
        w = random_word(rng, max_strands=4, max_len=8)
        conj = [m for m in enumerate_moves(w) if m.kind is MoveKind.ELEM_CONJ_RIGHT]
        v = apply_move(w, conj[0])
        assert are_conjugate(w, v)


def test_are_conjugate_equivalence_spotcheck(rng):
    words = [
        BraidWord(3, tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 6))))
        for _ in range(10)
    ]
    for w in words:
        assert are_conjugate(w, w)
    for a in words:
        for b in words:
            assert are_conjugate(a, b) == are_conjugate(b, a)
    # transitivity spot check
    for a in words:
        for b in words:
            for c in words:
                if are_conjugate(a, b) and are_conjugate(b, c):
                    assert are_conjugate(a, c)


def test_agrees_with_conjugacy_word_closure(rng):
    # rotations witness conjugacy; the closure provides positives and the
    # class-vs-class comparison provides negatives
    for _ in range(15):
        n = rng.randint(1, 7)
        w = BraidWord(3, tuple(rng.randint(1, 2) for _ in range(n)))
        cls = conjugacy_word_class(w)
        for letters in list(cls)[:10]:
            assert are_conjugate(w, BraidWord(3, letters))
        other = BraidWord(3, tuple(rng.randint(1, 2) for _ in range(n)))
        if other.letters not in cls:
            # not connected by relations + rotations; for equal-length
            # positive words this may still be conjugate only without a
            # half twist, so only assert the contrapositive direction
            if contains_half_twist(w):
                assert not are_conjugate(w, other)


def test_contains_half_twist_examples():
    assert contains_half_twist(BraidWord(3, (1, 2, 1, 1, 2, 1)))
    for m in range(1, 7):
        assert not contains_half_twist(BraidWord(3, (1,) * m))
    # delta prefix detected without cycling
    w = BraidWord(4, delta_word(4) + (2, 3))
    assert contains_half_twist(w)


def test_summit_power_invariant_under_moves(rng):
    for _ in range(20):
        w = random_word(rng, max_strands=3, max_len=8)
        sp = summit(normal_form(w)).summit_power
        for m in enumerate_moves(w):
            if m.kind in (MoveKind.MARKOV_STAB, MoveKind.MARKOV_DESTAB):
                continue
            v = apply_move(w, m)
            assert summit(normal_form(v)).summit_power == sp


# -- move sequences -----------------------------------------------------------

def test_move_sequence_identical_words():
    w = BraidWord(3, (1, 2, 1))
    assert conjugacy_move_sequence_detailed(w, w).moves == ()


def test_move_sequence_worked_pair():
    a = BraidWord(3, (1, 2, 1, 1, 2, 1))
    b = BraidWord(3, (1, 1, 2, 1, 1, 2))
    result = conjugacy_move_sequence_detailed(a, b)
    assert replay(a, list(result.moves)) == b
    assert result.method == "procedure-found"
    # equal braids connect through braid relations alone
    assert all(
        m.kind in (MoveKind.BRAID_REL, MoveKind.FAR_COMM) for m in result.moves
    )


def test_move_sequence_not_conjugate():
    # sigma_1^2 is a pure braid and sigma_1 sigma_2 is not: same length,
    # not conjugate. The conjugacy test comes before the half-twist test.
    with pytest.raises(MoveError, match="not conjugate"):
        conjugacy_move_sequence_detailed(BraidWord(3, (1, 1)), BraidWord(3, (1, 2)))
    with pytest.raises(MoveError, match="half twist"):
        conjugacy_move_sequence_detailed(BraidWord(3, (1, 1)), BraidWord(3, (2, 2)))


def test_move_sequence_no_half_twist():
    # sigma_1^2 and sigma_2^2 are conjugate by the half twist, not equal as
    # braids, and their class contains no half twist: the constructive
    # realization is not guaranteed, so this is a domain error
    a = BraidWord(3, (1, 1))
    b = BraidWord(3, (2, 2))
    assert are_conjugate(a, b)
    assert not words_equal_as_braids(a, b)
    assert not contains_half_twist(a)
    with pytest.raises(MoveError):
        conjugacy_move_sequence_detailed(a, b)


def test_move_sequence_random_delta_pairs(rng):
    base_delta = delta_word(3)
    for trial in range(25):
        suffix_len = rng.randint(0, 7)
        letters = base_delta + tuple(rng.randint(1, 2) for _ in range(suffix_len))
        a = BraidWord(3, letters)
        b = a
        for _ in range(rng.randint(1, 8)):
            ms = [m for m in enumerate_moves(b) if m.kind not in
                  (MoveKind.MARKOV_STAB, MoveKind.MARKOV_DESTAB)]
            b = apply_move(b, rng.choice(ms))
        result = conjugacy_move_sequence_detailed(a, b)
        assert replay(a, list(result.moves)) == b


def test_move_sequence_procedure_on_nontrivial_pair():
    a = BraidWord(3, (1, 2, 1, 2, 2, 1))
    b = BraidWord(3, (1, 2, 2, 2, 1, 2))
    assert are_conjugate(a, b) and not words_equal_as_braids(a, b)
    result = conjugacy_move_sequence_detailed(a, b)
    assert replay(a, list(result.moves)) == b
    assert result.method == "procedure-found"


def test_resource_caps_raise(monkeypatch):
    # Equal words are joined by their normal form's path, which builds no
    # summit set, so the cap does not stop them.
    caps = GarsideCaps(summit_set=1)
    a = BraidWord(3, (1, 2, 1, 1, 2, 1))
    b = BraidWord(3, (1, 1, 2, 1, 1, 2))
    result = conjugacy_move_sequence_detailed(a, b, caps)
    assert result.method == "procedure-found" and len(result.moves) == 2
    assert replay(a, list(result.moves)) == b
    # The cap bounds the closure that decides and realizes a conjugacy.
    a, b = BraidWord(3, (1, 2, 1, 2, 2, 1)), BraidWord(3, (1, 2, 2, 2, 1, 2))
    with pytest.raises(ResourceCapError, match="^summit set exceeded the cap 1$"):
        conjugacy_move_sequence_detailed(a, b, caps)
    # Realized moves that do not replay are a broken invariant, not a cap.
    real = garside._invert_move_path
    monkeypatch.setattr(
        garside, "_invert_move_path",
        lambda start, moves: real(start, moves) + [WordMove(MoveKind.BRAID_REL, 99)],
    )
    with pytest.raises(GarsideInvariantError, match="^realized moves do not carry "):
        conjugacy_move_sequence_detailed(a, b)


def test_normal_form_invariance_under_moves(rng):
    for _ in range(60):
        w = random_word(rng)
        nf = normal_form(w)
        for m in enumerate_moves(w):
            v = apply_move(w, m)
            if m.kind in (MoveKind.BRAID_REL, MoveKind.FAR_COMM):
                assert normal_form(v) == nf
            elif m.kind in (MoveKind.ELEM_CONJ_LEFT, MoveKind.ELEM_CONJ_RIGHT):
                if w.strands <= 3 and len(w.letters) <= 8:
                    assert are_conjugate(w, v)
