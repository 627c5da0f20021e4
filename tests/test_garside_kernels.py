"""The Garside kernels at the benchmark's sizes, against brute force and oracles.

Minimal simple elements are checked over all of S_n at five strands and
at the six-strand "half twist plus one letter" shape the benchmark's
summit sets use; normal forms built from runs of simple letters against
the letter-by-letter oracle on 6-10-strand words of 100-500 letters
(tests/test_garside_oracles.py covers short words); the memos of
permutation-braid work for their one bound and for answers that do not
depend on what they hold; the closure for conjugating each member once
per distinct minimal simple element; and the conjugacy decision, whose
closure stops at the second representative and which rejects differing
cycle types first, against a full closure kept here as the reference.
"""

import random
from collections import Counter, deque
from itertools import permutations

from braidforge import garside
from braidforge.garside import (
    DEFAULT_CAPS,
    are_conjugate,
    delta_word,
    identity_perm,
    normal_form,
    perm_inv,
    perm_join,
    perm_length,
    perm_mul,
    summit,
)
from braidforge.words import BraidWord, MoveKind, apply_move, enumerate_moves

from conftest import oracle_conjugate_nf, oracle_normal_form


def assert_minimal_simple_elements_are_least(w):
    """Every simple c above sigma_i with u^c in the super summit set has the
    computed conjugator as a prefix (u the summit representative of w)."""
    n = w.strands
    rep, _ = garside._summit_representative(normal_form(w))
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
    assert garside._under.cache_info().maxsize == garside.PERM_MEMO
    perms = list(permutations(range(5)))
    assert len(perms) ** 2 > garside.PERM_MEMO
    for y in perms:
        for t in perms:
            assert garside._under(y, t) == perm_mul(perm_inv(y), perm_join(y, t))
    assert garside._under.cache_info().currsize == garside.PERM_MEMO


def test_division_memo_does_not_change_answers():
    memos = {name: f for name, f in vars(garside).items() if hasattr(f, "cache_clear")}
    assert set(memos) == {
        "identity_perm", "delta_perm", "letter_perm", "perm_length",
        "tau", "left_complement", "right_complement", "_under", "perm_word",
    }
    for memo in memos.values():
        assert memo.cache_info().maxsize == garside.PERM_MEMO
    words = [
        BraidWord(6, delta_word(6) + (3,)),
        BraidWord(5, delta_word(5) + (1, 4, 2)),
        BraidWord(4, (1, 2, 3, 2, 1, 2, 3, 3, 1, 2, 1)),
    ]
    pair = (normal_form(BraidWord(4, delta_word(4) + (1, 3, 2))),
            normal_form(BraidWord(4, (2, 1, 3) + delta_word(4))))

    def answers():
        return (
            [summit(normal_form(w)) for w in words],
            garside._conjugacy(*pair, DEFAULT_CAPS),
        )

    first = answers()
    warm = answers()
    for memo in memos.values():
        memo.cache_clear()
    cold = answers()
    assert warm == cold == first
    assert first[1] is not None and first[1][2]  # decided by at least one hop
    for memo in memos.values():
        assert memo.cache_info().currsize <= garside.PERM_MEMO


def _full_closure(rep):
    """The super summit closure with no goal: breadth first, each member
    conjugated by its minimal simple elements in generator order, and
    each new member's parent the first member that reached it."""
    members, parents = {rep.key(): rep}, {rep.key(): None}
    queue = deque([rep])
    while queue:
        u = queue.popleft()
        back = garside._inverse_factors(u)
        for c in dict.fromkeys(garside._minimal_simple(u, back, i) for i in range(1, u.strands)):
            v = garside.conjugate_nf(u, c)
            if v.key() not in members:
                members[v.key()], parents[v.key()] = v, (u.key(), c)
                queue.append(v)
    return members, parents


_MARKOV = (MoveKind.MARKOV_STAB, MoveKind.MARKOV_DESTAB)


def _walked(rng, w, steps):
    """A conjugate of w: random braid relations, far commutations and
    elementary conjugations."""
    for _ in range(steps):
        w = apply_move(w, rng.choice([m for m in enumerate_moves(w) if m.kind not in _MARKOV]))
    return w


def test_closure_stopped_at_the_goal_gives_the_full_closures_hops():
    rng = random.Random(20261019)
    closed = 0
    for k in range(150):
        n = 3 + k % 3
        tail = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 6)))
        a = BraidWord(n, delta_word(n) + tail)
        b = _walked(rng, a, rng.randint(1, 12))
        nfa, nfb = normal_form(a), normal_form(b)
        if nfa == nfb:
            continue
        (rep_a, _), (rep_b, _), hops = garside._conjugacy(nfa, nfb, DEFAULT_CAPS)
        members, parents = _full_closure(rep_a)
        assert hops == [(members[key], c) for key, c in garside._walk_back(parents, rep_b.key())]
        closed += rep_a != rep_b
    assert closed >= 60


def test_cycle_type_rejection_agrees_with_the_full_closure():
    rng = random.Random(20261020)
    kinds = {"conjugate": 0, "other cycle type": 0, "same cycle type": 0}
    for k in range(150):
        n = 3 + k % 3
        letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(4, 10)))
        a = BraidWord(n, delta_word(n) + letters if k % 2 else letters)
        if k % 3 == 0:
            b = _walked(rng, a, rng.randint(1, 12))
        else:
            b = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(len(a))))
            if k % 3 == 1:  # most random pairs differ in cycle type: redraw
                while garside._cycle_type(normal_form(b)) != garside._cycle_type(normal_form(a)):
                    b = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(len(a))))
        rep_a, _ = garside._summit_representative(normal_form(a))
        rep_b, _ = garside._summit_representative(normal_form(b))
        want = rep_b.key() in _full_closure(rep_a)[0]
        assert are_conjugate(a, b) == want
        same = garside._cycle_type(normal_form(a)) == garside._cycle_type(normal_form(b))
        assert same or not want
        kinds["conjugate" if want else "same cycle type" if same else "other cycle type"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_closure_conjugates_once_per_distinct_minimal_simple(monkeypatch):
    # generators often share their least conjugator; each one is applied once
    rng = random.Random(20261021)
    formed = Counter()
    real = garside.conjugate_nf

    def counted(u, c):
        formed[u.key()] += 1
        return real(u, c)

    monkeypatch.setattr(garside, "conjugate_nf", counted)
    shared = 0
    for k in range(40):
        n = 3 + k % 4
        tail = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 6)))
        rep, _ = garside._summit_representative(normal_form(BraidWord(n, delta_word(n) + tail)))
        formed.clear()
        members, _ = garside._summit_closure(rep, DEFAULT_CAPS)
        distinct = Counter()
        for key, u in members.items():
            back = garside._inverse_factors(u)
            distinct[key] = len({garside._minimal_simple(u, back, i) for i in range(1, n)})
        assert formed == distinct
        shared += sum(distinct.values()) < len(members) * (n - 1)
    assert shared >= 20, shared
