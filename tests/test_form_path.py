"""Equal positive words joined by the path their normal form gives.

garside._form_path(w) carries w to nf_word(normal_form(w)) by braid
relations and far commutations read off the left-weighting. Two words
equal as braids take conjugacy_move_sequence_detailed's one route with
no conjugation step: a's path followed by b's undone, which is b's path
reversed. These tests replay both on seeded and generated words, check
that the route takes no cap, that a 48-strand half twist spelled
backwards joins its spelling with no RecursionError, and that the memo
of perm_word, which every respelling reads, keeps its bound. Equal forms
reach the decision once through garside._conjugacy, and their route
keeps its replay guard.
"""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from braidforge import garside
from braidforge.errors import GarsideInvariantError
from braidforge.garside import (
    GarsideCaps,
    _form_path,
    are_conjugate,
    conjugacy_move_sequence_detailed,
    delta_word,
    nf_word,
    normal_form,
    perm_word,
)
from braidforge.words import BraidWord, MoveKind, WordMove, apply_move, replay, rewrite_sites


def walked(rng: random.Random, w: BraidWord, steps: int) -> BraidWord:
    """w after a random walk of braid relations and far commutations."""
    for _ in range(steps):
        sites = list(rewrite_sites(w.letters))
        if not sites:
            break
        w = apply_move(w, WordMove(*rng.choice(sites)))
    return w


@st.composite
def words_and_walks(draw):
    n = draw(st.integers(2, 7))
    w = BraidWord(n, tuple(draw(st.lists(st.integers(1, n - 1), max_size=60))))
    return w, walked(random.Random(draw(st.integers(0, 2**32))), w, draw(st.integers(0, 40)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(words_and_walks())
def test_path_reaches_the_spelling_and_joins_equal_words(case):
    w, v = case
    moves, end = _form_path(w)
    assert replay(w, moves) == end == nf_word(normal_form(w))
    assert replay(w, conjugacy_move_sequence_detailed(w, v).moves) == v
    assert replay(v, conjugacy_move_sequence_detailed(v, w).moves) == w


def seeded_pairs(count: int):
    rng = random.Random(39)
    for _ in range(count):
        n = rng.randint(2, 8)
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 60))))
        yield w, walked(rng, w, rng.randint(0, 60))


def test_no_search_runs_and_no_cap_applies():
    # a closure of one member: equal forms never reach it
    caps = GarsideCaps(summit_set=1)
    for w, v in seeded_pairs(400):
        moves = conjugacy_move_sequence_detailed(w, v, caps).moves
        assert replay(w, moves) == v
        assert all(m.kind in (MoveKind.BRAID_REL, MoveKind.FAR_COMM) for m in moves)
        assert conjugacy_move_sequence_detailed(w, w, caps).moves == ()


def test_a_canonical_spelling_has_the_empty_path():
    for w, _ in seeded_pairs(200):
        spelled = nf_word(normal_form(w))
        assert _form_path(spelled) == ([], spelled)


def test_long_half_twist_joins_its_spelling_without_recursion():
    # one 1,128-letter factor: every respelling walks inside it
    n = 48
    w = BraidWord(n, delta_word(n)[::-1])
    target = nf_word(normal_form(w))
    assert target.letters == delta_word(n)
    moves = conjugacy_move_sequence_detailed(w, target).moves
    letters = list(w.letters)
    for m in moves:  # replay in place, each site tested where it stands
        p = m.position - 1
        if m.kind is MoveKind.BRAID_REL:
            i, j = letters[p], letters[p + 1]
            assert letters[p + 2] == i and abs(i - j) == 1, m
            letters[p : p + 3] = (j, i, j)
        else:
            assert m.kind is MoveKind.FAR_COMM and abs(letters[p] - letters[p + 1]) >= 2, m
            letters[p], letters[p + 1] = letters[p + 1], letters[p]
    assert tuple(letters) == target.letters


def test_perm_word_memo_is_bounded():
    # Every permutation of S_7 is more inputs than the memo holds.
    perms = list(permutations(range(7)))
    assert len(perms) > garside.PERM_MEMO
    perm_word.cache_clear()
    for p in perms:
        word = perm_word(p)
        assert isinstance(word, tuple) and perm_word.cache_info().currsize <= garside.PERM_MEMO
        q = list(p)
        for i in word:  # each letter undoes one inversion of p: reduced, and spells p
            assert q[i - 1] > q[i]
            q[i - 1], q[i] = q[i], q[i - 1]
        assert q == list(range(7))
    assert perm_word.cache_info().currsize == garside.PERM_MEMO
    warm = [perm_word(p) for p in perms[:50]]
    perm_word.cache_clear()
    assert [perm_word(p) for p in perms[:50]] == warm
    assert perm_word(perms[0]) is perm_word(perms[0])


def test_an_unreplayable_braid_relation_is_refused():
    u = [1, 3, 1]
    with pytest.raises(GarsideInvariantError, match="no braid relation at position 1"):
        garside._braid_move(u, [], 0)
    assert u == [1, 3, 1]
    moves: list[WordMove] = []
    u = [2, 1, 2]
    garside._braid_move(u, moves, 0)
    assert u == [1, 2, 1] and moves == [WordMove(MoveKind.BRAID_REL, 1)]


def test_equal_forms_are_decided_once_by_the_one_decision(monkeypatch):
    calls = []
    real = garside._conjugacy
    monkeypatch.setattr(
        garside, "_conjugacy", lambda *args: calls.append(args) or real(*args)
    )
    pairs = [(w, v) for w, v in seeded_pairs(60) if w != v]
    assert len(pairs) >= 40
    for w, v in pairs:
        nf = normal_form(w)
        assert nf == normal_form(v)
        calls.clear()
        assert are_conjugate(w, v)
        assert calls == [(nf, nf, garside.DEFAULT_CAPS)]
        calls.clear()
        assert replay(w, conjugacy_move_sequence_detailed(w, v).moves) == v
        assert calls == [(nf, nf, garside.DEFAULT_CAPS)]


def test_equal_forms_keep_the_replay_guard(monkeypatch):
    real = garside._invert_move_path
    monkeypatch.setattr(garside, "_invert_move_path", lambda start, moves: real(start, moves)[:-1])
    checked = 0
    for w, v in seeded_pairs(60):
        if w == v or not _form_path(v)[0]:
            continue
        with pytest.raises(
            GarsideInvariantError, match=rf"^realized moves do not carry '{w}' to '{v}': they end at "
        ):
            conjugacy_move_sequence_detailed(w, v)
        checked += 1
    assert checked >= 30
