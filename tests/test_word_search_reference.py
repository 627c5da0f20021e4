"""The word search on letter tuples against the search it replaced.

reference_bfs_moves is the earlier garside._bfs_moves, and reference_moves
and reference_apply the earlier enumerate_moves and apply_move on the
moves that keep the strand count, each site written out from its
definition. The library searches letter tuples fed by words.rewrite_sites
and must return the same move list, or the same None, under every cap,
with conjugations on and off. rewrite_sites and rewritten, and the
enumerate_moves and apply_move built on them, must agree with the
references in kinds, positions, order and letters.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from braidforge import garside
from braidforge.garside import DEFAULT_CAPS
from braidforge.words import (
    BraidWord,
    MoveKind,
    WordMove,
    apply_move,
    enumerate_moves,
    rewrite_sites,
    rewritten,
)

EQUAL_WORD_KINDS = frozenset({MoveKind.BRAID_REL, MoveKind.FAR_COMM})
CONJUGACY_KINDS = EQUAL_WORD_KINDS | {MoveKind.ELEM_CONJ_LEFT, MoveKind.ELEM_CONJ_RIGHT}


def reference_moves(w):
    """Braid relations, far commutations, then the two conjugations."""
    x, n = w.letters, len(w.letters)
    moves = [
        WordMove(MoveKind.BRAID_REL, p) for p in range(1, n - 1)
        if x[p - 1] == x[p + 1] and abs(x[p - 1] - x[p]) == 1
    ]
    moves += [WordMove(MoveKind.FAR_COMM, p) for p in range(1, n) if abs(x[p - 1] - x[p]) >= 2]
    if n >= 1:
        moves += [WordMove(MoveKind.ELEM_CONJ_LEFT, 1), WordMove(MoveKind.ELEM_CONJ_RIGHT, n)]
    return moves


def reference_apply(w, m):
    x, p = w.letters, m.position
    if m.kind is MoveKind.BRAID_REL:
        i, j = x[p - 1], x[p]
        return BraidWord(w.strands, x[: p - 1] + (j, i, j) + x[p + 2 :])
    if m.kind is MoveKind.FAR_COMM:
        return BraidWord(w.strands, x[: p - 1] + (x[p], x[p - 1]) + x[p + 1 :])
    if m.kind is MoveKind.ELEM_CONJ_LEFT:
        return BraidWord(w.strands, x[1:] + x[:1])
    return BraidWord(w.strands, x[-1:] + x[:-1])


def reference_bfs_moves(a, b, conjugations, cap):
    if a == b:
        return []
    kinds = CONJUGACY_KINDS if conjugations else EQUAL_WORD_KINDS
    goal = b.letters
    parents = {a.letters: None}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for m in reference_moves(u):
            if m.kind not in kinds:
                continue
            v = reference_apply(u, m)
            if v.letters in parents:
                continue
            if len(parents) >= cap:
                return None
            parents[v.letters] = (u.letters, m)
            if v.letters == goal:
                path, key = [], goal
                while parents[key] is not None:
                    key, move = parents[key]
                    path.append(move)
                return path[::-1]
            queue.append(v)
    return None


@st.composite
def words(draw, max_letters=12):
    n = draw(st.integers(3, 5))
    letters = draw(st.lists(st.integers(1, n - 1), max_size=max_letters))
    return BraidWord(n, tuple(letters))


@st.composite
def walked_pairs(draw):
    """A word of 0-12 letters and the word 0-8 random equal-word or
    conjugation moves take it to."""
    a = draw(words())
    b = a
    for _ in range(draw(st.integers(0, 8))):
        moves = reference_moves(b)
        if not moves:
            break
        b = reference_apply(b, draw(st.sampled_from(moves)))
    return a, b


@settings(derandomize=True, max_examples=300, deadline=None)
@given(walked_pairs(), st.booleans())
def test_search_matches_reference_under_small_caps(pair, conjugations):
    a, b = pair
    for cap in range(1, 9):
        assert garside._bfs_moves(a, b, conjugations, cap) == reference_bfs_moves(
            a, b, conjugations, cap
        )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(walked_pairs(), st.booleans())
def test_search_matches_reference_under_default_cap(pair, conjugations):
    a, b = pair
    cap = DEFAULT_CAPS.word_search
    found = garside._bfs_moves(a, b, conjugations, cap)
    assert found == reference_bfs_moves(a, b, conjugations, cap)
    if conjugations:  # b was reached by such moves, so the search finds it
        assert found is not None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(words(max_letters=16))
def test_rewrite_sites_agree_with_reference_moves(w):
    expected = reference_moves(w)
    sites = list(rewrite_sites(w.letters, conjugations=True))
    assert [WordMove(kind, p) for kind, p in sites] == expected
    assert list(rewrite_sites(w.letters)) == [s for s in sites if s[0] in EQUAL_WORD_KINDS]
    moves = enumerate_moves(w)
    assert moves[: len(expected)] == expected
    assert all(m.kind not in CONJUGACY_KINDS for m in moves[len(expected):])
    for m in expected:
        assert rewritten(w.letters, m.kind, m.position) == reference_apply(w, m).letters
        assert apply_move(w, m) == reference_apply(w, m)
