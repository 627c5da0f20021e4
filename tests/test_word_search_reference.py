"""The words layer's move sites against references written from the definitions.

reference_moves, reference_markov_moves and reference_apply are the
earlier enumerate_moves and apply_move, each site and each move written
out from its definition. rewrite_sites, enumerate_moves and apply_move
must agree with the references in kinds, positions, order and letters,
and move_applies must accept exactly the moves the references list, at
every position in and around the word.
"""

from hypothesis import given, settings, strategies as st

from braidforge.words import (
    BraidWord,
    MoveKind,
    WordMove,
    apply_move,
    enumerate_moves,
    move_applies,
    rewrite_sites,
)

EQUAL_WORD_KINDS = frozenset({MoveKind.BRAID_REL, MoveKind.FAR_COMM})


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
    """The word after a move that applies: braid relation i j i -> j i j,
    far commutation i j -> j i, a letter carried from one end to the other,
    sigma_N appended on one more strand, the last letter dropped with a
    strand."""
    x, p = w.letters, m.position
    if m.kind is MoveKind.BRAID_REL:
        i, j = x[p - 1], x[p]
        return BraidWord(w.strands, x[: p - 1] + (j, i, j) + x[p + 2 :])
    if m.kind is MoveKind.FAR_COMM:
        return BraidWord(w.strands, x[: p - 1] + (x[p], x[p - 1]) + x[p + 1 :])
    if m.kind is MoveKind.ELEM_CONJ_LEFT:
        return BraidWord(w.strands, x[1:] + x[:1])
    if m.kind is MoveKind.ELEM_CONJ_RIGHT:
        return BraidWord(w.strands, x[-1:] + x[:-1])
    if m.kind is MoveKind.MARKOV_STAB:
        return BraidWord(w.strands + 1, x + (w.strands,))
    return BraidWord(w.strands - 1, x[:-1])


def reference_markov_moves(w):
    """Stabilization after the last letter, then destabilization of a
    lone trailing sigma_{N-1} on three or more strands."""
    x, n = w.letters, len(w.letters)
    moves = [WordMove(MoveKind.MARKOV_STAB, n + 1)]
    if n >= 1 and w.strands >= 3 and x[-1] == w.strands - 1 and x.count(x[-1]) == 1:
        moves.append(WordMove(MoveKind.MARKOV_DESTAB, n))
    return moves


@st.composite
def words(draw, max_letters=12):
    n = draw(st.integers(3, 5))
    letters = draw(st.lists(st.integers(1, n - 1), max_size=max_letters))
    return BraidWord(n, tuple(letters))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(words(max_letters=16))
def test_rewrite_sites_agree_with_reference_moves(w):
    expected = reference_moves(w)
    sites = [WordMove(kind, p) for kind, p in rewrite_sites(w.letters)]
    assert sites == [m for m in expected if m.kind in EQUAL_WORD_KINDS]
    every = expected + reference_markov_moves(w)
    assert enumerate_moves(w) == every
    for kind in MoveKind:  # each site is tested where it stands, also outside the word
        for p in range(-1, len(w.letters) + 3):
            m = WordMove(kind, p)
            assert move_applies(w, m) == (m in every), m
    for m in every:
        assert apply_move(w, m) == reference_apply(w, m)
