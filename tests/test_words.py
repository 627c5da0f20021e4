import json
import random

import pytest

from braidforge.errors import MoveError, WordError
from braidforge.words import (
    BraidWord,
    MoveKind,
    WordMove,
    apply_move,
    enumerate_moves,
    inverse_move,
    move_applies,
    parse_word,
    replay,
    serialize_word,
)

from conftest import random_word
from test_word_search_reference import reference_apply, reference_markov_moves, reference_moves


def from_json(text: str) -> BraidWord:
    data = json.loads(text)
    return BraidWord(int(data["strands"]), tuple(int(i) for i in data["letters"]))


def test_parse_basic():
    w = parse_word("1 2 1 1 2 1")
    assert w == BraidWord(3, (1, 2, 1, 1, 2, 1))


def test_parse_compact_and_commas():
    assert parse_word("s1 s3 s1") == BraidWord(4, (1, 3, 1))
    assert parse_word("1,2,1") == BraidWord(3, (1, 2, 1))


def test_parse_empty_needs_strands():
    assert parse_word("", strands=4) == BraidWord(4, ())
    with pytest.raises(WordError):
        parse_word("")


def test_parse_figure_word():
    w = parse_word("1 3 1 2 1 3 1 3 1 2 3 1 3 2")
    assert w.strands == 4
    assert len(w.letters) == 14


def test_parse_errors():
    with pytest.raises(WordError):
        parse_word("0 1")
    with pytest.raises(WordError):
        parse_word("3", strands=3)  # index >= N
    with pytest.raises(WordError):
        parse_word("x y")
    with pytest.raises(WordError):
        BraidWord(1, ())


def test_roundtrip(rng):
    for _ in range(50):
        w = random_word(rng)
        assert parse_word(serialize_word(w), w.strands) == w
        assert from_json(w.to_json()) == w


def test_explicit_strands_may_exceed_max_index():
    w = parse_word("1", strands=4)
    assert w.strands == 4


def test_letter_accessor_is_one_based():
    w = BraidWord(3, (1, 2, 1))
    assert w.letter(1) == 1
    assert w.letter(2) == 2
    with pytest.raises(WordError):
        w.letter(4)
    assert w.occurrences(1) == (1, 3)


def test_apply_braid_rel():
    w = BraidWord(3, (1, 2, 1))
    assert apply_move(w, WordMove(MoveKind.BRAID_REL, 1)).letters == (2, 1, 2)


def test_apply_elem_conj_right():
    w = BraidWord(3, (1, 2, 1, 1, 2, 1))
    assert apply_move(w, WordMove(MoveKind.ELEM_CONJ_RIGHT, 6)).letters == (
        1, 1, 2, 1, 1, 2,
    )


def test_apply_far_comm():
    w = BraidWord(4, (1, 3))
    assert apply_move(w, WordMove(MoveKind.FAR_COMM, 1)).letters == (3, 1)


def test_markov_moves():
    w = BraidWord(3, (1, 2))
    up = apply_move(w, WordMove(MoveKind.MARKOV_STAB, 3))
    assert up == BraidWord(4, (1, 2, 3))
    down = apply_move(up, WordMove(MoveKind.MARKOV_DESTAB, 3))
    assert down == w
    # destab needs the trailing letter to be the unique top-index occurrence
    assert not move_applies(BraidWord(3, (2, 2)), WordMove(MoveKind.MARKOV_DESTAB, 2))
    assert not move_applies(BraidWord(2, (1,)), WordMove(MoveKind.MARKOV_DESTAB, 1))


def test_move_not_applicable():
    with pytest.raises(MoveError):
        apply_move(BraidWord(3, (1, 2)), WordMove(MoveKind.BRAID_REL, 1))
    with pytest.raises(MoveError):
        apply_move(BraidWord(3, (1, 2)), WordMove(MoveKind.FAR_COMM, 1))


def test_enumerate_contains_expected():
    moves = enumerate_moves(BraidWord(3, (1, 2, 1)))
    kinds = {(m.kind, m.position) for m in moves}
    assert (MoveKind.BRAID_REL, 1) in kinds
    assert (MoveKind.ELEM_CONJ_LEFT, 1) in kinds
    assert (MoveKind.ELEM_CONJ_RIGHT, 3) in kinds


def test_enumerate_empty_word():
    moves = enumerate_moves(BraidWord(4, ()))
    assert [m.kind for m in moves] == [MoveKind.MARKOV_STAB]


def test_enumerate_two_ones():
    # No braid relation, no far commutativity, no destabilization; the
    # conjugations and the always-available stabilization remain.
    moves = enumerate_moves(BraidWord(2, (1, 1)))
    assert {m.kind for m in moves} == {
        MoveKind.ELEM_CONJ_LEFT,
        MoveKind.ELEM_CONJ_RIGHT,
        MoveKind.MARKOV_STAB,
    }


def test_enumerate_order_deterministic(rng):
    for _ in range(20):
        w = random_word(rng)
        moves = enumerate_moves(w)
        keys = [(list(MoveKind).index(m.kind), m.position) for m in moves]
        assert keys == sorted(keys)


def test_length_and_strand_bookkeeping(rng):
    for _ in range(100):
        w = random_word(rng)
        for m in enumerate_moves(w):
            v = apply_move(w, m)
            if m.kind is MoveKind.MARKOV_STAB:
                assert len(v.letters) == len(w.letters) + 1
                assert v.strands == w.strands + 1
            elif m.kind is MoveKind.MARKOV_DESTAB:
                assert len(v.letters) == len(w.letters) - 1
                assert v.strands == w.strands - 1
            else:
                assert len(v.letters) == len(w.letters)
                assert v.strands == w.strands


def test_every_move_inverts(rng):
    for _ in range(100):
        w = random_word(rng)
        for m in enumerate_moves(w):
            v = apply_move(w, m)
            assert apply_move(v, inverse_move(w, m)) == w


def test_replay():
    w = BraidWord(3, (1, 2, 1))
    moves = [WordMove(MoveKind.BRAID_REL, 1), WordMove(MoveKind.ELEM_CONJ_RIGHT, 3)]
    assert replay(w, moves).letters == (2, 2, 1)


def reference_walk_moves(w: BraidWord) -> list[WordMove]:
    return reference_moves(w) + reference_markov_moves(w)


def fold_reference_apply(w: BraidWord, moves) -> BraidWord:
    """The moves applied one by one from their definitions, a move that does
    not apply refused with apply_move's text."""
    for m in moves:
        if m not in reference_walk_moves(w):
            raise MoveError(f"{m.kind.value} does not apply at position {m.position}")
        w = reference_apply(w, m)
    return w


def outcome(fn, w, moves):
    try:
        return fn(w, moves)
    except MoveError as exc:
        return f"MoveError: {exc}"


def test_replay_equals_reference_apply_folded():
    # walks of every move kind, every fourth move drawn at random so that
    # some do not apply: the same word, or the same MoveError text, which
    # apply_move, replay of one move, gives too
    rng = random.Random(20261020)
    kinds, refused = set(), set()
    for _ in range(400):
        w = random_word(rng, max_strands=6, max_len=14)
        moves, v = [], w
        for _ in range(rng.randint(0, 30)):
            if rng.random() < 0.25:
                m = WordMove(rng.choice(list(MoveKind)), rng.randint(0, len(v.letters) + 2))
            else:
                m = rng.choice(reference_walk_moves(v))
            moves.append(m)
            kinds.add(m.kind)
            if m not in reference_walk_moves(v):
                refused.add(m.kind)
                refusal = f"MoveError: {m.kind.value} does not apply at position {m.position}"
                assert outcome(apply_move, v, m) == refusal
                break
            v = reference_apply(v, m)
        want = outcome(fold_reference_apply, w, moves)
        assert outcome(replay, w, moves) == want, (w, moves)
    assert kinds == refused == set(MoveKind)
