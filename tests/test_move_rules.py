"""The move calculus, stated once in words.

end_position says where an end move stands, undo_move which move undoes
an applied move, and NEUTRAL which kinds keep every brick in place; the
other modules read them there. On the map path apply_move is the one
check on a move: maps_along_moves reads each inverse move off the rule
and never asks move_applies.
"""

import random
from pathlib import Path

import pytest

from braidforge import words
from braidforge.bricks import build_bricks
from braidforge.errors import MoveError
from braidforge.isomaps import maps_along_moves
from braidforge.linking import build_graph
from braidforge.words import (
    BraidWord,
    MoveKind,
    WordMove,
    apply_move,
    enumerate_moves,
    inverse_move,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "braidforge"


def _seeded_words(seed: int, count: int) -> list[BraidWord]:
    """The empty word on 2-6 strands, then words of 0-20 letters."""
    rng = random.Random(seed)
    out = [BraidWord(n, ()) for n in range(2, 7)]
    while len(out) < count:
        n = rng.randint(2, 6)
        out.append(BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 20)))))
    return out


WORDS = _seeded_words(20261021, 80)


def _walk(w: BraidWord, rng: random.Random, length: int) -> list[WordMove]:
    moves = []
    for _ in range(length):
        moves.append(rng.choice(enumerate_moves(w)))
        w = apply_move(w, moves[-1])
    return moves


def test_the_map_path_checks_each_move_once(monkeypatch):
    rng = random.Random(7)
    walks = [(w, _walk(w, rng, rng.randint(1, 6))) for w in WORDS[::3]]
    assert {m.kind for _, moves in walks for m in moves} == set(MoveKind)
    calls = []
    real = words.move_applies
    monkeypatch.setattr(words, "move_applies", lambda w, m: calls.append(m) or real(w, m))
    for w, moves in walks:
        maps_along_moves(w, moves)
    assert calls == []


def test_an_end_move_stands_at_its_end_position():
    rewrites = {MoveKind.BRAID_REL, MoveKind.FAR_COMM}
    for w in WORDS:
        n = len(w.letters)
        for m in enumerate_moves(w):
            end = words.end_position(m.kind, n)
            assert end is None if m.kind in rewrites else m.position == end, (w, m)
    assert [words.end_position(k, 5) for k in MoveKind] == [None, None, 1, 5, 6, 5]


def test_the_inverse_rule_undoes_every_listed_move():
    for w in WORDS:
        for m in enumerate_moves(w):
            after = apply_move(w, m)
            undo = words.undo_move(m, len(after.letters))
            assert undo == inverse_move(w, m), (w, m)
            assert apply_move(after, undo) == w, (w, m)


def test_inverse_move_refuses_as_apply_move_does():
    with pytest.raises(MoveError, match="^conjR does not apply at position 0$"):
        inverse_move(BraidWord(3, ()), WordMove(MoveKind.ELEM_CONJ_RIGHT, 0))
    with pytest.raises(MoveError, match="^destab does not apply at position 2$"):
        inverse_move(BraidWord(3, (2, 2)), WordMove(MoveKind.MARKOV_DESTAB, 2))


def test_neutral_kinds_are_those_that_keep_the_linking_graph():
    def signature(w: BraidWord):
        return build_graph(build_bricks(w)).combinatorial_signature()

    kept = set(MoveKind)
    for w in WORDS:
        before = signature(w)
        kept -= {m.kind for m in enumerate_moves(w) if signature(apply_move(w, m)) != before}
    assert kept == words.NEUTRAL


def test_only_words_names_the_markov_kinds():
    # the Markov moves appear only in the rules, so a module that names
    # one restates a rule words already states
    named = {
        path.name
        for path in SRC.glob("*.py")
        if "MARKOV_STAB" in (text := path.read_text()) or "MARKOV_DESTAB" in text
    }
    assert named == {"words.py"}
