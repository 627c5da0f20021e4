"""A move's generator map read backwards is its inverse move's map.

maps_along_moves builds a step's inverse images as the images across its
inverse move, read back from the step's destination. That rests on the
fact pinned here: for every move m of w, the map across inverse_move(w, m)
from apply_move(w, m) is move_map(w, m) inverted, for every kind of move
enumerate_moves lists, and a sequence's map inverted is the map of its
reversed inverse sequence from the end word. Each move's inverse images
are read off diagrams already built, one per word on the way.
"""

import random

import pytest

from braidforge import isomaps
from braidforge.bricks import build_bricks
from braidforge.isomaps import GeneratorMap, maps_along_moves, move_map
from braidforge.words import BraidWord, MoveKind, WordMove, apply_move, enumerate_moves, inverse_move


def _words(seed: int, count: int) -> list[BraidWord]:
    """2-5-strand words of 0-24 letters; every third has a braid pattern of
    either orientation planted at a random height, the top included, and
    every fifth ends in its only sigma_{N-1}, so it destabilizes."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        n = rng.randint(2, 5)
        letters = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 24))]
        if n >= 3 and t % 3 == 0:
            i = rng.randint(1, n - 2)
            p = rng.randint(0, len(letters))
            letters[p:p] = (i, i + 1, i) if rng.random() < 0.5 else (i + 1, i, i + 1)
        if n >= 3 and t % 5 == 1:
            letters = [x for x in letters if x != n - 1] + [n - 1]
        out.append(BraidWord(n, tuple(letters)))
    return out


def _case(w: BraidWord, m: WordMove) -> str:
    """The kind of move m on w, telling braid patterns and heights apart."""
    if m.kind is not MoveKind.BRAID_REL:
        return m.kind.value
    i, j = w.letters[m.position - 1 : m.position + 1]
    height = "top" if m.position == len(w.letters) - 2 else "interior"
    return f"braid-{'up' if j == i + 1 else 'down'}-{height}"


ALL_CASES = {
    "braid-up-interior", "braid-up-top", "braid-down-interior", "braid-down-top",
    "conjL", "conjR", "farcomm", "stab", "destab",
}


def assert_inverse_of(back: GeneratorMap, phi: GeneratorMap) -> None:
    assert back.images == phi.inverse_images
    assert back.inverse_images == phi.images
    assert back.source == phi.target
    assert back.target == phi.source


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_move_read_backwards_is_its_inverse_move(seed):
    cases = set()
    for w in _words(seed, 40):
        for m in enumerate_moves(w):
            cases.add(_case(w, m))
            assert_inverse_of(move_map(apply_move(w, m), inverse_move(w, m)), move_map(w, m))
    assert cases == ALL_CASES


def _walk(seed: int) -> tuple[BraidWord, list[WordMove], list[WordMove], BraidWord]:
    """A seeded word, 1-8 moves from it, their inverses in reverse order,
    and the end word."""
    rng = random.Random(seed)
    w = v = rng.choice(_words(seed, 10))
    moves, inverses = [], []
    for _ in range(rng.randint(1, 8)):
        m = rng.choice(enumerate_moves(v))
        moves.append(m)
        inverses.insert(0, inverse_move(v, m))
        v = apply_move(v, m)
    return w, moves, inverses, v


@pytest.mark.parametrize("seed", range(100, 130))
def test_sequence_read_backwards_is_its_reversed_inverse_sequence(seed):
    w, moves, inverses, end = _walk(seed)
    assert_inverse_of(maps_along_moves(end, inverses), maps_along_moves(w, moves))


@pytest.fixture
def diagrams_built(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return build_bricks(w)

    monkeypatch.setattr(isomaps, "build_bricks", counted)
    return calls


@pytest.mark.parametrize("seed", range(200, 210))
def test_one_diagram_per_word_on_the_way(seed, diagrams_built):
    w, moves, _, end = _walk(seed)
    maps_along_moves(w, moves)
    assert len(diagrams_built) == 1 + len(moves)
    assert diagrams_built[0] == w and diagrams_built[-1] == end
