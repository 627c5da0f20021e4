"""Interior braid maps on long words, against oracles that need no chain.

Composing the 2 * tail + 1 brick-level maps of the rotation path is far
too slow to serve as a reference at these lengths, so these tests check
what any correct map satisfies: the images both ways invert each other
exactly in the free group, every brick of a column other than the
relation's two maps to itself both ways, and the map is read off a
constant number of brick diagrams however long its tail.
"""

import random

import pytest

from braidforge import isomaps
from braidforge.bricks import build_bricks
from braidforge.isomaps import move_map, substitute
from braidforge.words import BraidWord, MoveKind, WordMove


def _long_interior_cases(seed: int, count: int) -> list[tuple[BraidWord, int]]:
    """4-6-strand words of 60-200 letters, a braid relation at a random
    position below the top; patterns alternate, and the first case has
    200 letters on 6 strands with the relation at position 1."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        strands = 6 if t == 0 else rng.randint(4, 6)
        n = 200 if t == 0 else rng.randint(60, 200)
        i = rng.randint(1, strands - 2)
        core = (i, i + 1, i) if t % 2 == 0 else (i + 1, i, i + 1)
        p = 1 if t == 0 else rng.randint(1, n - 3)
        letters = [rng.randint(1, strands - 1) for _ in range(n)]
        letters[p - 1 : p + 2] = core
        out.append((BraidWord(strands, tuple(letters)), p))
    return out


CASES = _long_interior_cases(2027, 8)


@pytest.fixture
def diagrams_built(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return build_bricks(w)

    monkeypatch.setattr(isomaps, "build_bricks", counted)
    return calls


@pytest.mark.parametrize("case", CASES, ids=[f"{len(w)}-letters@{p}" for w, p in CASES])
def test_long_interior_braid_map(case, diagrams_built):
    w, p = case
    phi = move_map(w, WordMove(MoveKind.BRAID_REL, p))
    assert len(diagrams_built) <= 2
    k = len(phi.images)
    assert k == len(phi.inverse_images) == phi.source.n_generators == phi.target.n_generators
    for g in range(1, k + 1):
        assert substitute(phi.images[g - 1], phi.inverse_images) == (g,)
        assert substitute(phi.inverse_images[g - 1], phi.images) == (g,)
    pair = w.letters[p - 1 : p + 1]
    for b in build_bricks(w).bricks:
        if b.column not in pair:
            assert phi.images[b.id - 1] == (b.id,)
            assert phi.inverse_images[b.id - 1] == (b.id,)


def test_long_cases_cover_both_patterns_and_long_tails():
    assert {w.letters[p] > w.letters[p - 1] for w, p in CASES} == {True, False}
    assert max(len(w) - (p + 2) for w, p in CASES) == 197
