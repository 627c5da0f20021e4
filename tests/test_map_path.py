"""Generator maps by one path, and check_map's single pullback pass.

Every map is built by maps_along_moves (move_map is a sequence of one
move), which hands each move to apply_move first: a move is refused
exactly when apply_move refuses it, in apply_move's words, whatever its
kind or position. A braid relation at the top of the word is one step
of the relation's own images, with nothing rotated. check_map pulls
each orbit representative back through the map once and its pullback
back once for the round trip, and both the decision and the violations
read those pullbacks. With equal hom counts a passing forward half (the
target's representatives) decides alone. The abelianization is decided by per-component sums, so
a consistent map is checked without reading either side's relators, and
a failing one reads each side's at most once.
"""

import random

import pytest

from braidforge import isomaps
from braidforge.bricks import build_bricks
from braidforge.errors import MoveError
from braidforge.finite_groups import builtin_targets
from braidforge.invariants import hom_count
from braidforge.isomaps import (
    GeneratorMap,
    _braid_top_images,
    check_map,
    maps_along_moves,
    move_map,
)
from braidforge.presentations import Presentation
from braidforge.words import (
    BraidWord,
    MoveKind,
    WordMove,
    apply_move,
    enumerate_moves,
    parse_word,
)

S3 = builtin_targets()["S3"]


@pytest.fixture
def pullbacks(monkeypatch):
    calls = []
    pull_back = isomaps._pull_back

    def counted(t, hom, images):
        calls.append(hom)
        return pull_back(t, hom, images)

    monkeypatch.setattr(isomaps, "_pull_back", counted)
    return calls


def test_each_representative_pulled_back_twice(pullbacks):
    phi = move_map(parse_word("1 2 1 1 2 2 1"), WordMove(MoveKind.BRAID_REL, 1))
    reps = len(hom_count(phi.source, S3).reps) + len(hom_count(phi.target, S3).reps)
    assert reps == 6
    assert check_map(phi, [S3]).consistent
    # equal counts: the target's 3 representatives, there and back, decide
    assert len(pullbacks) == 2 * len(hom_count(phi.target, S3).reps) == reps
    # one image disturbed: the decision fails, and the violations are
    # worded from the same pullbacks, not from a second pass
    images = (phi.images[0] + (1,),) + phi.images[1:]
    bad = GeneratorMap(phi.source, phi.target, images, phi.inverse_images)
    pullbacks.clear()
    report = check_map(bad, [S3])
    assert any(v.target == "S3" for v in report.violations)
    assert len(pullbacks) == 2 * reps


@pytest.mark.parametrize(
    "kind, position",
    [(MoveKind.ELEM_CONJ_RIGHT, 1), (MoveKind.ELEM_CONJ_RIGHT, 3), (MoveKind.ELEM_CONJ_LEFT, 4)],
)
def test_conjugation_away_from_its_end_is_rejected(kind, position):
    w = BraidWord(3, (1, 2, 1, 1))
    m = WordMove(kind, position)
    with pytest.raises(MoveError) as want:
        apply_move(w, m)
    for build in (move_map, lambda w, m: maps_along_moves(w, [m])):
        with pytest.raises(MoveError) as got:
            build(w, m)
        assert str(got.value) == str(want.value)


def test_a_map_refuses_a_move_exactly_as_apply_move_does():
    # an interior braid relation that does not apply was refused at the
    # top of the rotated word, and conjR on the empty word in words of
    # its own; both now read as apply_move reads them
    rng = random.Random(20261020)
    words = [BraidWord(3, ()), BraidWord(4, (1, 2, 3, 1, 2, 1, 3, 2))]
    for _ in range(60):
        n = rng.randint(2, 6)
        words.append(BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 20)))))
    refused = built = 0
    for w in words:
        for kind in MoveKind:
            for position in range(-1, len(w) + 3):
                m = WordMove(kind, position)
                try:
                    apply_move(w, m)
                except MoveError as want:
                    with pytest.raises(MoveError) as got:
                        maps_along_moves(w, [m])
                    assert str(got.value) == str(want), (w, m)
                    refused += 1
                else:
                    maps_along_moves(w, [m])
                    built += 1
    assert refused > 4000 and built > 300


@pytest.mark.parametrize("text", ["1 2 1", "2 1 2", "1 1 2 1 2", "3 1 2 3 2 3", "1 3 2 3 2"])
def test_braid_relation_map_is_move_map_at_the_top(text):
    # at the top nothing rotates: the map is the relation's own images,
    # read for the mirrored pattern as the inverse of the upward move
    w = parse_word(text)
    m = WordMove(MoveKind.BRAID_REL, len(w) - 2)
    got = move_map(w, m)
    d, dd = build_bricks(w), build_bricks(apply_move(w, m))
    i, j = w.letters[-3:-1]
    if j == i + 1:
        want = _braid_top_images(d, dd, i, False), _braid_top_images(d, dd, i, True)
    else:
        want = _braid_top_images(dd, d, j, True), _braid_top_images(dd, d, j, False)
    assert (got.images, got.inverse_images) == want
    assert sum(len(x) > 1 for x in got.images + got.inverse_images) <= 2


def test_relators_are_read_only_for_violations(monkeypatch):
    reads = []
    spelled = Presentation.relators.fget
    monkeypatch.setattr(Presentation, "relators", property(lambda p: reads.append(p) or spelled(p)))
    targets = [S3, builtin_targets()["S4"]]
    rng = random.Random(20261019)
    consistent = failing = 0
    for _ in range(20):
        n = rng.randint(3, 5)
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(6, 14))))
        for move in enumerate_moves(w):
            phi = move_map(w, move)
            if phi.is_relabeling():
                continue
            reads.clear()
            assert check_map(phi, targets).consistent
            assert reads == []
            consistent += 1
            images = (phi.images[0] + (1,),) + phi.images[1:]
            bad = GeneratorMap(phi.source, phi.target, images, phi.inverse_images)
            reads.clear()
            assert not check_map(bad, targets).consistent
            assert len(reads) == len(set(map(id, reads))) <= 2
            failing += 1
    assert consistent > 50 and failing == consistent
