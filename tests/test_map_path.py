"""Generator maps by one path, and check_map's single pullback pass.

move_map, conjugation_map and braid_relation_map all build their maps
through maps_along_moves, so a move is validated the same way whichever
entry point takes it; check_map pulls each orbit representative back
through the map once and its pullback back once for the round trip,
and both the decision and the violations read those pullbacks. With
equal hom counts a passing forward half (the target's representatives)
decides alone. The abelianization is decided by per-component sums, so
a consistent map is checked without reading either side's relators, and
a failing one reads each side's at most once.
"""

import random

import pytest

from braidforge import isomaps
from braidforge.errors import MoveError
from braidforge.finite_groups import builtin_targets
from braidforge.invariants import hom_orbits
from braidforge.isomaps import (
    GeneratorMap,
    braid_relation_map,
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
    reps = len(hom_orbits(phi.source, S3)[0]) + len(hom_orbits(phi.target, S3)[0])
    assert reps == 6
    assert check_map(phi, [S3]).consistent
    # equal counts: the target's 3 representatives, there and back, decide
    assert len(pullbacks) == 2 * len(hom_orbits(phi.target, S3)[0]) == reps
    # one image disturbed: the decision fails, and the violations are
    # worded from the same pullbacks, not from a second pass
    images = (phi.images[0] + (1,),) + phi.images[1:]
    bad = GeneratorMap(phi.source, phi.target, images, phi.inverse_images, phi.label)
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


@pytest.mark.parametrize("text", ["1 2 1", "2 1 2", "1 1 2 1 2", "3 1 2 3 2 3", "1 3 2 3 2"])
def test_braid_relation_map_is_move_map_at_the_top(text):
    w = parse_word(text)
    got = braid_relation_map(w)
    want = move_map(w, WordMove(MoveKind.BRAID_REL, len(w) - 2))
    assert (got.images, got.inverse_images, got.label) == (
        want.images,
        want.inverse_images,
        want.label,
    )
    assert got.label in ("braidTop", "inverse(braidTop)")
    assert got.source == want.source and got.target == want.target


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
            bad = GeneratorMap(phi.source, phi.target, images, phi.inverse_images, phi.label)
            reads.clear()
            assert not check_map(bad, targets).consistent
            assert len(reads) == len(set(map(id, reads))) <= 2
            failing += 1
    assert consistent > 50 and failing == consistent
