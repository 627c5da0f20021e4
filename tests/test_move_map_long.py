"""Interior braid maps on long words, against oracles that need no chain.

Composing the 2 * tail + 1 brick-level maps of the rotation path is far
too slow to serve as a reference at these lengths, so these tests check
what any correct map satisfies: the images both ways invert each other
exactly in the free group, every brick of a column other than the
relation's two maps to itself both ways, and the map is read off a
constant number of brick diagrams however long its tail. Images past
isomaps.IMAGE_LETTERS letters in either direction are refused with
ResourceCapError, in bounded memory: a single braid move as its
rotations build them, before they are spelled in full. An 800-letter
single braid move stays inside that budget.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from braidforge import isomaps
from braidforge.bricks import build_bricks
from braidforge.errors import ResourceCapError
from braidforge.finite_groups import builtin_targets
from braidforge.isomaps import check_map, maps_along_moves, move_map, substitute
from braidforge.words import BraidWord, MoveKind, WordMove, apply_move, enumerate_moves


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


def test_fold_refuses_images_past_the_budget(monkeypatch):
    rng = random.Random(2026)
    w = BraidWord(4, tuple(rng.randint(1, 3) for _ in range(14)))
    moves, cur = [], w
    for _ in range(12):
        moves.append(rng.choice(enumerate_moves(cur)))
        cur = apply_move(cur, moves[-1])
    totals, charged = [], []
    budgeted, charge = isomaps._budgeted, isomaps._charge

    def recorded(images, direction):
        totals.append(sum(map(len, images)))
        return budgeted(images, direction)

    def counted(letters, what):
        charged.append(letters)
        return charge(letters, what)

    monkeypatch.setattr(isomaps, "_budgeted", recorded)
    monkeypatch.setattr(isomaps, "_charge", counted)
    phi = maps_along_moves(w, moves)
    # the step images the fold starts from and every step's result
    assert len(totals) == 2 * len(moves)
    # those totals, and every rotation's as a braid step's images are built
    assert set(totals) <= set(charged) and len(charged) > len(totals)
    monkeypatch.setattr(isomaps, "IMAGE_LETTERS", max(charged))
    assert maps_along_moves(w, moves) == phi
    monkeypatch.setattr(isomaps, "IMAGE_LETTERS", max(charged) - 1)
    with pytest.raises(ResourceCapError, match=f"over the budget of {max(charged) - 1}$"):
        maps_along_moves(w, moves)
    # one move's own images are checked too
    letters = sum(map(len, move_map(w, moves[0]).images))
    monkeypatch.setattr(isomaps, "IMAGE_LETTERS", letters - 1)
    with pytest.raises(ResourceCapError):
        move_map(w, moves[0])


def test_800_letter_braid_move_maps_and_checks_inside_the_budget():
    rng = random.Random(1)
    letters = [rng.randint(1, 3) for _ in range(800)]
    letters[0:3] = (1, 2, 1)
    phi = move_map(BraidWord(4, tuple(letters)), WordMove(MoveKind.BRAID_REL, 1))
    for images in (phi.images, phi.inverse_images):
        assert 400_000 < sum(map(len, images)) <= isomaps.IMAGE_LETTERS
    targets = [builtin_targets()[name] for name in ("S3", "S4")]
    assert check_map(phi, targets).consistent


def _isocheck_under_rlimit(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    script = (
        "import json, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1200 << 20, 1200 << 20))\n"
        "from braidforge.cli import main\n"
        "sys.exit(main(json.loads(sys.argv[1])))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("BRAIDFORGE_CONFIG", None)
    return subprocess.run(
        [sys.executable, "-c", script, json.dumps(["isocheck", *argv])],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.mark.parametrize("length", [800, 3000])
def test_single_braid_move_is_refused_while_its_images_are_built(length):
    # 3,000 letters: 7.5 million letters per direction if spelled in full
    rng = random.Random(1)
    letters = [rng.randint(1, 3) for _ in range(length)]
    letters[0:3] = (1, 2, 1)
    w = BraidWord(4, tuple(letters))
    v = apply_move(w, WordMove(MoveKind.BRAID_REL, 1))
    argv = [" ".join(map(str, x.letters)) for x in (w, v)]
    done = _isocheck_under_rlimit([*argv, "--strands", "4", "--moves", "braid@1"], timeout=4)
    if length == 800:
        assert done.returncode == 0
        assert json.loads(done.stdout)["report"]["consistent"]
    else:
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("resource cap exceeded: rotated images total ")


def test_image_budget_refuses_a_long_found_sequence_in_bounded_memory():
    # 62 realized moves: the images pass the budget, at 3,673,788 letters
    # when they are refused
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1200 << 20, 1200 << 20))\n"
        "from braidforge.cli import main\n"
        "sys.exit(main(['isocheck', '1 2 3 1 2 1 1 2 3 3 2', '2 1 3 2 2 1 2 2 3 3 1']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("BRAIDFORGE_CONFIG", None)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("resource cap exceeded: ")
