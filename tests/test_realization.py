"""Conjugacy realized as word moves: regressions, a seeded sweep, and the
answer guards, which must raise rather than return under any fault and
under ``python -O``."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from braidforge import garside
from braidforge.errors import GarsideInvariantError
from braidforge.garside import (
    NormalForm,
    conjugacy_move_sequence_detailed,
    delta_word,
)
from braidforge.words import (
    BraidWord,
    MoveKind,
    WordMove,
    apply_move,
    enumerate_moves,
    replay,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# Both pairs once raised MoveError: the decycling steps were applied to
# the word before it was respelled.
DECYCLE_PAIRS = [
    ("1 2 3 1 2 1 2 3 3 3 1", "1 3 1 2 1 3 3 3 1 1 2"),
    ("1 2 3 1 2 1 3 3 3 3", "2 3 1 2 3 1 3 3 3 1"),
]

WALK_KINDS = (
    MoveKind.BRAID_REL,
    MoveKind.FAR_COMM,
    MoveKind.ELEM_CONJ_LEFT,
    MoveKind.ELEM_CONJ_RIGHT,
)


def word(text: str) -> BraidWord:
    return BraidWord(4, tuple(int(x) for x in text.split()))


@pytest.mark.parametrize("first, second", DECYCLE_PAIRS)
def test_decycle_regression_pairs_both_directions(first, second):
    for a, b in ((word(first), word(second)), (word(second), word(first))):
        result = conjugacy_move_sequence_detailed(a, b)
        assert result.method == "procedure-found"
        assert replay(a, list(result.moves)) == b


def test_half_twist_conjugate_sweep():
    rng = random.Random(404)
    for _ in range(200):
        tail = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 6)))
        a = b = BraidWord(4, delta_word(4) + tail)
        for _ in range(rng.randint(1, 12)):
            walk = [m for m in enumerate_moves(b) if m.kind in WALK_KINDS]
            b = apply_move(b, rng.choice(walk))
        result = conjugacy_move_sequence_detailed(a, b)
        assert result.method == "procedure-found"
        assert replay(a, list(result.moves)) == b


# A nontrivial 3-strand pair whose realization uses a summit hop.
HOP_A = BraidWord(3, (1, 2, 1, 2, 2, 1))
HOP_B = BraidWord(3, (1, 2, 2, 2, 1, 2))


def test_moves_that_do_not_replay_raise(monkeypatch):
    real = garside._invert_move_path
    message = "^realized moves do not carry '1 2 1 2 2 1' to '1 2 2 2 1 2': "
    # a move that does not apply where it stands
    monkeypatch.setattr(
        garside, "_invert_move_path",
        lambda start, moves: real(start, moves) + [WordMove(MoveKind.BRAID_REL, 99)],
    )
    with pytest.raises(GarsideInvariantError, match=message + "braid does not apply"):
        conjugacy_move_sequence_detailed(HOP_A, HOP_B)
    # moves that apply but end at another word
    monkeypatch.setattr(
        garside, "_invert_move_path",
        lambda start, moves: real(start, moves) + [WordMove(MoveKind.ELEM_CONJ_LEFT, 1)],
    )
    with pytest.raises(GarsideInvariantError, match=message + "they end at '2 2 2 1 2 1'$"):
        conjugacy_move_sequence_detailed(HOP_A, HOP_B)


MISSED = "^the realized conjugations do not meet at the second summit representative$"


def test_guard_realized_chain_reaches_representative(monkeypatch):
    # both words decycle to their representatives, which agree: no hops
    a, b = word(DECYCLE_PAIRS[1][0]), word(DECYCLE_PAIRS[1][1])
    real = garside._log_steps
    monkeypatch.setattr(garside, "_log_steps", lambda log: real(log[:-1]))
    with pytest.raises(GarsideInvariantError, match=MISSED):
        conjugacy_move_sequence_detailed(a, b)


def test_one_closure_and_two_representatives_per_realization(monkeypatch):
    calls = {"_summit_closure": 0, "_summit_representative": 0}
    for name in calls:
        real = getattr(garside, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(garside, name, counted)
    result = conjugacy_move_sequence_detailed(HOP_A, HOP_B)
    assert result.method == "procedure-found"
    assert replay(HOP_A, list(result.moves)) == HOP_B
    assert calls == {"_summit_closure": 1, "_summit_representative": 2}


def test_realization_adds_no_cycling(monkeypatch):
    # the realization reads the forms the decision's logs hold, so every
    # cycling and decycling of a realization is one of the decision's
    calls = {"cycling": 0, "decycling": 0}
    for name in calls:
        real = getattr(garside, name)

        def counted(nf, _real=real, _name=name):
            calls[_name] += 1
            return _real(nf)

        monkeypatch.setattr(garside, name, counted)

    def made(run):
        before = dict(calls)
        result = run()
        return result, {name: calls[name] - before[name] for name in calls}

    rng = random.Random(53)
    pairs = 0
    while pairs < 25:
        a = BraidWord(4, delta_word(4) + tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 6))))
        b = a
        for _ in range(rng.randint(1, 12)):
            b = apply_move(b, rng.choice([m for m in enumerate_moves(b) if m.kind in WALK_KINDS]))
        nfa, nfb = garside.normal_form(a), garside.normal_form(b)
        if nfa == nfb:
            continue
        logs, deciding = made(lambda: [garside._summit_representative(nf)[1] for nf in (nfa, nfb)])
        if not any(logs):
            continue
        result, realizing = made(lambda: conjugacy_move_sequence_detailed(a, b))
        assert replay(a, list(result.moves)) == b
        assert realizing == deciding
        pairs += 1


def test_guard_hops_reach_second_representative(monkeypatch):
    # HOP_A's steps are one summit hop, HOP_B's none
    real = garside._realize
    monkeypatch.setattr(garside, "_realize", lambda w, steps: real(w, steps[:-1]))
    with pytest.raises(GarsideInvariantError, match=MISSED):
        conjugacy_move_sequence_detailed(HOP_A, HOP_B)


def test_guard_conjugate_stays_super_summit(monkeypatch):
    def shifted(nf, c):
        return NormalForm(nf.strands, nf.delta_power + 1, nf.factors)

    monkeypatch.setattr(garside, "conjugate_nf", shifted)
    with pytest.raises(GarsideInvariantError, match="left the super summit set"):
        garside.summit(garside.normal_form(HOP_A))


def test_guard_extended_conjugator_is_simple(monkeypatch):
    # A remainder equal to c itself makes c * c, never a permutation braid.
    monkeypatch.setattr(garside, "_remainder", lambda factors, t: factors[-1])
    with pytest.raises(GarsideInvariantError, match="not a permutation braid"):
        garside.summit(garside.normal_form(HOP_A))


def test_realization_under_optimize_flag_replays():
    first, second = DECYCLE_PAIRS[0]
    script = (
        "from braidforge.garside import conjugacy_move_sequence_detailed\n"
        "from braidforge.words import BraidWord, replay\n"
        "assert False, 'asserts must be stripped'\n"
        f"a = BraidWord(4, ({first.replace(' ', ', ')},))\n"
        f"b = BraidWord(4, ({second.replace(' ', ', ')},))\n"
        "r = conjugacy_move_sequence_detailed(a, b)\n"
        "print(r.method, replay(a, list(r.moves)) == b)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BRAIDFORGE_CONFIG", None)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout.split() == ["procedure-found", "True"]
