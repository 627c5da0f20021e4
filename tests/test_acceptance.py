"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings. Every tolerance is exact; time budgets are asserted.
"""

from __future__ import annotations

import random
import time

from braidforge.bricks import build_bricks
from braidforge.errors import ResourceCapError
from braidforge.finite_groups import builtin_targets
from braidforge.garside import (
    are_conjugate,
    conjugacy_move_sequence_detailed,
    contains_half_twist,
    delta_word,
    normal_form,
)
from braidforge.invariants import abelianization, hom_count
from braidforge.isomaps import check_map, move_map
from braidforge.linking import build_graph, graphs_isomorphic_as_trees, is_forest
from braidforge.presentations import (
    RelatorKind,
    concat,
    invert_word,
    presentation_of,
    shifted_cycle_presentation,
)
from braidforge.words import (
    BraidWord,
    MoveKind,
    apply_move,
    enumerate_moves,
    parse_word,
    replay,
)

from conftest import brute_hom_count, by_kind, relator_words, rewriting_class

TARGETS = builtin_targets()
S3, S4 = TARGETS["S3"], TARGETS["S4"]

# Brute-force oracle constants computed independently before the build
# (exhaustive 6^(n-1) enumeration): Hom(B_n -> S3) for n = 2..6.
BN_S3_ORACLE = {2: 6, 3: 12, 4: 12, 5: 6, 6: 6}


def _report(name: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"{name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def presentation_for(text: str, strands: int | None = None):
    return presentation_of(build_graph(build_bricks(parse_word(text, strands))))


def _equation_word(lhs, rhs):
    return concat(lhs, invert_word(rhs))


def test_criterion_1_worked_example_presentations():
    started = time.time()
    pa = presentation_for("1 2 1 1 2 1")
    expected_r = {
        _equation_word((1, 2, 1), (2, 1, 2)),
        _equation_word((2, 3, 2), (3, 2, 3)),
        _equation_word((1, 3), (3, 1)),
    }
    expected_ra = {
        _equation_word((1, 4, 1), (4, 1, 4)),
        _equation_word((2, 4), (4, 2)),
        _equation_word((3, 4, 3), (4, 3, 4)),
        _equation_word((4, 3, 2, 1, 4, 3), (3, 2, 1, 4, 3, 2)),
    }
    assert set(relator_words(pa)) == expected_r | expected_ra
    cycle = by_kind(pa, RelatorKind.CYCLE)[0]
    assert (cycle.lhs, cycle.rhs) == ((4, 3, 2, 1, 4, 3), (3, 2, 1, 4, 3, 2))

    pb = presentation_for("1 1 2 1 1 2")
    expected_rb = {
        _equation_word((1, 4), (4, 1)),
        _equation_word((2, 4, 2), (4, 2, 4)),
        _equation_word((3, 4), (4, 3)),
    }
    assert set(relator_words(pb)) == expected_r | expected_rb
    _report("criterion 1 (worked-example presentations)", started, 1.0)


def test_criterion_2_abelianizations():
    started = time.time()
    assert abelianization(presentation_for("1 2 2 1")).invariant_factors == (0, 0)
    assert abelianization(presentation_for("1 2 2 1 2 2")).invariant_factors == (
        1, 1, 1, 0,
    )
    assert abelianization(presentation_for("1 1")).invariant_factors == (0,)
    for text, strands in (("1", 4), ("1", 2), ("", 5)):
        assert abelianization(presentation_for(text, strands)).invariant_factors == ()
    _report("criterion 2 (abelianizations)", started, 1.0)


def test_criterion_3_braid_group_recovery():
    started = time.time()
    for n in range(2, 7):
        p = presentation_for(" ".join(["1"] * n), strands=2)
        assert p.n_generators == n - 1
        assert by_kind(p, RelatorKind.CYCLE) == ()
        braid_pairs = {r.lhs[:2] for r in by_kind(p, RelatorKind.BRAID)}
        assert braid_pairs == {(i, i + 1) for i in range(1, n - 1)}
        comm_pairs = {r.lhs for r in by_kind(p, RelatorKind.COMM)}
        assert comm_pairs == {
            (i, j)
            for i in range(1, n)
            for j in range(i + 2, n)
        }
        assert hom_count(p, S3).count == BN_S3_ORACLE[n]
        if n <= 4:  # re-run the brute-force oracle where it is cheap
            assert (
                brute_hom_count([r.word for r in p.relators], n - 1, S3)
                == BN_S3_ORACLE[n]
            )
    _report("criterion 3 (braid group recovery)", started, 10.0)


def test_criterion_4_mutant_pair():
    started = time.time()
    w1 = "1 1 1 1 2 2 2 1 3 2 2 2 3"
    w2 = "1 1 1 1 2 2 1 3 2 2 2 3 3"
    g1 = build_graph(build_bricks(parse_word(w1)))
    g2 = build_graph(build_bricks(parse_word(w2)))
    assert is_forest(g1) and is_forest(g2)
    assert graphs_isomorphic_as_trees(g1, g2)
    p1, p2 = presentation_of(g1), presentation_of(g2)
    assert (
        abelianization(p1).invariant_factors == abelianization(p2).invariant_factors
    )
    for t in (S3, S4):
        assert hom_count(p1, t).count == hom_count(p2, t).count
    _report("criterion 4 (mutant pair)", started, 60.0)


def _suite_words(count: int = 500, seed: int = 20240809):
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(2, 4)
        length = rng.randint(1, 12)
        words.append(
            BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(length)))
        )
    return rng, words


def test_criterion_5_and_6_invariance_suite():
    started = time.time()
    rng, words = _suite_words()
    checked_maps = 0
    shift_regions = 0
    for w in words:
        p = presentation_of(build_graph(build_bricks(w)))
        base_ab = abelianization(p).invariant_factors
        base_counts = {}
        for t in (S3, S4):
            try:
                base_counts[t.name] = hom_count(p, t).count
            except ResourceCapError:
                pass

        moves_by_kind: dict[MoveKind, list] = {}
        for m in enumerate_moves(w):
            moves_by_kind.setdefault(m.kind, []).append(m)
        for kind, moves in sorted(moves_by_kind.items(), key=lambda kv: kv[0].value):
            m = rng.choice(moves)
            v = apply_move(w, m)
            q = presentation_of(build_graph(build_bricks(v)))
            assert abelianization(q).invariant_factors == base_ab, (w, m)
            for t in (S3, S4):
                if t.name in base_counts:
                    try:
                        assert hom_count(q, t).count == base_counts[t.name], (w, m)
                    except ResourceCapError:
                        pass
            phi = move_map(w, m)
            report = check_map(phi, [S3, S4])
            assert report.consistent, (w, m, report.violations[:2])
            checked_maps += 1

        # criterion 6: every cyclic shift of each cycle relator preserves
        # the abelianization and the S3 hom-count
        cycles = by_kind(p, RelatorKind.CYCLE)
        if cycles and "S3" in base_counts:
            for idx, relator in enumerate(cycles):
                n_cycle = (len(relator.lhs) + 2) // 2
                for shift in range(1, n_cycle):
                    shifted = shifted_cycle_presentation(p, idx, shift)
                    assert (
                        abelianization(shifted).invariant_factors == base_ab
                    ), (w, idx, shift)
                    assert hom_count(shifted, S3).count == base_counts["S3"], (
                        w, idx, shift,
                    )
                    shift_regions += 1
    assert len(words) >= 500
    assert checked_maps >= 500
    print(
        f"criterion 5/6 detail: {len(words)} words, {checked_maps} move maps, "
        f"{shift_regions} region shifts"
    )
    _report("criterion 5 (invariance suite) + 6 (shift equivalence)", started, 600.0)


def test_criterion_7_garside_correctness():
    started = time.time()
    # normal-form classes coincide with rewriting closure for all words
    # with N <= 4 and length <= 8
    class_of: dict[tuple[int, tuple[int, ...]], int] = {}
    nf_of_class: dict[int, tuple] = {}
    next_class = 0
    total = 0
    for strands in (2, 3, 4):
        words: list[tuple[int, ...]] = []
        frontier = [()]
        while frontier:
            prefix = frontier.pop()
            words.append(prefix)
            if len(prefix) < 8:
                for letter in range(1, strands):
                    frontier.append(prefix + (letter,))
        for letters in words:
            total += 1
            key = (strands, letters)
            if key in class_of:
                continue
            w = BraidWord(strands, letters)
            cls = rewriting_class(w)
            cid = next_class
            next_class += 1
            nf = normal_form(w).key()
            # every member of the rewriting class shares the normal form
            for member in cls:
                class_of[(strands, member)] = cid
                assert normal_form(BraidWord(strands, member)).key() == nf
            nf_of_class[cid] = nf
    # distinct rewriting classes have distinct normal forms
    assert len(set(nf_of_class.values())) == len(nf_of_class)
    assert total == sum(
        (strands - 1) ** k for strands in (2, 3, 4) for k in range(9)
    )

    assert are_conjugate(
        BraidWord(3, (1, 2, 1, 1, 2, 1)), BraidWord(3, (1, 1, 2, 1, 1, 2))
    )
    assert contains_half_twist(BraidWord(3, (1, 2, 1, 1, 2, 1)))
    for m in range(1, 9):
        assert not contains_half_twist(BraidWord(3, (1,) * m))
    _report("criterion 7 (garside vs rewriting oracle)", started, 300.0)


def test_criterion_8_move_sequence_realization():
    started = time.time()
    a = BraidWord(3, (1, 2, 1, 1, 2, 1))
    b = BraidWord(3, (1, 1, 2, 1, 1, 2))
    result = conjugacy_move_sequence_detailed(a, b)
    assert replay(a, list(result.moves)) == b

    rng = random.Random(77)
    delta = delta_word(3)
    realized = 0
    while realized < 50:
        suffix = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 7)))
        x = BraidWord(3, delta + suffix)
        y = x
        for _ in range(rng.randint(1, 10)):
            moves = [
                m
                for m in enumerate_moves(y)
                if m.kind
                not in (MoveKind.MARKOV_STAB, MoveKind.MARKOV_DESTAB)
            ]
            y = apply_move(y, rng.choice(moves))
        assert contains_half_twist(x)
        result = conjugacy_move_sequence_detailed(x, y)
        assert replay(x, list(result.moves)) == y, (x, y)
        realized += 1
    _report("criterion 8 (move-sequence realization)", started, 600.0)
