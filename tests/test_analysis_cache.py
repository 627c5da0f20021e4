"""The per-process analysis caches: brick diagrams per word, graphs per
brick diagram, a presentation per graph, a column lattice per
presentation, hom data per presentation and finite target (equal
presentations share it), and the orbit-reduced pullback.

Every cached answer is compared with the uncached orbit search
(_assignments), the orbit pullback with the full one it replaced, and
the orbit count with Burnside's lemma. Along move sequences, including
the conjugacy moves between words whose class contains a half twist,
the invariants of the paper's main theorem stay fixed; each of those
words goes through the caches, so this also tests them end to end.
Answers along move chains are the same with every cache warm and with
every cache cleared, a presentation that fails its lattice fails again,
and no cache keeps a table's spelled pair relators alive. The
``invariants`` and ``verify`` commands build no Brick, LinkEdge, Region
or Relator object (counted by wrapping their constructors), a graph's
lattice reads no cycle word, and ``invariants --up-to-conjugacy`` reads
both counts off one lookup of each admitted target's record.
"""

import contextlib
import gc
import io
import json
import os
import random
from collections import Counter
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from braidforge import bricks, cli, invariants, isomaps, linking
from braidforge.bricks import build_bricks
from braidforge.errors import PresentationError, ResourceCapError
from braidforge.finite_groups import FiniteTarget, builtin_targets, load_table, symmetric_group
from braidforge.garside import conjugacy_move_sequence_detailed, delta_word
from braidforge.invariants import (
    ColumnLattice,
    _assignments,
    _target_tables,
    abelianization,
    enumerate_homs,
    evaluate_word,
    hom_count,
)
from braidforge.isomaps import GeneratorMap, _finite_violations, check_map, move_map
from braidforge.linking import build_graph
from braidforge.presentations import (
    Presentation,
    Relator,
    RelatorKind,
    braid_relator,
    comm_relator,
    cycle_relator,
    presentation_of,
    shifted_cycle_presentation,
)
from braidforge.words import BraidWord, MoveKind, apply_move, enumerate_moves, parse_word

from conftest import brute_hom_count, table_presentation
from test_check_map_reference import WORDS, corrupted, presentation_for, reference_check_map

SRC = Path(__file__).resolve().parent.parent / "src"
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)
TARGETS = builtin_targets()
S3, S4, D4 = TARGETS["S3"], TARGETS["S4"], TARGETS["D4"]

words = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(1, n - 1), min_size=0, max_size=24),
        st.integers(0, 2**32),
    )
)


def presentation(n, letters):
    return presentation_of(build_graph(build_bricks(BraidWord(n, tuple(letters)))))


def full_pullback_holds(m, t, src_homs, dst_homs):
    """The pullback over every homomorphism, as check_map decided before orbits."""
    for homs, other, there, back in (
        (dst_homs, set(src_homs), m.images, m.inverse_images),
        (src_homs, set(dst_homs), m.inverse_images, m.images),
    ):
        for h in homs:
            pulled = tuple(evaluate_word(t, h, w) for w in there)
            if pulled not in other or tuple(evaluate_word(t, pulled, w) for w in back) != h:
                return False
    return True


def orbit_pullback_holds(m, t):
    """The library's decision: one pass over the orbit representatives."""
    src, dst = hom_count(m.source, t), hom_count(m.target, t)
    return not _finite_violations(m, t, src, dst, lambda p: p.relators)


def relabeled(t, name, perm):
    """The table of t with element x renamed perm[x]: identity moves off 0."""
    n = t.size
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[t.mul(a, b)]
    return FiniteTarget(name, table, identity=perm[t.identity])


def conjugates(t, h):
    """The orbit of h under simultaneous conjugation in t."""
    return {tuple(t.mul(t.mul(c, x), t.inv(c)) for x in h) for c in range(t.size)}


def first_of_each_orbit(t, homs):
    reps, seen = [], set()
    for h in homs:
        if h not in seen:
            reps.append(h)
            seen |= conjugates(t, h)
    return reps


def burnside_orbits(t, homs):
    """(1/|G|) * sum over c of the homs that conjugation by c fixes."""
    fixed = 0
    for c in range(t.size):
        ci = t.inv(c)
        fixed += sum(all(t.mul(t.mul(c, x), ci) == x for x in h) for h in homs)
    assert fixed % t.size == 0
    return fixed // t.size


@SETTINGS
@given(words)
def test_cached_answers_equal_the_uncached_search(case):
    n, letters, _ = case
    invariants._memo.cache_clear()
    p = presentation(n, letters)
    for t in (S3, S4):
        if p.n_generators > invariants.generator_cap(t):
            for call in (hom_count, enumerate_homs):
                with pytest.raises(ResourceCapError):
                    call(p, t)
            continue
        want = _assignments(p, t)
        # the count first, then the list, then the orbits, all from one search
        assert hom_count(p, t).count == want.count
        homs = enumerate_homs(p, t)
        assert enumerate_homs(presentation(n, letters), t) == homs
        assert hom_count(p, t).count == want.count == len(homs) == len(set(homs))
        assert set(homs) == set().union(*(conjugates(t, h) for h in want.reps))
        assert (hom_count(p, t).reps, hom_count(p, t).sizes) == (want.reps, want.sizes)
        assert list(want.reps) == first_of_each_orbit(t, homs)
        assert list(want.sizes) == [len(conjugates(t, h)) for h in want.reps]
        assert len(hom_count(p, t).reps) == len(want.reps)
        assert all(evaluate_word(t, h, r.word) == t.identity for h in homs for r in p.relators)


def test_each_hom_set_searched_once_and_counts_keep_no_list(monkeypatch):
    searches = []

    def counted(p, t):
        searches.append(t.name)
        return _assignments(p, t)

    monkeypatch.setattr(invariants, "_assignments", counted)
    invariants._memo.cache_clear()
    p = presentation(3, (1, 2, 1, 1, 2, 1, 2))
    want = hom_count(p, S3).count
    assert searches == ["S3"]
    assert hom_count(presentation(3, (1, 2, 1, 1, 2, 1, 2)), S3).count == want
    found = hom_count(p, S3)
    assert len(enumerate_homs(p, S3)) == want == sum(found.sizes)
    # the search kept one hom per orbit, never the list
    assert len(found.reps) < want
    assert searches == ["S3"]
    # a listing first, for another target: still one search
    assert len(enumerate_homs(p, S4)) == hom_count(p, S4).count
    hom_count(p, S4), enumerate_homs(p, S3)
    assert searches == ["S3", "S4"]


def test_up_to_conjugacy_reads_both_counts_off_one_lookup(monkeypatch, capsys):
    # S4 is capped before any lookup; S3's record answers both counts
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    lookups = []
    memo = invariants._memo

    def counted(p):
        lookups.append(p.n_generators)
        return memo(p)

    monkeypatch.setattr(invariants, "_memo", counted)
    argv = ["invariants", "1 2 1 1 2 1", "--up-to-conjugacy", "--caps.generators", "S4=3"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hom_counts"] == {"S3": 12}
    assert payload["hom_counts_up_to_conjugacy"] == {"S3": 4}
    assert lookups == [4]


def test_check_map_never_lists_homs(monkeypatch):
    listings = []

    def counted(p, t, caps=None):
        listings.append(t.name)
        return enumerate_homs(p, t, caps)

    # isomaps too, in case it binds the name itself
    for module in (invariants, isomaps):
        monkeypatch.setattr(module, "enumerate_homs", counted, raising=False)
    w = BraidWord(3, (1, 2, 1, 1, 2, 1))
    rng = random.Random(3)
    failed = held = 0
    for move in enumerate_moves(w):
        phi = move_map(w, move)
        assert check_map(phi, [S3, S4]).consistent
        bad = corrupted(phi, rng)
        fails = not orbit_pullback_holds(bad, S3)
        report = check_map(bad, [S3])
        assert fails == any(v.target == "S3" and v.direction != "counts" for v in report.violations)
        failed += fails
        held += not fails
    assert listings == []
    assert failed and held


def test_presentations_differing_in_commutation_pairs_or_cycles_are_kept_apart():
    braid, comm = braid_relator(1, 2), comm_relator(1, 2)
    base = presentation(3, (1, 2, 1, 1, 2, 1))
    recycled = table_presentation(4, base.braid_pairs, (cycle_relator((1, 3, 2, 4)),))
    cases = [Presentation(2, relators) for relators in ((braid,), (braid, comm), (comm,))]
    for t in (S3, S4):
        counts = []
        for p in cases + [base, recycled]:
            want = brute_hom_count([r.word for r in p.relators], p.n_generators, t)
            assert hom_count(p, t).count == want == len(enumerate_homs(p, t))
            counts.append(want)
        assert len(set(counts[:3])) == 3 and counts[3] != counts[4]


def test_shuffled_and_repeated_relators_give_the_graph_presentation(monkeypatch):
    p = presentation(4, (1, 2, 1, 3, 2, 1, 2, 3, 2, 1))
    relators = p.relators
    pairs = list(relators[: len(relators) - len(p.cycles)])
    random.Random(5).shuffle(pairs)
    hand = Presentation(p.n_generators, (*pairs, pairs[0], *p.cycles))
    assert len(p.cycles) >= 2 and hand is not p
    assert hand == p and hash(hand) == hash(p) and hand.relators == relators
    searches = []

    def counted(q, t):
        searches.append(t.name)
        return _assignments(q, t)

    monkeypatch.setattr(invariants, "_assignments", counted)
    invariants._memo.cache_clear()
    want = hom_count(p, S3)
    assert hom_count(hand, S3) == want and searches == ["S3"]


def test_cycles_rebuilt_from_their_vertices_give_an_equal_presentation(monkeypatch):
    # the graph's cycles carry ("region", index) as provenance, the rebuilt
    # ones ("region", vertices): same words, so the same presentation
    g = build_graph(build_bricks(BraidWord(4, (1, 2, 1, 3, 2, 1, 2, 3, 2, 1))))
    p = presentation_of(g)
    cycles = tuple(cycle_relator(region.vertices) for region in g.regions)
    rebuilt = table_presentation(p.n_generators, p.braid_pairs, cycles)
    assert len(cycles) >= 2 and rebuilt.cycles != p.cycles
    assert rebuilt == p and hash(rebuilt) == hash(p)
    searches = []

    def counted(q, t):
        searches.append(t.name)
        return _assignments(q, t)

    monkeypatch.setattr(invariants, "_assignments", counted)
    invariants._memo.cache_clear()
    assert hom_count(rebuilt, S3) == hom_count(p, S3) and searches == ["S3"]
    # another word, or another pair table, is another presentation
    reworded = cycles[:-1] + (cycle_relator(g.regions[-1].vertices[::-1]),)
    assert table_presentation(p.n_generators, p.braid_pairs, reworded) != p
    assert table_presentation(p.n_generators, p.braid_pairs[1:], cycles) != p


@SETTINGS
@given(words)
def test_orbit_count_is_burnsides(case):
    n, letters, _ = case
    p = presentation(n, letters)
    for t in (S3, S4, D4):
        if p.n_generators > invariants.generator_cap(t):
            continue
        homs = enumerate_homs(p, t)
        assert len(hom_count(p, t).reps) == burnside_orbits(t, homs)


@SETTINGS
@given(words)
def test_orbit_pullback_matches_full_pullback(case):
    n, letters, seed = case
    rng = random.Random(seed)
    w = BraidWord(n, tuple(letters))
    for move in enumerate_moves(w):
        phi = move_map(w, move)
        for m in (phi, corrupted(phi, rng)):
            for t in (S3, S4):
                cap = invariants.generator_cap(t)
                if max(m.source.n_generators, m.target.n_generators) > cap:
                    continue
                full = full_pullback_holds(
                    m, t, enumerate_homs(m.source, t), enumerate_homs(m.target, t)
                )
                orbit = orbit_pullback_holds(m, t)
                assert orbit == full
                if m is phi:
                    assert orbit


def test_orbit_pullback_on_hand_corrupted_maps():
    P = presentation_for(BraidWord(3, (1, 2, 1, 1, 2, 1)))
    Q = presentation_for(BraidWord(3, (1, 1, 2, 1, 1, 2)))
    inverse = ((1,), (2,), (3,), (-2, -3, 4, 3, 2))
    for images in (((1,), (2,), (3,), (3, 2, 4, -2, -3, 1)), ((-1,), (2,), (3,), (3, 2, 4, -2, -3))):
        m = GeneratorMap(P, Q, images, inverse)
        for t in (S3, S4):
            full = full_pullback_holds(m, t, enumerate_homs(P, t), enumerate_homs(Q, t))
            assert not full
            assert orbit_pullback_holds(m, t) == full


def test_mutating_returned_homs_or_graph_changes_no_later_answer():
    w = BraidWord(3, (1, 2, 1, 1, 2, 1))
    p = presentation(3, w.letters)
    want = enumerate_homs(p, S3)
    homs = enumerate_homs(p, S3)
    homs.clear()
    homs.append((0, 0, 0, 0))
    assert enumerate_homs(p, S3) == want
    assert hom_count(p, S3).count == len(want)
    g = build_graph(build_bricks(w))
    with pytest.raises(TypeError):
        g.positions[1] = (9.0, 9.0)
    with pytest.raises(AttributeError):
        g.edges = ()
    again = build_graph(build_bricks(w))
    first = g.diagram.brick(1)
    assert again is g and again.positions[1] == (1.0, first.midpoint)


def test_cap_raises_after_counting_under_lifted_caps():
    w = BraidWord(3, (1, 2) * 9)
    p = presentation(3, w.letters)
    assert p.n_generators > invariants.generator_cap(S3)
    lifted = {"S3": 100, "*": 100}
    count = hom_count(p, S3, lifted).count
    assert enumerate_homs(p, S3, lifted) and hom_count(p, S3, lifted).reps
    assert hom_count(p, S3, lifted).count == count
    for call in (hom_count, enumerate_homs):
        with pytest.raises(ResourceCapError):
            call(p, S3)
    report = check_map(move_map(w, enumerate_moves(w)[0]), [S3])
    assert report.skipped_targets == ("S3",) and report.checked_targets == ()


def test_tables_sharing_a_name_never_share_hom_data():
    s3 = symmetric_group(3)
    rows = "\n".join(" ".join(map(str, row)) for row in s3.table)
    first = load_table(f"6\n{rows}")
    second = load_table("6\n" + "\n".join(
        " ".join(str((a + b) % 6) for b in range(6)) for a in range(6)
    ))
    assert first.name == second.name and first.size == second.size
    assert first != second
    assert first == load_table(f"6\n{rows}") and hash(first) == hash(load_table(f"6\n{rows}"))
    # S3 again under the same name, its identity moved off index 0
    third = relabeled(s3, first.name, [3, 5, 0, 4, 1, 2])
    assert third.identity != 0 and len({first, second, third}) == 3
    for t in (first, second, third):
        # the cached tables are those of this table, computed afresh
        assert _target_tables(t) is _target_tables(t)
        assert _target_tables(t)[:5] == _target_tables.__wrapped__(t)[:5]
    assert len({str(_target_tables(t)[:5]) for t in (first, second, third)}) == 3
    for letters in ((1, 1, 1), (1, 2, 1, 1, 2, 1), (1, 1, 2, 2, 1, 1)):
        p = presentation(3, letters)
        for t in (first, second, third, first):
            want = brute_hom_count([r.word for r in p.relators], p.n_generators, t)
            homs = enumerate_homs(p, t)
            found = hom_count(p, t)
            assert found.count == want == len(homs) == sum(found.sizes)
            reps = first_of_each_orbit(t, homs)
            assert list(found.reps) == reps
            assert len(found.reps) == burnside_orbits(t, homs) == len(reps)
        assert hom_count(p, first).count != hom_count(p, second).count
        assert hom_count(p, first).count == hom_count(p, third).count


def invariants_of(w: BraidWord, caps=None):
    p = presentation_of(build_graph(build_bricks(w)))
    counts = []
    for t in (S3, S4):
        try:
            counts.append(hom_count(p, t, caps).count)
        except ResourceCapError:
            counts.append(None)
    return abelianization(p), counts


def assert_same_invariants(base, other):
    (ab, counts), (ab2, counts2) = base, other
    assert ab == ab2
    for a, b in zip(counts, counts2):
        if a is not None and b is not None:
            assert a == b


@SETTINGS
@given(words)
def test_invariants_fixed_along_random_moves(case):
    n, letters, seed = case
    rng = random.Random(seed)
    w = BraidWord(n, tuple(letters[:14]))
    base = invariants_of(w)
    for _ in range(12):
        moves = enumerate_moves(w)
        if not moves:
            break
        w = apply_move(w, rng.choice(moves))
        assert_same_invariants(base, invariants_of(w))


WALK_KINDS = (MoveKind.BRAID_REL, MoveKind.FAR_COMM, MoveKind.ELEM_CONJ_LEFT, MoveKind.ELEM_CONJ_RIGHT)


@SETTINGS
@given(st.integers(3, 4), st.integers(0, 2**32))
def test_invariants_fixed_along_conjugacy_moves(n, seed):
    rng = random.Random(seed)
    tail = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 5)))
    a = b = BraidWord(n, delta_word(n) + tail)
    for _ in range(rng.randint(1, 10)):
        b = apply_move(b, rng.choice([m for m in enumerate_moves(b) if m.kind in WALK_KINDS]))
    result = conjugacy_move_sequence_detailed(a, b)
    base = invariants_of(a)
    w = a
    for m in result.moves:
        w = apply_move(w, m)
        assert_same_invariants(base, invariants_of(w))
    assert w == b


ANSWERS = """
import json
from braidforge.bricks import build_bricks
from braidforge.finite_groups import builtin_targets
from braidforge.invariants import enumerate_homs, hom_count
from braidforge.isomaps import check_map, move_map
from braidforge.linking import build_graph
from braidforge.presentations import (
    Presentation,
    braid_relator,
    comm_relator,
    cycle_relator,
    presentation_of,
)
from braidforge.words import BraidWord, enumerate_moves
targets = [builtin_targets()[name] for name in ("S3", "S4")]
out = []
for n, letters in ((3, (1, 2, 1, 1, 2, 1)), (4, (1, 2, 3, 2, 1, 2, 3)), (3, (1, 1, 2, 2) * 3)):
    w = BraidWord(n, letters)
    for _ in range(2):
        p = presentation_of(build_graph(build_bricks(w)))
        for t in targets:
            try:
                found = hom_count(p, t)
                out.append([found.count, len(found.reps), enumerate_homs(p, t)[:5]])
            except Exception as exc:
                out.append(type(exc).__name__)
        out += [check_map(move_map(w, m), targets).to_dict() for m in enumerate_moves(w)]
print(json.dumps(out))
"""


def test_optimized_interpreter_gives_the_same_answers():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BRAIDFORGE_CONFIG", None)
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-c", ANSWERS],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        ).stdout
        for flags in ([], ["-O"])
    ]
    assert runs[0] == runs[1]
    assert len(json.loads(runs[0])) > 12


def clear_caches():
    """Every per-process analysis cache, emptied."""
    for cached in (bricks._bricks, linking._graph, invariants._memo, _target_tables):
        cached.cache_clear()


def test_equal_words_share_bricks_and_graphs_share_presentations():
    w = BraidWord(3, (1, 2, 1, 1, 2, 1))
    d = build_bricks(w)
    assert build_bricks(BraidWord(3, (1, 2, 1, 1, 2, 1))) is d
    assert hash(d) == hash(w) and d == bricks._bricks.__wrapped__(w)
    g = build_graph(d)
    assert presentation_of(g) is presentation_of(g)
    assert presentation_of(build_graph(build_bricks(BraidWord(3, w.letters)))) is presentation_of(g)
    assert presentation_of(build_graph(d, "right-positive")) == presentation_of(g)


def test_lattice_built_once_per_presentation(monkeypatch):
    built = []
    real = ColumnLattice.of

    def counted(cls, p):
        if p._lattice is None:
            built.append(id(p))
        return real(p)

    monkeypatch.setattr(ColumnLattice, "of", classmethod(counted))
    clear_caches()
    held = []  # every presentation checked stays alive, so no id is reused
    for _ in range(2):
        for text in WORDS[:3]:
            w = parse_word(text)
            held.append(presentation_for(w))
            abelianization(held[-1])
            for move in enumerate_moves(w):
                m = move_map(w, move)
                held += [m.source, m.target]
                report = check_map(m, [S3, S4])
                assert report.consistent
                abelianization(m.target)
                if report.method != "relabeling":
                    assert id(m.source) in built and id(m.target) in built
    # the second pass met the same presentations and built nothing
    assert len(built) == len(set(built)) == len({id(p) for p in held}) > 10


def chain_answers(w, moves, targets):
    """Reports of the maps along moves, and each word's invariants."""
    out = []
    for m in moves:
        phi = move_map(w, m)
        q = presentation_for(apply_move(w, m))
        counts = []
        for t in targets:
            try:
                counts.append(hom_count(q, t).count)
            except ResourceCapError:
                counts.append(None)
        out.append((check_map(phi, targets).to_dict(), abelianization(q), counts))
        w = apply_move(w, m)
    return out


@SETTINGS
@given(words)
def test_answers_along_move_chains_agree_warm_and_cold(case):
    n, letters, seed = case
    rng = random.Random(seed)
    w = v = BraidWord(n, tuple(letters[:12]))
    moves = []
    for _ in range(6):
        moves.append(rng.choice(enumerate_moves(v)))
        v = apply_move(v, moves[-1])
    warm = chain_answers(w, moves, [S3, S4])
    assert chain_answers(w, moves, [S3, S4]) == warm
    cold = []
    for m in moves:
        clear_caches()
        cold += chain_answers(w, [m], [S3, S4])
        w = apply_move(w, m)
    assert cold == warm


def test_a_failed_lattice_is_not_kept():
    power = Relator((1, 1), (), ("power", 1))
    p = Presentation(3, (braid_relator(1, 2), comm_relator(2, 3), power))
    for _ in range(2):
        for call in (abelianization, ColumnLattice.of):
            with pytest.raises(PresentationError, match=r"relator 2 has exponent sums s1\^2,"):
                call(p)
    assert p._lattice is None


@SETTINGS
@given(words, words)
def test_equality_and_hash_follow_the_relator_tuples(first, second):
    found = []
    for n, letters, _ in (first, second):
        p = presentation(n, letters)
        table = table_presentation(p.n_generators, p.braid_pairs, p.cycles)
        found += [p, table, Presentation(p.n_generators, p.relators)]
        if p.cycles:
            found.append(shifted_cycle_presentation(p, 0, 1))
    for a in found:
        for b in found:
            same = (a.n_generators, a.relators) == (b.n_generators, b.relators)
            assert (a == b) == same == (b == a)
            if same:
                assert hash(a) == hash(b)


def test_relators_spelled_once_per_presentation_per_check(monkeypatch):
    rng = random.Random(17)
    maps = []
    for text in WORDS:
        w = parse_word(text)
        for move in enumerate_moves(w):
            for _ in range(4):
                maps.append(corrupted(move_map(w, move), rng))
    many = [m for m in maps if len(check_map(m, [S3, S4]).violations) >= 20]
    assert len(many) >= 3
    reads = Counter()
    spelled = Presentation.relators
    monkeypatch.setattr(
        Presentation, "relators", property(lambda p: reads.update([id(p)]) or spelled.fget(p))
    )
    reports = []
    for m in many:
        reads.clear()
        reports.append(check_map(m, [S3, S4]))
        assert set(reads) <= {id(m.source), id(m.target)}
        assert max(reads.values()) == 1
    monkeypatch.undo()
    assert reports == [reference_check_map(m, [S3, S4]) for m in many]


def test_invariants_commands_keep_no_spelled_pair_relator(capsys):
    """The benchmark's present oracle, in process: 70 distinct 100-letter
    words through ``invariants``, each presentation's relators read once.
    Relators other tests left alive are set aside; none may be new."""
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, Relator) and o.kind is RelatorKind.COMM]
    rng = random.Random(20261018)
    seen = set()
    while len(seen) < 70:
        letters = tuple(rng.randint(1, 5) for _ in range(100))
        if letters in seen:
            continue
        seen.add(letters)
        assert cli.main(["invariants", " ".join(map(str, letters)), "--strands", "6"]) == 0
        assert json.loads(capsys.readouterr().out)["skipped_targets"] == ["S3", "S4"]
        assert len(presentation_for(BraidWord(6, letters)).relators) > 4000
    gc.collect()
    kept = {id(o) for o in before}
    alive = [
        o for o in gc.get_objects()
        if isinstance(o, Relator) and o.kind is RelatorKind.COMM and id(o) not in kept
    ]
    assert alive == []


def counted_constructions(monkeypatch) -> Counter:
    """Constructions of each per-word view class from here on, by class name."""
    built: Counter = Counter()
    for cls in (bricks.Brick, linking.LinkEdge, linking.Region, Relator):
        real = cls.__init__

        def counted(self, *args, _real=real, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_invariants_above_every_cap_builds_no_view(monkeypatch, capsys):
    # 60 letters on 5 strands: 56 bricks, past every generator cap, so
    # nothing but the lattice reads the analysis
    rng = random.Random(60)
    letters = tuple(rng.randint(1, 4) for _ in range(60))
    clear_caches()
    built = counted_constructions(monkeypatch)
    assert cli.main(["invariants", " ".join(map(str, letters)), "--strands", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["skipped_targets"] == ["S3", "S4"]
    assert built == Counter()
    g = build_graph(build_bricks(BraidWord(5, letters)))
    spelled = Counter(
        Brick=len(g.diagram.bricks), LinkEdge=len(g.edges), Region=len(g.regions),
        Relator=len(presentation_of(g).cycles),
    )
    assert spelled["Brick"] == 56 and spelled["Region"] > 30
    assert built == spelled


def test_counts_and_verify_within_the_caps_build_no_view(monkeypatch, capsys):
    # hom counts read the pair table and the cycle words; verify also
    # compares graph signatures at every neutral move
    clear_caches()
    built = counted_constructions(monkeypatch)
    for argv in (
        ["invariants", "1 2 3 1 2 2 3 1 2 1", "--strands", "4", "--up-to-conjugacy"],
        ["verify", "1 2 1 3 2 1 3 3 2", "--strands", "4", "--moves", "20", "--seed", "3"],
    ):
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload.get("skipped_targets") == [] or payload.get("stable") is True
    assert built == Counter()


def test_graph_lattice_reads_no_cycle_word(monkeypatch):
    def spelled(self):
        raise AssertionError("cycle words spelled")

    clear_caches()
    monkeypatch.setattr(Presentation, "cycles", property(spelled))
    monkeypatch.setattr(Presentation, "cycle_words", property(spelled))
    for text in WORDS:
        p = presentation_for(parse_word(text))
        assert p.region_cycles is not None
        assert abelianization(p).rank == ColumnLattice.of(p).n_components
