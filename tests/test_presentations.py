import random

import pytest

from braidforge.bricks import build_bricks
from braidforge.finite_groups import builtin_targets
from braidforge.invariants import enumerate_homs, evaluate_word
from braidforge.linking import build_graph
from braidforge.presentations import (
    GroupWord,
    Presentation,
    Relator,
    RelatorKind,
    braid_relator,
    comm_relator,
    concat,
    cycle_equation,
    cycle_relator,
    free_reduce,
    invert_word,
    presentation_of,
    serialize,
    shifted_cycle_presentation,
)
from braidforge.words import BraidWord, parse_word

from conftest import by_kind, random_word

TARGETS = builtin_targets()


def cycle_commutation_word(cycle: tuple[int, ...]) -> GroupWord:
    """The commutation form equivalent to the cycle relation.

    [i1, C] with C = i_n ... i_3 i_2 i_3^-1 ... i_n^-1; equivalent to the
    cycle relator in the presence of the braid and commutation relators.
    """
    tail = tuple(reversed(cycle[2:]))  # (i_n, ..., i_3)
    conj = concat(tail, (cycle[1],), invert_word(tail))
    first = (cycle[0],)
    return concat(first, conj, invert_word(first), invert_word(conj))


def presentation_for(text, strands=None):
    return presentation_of(build_graph(build_bricks(parse_word(text, strands))))


def test_free_reduction():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((2, 1, -1, -2, 3)) == (3,)
    assert invert_word((1, -2, 3)) == (-3, 2, -1)
    assert concat((1, 2), (-2, 5)) == (1, 5)


def test_cycle_equation_matches_printed_form():
    lhs, rhs = cycle_equation((1, 2, 3, 4))
    assert lhs == (4, 3, 2, 1, 4, 3)
    assert rhs == (3, 2, 1, 4, 3, 2)
    # triangle instance
    lhs3, rhs3 = cycle_equation((1, 2, 3))
    assert lhs3 == (3, 2, 1, 3)
    assert rhs3 == (2, 1, 3, 2)


def test_cycle_relator_abelianizes_to_two_generators():
    # exponent difference is +1 on the last and -1 on the second entry
    for cycle in [(1, 2, 3), (1, 2, 3, 4), (2, 5, 3, 1, 4)]:
        word = cycle_relator(cycle).word
        exponents = {}
        for x in word:
            exponents[abs(x)] = exponents.get(abs(x), 0) + (1 if x > 0 else -1)
        exponents = {g: e for g, e in exponents.items() if e != 0}
        assert exponents == {cycle[-1]: 1, cycle[1]: -1}


def test_cycle_relator_words_need_no_reduction(rng):
    # cycle_relator spells lhs * rhs^-1 without reducing it
    regions = 0
    for _ in range(150):
        g = build_graph(build_bricks(random_word(rng, max_strands=8, max_len=40)))
        for region in g.regions:
            r = cycle_relator(region.vertices)
            assert r.word == concat(r.lhs, invert_word(r.rhs))
            regions += 1
    assert regions > 500


def test_standard_braid_presentation():
    for n in range(2, 7):
        p = presentation_for(" ".join("1" * (n)), strands=2)
        assert p.n_generators == n - 1
        braid = by_kind(p, RelatorKind.BRAID)
        comm = by_kind(p, RelatorKind.COMM)
        assert by_kind(p, RelatorKind.CYCLE) == ()
        assert {tuple(r.lhs[:2]) for r in braid} == {
            (i, i + 1) for i in range(1, n - 1)
        }
        assert len(comm) == (n - 1) * (n - 2) // 2 - (n - 2)


def test_worked_example_presentations():
    pa = presentation_for("1 2 1 1 2 1")
    assert pa.n_generators == 4
    braid_pairs = {r.lhs[:2] for r in by_kind(pa, RelatorKind.BRAID)}
    comm_pairs = {r.lhs for r in by_kind(pa, RelatorKind.COMM)}
    assert braid_pairs == {(1, 2), (2, 3), (1, 4), (3, 4)}
    assert comm_pairs == {(1, 3), (2, 4)}
    cycles = by_kind(pa, RelatorKind.CYCLE)
    assert len(cycles) == 1
    assert cycles[0].lhs == (4, 3, 2, 1, 4, 3)
    assert cycles[0].rhs == (3, 2, 1, 4, 3, 2)

    pb = presentation_for("1 1 2 1 1 2")
    assert pb.n_generators == 4
    assert {r.lhs[:2] for r in by_kind(pb, RelatorKind.BRAID)} == {
        (1, 2), (2, 3), (2, 4),
    }
    assert {r.lhs for r in by_kind(pb, RelatorKind.COMM)} == {(1, 3), (1, 4), (3, 4)}
    assert by_kind(pb, RelatorKind.CYCLE) == ()


def test_relator_counts(rng):
    for _ in range(100):
        w = random_word(rng)
        g = build_graph(build_bricks(w))
        p = presentation_of(g)
        k = p.n_generators
        assert len(by_kind(p, RelatorKind.BRAID)) == len(g.edges)
        assert len(by_kind(p, RelatorKind.COMM)) == k * (k - 1) // 2 - len(g.edges)
        assert len(by_kind(p, RelatorKind.CYCLE)) == len(g.regions)


def test_trivial_presentation():
    p = presentation_for("1", strands=4)
    assert p.n_generators == 0
    assert p.relators == ()


def test_cycle_shift_examples():
    pa = presentation_for("1 2 1 1 2 1")
    for turn in (0, 4):
        word = shifted_cycle_presentation(pa, 0, turn).cycle_words[0]
        assert word == by_kind(pa, RelatorKind.CYCLE)[0].word
    shifted = shifted_cycle_presentation(pa, 0, 1)
    new_cycle = by_kind(shifted, RelatorKind.CYCLE)[0]
    assert new_cycle.lhs == (1, 4, 3, 2, 1, 4)
    assert new_cycle.rhs == (4, 3, 2, 1, 4, 3)
    with pytest.raises(IndexError):
        shifted_cycle_presentation(pa, 3, 1)


def test_cycle_equivalent_to_commutation_in_quotients():
    # with braid+commutation relators present, the cycle relator and its
    # commutation form cut out the same homomorphisms
    pa = presentation_for("1 2 1 1 2 1")
    cycles = by_kind(pa, RelatorKind.CYCLE)
    base = Presentation(
        pa.n_generators,
        tuple(r for r in pa.relators if r.kind is not RelatorKind.CYCLE),
    )
    cycle_word = cycles[0].word
    comm_word = cycle_commutation_word((1, 2, 3, 4))
    for name in ("S3", "S4"):
        t = TARGETS[name]
        for hom in enumerate_homs(base, t):
            lhs = evaluate_word(t, list(hom), cycle_word) == t.identity
            rhs = evaluate_word(t, list(hom), comm_word) == t.identity
            assert lhs == rhs


def test_serialize_plain():
    p = Presentation(2, (braid_relator(1, 2),))
    assert serialize(p, "plain") == "<s1,s2 | s1 s2 s1 = s2 s1 s2>"
    trivial = Presentation(0, ())
    assert serialize(trivial, "plain") == "< | >"


def test_serialize_gap_style():
    pa = presentation_for("1 1 1")
    text = serialize(pa, "gap-style")
    assert text.startswith("F := FreeGroup(2);;")
    assert "rels := [" in text


def test_serialize_json_counts():
    import json

    pa = presentation_for("1 2 1 1 2 1")
    data = json.loads(serialize(pa, "json"))
    kinds = [r["kind"] for r in data["relators"]]
    assert kinds.count("braid") == 4
    assert kinds.count("comm") == 2
    assert kinds.count("cycle") == 1
    with pytest.raises(ValueError):
        serialize(pa, "nope")


def test_relators_freely_reduced(rng):
    for _ in range(50):
        w = random_word(rng)
        p = presentation_of(build_graph(build_bricks(w)))
        for r in p.relators:
            assert free_reduce(r.word) == r.word
            assert r.word != ()


def test_pair_relators_closed_form():
    # the closed-form words are the freely reduced lhs * rhs^-1
    for i in range(1, 13):
        for j in range(1, 13):
            if i == j:
                continue
            lo, hi = min(i, j), max(i, j)
            for make, kind, prov in (
                (braid_relator, RelatorKind.BRAID, "edge"),
                (comm_relator, RelatorKind.COMM, "pair"),
            ):
                r = make(i, j)
                assert r.word == concat(r.lhs, invert_word(r.rhs))
                assert r.kind is kind
                assert r.provenance == (prov, (lo, hi))
                assert make(i, j, ("region", 3)).provenance == ("region", 3)
            assert braid_relator(i, j).lhs == (lo, hi, lo)
            assert braid_relator(i, j).rhs == (hi, lo, hi)
            assert comm_relator(i, j).lhs == (lo, hi)
            assert comm_relator(i, j).rhs == (hi, lo)


def test_shift_keeps_the_table_and_every_other_cycle():
    rng = random.Random(34)
    cases = []
    for _ in range(120):
        n = rng.randint(3, 6)
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(6, 30))))
        p = presentation_of(build_graph(build_bricks(w)))
        cases += [(p, index) for index in range(min(2, len(p.cycle_words)))]
    # a partial table carrying both kinds on (1, 2), and a cycle relator
    # that is no region's beside two that are
    hand = Presentation(
        4,
        (
            braid_relator(1, 2),
            comm_relator(1, 2),
            comm_relator(3, 4),
            cycle_relator((1, 3, 2), ("hand", 0)),
            Relator((1, 1, 2), (3,), ("hand", 1)),
            cycle_relator((2, 4, 3, 1), ("hand", 2)),
        ),
    )
    assert (hand.braid_pairs, hand.comm_pairs) == (((1, 2),), ((1, 2), (3, 4)))
    cases += [(hand, 0), (hand, 2)]
    assert len(cases) > 150
    for p, index in cases:
        for shift in (0, 1, 3):
            q = shifted_cycle_presentation(p, index, shift)
            assert (q.n_generators, q.braid_pairs, q.comm_pairs) == (
                p.n_generators,
                p.braid_pairs,
                p.comm_pairs,
            )
            assert len(q.cycles) == len(p.cycles)
            for j, (old, new) in enumerate(zip(p.cycles, q.cycles)):
                assert new.kind is RelatorKind.CYCLE and new.provenance == old.provenance
                if j != index:
                    assert (new.word, new.lhs, new.rhs) == (old.word, old.lhs, old.rhs)
            assert (q == p) == (shift % (len(p.cycle_words[index]) // 4 + 1) == 0)


def test_cycle_shift_helpers_agree(rng):
    # the shifted relator and the cycle words agree, both read back from
    # the stored equation
    for _ in range(40):
        p = presentation_of(build_graph(build_bricks(random_word(rng, max_len=16))))
        cycles = by_kind(p, RelatorKind.CYCLE)
        for idx, r in enumerate(cycles):
            for shift in range(-1, len(r.lhs) // 2 + 2):
                shifted = shifted_cycle_presentation(p, idx, shift)
                new = by_kind(shifted, RelatorKind.CYCLE)[idx]
                assert new.word == shifted.cycle_words[idx]
                assert new.provenance == r.provenance
                assert shifted.relators[: p.relators.index(r)] == p.relators[: p.relators.index(r)]


def test_hash_is_computed_once_and_agrees_across_constructors(monkeypatch):
    w = parse_word("1 2 1 1 2 1 2 1")
    stored = presentation_of(build_graph(build_bricks(w)))
    given = Presentation(stored.n_generators, stored.relators)
    assert given == stored and hash(given) == hash(stored)
    reads = []
    content = Presentation._content
    monkeypatch.setattr(Presentation, "_content", lambda p: reads.append(p) or content(p))
    for p in (presentation_of(build_graph(build_bricks(w), "right-positive")), Presentation(2, ())):
        reads.clear()
        first = hash(p)
        assert all(hash(p) == first for _ in range(5))
        assert reads == [p] and reads[0] is p
