"""check_map against the per-relator reference it replaced.

reference_check_map evaluates every relator image and round-trip word
under every homomorphism, and tests every exponent vector with the
conftest lattice oracle (sympy's Smith normal decomposition of the dense
exponent matrix). check_map decides the finite targets by hom-set
pullback and the abelianization by sums over the components of the
exponent columns; the two must give identical reports, violations and
their wording included. A pullback that is not itself an orbit
representative is decided by its least conjugate, and that path is
taken, both ways, on a seeded corpus of move maps and corrupted copies.
"""

import random

import pytest

from braidforge.bricks import build_bricks
from braidforge.errors import ResourceCapError
from braidforge.finite_groups import builtin_targets
from braidforge.invariants import enumerate_homs, hom_count
from braidforge import isomaps
from braidforge.isomaps import (
    CheckReport,
    GeneratorMap,
    Violation,
    check_map,
    move_map,
    substitute,
)
from braidforge.linking import build_graph
from braidforge.presentations import Presentation, braid_relator, concat, presentation_of
from braidforge.words import BraidWord, enumerate_moves, parse_word

from conftest import exponent_matrix, snf_membership

TARGETS = builtin_targets()
CHECK_TARGETS = [TARGETS["S3"], TARGETS["S4"]]


def _word_str(word):
    return " ".join(f"s{x}" if x > 0 else f"s{-x}^-1" for x in word) or "1"


def _evaluate(t, hom, word):
    acc = t.identity
    for x in word:
        g = hom[abs(x) - 1]
        acc = t.mul(acc, g if x > 0 else t.inv(g))
    return acc


def _exp_vector(word, k):
    v = [0] * k
    for x in word:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v


def reference_check_map(m, targets, caps=None):
    """The per-relator check, one relator and one homomorphism at a time."""
    violations = []
    checked, skipped = [], []
    hom_counts = {}

    def mapped(word):
        return substitute(word, m.images)

    def mapped_back(word):
        return substitute(word, m.inverse_images)

    inverted = GeneratorMap(m.target, m.source, m.inverse_images, m.images)
    if m.is_relabeling() and inverted.is_relabeling():
        fwd_mapped = {mapped(r.word) for r in m.source.relators}
        if fwd_mapped == {r.word for r in m.target.relators}:
            return CheckReport(True, (), (), (), {}, method="relabeling")

    src_member = snf_membership(exponent_matrix(m.source))
    dst_member = snf_membership(exponent_matrix(m.target))
    k_src, k_dst = m.source.n_generators, m.target.n_generators
    for idx, r in enumerate(m.source.relators):
        image = mapped(r.word)
        if not dst_member(_exp_vector(image, k_dst)):
            violations.append(Violation(
                "forward", f"relator {idx} ({r.kind.value})", "abelianization",
                f"image {_word_str(image)} survives abelianization",
            ))
    for idx, r in enumerate(m.target.relators):
        image = mapped_back(r.word)
        if not src_member(_exp_vector(image, k_src)):
            violations.append(Violation(
                "backward", f"relator {idx} ({r.kind.value})", "abelianization",
                f"image {_word_str(image)} survives abelianization",
            ))
    roundtrip_src = [concat(mapped_back(mapped((g,))), (-g,)) for g in range(1, k_src + 1)]
    roundtrip_dst = [concat(mapped(mapped_back((g,))), (-g,)) for g in range(1, k_dst + 1)]
    for direction, words, member, k in (
        ("roundtrip-source", roundtrip_src, src_member, k_src),
        ("roundtrip-target", roundtrip_dst, dst_member, k_dst),
    ):
        for g, word in enumerate(words, start=1):
            if not member(_exp_vector(word, k)):
                violations.append(Violation(
                    direction, f"s{g}", "abelianization",
                    f"round trip {_word_str(word)} survives abelianization",
                ))

    for t in targets:
        try:
            src_homs = enumerate_homs(m.source, t, caps)
            dst_homs = enumerate_homs(m.target, t, caps)
        except ResourceCapError:
            skipped.append(t.name)
            continue
        checked.append(t.name)
        hom_counts[t.name] = (len(src_homs), len(dst_homs))
        if len(src_homs) != len(dst_homs):
            violations.append(Violation(
                "counts", "hom-count", t.name,
                f"{len(src_homs)} source vs {len(dst_homs)} target homomorphisms",
            ))
        for direction, relators, apply, homs in (
            ("forward", m.source.relators, mapped, dst_homs),
            ("backward", m.target.relators, mapped_back, src_homs),
        ):
            for idx, r in enumerate(relators):
                image = apply(r.word)
                for hom in homs:
                    if _evaluate(t, hom, image) != t.identity:
                        violations.append(Violation(
                            direction, f"relator {idx} ({r.kind.value})", t.name,
                            f"image {_word_str(image)} not trivial under homomorphism {hom}",
                        ))
                        break
        for direction, words, homs in (
            ("roundtrip-source", roundtrip_src, src_homs),
            ("roundtrip-target", roundtrip_dst, dst_homs),
        ):
            for g, word in enumerate(words, start=1):
                for hom in homs:
                    if _evaluate(t, hom, word) != t.identity:
                        violations.append(Violation(
                            direction, f"s{g}", t.name,
                            f"round trip {_word_str(word)} not trivial",
                        ))
                        break

    return CheckReport(not violations, tuple(violations), tuple(checked), tuple(skipped), hom_counts)


def presentation_for(w: BraidWord):
    return presentation_of(build_graph(build_bricks(w)))


def corrupted(m: GeneratorMap, rng: random.Random) -> GeneratorMap:
    """m with one generator image or inverse image disturbed."""
    images, inverse = list(m.images), list(m.inverse_images)
    side = images if rng.random() < 0.5 or not inverse else inverse
    if not side:
        return m
    i = rng.randrange(len(side))
    n_gens = m.target.n_generators if side is images else m.source.n_generators
    extra = rng.randint(1, n_gens) * rng.choice((1, -1))
    side[i] = side[i] + (extra,) if rng.random() < 0.5 else (extra,)
    return GeneratorMap(m.source, m.target, tuple(images), tuple(inverse))


WORDS = [
    "1 2 1 1 2 1",
    "1 1 2 1 1 2",
    "1 2 3 2 1 2 3",
    "2 1 2 1 1 3 2",
    "1 2 3 4 3 2 1 4 3 2",  # five strands, a braid relation five letters from the top
    "2 3 2 1 2 1 3 1",  # braid relations at positions 1, 3 and 4
]


@pytest.mark.parametrize("text", WORDS)
def test_identical_report_on_every_move(text):
    rng = random.Random(text)
    w = parse_word(text)
    for move in enumerate_moves(w):
        phi = move_map(w, move)
        assert check_map(phi, CHECK_TARGETS) == reference_check_map(phi, CHECK_TARGETS)
        bad = corrupted(phi, rng)
        report = check_map(bad, CHECK_TARGETS)
        assert report == reference_check_map(bad, CHECK_TARGETS)


def test_consistent_maps_are_checked_without_spelling(monkeypatch):
    spelled = []
    real = isomaps.substitute
    monkeypatch.setattr(isomaps, "substitute", lambda *args: spelled.append(1) or real(*args))
    checked = 0
    for text in WORDS:
        w = parse_word(text)
        for move in enumerate_moves(w):
            phi = move_map(w, move)
            spelled.clear()
            report = check_map(phi, CHECK_TARGETS)
            assert report.consistent
            if report.method != "relabeling":
                assert spelled == []
                checked += 1
    assert checked


def test_identical_report_on_corrupted_map():
    P = presentation_for(parse_word("1 2 1 1 2 1"))
    Q = presentation_for(parse_word("1 1 2 1 1 2"))
    bad = GeneratorMap(
        P, Q,
        images=((1,), (2,), (3,), (3, 2, 4, -2, -3, 1)),
        inverse_images=((1,), (2,), (3,), (-2, -3, 4, 3, 2)),
    )
    # the same map with one generator sent to an inverse
    inverted = GeneratorMap(
        P, Q,
        images=((-1,), (2,), (3,), (3, 2, 4, -2, -3)),
        inverse_images=((1,), (2,), (3,), (-2, -3, 4, 3, 2)),
    )
    for m in (bad, inverted):
        for targets in ([TARGETS["S3"]], CHECK_TARGETS):
            report = check_map(m, targets)
            assert not report.consistent
            assert report == reference_check_map(m, targets)


def test_identical_report_when_only_the_forward_pullback_holds():
    # Every hom of Q pulls back to one of the free group P and returns, but
    # P has more homs, so the backward half fails and must still be worded.
    P = Presentation(2, ())
    Q = Presentation(2, (braid_relator(1, 2),))
    m = GeneratorMap(P, Q, ((1,), (2,)), ((1,), (2,)))
    for targets in ([TARGETS["S3"]], CHECK_TARGETS):
        report = check_map(m, targets)
        assert any(v.direction == "backward" and v.target == "S3" for v in report.violations)
        assert report == reference_check_map(m, targets)


def test_pullbacks_off_the_representatives_go_through_least_conjugate(monkeypatch):
    calls = []
    real = isomaps.least_conjugate

    def spied(t, images):
        least = real(t, images)
        calls.append((t, least))
        return least

    monkeypatch.setattr(isomaps, "least_conjugate", spied)
    targets = [*CHECK_TARGETS, TARGETS["D4"], TARGETS["Q8"]]
    rng = random.Random(20261018)
    held = failed = 0
    for _ in range(20):
        n = rng.randint(3, 4)
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(6, 10))))
        for move in rng.sample(enumerate_moves(w), 2):
            phi = move_map(w, move)
            for m in (phi, corrupted(phi, rng)):
                calls.clear()
                report = check_map(m, targets)
                assert report == reference_check_map(m, targets)
                for t, least in calls:
                    reps = {h for p in (m.source, m.target) for h in hom_count(p, t).reps}
                    if least in reps:
                        held += 1
                        continue
                    # a hom of neither side: the check fails under t
                    assert m is not phi
                    assert any(v.target == t.name for v in report.violations)
                    failed += 1
    assert held and failed
