"""Branches that the rest of the suite never runs.

Conjugacy decided by membership in the super summit closure, the
fallback search of moveseq under its cap, and a check_map report that fails
on hom counts, serialized. Convergence to the super summit set has no
cap to exceed: each phase stops within ||Delta|| steps.
"""

import json

from braidforge import garside
from braidforge.cli import main
from braidforge.finite_groups import symmetric_group
from braidforge.garside import are_conjugate, normal_form, summit
from braidforge.isomaps import GeneratorMap, check_map
from braidforge.presentations import Presentation, braid_relator
from braidforge.words import BraidWord, MoveKind, WordMove


def test_same_summit_shape_not_conjugate():
    a, b = BraidWord(4, (1, 1, 2, 3)), BraidWord(4, (1, 2, 2, 3))
    sa, sb = summit(normal_form(a)), summit(normal_form(b))
    # equal delta power and canonical length: only the closure tells them apart
    assert sa.summit_power == sb.summit_power
    lengths = [{m.canonical_length for m in s.summit_set} for s in (sa, sb)]
    assert lengths[0] == lengths[1]
    assert sa.summit_set.isdisjoint(sb.summit_set)
    assert not are_conjugate(a, b)
    assert not are_conjugate(b, a)


def broken_inversion(monkeypatch):
    """Realized moves that no longer replay, as tests/test_realization.py
    breaks them, so that moveseq falls back to its search."""
    real = garside._invert_move_path
    monkeypatch.setattr(
        garside, "_invert_move_path",
        lambda start, moves: real(start, moves) + [WordMove(MoveKind.BRAID_REL, 99)],
    )


def test_moveseq_falls_back_to_search_under_word_search_cap(capsys, monkeypatch):
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    argv = ["moveseq", "1 2 2 2 2 2 2 2", "2 2 2 2 2 2 2 1", "--caps.word-search", "3"]
    # the procedure runs no search, so the cap does not stop it
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "procedure-found" and len(out["moves"]) == 19
    assert out["replay_ok"] is True
    # the search under the cap finds the one conjugation
    broken_inversion(monkeypatch)
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "search-found"
    assert out["moves"] == [{"kind": "conjL", "position": 1}]
    assert out["replay_ok"] is True


def test_word_search_cap_stops_the_fallback_search(capsys, monkeypatch):
    # tests/test_garside.py::test_resource_caps_raise pins the library's error
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    broken_inversion(monkeypatch)
    assert main(["moveseq", "1 2 1 2 2 1", "1 2 2 2 1 2", "--caps.word-search", "3"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "resource cap exceeded: move search exceeded the configured cap\n"
    )


def test_check_map_reports_differing_hom_counts():
    braided = Presentation(2, (braid_relator(1, 2),))
    free = Presentation(2, ())
    identity = ((1,), (2,))
    report = check_map(GeneratorMap(braided, free, identity, identity), [symmetric_group(3)])
    assert not report.consistent
    assert report.hom_counts == {"S3": (12, 36)}
    counts = [v for v in report.violations if v.direction == "counts"]
    assert [(v.item, v.target, v.detail) for v in counts] == [
        ("hom-count", "S3", "12 source vs 36 target homomorphisms")
    ]
    data = json.loads(json.dumps(report.to_dict()))
    assert data["consistent"] is False
    assert data["checked_targets"] == ["S3"] and data["skipped_targets"] == []
    assert data["hom_counts"] == {"S3": [12, 36]}
    assert {
        "direction": "counts",
        "item": "hom-count",
        "target": "S3",
        "detail": "12 source vs 36 target homomorphisms",
    } in data["violations"]
    assert len(data["violations"]) == len(report.violations)
