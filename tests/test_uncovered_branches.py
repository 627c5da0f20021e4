"""Branches that the rest of the suite never runs.

Conjugacy decided by membership in the super summit closure, the
capped-procedure fallback of moveseq, and a check_map report that fails
on hom counts, serialized. Convergence to the super summit set has no
cap to exceed: each phase stops within ||Delta|| steps.
"""

import json

from braidforge.cli import main
from braidforge.finite_groups import symmetric_group
from braidforge.garside import are_conjugate, normal_form, summit
from braidforge.isomaps import GeneratorMap, check_map
from braidforge.presentations import Presentation, braid_relator
from braidforge.words import BraidWord


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


def test_moveseq_falls_back_to_search_under_word_search_cap(capsys, monkeypatch):
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    argv = ["moveseq", "1 2 2 2 2 2 2 2", "2 2 2 2 2 2 2 1", "--caps.word-search", "3"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "search-found"
    assert out["moves"] == [{"kind": "conjL", "position": 1}]
    assert out["replay_ok"] is True


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
