"""Branches that the rest of the suite never runs.

Conjugacy decided by membership in the super summit closure, moveseq
refusing realized moves that do not replay, and a check_map report that
fails on hom counts, serialized. Convergence to the super summit set has no
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


def test_moveseq_reports_moves_that_do_not_replay(capsys, monkeypatch):
    # tests/test_realization.py::test_moves_that_do_not_replay_raise pins the library's error
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    argv = ["moveseq", "1 2 2 2 2 2 2 2", "2 2 2 2 2 2 2 1"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "procedure-found" and len(out["moves"]) == 19
    assert out["replay_ok"] is True
    # realized moves that no longer replay are an error, not an answer
    real = garside._invert_move_path
    monkeypatch.setattr(
        garside, "_invert_move_path",
        lambda start, moves: real(start, moves) + [WordMove(MoveKind.BRAID_REL, 99)],
    )
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: realized moves do not carry '1 2 2 2 2 2 2 2' to '2 2 2 2 2 2 2 1': "
    )
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


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
