"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py -q

Tiny runs of each workload pass their oracles, injected wrong answers
fail them, the per-layer counts reproduce known call counts of the
current library, and every metric name printed matches BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from braidforge import cli, invariants  # noqa: E402
from braidforge.words import BraidWord, MoveKind, WordMove  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name: str, seed: int = 5, tracer=None) -> dict:
    workload = workloads.WORKLOADS[name]
    ctx = workloads.Context()
    stats = worker.new_stats()
    worker.run_ops(workload, ctx, next(workload.corpus(seed, small=True)), stats, tracer)
    return stats


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_oracles(name):
    stats = tiny_run(name)
    assert stats["attempted"] >= 8
    assert stats["failed"] == 0, stats["failures"]


def test_same_seed_same_corpus():
    for name, workload in workloads.WORKLOADS.items():
        first = worker.corpus_record([next(workload.corpus(3)) for _ in range(2)])
        again = worker.corpus_record([next(workload.corpus(3)) for _ in range(2)])
        other = worker.corpus_record([next(workload.corpus(4)) for _ in range(2)])
        assert first == again, name
        assert first["sha256"] != other["sha256"], name


def drop_free_factor(real):
    def wrong(p):
        factors = real(p).invariant_factors
        if 0 in factors:
            factors = tuple(f for i, f in enumerate(factors) if i != factors.index(0))
        return invariants.Abelianization(factors)
    return wrong


def test_wrong_abelianization_fails_present(monkeypatch):
    monkeypatch.setattr(cli, "abelianization", drop_free_factor(invariants.abelianization))
    with pytest.raises(oracles.OracleError, match="abelianization"):
        tiny_run("present")


def test_wrong_abelianization_fails_invariance(monkeypatch):
    wrong = drop_free_factor(invariants.abelianization)
    monkeypatch.setattr(invariants, "abelianization", wrong)
    monkeypatch.setattr(workloads.LIB, "abelianization", wrong)
    with pytest.raises(oracles.OracleError, match="abelianization"):
        tiny_run("invariance")


def test_wrong_conjugacy_fails_garside(monkeypatch):
    real = workloads.LIB.are_conjugate
    monkeypatch.setattr(workloads.LIB, "are_conjugate", lambda a, b: not real(a, b))
    with pytest.raises(oracles.OracleError, match="are_conjugate"):
        tiny_run("garside")


def test_wrong_move_sequence_fails_garside(monkeypatch):
    real = workloads.LIB.conjugacy_move_sequence_detailed

    def truncated(a, b):
        result = real(a, b)
        return type(result)(result.moves[:-1], result.method)

    monkeypatch.setattr(workloads.LIB, "conjugacy_move_sequence_detailed", truncated)
    with pytest.raises(oracles.OracleError, match="move sequence"):
        tiny_run("garside")


def test_oracle_graph_shape_matches_worked_example():
    # PAPER.md's worked example: four bricks, one region, one component.
    k, e, c = oracles.graph_shape(3, (1, 2, 1, 1, 2, 1))
    assert (k, c) == (4, 1)
    assert oracles.expected_relators(k, e, c) == 7


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install(workloads.LIB)
    yield t
    t.uninstall()


WORD22 = BraidWord(4, tuple(int(x) for x in "1 2 3 1 2 1 3 2 1 2 3 3 2 1 2 1 3 2 1 2 3 1".split()))


def traced_calls(t: tracing.Tracer, fn, *args):
    """fn(*args) as one traced operation; its result and calls per span name."""
    t.op = 1
    try:
        result = fn(*args)
    finally:
        t.op = None
    rows = t.summary()
    t.spans.clear()
    return result, {name: int(row["calls"]) for name, row in rows.items()}


def test_trace_counts_interior_braid_move(tracer):
    targets = workloads.Context().targets
    lib = workloads.LIB
    phi, calls = traced_calls(tracer, lib.move_map, WORD22, WordMove(MoveKind.BRAID_REL, 4))
    assert calls["presentations.presentation_of"] == 66
    _, calls = traced_calls(tracer, lib.check_map, phi, targets)
    assert calls["invariants.in_column_lattice"] == 412
    conj = lib.move_map(WORD22, WordMove(MoveKind.ELEM_CONJ_RIGHT, len(WORD22)))
    _, calls = traced_calls(tracer, lib.check_map, conj, targets)
    assert calls["invariants.in_column_lattice"] == 413


def test_trace_counts_summit_scan(tracer):
    from braidforge import garside

    nf = garside.normal_form(BraidWord(4, (1, 2, 3, 1, 2, 2, 1, 3)))
    data, calls = traced_calls(tracer, workloads.LIB.summit, nf)
    assert calls["garside.conjugate_nf"] == len(data.summit_set) * (math.factorial(4) - 1)


def test_traced_tiny_run_reports_every_per_layer_metric(tracer):
    stats = tiny_run("garside", tracer=tracer)
    values = tracer.metrics(stats["attempted"], stats["failed"], 1.0)
    assert list(values) == [m["name"] for m in SPEC["per_layer"]]
    assert [u for _, u in tracing.PER_LAYER] == [m["unit"] for m in SPEC["per_layer"]]
    assert values["garside.summit.calls"] > 0
    assert values["garside.conjugate_nf.calls"] > 0
    assert values["invariants.in_column_lattice.calls"] == 0


def test_missing_wrapper_target_reads_zero():
    t = tracing.Tracer()
    t.wrap(workloads.LIB, "no_such_function")
    assert t.metrics(1, 0, 1.0)["invariants.in_column_lattice.calls"] == 0


def test_end_to_end_names_match_benchmark_json():
    assert [(n, u) for n, u in run.END_TO_END] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_command_prints_benchmark_metrics():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "garside", "--seed", "2", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= worker.MIN_OPS
    assert result["attempted"] == 20 * worker.timed_rounds("garside", 1, 20)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "present", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
