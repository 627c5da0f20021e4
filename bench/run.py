"""braidforge benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload present --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload garside --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --baseline [--limit 300]

Run from the root of a checkout. Every workload runs in fresh
single-threaded interpreters (bench/worker.py) with PYTHONPATH set to
the checkout's ``src`` and BRAIDFORGE_CONFIG cleared, so neither an
installed braidforge nor a user's config file is measured.

``--trace 0`` times the workload untraced for ``--seconds`` and prints
the end-to-end metrics. ``--trace 1`` runs a fixed prefix of the corpus
twice, untraced and traced, and prints the per-layer metrics with the
tracing overhead. The last line of stdout is one JSON object; details
go to bench/results/. Any wrong answer exits non-zero without a result.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("present", "invariance", "garside")
# Set-up is measured in this many fresh processes; the last one also runs the workload.
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150
END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BRAIDFORGE_CONFIG", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(workload: str, seed: int, seconds: float, mode: str, trace_out: Path | None = None) -> dict:
    argv = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    started = time.monotonic()
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} worker ({mode}) exited with status {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # CLOCK_MONOTONIC is shared by all processes, so this spans interpreter start-up.
    out["raw_setup_s"] = out["ready_at"] - started
    out["setup_s"] = out["raw_setup_s"] * out["speed_factor"]
    return out


def latency_summary(latencies_ms: list[float]) -> dict:
    """Median and p90, with the samples behind them."""
    p90 = statistics.quantiles(latencies_ms, n=10)[8]
    return {
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": p90,
        "samples": len(latencies_ms),
        "beyond_p90": sum(1 for x in latencies_ms if x > p90),
    }


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [run_worker(workload, seed, seconds, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    out = run_worker(workload, seed, seconds, "timed")
    setups.append(out["setup_s"])
    if len(out["latencies_ms"]) < 2:
        raise BenchError(f"{workload}: fewer than two operations completed")
    lat = latency_summary(out["latencies_ms"])
    values = {
        "ops_per_s": len(out["latencies_ms"]) / out["scaled_s"],
        "op_p50_ms": lat["op_p50_ms"],
        "op_p90_ms": lat["op_p90_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record = dict(out, setup_samples_s=setups, latency=lat)
    return metrics, record


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    plain = run_worker(workload, seed, seconds, "fixed")
    spans_path = RESULTS / f"spans-{workload}-seed{seed}.json"
    traced = run_worker(workload, seed, seconds, "fixed", trace_out=spans_path)
    if plain["corpus"]["sha256"] != traced["corpus"]["sha256"]:
        raise BenchError("traced and untraced runs generated different corpora")
    metrics = traced["per_layer"]
    metrics["trace.overhead_ratio"]["value"] = traced["scaled_s"] / plain["scaled_s"]
    record = dict(traced, untraced_scaled_s=plain["scaled_s"], spans_file=str(spans_path))
    return metrics, record


def report(workload: str, seed: int, trace: int, metrics: dict, record: dict) -> None:
    corpus = record["corpus"]
    print(
        f"{workload} seed {seed}: {record['attempted']} operations in {record['rounds_run']} rounds, "
        f"{record['measured_s']:.2f} s measured ({record['scaled_s']:.2f} s scaled); corpus sha256 {corpus['sha256'][:16]} "
        f"(first {corpus['rounds']} rounds), strands {corpus['strands']}, letters {corpus['lengths']}"
    )
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        lat = record["latency"]
        print(f"  op_p90_ms from {lat['samples']} samples, {lat['beyond_p90']} beyond it; "
              f"setup_s is the median of {len(record['setup_samples_s'])} fresh processes")
    print(f"  failed {record['failed']} of {record['attempted']} operations")
    for line in record["failures"]:
        print(f"    {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true", help="regenerate the ROADMAP Baseline table")
    parser.add_argument("--limit", type=float, default=300.0, help="baseline: seconds per row")
    args = parser.parse_args(argv)

    if not (SRC / "braidforge" / "__init__.py").is_file():
        print(f"error: no braidforge sources under {SRC}; run from a braidforge checkout", file=sys.stderr)
        return 2
    if args.baseline:
        import baseline

        return baseline.main(args.limit)
    if args.workload is None:
        parser.error("--workload is required")

    RESULTS.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, record = traced_run(args.workload, args.seed, args.seconds)
        else:
            metrics, record = timed_run(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(dict(record, metrics=metrics)), encoding="utf-8")
    report(args.workload, args.seed, args.trace, metrics, record)
    print(json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
