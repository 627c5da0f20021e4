"""One workload in one fresh interpreter; prints one JSON line and exits.

Started by run.py, which sets PYTHONPATH to the checkout's ``src`` and
clears BRAIDFORGE_CONFIG. Modes:

* ``setup``: import, targets, corpus and warm-up, then report the time
  the first operation would have started;
* ``timed``: set up, then run the whole rounds that take ``--seconds``
  of scaled time on the reference host (see timed_rounds and run_ops);
* ``fixed``: set up, then run a fixed number of rounds, optionally with
  tracing, so that per-layer counts repeat exactly between runs.

Exit status 3 means an oracle rejected an answer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from collections import Counter

# Rounds generated during set-up; later rounds are generated between operations.
CORPUS_ROUNDS = 8
# Rounds in a fixed (traced or overhead) run: about ten seconds of operations.
FIXED_ROUNDS = {"present": 1, "invariance": 3, "garside": 6}
# A timed run holds at least this many operations, so that at least
# nineteen latency samples lie beyond p90.
MIN_OPS = 190
# Scaled seconds one round takes on the host the bounds were set on.
ROUND_NOMINAL_S = {"present": 12.0, "invariance": 5.4, "garside": 1.87}


def timed_rounds(workload: str, seconds: float, round_size: int) -> int:
    """Rounds in a timed run: enough for ``seconds`` on the reference host
    and for MIN_OPS operations. The count depends on nothing measured, so
    a seed always runs the same operations and fails the same ones."""
    return max(math.ceil(seconds / ROUND_NOMINAL_S[workload]), math.ceil(MIN_OPS / round_size))


def corpus_record(rounds: list[list]) -> dict:
    """Digest and strand/length histogram of the pre-generated corpus."""
    text = json.dumps(rounds, separators=(",", ":"))
    strands: Counter = Counter()
    lengths: Counter = Counter()
    for ops in rounds:
        for op in ops:
            strands[op[1]] += 1
            lengths[f"{len(op[2]) // 10 * 10}-{len(op[2]) // 10 * 10 + 9}"] += 1
    return {
        "rounds": len(rounds),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "strands": dict(sorted(strands.items())),
        "lengths": dict(sorted(lengths.items(), key=lambda kv: int(kv[0].split("-")[0]))),
    }


# Time of reference_work() on the host the bounds were set on; it fixes
# the unit of the scaled timings (see run_ops).
REFERENCE_NOMINAL_S = 0.004


def reference_work() -> int:
    """A fixed pure-Python loop of tuple, dict and integer work, ~4 ms."""
    table: dict[int, int] = {}
    perm = tuple(range(12))
    for i in range(8000):
        perm = perm[1:] + perm[:1]
        key = perm[i % 12]
        table[key] = (table.get(key, 0) + i * i) % 9973
    return len(table)


def reference_s() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def new_stats() -> dict:
    return {"attempted": 0, "failed": 0, "measured_s": 0.0, "scaled_s": 0.0,
            "latencies_ms": [], "raw_latencies_ms": [], "failures": []}


def run_ops(workload, ctx, ops, stats: dict, tracer=None) -> None:
    """Run and check a batch of operations; only the library call is timed.

    The host's speed swings by 15% and more within seconds, for every
    process alike. So the reference loop runs right before and right
    after each operation, and the operation's time is scaled by
    REFERENCE_NOMINAL_S over the mean of the two; both the scaled and
    the raw times are kept.
    """
    from workloads import FAILURES

    for op in ops:
        stats["attempted"] += 1
        before = reference_s()
        if tracer is not None:
            tracer.op = stats["attempted"]
        start = time.perf_counter()
        try:
            result = workload.run(op, ctx)
            error = None
        except FAILURES as exc:
            error = exc
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
        scaled = elapsed * 2.0 * REFERENCE_NOMINAL_S / (before + reference_s())
        stats["measured_s"] += elapsed
        stats["scaled_s"] += scaled
        if error is not None:
            stats["failed"] += 1
            stats["failures"].append(f"{type(error).__name__}: {error} on {op}")
            continue
        stats["latencies_ms"].append(scaled * 1000.0)
        stats["raw_latencies_ms"].append(elapsed * 1000.0)
        workload.check(op, result, ctx)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    parser.add_argument("--trace-out", default=None, help="traced fixed run: write spans here")
    args = parser.parse_args(argv)

    import workloads
    from oracles import OracleError

    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context()
    stream = workload.corpus(args.seed)
    rounds = [next(stream) for _ in range(CORPUS_ROUNDS)]
    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(workloads.LIB)
    workload.warmup(ctx)
    ready_at = time.monotonic()
    # Set-up is too short to bracket, so its speed factor comes from the
    # median of three reference loops right after it.
    speed = REFERENCE_NOMINAL_S / sorted(reference_s() for _ in range(3))[1]
    out = {"ready_at": ready_at, "speed_factor": speed, "corpus": corpus_record(rounds)}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "fixed":
        total = FIXED_ROUNDS[args.workload]
    else:
        total = timed_rounds(args.workload, args.seconds, len(rounds[0]))
    stats = new_stats()
    done = 0
    try:
        while done < total:
            ops = rounds[done] if done < len(rounds) else next(stream)
            run_ops(workload, ctx, ops, stats, tracer)
            done += 1
    except OracleError as exc:
        print(f"wrong answer in {args.workload} (seed {args.seed}): {exc}", file=sys.stderr)
        return 3
    out.update(stats, rounds_run=done)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace_out)
        values = tracer.metrics(stats["attempted"], stats["failed"], 0.0)
        out["per_layer"] = {
            name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER
        }
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
