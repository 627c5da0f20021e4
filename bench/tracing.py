"""Outside-in tracing: spans around braidforge calls, from the benchmark's side.

Wrappers are installed only in the traced run, at the import sites the
code actually calls through:

* the benchmark's own call sites (``workloads.LIB``);
* ``braidforge.cli``: ``main`` and every layer function it imported;
* ``braidforge.isomaps``: presentation_of, enumerate_homs, in_column_lattice;
* ``braidforge.garside``: conjugate_nf, cycling, decycling, apply_move.

Every span records its name, start, end, parent span and operation id.
Spans stay in memory and are written out when the run ends; self time
is a span's duration minus that of its direct children. A site whose
target no longer exists is skipped, so its metrics read 0.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter

from braidforge import cli, garside, isomaps
from braidforge.errors import ResourceCapError

# Layers whose functions are wrapped where cli imported them. ``words``
# is left out so that ``words.apply_move`` counts only the garside BFS.
CLI_LAYERS = ("bricks", "linking", "presentations", "invariants", "isomaps", "garside")
INTERNAL_SITES = (
    (isomaps, ("presentation_of", "enumerate_homs", "in_column_lattice")),
    (garside, ("conjugate_nf", "cycling", "decycling", "apply_move")),
)
SPAN_NAMES = {"conjugacy_move_sequence_detailed": "conjugacy_move_sequence"}
# Per-layer metrics that are plain sums kept by _count_result.
COUNTED = (
    "invariants.abelianization.matrix_cells",
    "invariants.enumerate_homs.homs",
    "presentations.relators",
    "linking.edges",
    "linking.regions",
    "garside.summit.members",
    "garside.moves_out",
)

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("invariants.abelianization.calls", "count"),
    ("invariants.abelianization.total_ms", "ms"),
    ("invariants.abelianization.matrix_cells", "count"),
    ("invariants.in_column_lattice.calls", "count"),
    ("invariants.in_column_lattice.total_ms", "ms"),
    ("isomaps.check_map.lattice_tests_per_call", "count/call"),
    ("invariants.enumerate_homs.calls", "count"),
    ("invariants.enumerate_homs.total_ms", "ms"),
    ("invariants.enumerate_homs.homs", "count"),
    ("invariants.hom_count.calls", "count"),
    ("invariants.hom_count.total_ms", "ms"),
    ("invariants.cap_skips", "count"),
    ("isomaps.check_map.calls", "count"),
    ("isomaps.check_map.total_ms", "ms"),
    ("isomaps.check_map.self_ms", "ms"),
    ("isomaps.check_map.targets_checked_ratio", "ratio"),
    ("isomaps.check_map.relabeling_ratio", "ratio"),
    ("isomaps.move_map.calls", "count"),
    ("isomaps.move_map.total_ms", "ms"),
    ("isomaps.move_map.self_ms", "ms"),
    ("isomaps.move_map.presentations_per_call", "count/call"),
    ("presentations.presentation_of.calls", "count"),
    ("presentations.presentation_of.total_ms", "ms"),
    ("presentations.relators", "count"),
    ("linking.build_graph.calls", "count"),
    ("linking.build_graph.total_ms", "ms"),
    ("linking.edges", "count"),
    ("linking.regions", "count"),
    ("bricks.build_bricks.calls", "count"),
    ("bricks.build_bricks.total_ms", "ms"),
    ("garside.normal_form.calls", "count"),
    ("garside.normal_form.total_ms", "ms"),
    ("garside.summit.calls", "count"),
    ("garside.summit.total_ms", "ms"),
    ("garside.summit.members", "count"),
    ("garside.conjugate_nf.calls", "count"),
    ("garside.conjugate_nf.useful_ratio", "ratio"),
    ("garside.cycling.calls", "count"),
    ("garside.decycling.calls", "count"),
    ("garside.are_conjugate.calls", "count"),
    ("garside.are_conjugate.total_ms", "ms"),
    ("garside.conjugacy_move_sequence.calls", "count"),
    ("garside.conjugacy_move_sequence.total_ms", "ms"),
    ("garside.moves_out", "count"),
    ("garside.search_found_ratio", "ratio"),
    ("words.apply_move.calls", "count"),
    ("garside.cap_errors", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def _count_result(counts: Counter, name: str, args: tuple, result) -> None:
    """Counters read off a call's arguments and result, at the span boundary."""
    if name == "presentations.presentation_of":
        counts["presentations.relators"] += len(result.relators)
    elif name == "linking.build_graph":
        counts["linking.edges"] += len(result.edges)
        counts["linking.regions"] += len(result.regions)
    elif name == "invariants.abelianization":
        counts["invariants.abelianization.matrix_cells"] += (
            args[0].n_generators * len(args[0].relators)
        )
    elif name == "invariants.enumerate_homs":
        counts["invariants.enumerate_homs.homs"] += len(result)
    elif name == "isomaps.check_map":
        if result.method == "relabeling":
            counts["check_map.relabeling"] += 1
        else:
            counts["check_map.targets_checked"] += len(result.checked_targets)
            counts["check_map.targets_tried"] += (
                len(result.checked_targets) + len(result.skipped_targets)
            )
    elif name == "garside.summit":
        counts["garside.summit.members"] += len(result.summit_set)
    elif name == "garside.conjugacy_move_sequence":
        counts["garside.moves_out"] += len(result.moves)
        counts["conjugacy_move_sequence.search_found"] += result.method == "search-found"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.counts: Counter = Counter()
        self.op: int | None = None  # set by the caller around each timed operation
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, owner, attr: str) -> None:
        """Replace owner.attr by a traced wrapper; a missing target is skipped."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        name = span_name(fn)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else None, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except ResourceCapError:
                counts[name + ".cap_errors"] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter_ns()
            _count_result(counts, name, args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, fn))

    def install(self, lib) -> None:
        for attr in list(vars(lib)):
            self.wrap(lib, attr)
        self.wrap(cli, "main")
        for attr, fn in list(vars(cli).items()):
            if inspect.isfunction(fn) and not attr.startswith("_") and (
                fn.__module__.rpartition(".")[2] in CLI_LAYERS
            ):
                self.wrap(cli, attr)
        for module, attrs in INTERNAL_SITES:
            for attr in attrs:
                self.wrap(module, attr)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total_ms and self_ms per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - inner) / 1e6
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        total = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            total += parent is not None
        return total

    def write(self, path) -> None:
        fields = ["name", "start_ns", "end_ns", "parent", "op"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans, "counts": self.counts}, fh)

    def metrics(self, attempted: int, failed: int, overhead_ratio: float) -> dict[str, float]:
        """Every PER_LAYER metric, by name."""
        rows = self.summary()
        counts = self.counts

        def stat(name: str, field: str) -> float:
            return rows.get(name, {}).get(field, 0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        values: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            head, _, field = metric.rpartition(".")
            if field in ("calls", "total_ms", "self_ms"):
                values[metric] = stat(head, field)
        for metric in COUNTED:
            values[metric] = counts[metric]
        values["isomaps.check_map.lattice_tests_per_call"] = ratio(
            stat("invariants.in_column_lattice", "calls"), stat("isomaps.check_map", "calls")
        )
        values["invariants.cap_skips"] = (
            counts["invariants.enumerate_homs.cap_errors"] + counts["invariants.hom_count.cap_errors"]
        )
        values["isomaps.check_map.targets_checked_ratio"] = ratio(
            counts["check_map.targets_checked"], counts["check_map.targets_tried"]
        )
        values["isomaps.check_map.relabeling_ratio"] = ratio(
            counts["check_map.relabeling"], stat("isomaps.check_map", "calls")
        )
        values["isomaps.move_map.presentations_per_call"] = ratio(
            self.calls_under("presentations.presentation_of", "isomaps.move_map"),
            stat("isomaps.move_map", "calls"),
        )
        values["garside.conjugate_nf.useful_ratio"] = ratio(
            counts["garside.summit.members"] - stat("garside.summit", "calls"),
            self.calls_under("garside.conjugate_nf", "garside.summit"),
        )
        values["garside.search_found_ratio"] = ratio(
            counts["conjugacy_move_sequence.search_found"],
            stat("garside.conjugacy_move_sequence", "calls"),
        )
        values["garside.cap_errors"] = sum(
            n for key, n in counts.items() if key.startswith("garside.") and key.endswith(".cap_errors")
        )
        values["fail_ratio"] = ratio(failed, attempted)
        values["trace.overhead_ratio"] = overhead_ratio
        return {metric: values[metric] for metric, _ in PER_LAYER}


def span_name(fn) -> str:
    layer = fn.__module__.rpartition(".")[2]
    return f"{layer}.{SPAN_NAMES.get(fn.__name__, fn.__name__)}"
