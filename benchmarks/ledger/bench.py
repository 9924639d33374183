"""One workload run: set up, measure, check, and fold into a ledger record.

End-to-end metrics come from an untraced run (``trace=False``); a traced
run installs the layer wrappers of :mod:`benchmarks.ledger.trace` and
reports the per-layer table instead. Both runs also produce the
deterministic counters, which must match exactly between any two runs of
the same inputs.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import tempfile
from collections import defaultdict
from typing import Any, Dict, List, Optional

from benchmarks.ledger.trace import (
    CommitClock,
    Patches,
    Tracer,
    clock,
    install_enqueue_clock,
    install_layer_spans,
    write_chrome_trace,
)
from benchmarks.ledger.workloads import WORKLOADS, Driver, Samples, fingerprint

SCHEMA_VERSION = 1
#: Passes a run always makes, whatever ``seconds`` says, so that every
#: workload has at least 100 cells and 100 checkouts behind its p90.
MIN_PASSES = 2
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: The end-to-end metrics of ``BENCHMARK.json``. Every record also holds
#: ``cell_overhead_ms_p90`` and ``durable_ms_p50``/``_p90``, whose
#: run-to-run spread is too wide for a regression bound, and
#: ``failed_ops_frac``, which is 0 on a healthy run (the benchmark's
#: ``failed``/``attempted`` carry it).
END_TO_END = (
    "setup_s",
    "cell_overhead_ms_p50",
    "checkout_ms_p50",
    "checkout_ms_p90",
    "stored_bytes_per_cell",
    "peak_rss_mb",
)

#: Counters that repeat exactly for the same inputs; ``compare`` gates on them.
DETERMINISTIC = (
    "commits",
    "checkouts",
    "cell_errors",
    "stored_bytes_per_cell",
    "delta.bytes_hashed",
    "delta.objects_visited",
    "checkout.resync_sources",
    "checkout.cells_replayed",
)


class SetupDone(Exception):
    """Raised at the first timed cell by a set-up-only run."""


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(
    name: str,
    seed: int,
    *,
    seconds: float,
    trace: bool,
    quick: bool,
    started: float,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """Run workload ``name`` and return its ledger record.

    ``started`` is the process-start timestamp (``trace.clock``) that
    ``setup_s`` is measured from. The seeded pass runs whole
    :data:`MIN_PASSES` times, each on fresh stores, then again while
    another pass as long as the longest so far still fits in ``seconds``
    from the first timed cell.
    """
    build_units, run_units = WORKLOADS[name]
    units = build_units(seed, quick)
    tracer = Tracer() if trace else None
    commits = CommitClock(tracer)
    samples = Samples()
    driver = Driver(samples, tracer)
    ready: List[float] = []

    def on_ready() -> None:
        if not ready:
            ready.append(clock())
            if setup_only:
                raise SetupDone

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    first_pass: Dict[str, float] = {}
    passes = 0
    longest = 0.0
    try:
        with Patches() as patches:
            install_enqueue_clock(patches, commits)
            if tracer is not None:
                install_layer_spans(patches, tracer)
            while True:
                pass_start = clock()
                run_units(units, driver, tmp, commits, on_ready)
                passes += 1
                if passes == 1:
                    first_pass = _counters(samples)
                longest = max(longest, clock() - max(pass_start, ready[0]))
                if passes >= MIN_PASSES and clock() - ready[0] + longest > seconds:
                    break
            commits.emit_traces()
    except SetupDone:
        return {"setup_s": ready[0] - started}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(samples.failures)
    attempted = samples.commits + samples.checkouts
    record: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "workload": name,
        "seed": seed,
        "quick": quick,
        "trace": trace,
        "passes": passes,
        "fingerprint": fingerprint(units),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": samples.failures[:10],
        "counters": first_pass,
        "metrics": _end_to_end(samples, commits, ready[0] - started),
    }
    if tracer is not None:
        layers = fold(tracer)
        layers["cell_overhead_mean_ms"] = statistics.fmean(samples.overhead_s) * 1e3
        record["layers"] = layers
        record["per_layer"] = _per_layer(layers, samples)
        stem = os.path.join(OUT_DIR, f"{name}-seed{seed}")
        write_chrome_trace(tracer, stem + ".trace.json")
        with open(stem + ".layers.txt", "w", encoding="utf-8") as handle:
            handle.write(format_layers(record))
    return record


def _counters(samples: Samples) -> Dict[str, float]:
    counters = dict(samples.counters)
    counters.update(
        commits=samples.commits,
        checkouts=samples.checkouts,
        cell_errors=samples.cell_errors,
        stored_bytes_per_cell=counters.get("stored_bytes", 0) / max(samples.commits, 1),
    )
    return counters


def _metric(value: float, unit: str, samples: Optional[int] = None) -> Dict[str, Any]:
    metric: Dict[str, Any] = {"value": value, "unit": unit}
    if samples is not None:
        metric["samples"] = samples
    return metric


def _end_to_end(samples: Samples, commits: CommitClock, setup_s: float) -> Dict[str, Any]:
    metrics = {"setup_s": _metric(setup_s, "s", 1)}
    for prefix, values in (
        ("cell_overhead_ms", samples.overhead_s),
        ("checkout_ms", samples.checkout_s),
        ("durable_ms", commits.durable_s),
    ):
        for label, q in (("p50", 0.5), ("p90", 0.9)):
            metrics[f"{prefix}_{label}"] = _metric(
                percentile(values, q) * 1e3, "ms", len(values)
            )
    counters = _counters(samples)
    metrics["stored_bytes_per_cell"] = _metric(
        counters["stored_bytes_per_cell"], "bytes", samples.commits
    )
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1
    )
    attempted = samples.commits + samples.checkouts
    metrics["failed_ops_frac"] = _metric(
        len(samples.failures) / max(attempted, 1), "ratio", attempted
    )
    return metrics


# -- the folded per-layer table ---------------------------------------------------

#: Per-layer metric name of each span; the rest are ``<span>_ms``.
_SPAN_METRIC = {"serialize": "serialize.ms", "deserialize": "deserialize.ms"}
#: Root span of each trace kind → what its per-unit numbers divide by.
_UNIT_OF = {"cell": "cell", "checkout": "checkout", "queue.commit": "queued commit"}


def fold(tracer: Tracer) -> Dict[str, Any]:
    """Self time per span name and trace kind: calls, p50/p95 per call,
    and total per cell (commit side), per checkout, or per queued commit.
    Residual rows ``cell.unattributed`` and ``checkout.unattributed`` are
    the roots' own self time, minus cell execution for cells."""
    by_id = {span.sid: span for span in tracer.spans}
    covered: Dict[int, float] = defaultdict(float)
    for span in tracer.spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.trace == span.trace:
            covered[parent.sid] += span.end - span.start
    kind_of: Dict[int, str] = {}
    for span in tracer.spans:
        parent = by_id.get(span.parent)
        if parent is None or parent.trace != span.trace:
            kind_of[span.trace] = span.name
    units = {kind: 0 for kind in _UNIT_OF}
    for kind in kind_of.values():
        units[kind] += 1
    calls: Dict[tuple, List[float]] = defaultdict(list)
    for span in tracer.spans:
        kind = kind_of[span.trace]
        self_s = span.end - span.start - covered[span.sid]
        name = span.name
        if name == "cell":
            self_s -= span.args["exec_s"]
            name = "cell.unattributed"
        elif name == "checkout":
            name = "checkout.unattributed"
        elif name == "queue.commit":
            continue
        calls[(kind, name)].append(self_s)
    rows = []
    for (kind, name), values in sorted(calls.items()):
        rows.append(
            {
                "kind": kind,
                "layer": name,
                "calls": len(values),
                "p50_ms": percentile(values, 0.5) * 1e3,
                "p95_ms": percentile(values, 0.95) * 1e3,
                "per_unit_ms": sum(values) * 1e3 / max(units[kind], 1),
            }
        )
    return {"units": units, "rows": rows}


#: Timed per-layer metrics, so a workload that never enters a layer still
#: reports it (as 0).
PER_LAYER_TIMES = (
    "analysis.pre_run_ms",
    "analysis.summaries_view_ms",
    "analysis.post_run_ms",
    "analysis.crossval_ms",
    "delta.detect_ms",
    "serialize.ms",
    "deserialize.ms",
    "storage.write_ms",
    "storage.read_ms",
    "checkout.drain_ms",
    "checkout.plan_ms",
    "checkout.materialize_ms",
    "checkout.replay_ms",
    "checkout.resync_pool_ms",
    "checkout.resync_summaries_ms",
    "queue.enqueue_ms",
    "queue.wait_ms",
    "queue.fsync_ms",
    "cell.unattributed_ms",
    "checkout.unattributed_ms",
)
#: Times that are 0 on some workload stay in the ledger record but out of
#: ``BENCHMARK.json``: no replay runs on big_edit and service, and only
#: service has a queue.
LEDGER_ONLY = ("checkout.replay_ms", "queue.enqueue_ms", "queue.wait_ms", "queue.fsync_ms")


def _per_layer(layers: Dict[str, Any], samples: Samples) -> Dict[str, Any]:
    """Every timed layer's self time per unit, and per-unit counters."""
    metrics = {name: _metric(0.0, "ms") for name in PER_LAYER_TIMES}
    for row in layers["rows"]:
        name = _SPAN_METRIC.get(row["layer"], row["layer"] + "_ms")
        metrics[name] = _metric(row["per_unit_ms"], "ms", row["calls"])
    counters = samples.counters

    def per(name: str, denominator: float) -> float:
        return counters.get(name, 0) / denominator if denominator else 0.0

    cells, checkouts = samples.commits, samples.checkouts
    lookups, batches = counters.get("delta.cache_lookups", 0), counters.get("queue.batches", 0)
    for name, value, unit in (
        ("analysis.escalation_frac", per("analysis.escalations", cells), "ratio"),
        ("delta.objects_visited", per("delta.objects_visited", cells), "count"),
        ("delta.bytes_hashed", per("delta.bytes_hashed", cells), "bytes"),
        ("delta.cache_hit_ratio", per("delta.cache_hits", lookups), "ratio"),
        ("serialize.bytes", per("serialize.bytes", cells), "bytes"),
        ("storage.bytes_written", per("storage.bytes_written", cells), "bytes"),
        ("checkout.bytes_loaded", per("checkout.bytes_loaded", checkouts), "bytes"),
        ("checkout.cells_replayed", per("checkout.cells_replayed", checkouts), "count"),
        ("checkout.resync_sources", per("checkout.resync_sources", checkouts), "count"),
        ("queue.batch_size", per("queue.written", batches), "count"),
        ("queue.depth_max", counters.get("queue.depth_max", 0), "count"),
    ):
        metrics[name] = _metric(value, unit)
    return metrics


def format_layers(record: Dict[str, Any]) -> str:
    """The folded per-layer table as text, with the additivity check:
    commit-side rows per cell sum to the traced mean cell overhead."""
    layers = record["layers"]
    lines = [
        f"{record['workload']} seed {record['seed']}: self time per layer (traced run)",
        f"{'per':<14}{'layer':<32}{'calls':>7}{'p50_ms':>10}{'p95_ms':>10}{'per_unit_ms':>13}",
    ]
    for row in layers["rows"]:
        lines.append(
            f"{_UNIT_OF[row['kind']]:<14}{row['layer']:<32}{row['calls']:>7}"
            f"{row['p50_ms']:>10.3f}{row['p95_ms']:>10.3f}{row['per_unit_ms']:>13.3f}"
        )
    cell_sum = sum(row["per_unit_ms"] for row in layers["rows"] if row["kind"] == "cell")
    metrics = record["metrics"]
    lines.append(
        f"cell rows sum to {cell_sum:.3f} ms per cell; traced overhead per cell:"
        f" mean {layers['cell_overhead_mean_ms']:.3f} ms,"
        f" p50 {metrics['cell_overhead_ms_p50']['value']:.3f} ms"
    )
    return "\n".join(lines) + "\n"
