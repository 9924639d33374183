"""Ledger files: many run records with per-workload quartiles, and the
comparison of two ledgers.

A ledger (``schema_version`` 1) holds, per workload, the record of every
run and a summary of each end-to-end metric across runs: median, first
and third quartile (``statistics.quantiles(n=4)``) and the spread, the
interquartile distance as a share of the median.

``compare`` judges B against A per workload:

* runs of the same seed must have the same input fingerprint, or the
  comparison is refused;
* deterministic counters must match exactly for every shared seed;
* ``failed_ops_frac`` may not rise at all;
* every metric of ``BENCHMARK.json`` is judged against its bound. A
  metric whose spread, in either ledger, is wider than its bound is
  "unresolved" unless every run of B reads better than every run of A;
* the others (``cell_overhead_ms_p90``, ``durable_ms_*``) are reported
  with their spread only.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from typing import Any, Dict, List, Tuple

from benchmarks.ledger.bench import DETERMINISTIC, SCHEMA_VERSION

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def summarize(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def build_ledger(records: List[Dict[str, Any]], run_seconds: float) -> Dict[str, Any]:
    workloads: Dict[str, Any] = {}
    for record in records:
        entry = workloads.setdefault(record["workload"], {"runs": []})
        entry["runs"].append({k: v for k, v in record.items() if k != "layers"})
    for entry in workloads.values():
        entry["runs"].sort(key=lambda run: run["seed"])
        runs = entry["runs"]
        entry["summary"] = {
            name: {
                "unit": metric["unit"],
                **summarize([run["metrics"][name]["value"] for run in runs]),
            }
            for name, metric in runs[0]["metrics"].items()
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "run_seconds": run_seconds,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "workloads": workloads,
    }


def load_ledger(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        ledger = json.load(handle)
    if ledger.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {ledger.get('schema_version')!r},"
            f" expected {SCHEMA_VERSION}"
        )
    return ledger


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class Refused(Exception):
    """The two ledgers measured different inputs."""


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines, and whether B regressed against A."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in load_benchmark()["end_to_end"]}
    lines: List[str] = []
    regressed = False
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        runs_a = {run["seed"]: run for run in a["workloads"][workload]["runs"]}
        runs_b = {run["seed"]: run for run in b["workloads"][workload]["runs"]}
        lines.append(f"{workload}:")
        for seed in sorted(set(runs_a) & set(runs_b)):
            if runs_a[seed]["fingerprint"] != runs_b[seed]["fingerprint"]:
                raise Refused(
                    f"{workload} seed {seed}: input fingerprints differ"
                    f" ({runs_a[seed]['fingerprint'][:12]} vs"
                    f" {runs_b[seed]['fingerprint'][:12]})"
                )
            for counter in DETERMINISTIC:
                was = runs_a[seed]["counters"].get(counter)
                now = runs_b[seed]["counters"].get(counter)
                if was != now:
                    regressed = True
                    lines.append(f"  COUNTER {counter} seed {seed}: {was} -> {now}")
        for name in runs_a[min(runs_a)]["metrics"]:
            verdict, line = _judge(name, runs_a.values(), runs_b.values(), bounds.get(name))
            regressed |= verdict == "REGRESSION"
            lines.append(f"  {verdict:<11}{line}")
    return lines, regressed


def _judge(name, runs_a, runs_b, bound) -> Tuple[str, str]:
    values_a = [run["metrics"][name]["value"] for run in runs_a]
    values_b = [run["metrics"][name]["value"] for run in runs_b]
    sa, sb = summarize(values_a), summarize(values_b)
    unit = next(iter(runs_a))["metrics"][name]["unit"]
    line = (
        f"{name:<24} {sa['median']:.4g} -> {sb['median']:.4g} {unit}"
        f" (spread {sa['spread']:.1%} / {sb['spread']:.1%})"
    )
    if name == "failed_ops_frac":
        rose = statistics.fmean(values_b) > statistics.fmean(values_a)
        return ("REGRESSION" if rose else "ok"), line
    if bound is None:
        return "info", line
    limit, better = bound
    sign = 1 if better == "lower" else -1
    worse = sign * (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
    line += f" {worse:+.1%} worse, bound {limit:.0%}"
    if max(sa["spread"], sb["spread"]) > limit:
        if all(sign * (vb - va) < 0 for va in values_a for vb in values_b):
            return "better", line
        return "unresolved", line
    return ("REGRESSION" if worse > limit else "ok"), line
