"""Smoke test of the perf ledger: quick sizes of every workload.

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Each run is a fresh process, as the benchmark command runs it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.ledger.bench import DETERMINISTIC
from benchmarks.ledger.compare import ROOT, Refused, build_ledger, compare, load_benchmark
from benchmarks.ledger.workloads import WORKLOADS

RUN_PY = os.path.join(ROOT, "benchmarks", "ledger", "run.py")

SPEC = load_benchmark()


def _run(tmp_path, workload, trace):
    out = tmp_path / f"{workload}-{trace}.json"
    result = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    with open(out, encoding="utf-8") as handle:
        return json.loads(result.stdout.splitlines()[-1]), json.load(handle)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("ledger")
    return {
        (workload, trace): _run(tmp_path, workload, trace)
        for workload in WORKLOADS
        for trace in (0, 1)
    }


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_run_emits_every_metric_with_its_unit(runs, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line, _ = runs[(workload, trace)]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: metric["unit"] for name, metric in line["metrics"].items()}
        assert got == expected


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_counters_and_fingerprint(runs, workload):
    _, untraced = runs[(workload, 0)]
    _, traced = runs[(workload, 1)]
    assert untraced["fingerprint"] == traced["fingerprint"]
    for counter in DETERMINISTIC:
        assert untraced["counters"][counter] == traced["counters"][counter], counter


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_rows_add_up_to_the_traced_overhead(runs, workload):
    layers = runs[(workload, 1)][1]["layers"]
    cell_rows = sum(r["per_unit_ms"] for r in layers["rows"] if r["kind"] == "cell")
    assert cell_rows == pytest.approx(layers["cell_overhead_mean_ms"], rel=1e-9)


def test_compare_gates_counters_and_refuses_other_inputs(runs):
    records = [record for (_, trace), (_, record) in runs.items() if trace == 0]
    base = build_ledger(records, 1)
    lines, regressed = compare(base, base)
    assert not regressed and not any("REGRESSION" in line for line in lines)

    changed = json.loads(json.dumps(base))
    changed["workloads"]["helpers"]["runs"][0]["counters"]["delta.bytes_hashed"] += 1
    _, regressed = compare(base, changed)
    assert regressed

    changed["workloads"]["helpers"]["runs"][0]["fingerprint"] = "0" * 64
    with pytest.raises(Refused):
        compare(base, changed)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "benchmarks", "ledger"),
        tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    result = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "helpers", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
