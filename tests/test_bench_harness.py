"""Tests for the benchmark harness, report rendering, and simulated disk."""

from __future__ import annotations

import time

import pytest

from repro.baselines import DetReplayMethod, DumpSessionMethod, KishuMethod
from repro.bench import (
    branch_experiment,
    format_series,
    format_table,
    human_bytes,
    human_seconds,
    run_notebook_with_method,
    run_notebook_with_tracker,
    speedup,
    time_call,
    undo_experiment,
)
from repro.bench.disk import SimulatedDisk, paper_nfs_disk
from repro.tracking import KishuTracker
from repro.workloads.spec import NotebookSpec, make_cells


def tiny_spec() -> NotebookSpec:
    entries = [
        ("x = [1]", ()),
        ("y = x + [2]", ()),
        ("model = sorted(y)", ("model-train",)),
        ("x.append(3)", ("undo-target",)),
    ]
    return NotebookSpec(
        name="Tiny", topic="t", library="l", final=True,
        hidden_states=0, out_of_order_cells=0, cells=make_cells(entries),
    )


def helper_spec() -> NotebookSpec:
    entries = [
        ("xs = [1]", ()),
        ("def push(x):\n    xs.append(x)", ()),
        ("exec('xs.append(3)')", ()),
        ("push(4)", ()),
        ("ys = sorted(xs)", ("deterministic",)),
    ]
    return NotebookSpec(
        name="Helpers", topic="t", library="l", final=True,
        hidden_states=0, out_of_order_cells=0, cells=make_cells(entries),
    )


class TestHarness:
    def test_run_notebook_with_method_counts(self):
        run = run_notebook_with_method(tiny_spec(), KishuMethod)
        assert len(run.method.checkpoint_costs) == 4
        assert run.notebook_runtime > 0
        assert run.checkpoint_overhead_fraction >= 0

    def test_run_notebook_with_tracker(self):
        tracker, runtime = run_notebook_with_tracker(tiny_spec(), KishuTracker)
        assert len(tracker.costs) == 4
        assert runtime > 0

    def test_undo_experiment_continues_after_undo(self):
        run, undos = undo_experiment(tiny_spec(), KishuMethod)
        assert len(undos) == 1
        # Incremental method: kernel was rolled back then redone.
        assert run.kernel.get("x") == [1, 3]

    def test_undo_experiment_fresh_kernel_method(self):
        run, undos = undo_experiment(tiny_spec(), DumpSessionMethod)
        assert undos[0].cost.restored["x"] == [1]
        assert run.kernel.get("x") == [1, 3]  # original untouched

    def test_branch_experiment(self):
        run, measurement = branch_experiment(tiny_spec(), KishuMethod)
        assert measurement is not None
        assert measurement.branch_point == 1
        assert not measurement.switch_cost.failed

    def test_branch_experiment_no_branch_point(self):
        entries = [("a = 1", ()), ("b = 2", ())]
        spec = NotebookSpec(
            name="NoModels", topic="t", library="l", final=True,
            hidden_states=0, out_of_order_cells=0, cells=make_cells(entries),
        )
        _, measurement = branch_experiment(spec, KishuMethod)
        assert measurement is None

    def test_time_call(self):
        value, seconds = time_call(lambda: 42)
        assert value == 42
        assert seconds >= 0


class TestHookDrivenKishu:
    """The harness runs Kishu through the kernel hooks, as a user's
    session runs: every cell is analysed and cross-validated."""

    def test_every_cell_is_analysed_and_cross_validated(self):
        spec = helper_spec()
        session = run_notebook_with_method(spec, KishuMethod).method.session
        assert session.analysis_stats.cells_analyzed == len(spec.cells)
        assert session.summaries.next_index == len(spec.cells)
        assert session.metrics[2].escalated  # the exec cell

    def test_det_replay_skips_storage_on_deterministic_cells(self):
        kishu = run_notebook_with_method(helper_spec(), KishuMethod)
        det = run_notebook_with_method(helper_spec(), DetReplayMethod)
        assert kishu.method.checkpoint_costs[-1].bytes_written > 0
        assert det.method.checkpoint_costs[-1].bytes_written == 0
        assert "ys" not in det.method.checkout(3).restored
        assert det.method.checkout(4).restored["ys"] == [1, 3, 4]


class TestSimulatedDisk:
    def test_charges_time_proportional_to_bytes(self):
        disk = SimulatedDisk(read_bandwidth=10e6, write_bandwidth=10e6)
        started = time.perf_counter()
        disk.charge_write(1_000_000)  # 0.1 s at 10 MB/s
        elapsed = time.perf_counter() - started
        assert 0.05 < elapsed < 0.5
        assert disk.bytes_written == 1_000_000
        assert disk.seconds_charged > 0

    def test_zero_bytes_free(self):
        disk = SimulatedDisk()
        disk.charge_read(0)
        assert disk.seconds_charged == 0

    def test_paper_disk_bandwidths(self):
        disk = paper_nfs_disk()
        assert disk.read_bandwidth > disk.write_bandwidth  # 519.8 vs 358.9 MB/s

    def test_methods_accept_disk(self):
        disk = SimulatedDisk(read_bandwidth=1e12, write_bandwidth=1e12)
        run = run_notebook_with_method(tiny_spec(), KishuMethod, disk=disk)
        assert disk.bytes_written > 0
        cost = run.method.checkout(0)
        assert not cost.failed
        assert disk.bytes_read >= 0


class TestReportRendering:
    def test_human_bytes(self):
        assert human_bytes(512) == "512B"
        assert human_bytes(1536) == "1.5KB"
        assert human_bytes(3 * 1024 * 1024) == "3.0MB"

    def test_human_seconds(self):
        assert human_seconds(0.0000005).endswith("us")
        assert human_seconds(0.25) == "250.0ms"
        assert human_seconds(3.5) == "3.50s"

    def test_format_table_alignment(self):
        table = format_table(["A", "Blong"], [["x", 1], ["yy", 22]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "Blong" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_format_series(self):
        out = format_series("s", [1, 2], [10, 20])
        assert out == "s: 1=10, 2=20"

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(1.0, 0.0) == float("inf")
