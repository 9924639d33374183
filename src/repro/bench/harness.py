"""Shared measurement harness for the paper's experiments (§7.1).

Implements the paper's methodology: run notebook cells sequentially,
checkpoint after each cell execution, then measure checkout either into
the same kernel (Kishu, Det-replay) or into a fresh kernel (everything
else — those methods cannot restore incrementally).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.baselines.base import CheckoutCost, CheckpointMethod
from repro.kernel.kernel import NotebookKernel
from repro.tracking.base import Tracker
from repro.workloads.spec import NotebookSpec

MethodFactory = Callable[[NotebookKernel], CheckpointMethod]
TrackerFactory = Callable[[NotebookKernel], Tracker]


@dataclass
class MethodRun:
    """One notebook executed under one checkpoint method."""

    spec: NotebookSpec
    method: CheckpointMethod
    kernel: NotebookKernel
    notebook_runtime: float
    checkpoint_failures: int

    @property
    def total_checkpoint_seconds(self) -> float:
        return self.method.total_checkpoint_seconds()

    @property
    def total_storage_bytes(self) -> int:
        return self.method.total_storage_bytes()

    @property
    def checkpoint_overhead_fraction(self) -> float:
        if self.notebook_runtime <= 0:
            return 0.0
        return self.total_checkpoint_seconds / self.notebook_runtime


def run_notebook_with_method(
    spec: NotebookSpec, factory: MethodFactory, *, disk=None
) -> MethodRun:
    """Run every cell, checkpointing after each one (§7.1 methodology).

    ``disk`` (a :class:`repro.bench.disk.SimulatedDisk`) charges every
    method the same bandwidth for checkpoint I/O; None charges nothing.
    """
    kernel = NotebookKernel()
    method = factory(kernel)
    method.disk = disk
    failures = 0
    runtime = 0.0
    for cell in spec.cells:
        result, cost = method.run_cell(cell)
        runtime += result.duration
        if cost.failed:
            failures += 1
    return MethodRun(
        spec=spec,
        method=method,
        kernel=kernel,
        notebook_runtime=runtime,
        checkpoint_failures=failures,
    )


def run_notebook_with_tracker(
    spec: NotebookSpec, factory: TrackerFactory
) -> Tuple[Tracker, float]:
    """Run every cell under a state tracker; returns (tracker, runtime)."""
    kernel = NotebookKernel()
    tracker = factory(kernel)
    runtime = 0.0
    for cell in spec.cells:
        tracker.before_cell(cell)
        kernel.user_ns.begin_recording()
        result = kernel.run_cell(cell)
        record = kernel.user_ns.end_recording()
        runtime += result.duration
        tracker.after_cell(result, record)
    return tracker, runtime


@dataclass
class UndoMeasurement:
    """One §7.5.1 undo: roll back the state across one cell execution."""

    cell_index: int
    cost: CheckoutCost


def undo_experiment(
    spec: NotebookSpec,
    factory: MethodFactory,
    *,
    max_targets: int = 3,
    disk=None,
) -> Tuple[MethodRun, List[UndoMeasurement]]:
    """Fig 15: undo tagged cells by checking out the pre-execution state.

    Follows the paper's §7.5.1 semantics: the undo happens immediately
    after the target cell executes — the user sees an undesirable result
    and rolls the session back across that one cell. Incremental methods
    are then returned to the post-cell state so the notebook can continue;
    fresh-kernel methods restore into a separate kernel, leaving the
    original session untouched.
    """
    kernel = NotebookKernel()
    method = factory(kernel)
    method.disk = disk
    failures = 0
    runtime = 0.0
    targets = set(spec.undo_target_indices[:max_targets])
    measurements: List[UndoMeasurement] = []

    for index, cell in enumerate(spec.cells):
        result, cost = method.run_cell(cell)
        runtime += result.duration
        if cost.failed:
            failures += 1
        if index in targets and index > 0:
            undo_cost = method.checkout(index - 1)
            measurements.append(UndoMeasurement(cell_index=index, cost=undo_cost))
            if method.incremental_checkout and not undo_cost.failed:
                # Redo: return to the post-cell state to continue the run.
                method.checkout(index)

    run = MethodRun(
        spec=spec,
        method=method,
        kernel=kernel,
        notebook_runtime=runtime,
        checkpoint_failures=failures,
    )
    return run, measurements


@dataclass
class BranchMeasurement:
    """One §7.5.2 branch switch."""

    branch_point: int
    first_branch_tip: int
    switch_cost: CheckoutCost


def branch_experiment(
    spec: NotebookSpec, factory: MethodFactory, *, disk=None
) -> Tuple[MethodRun, Optional[BranchMeasurement]]:
    """Fig 16: run to the end, check out to the pre-model state, re-run the
    remainder (second branch), then measure switching back to the first
    branch's tip."""
    run = run_notebook_with_method(spec, factory, disk=disk)
    branch_point = spec.branch_point_index
    if branch_point is None or branch_point < 0:
        return run, None
    first_branch_tip = len(spec.cells) - 1

    if run.method.incremental_checkout:
        run.method.checkout(branch_point)
    # Re-run the post-branch cells, creating the second branch. For
    # fresh-kernel methods the session simply keeps evolving — they have
    # no in-place rollback, matching how a user would proceed with them.
    for cell in spec.cells[branch_point + 1 :]:
        run.method.run_cell(cell, raise_on_error=False)

    switch_cost = run.method.checkout(first_branch_tip)
    return run, BranchMeasurement(
        branch_point=branch_point,
        first_branch_tip=first_branch_tip,
        switch_cost=switch_cost,
    )


def time_call(func: Callable[[], Any]) -> Tuple[Any, float]:
    """(result, seconds) of one call."""
    started = time.perf_counter()
    result = func()
    return result, time.perf_counter() - started
