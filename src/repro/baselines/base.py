"""Common interface for checkpoint/checkout methods (§7.1 of the paper).

Every method — Kishu itself and the five baselines — implements
:class:`CheckpointMethod`: it observes cell executions on a kernel, writes
checkpoints, and can restore the state as of any earlier cell. The
benchmark harness measures three quantities through this interface,
matching the paper's methodology:

* checkpoint time (tracking + data writing) after each cell execution,
* cumulative checkpoint storage,
* checkout time to restore a past state (into the same kernel for Kishu
  and Det-replay; into a fresh namespace for everything else, since the
  baselines cannot restore incrementally).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.kernel.cells import Cell, CellResult
from repro.kernel.kernel import NotebookKernel
from repro.kernel.namespace import AccessRecord


@dataclass
class CheckpointCost:
    """Cost of one per-cell checkpoint."""

    seconds: float
    bytes_written: int
    failed: bool = False
    failure_reason: str = ""


@dataclass
class CheckoutCost:
    """Cost and outcome of restoring one past state."""

    seconds: float
    restored: Optional[Dict[str, Any]]
    kernel_killed: bool = False
    failed: bool = False
    failure_reason: str = ""


class CheckpointMethod:
    """Interface implemented by Kishu and all baselines."""

    #: Human-readable method name, as it appears in the paper's figures.
    name = "abstract"
    #: True when checkout updates the live kernel in place (only Kishu).
    incremental_checkout = False

    def __init__(self, kernel: NotebookKernel) -> None:
        self.kernel = kernel
        self.checkpoint_costs: List[CheckpointCost] = []
        #: Optional repro.bench.disk.SimulatedDisk charging I/O time; the
        #: harness installs one so every method pays the same bandwidth
        #: for the bytes it moves.
        self.disk = None

    def run_cell(
        self, cell: Union[str, Cell], *, raise_on_error: bool = True
    ) -> Tuple[CellResult, CheckpointCost]:
        """Run one cell on the kernel and checkpoint the state after it.

        The cell runs inside an access-recording window whose record
        :meth:`on_cell_executed` receives.
        """
        namespace = self.kernel.user_ns
        namespace.begin_recording()
        try:
            result = self.kernel.run_cell(cell, raise_on_error=raise_on_error)
        finally:
            record = namespace.end_recording()
        return result, self.on_cell_executed(result, record)

    def on_cell_executed(
        self, result: CellResult, record: Optional[AccessRecord]
    ) -> CheckpointCost:
        """Checkpoint the state after one cell execution.

        ``record`` carries the names the cell accessed — only
        application-level methods may use it; page-level methods receive it
        merely to know which heap regions the cell would have rewritten.
        """
        raise NotImplementedError

    def checkout(self, checkpoint_index: int) -> CheckoutCost:
        """Restore the state as of checkpoint ``checkpoint_index``
        (0-based, one checkpoint per executed cell)."""
        raise NotImplementedError

    def total_storage_bytes(self) -> int:
        raise NotImplementedError

    def total_checkpoint_seconds(self) -> float:
        return sum(cost.seconds for cost in self.checkpoint_costs)

    # -- helpers -------------------------------------------------------------

    def _record_cost(self, cost: CheckpointCost) -> CheckpointCost:
        self.checkpoint_costs.append(cost)
        return cost

    def _charge_read(self, n_bytes: int) -> None:
        if self.disk is not None:
            self.disk.charge_read(n_bytes)

    def _charge_write(self, n_bytes: int) -> None:
        if self.disk is not None:
            self.disk.charge_write(n_bytes)


class timed:
    """Context manager measuring wall-clock seconds into ``.seconds``."""

    def __enter__(self) -> "timed":
        self._start = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start
