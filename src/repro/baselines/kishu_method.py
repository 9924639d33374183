"""Kishu wrapped in the common benchmark interface."""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.baselines.base import CheckoutCost, CheckpointCost, CheckpointMethod, timed
from repro.core.session import KishuSession
from repro.errors import KishuError
from repro.kernel.cells import Cell, CellResult
from repro.kernel.kernel import NotebookKernel


class KishuMethod(CheckpointMethod):
    """Kishu: incremental checkpoint and incremental in-place checkout.

    The session is attached to the kernel, so each cell is analysed,
    cross-validated and committed by the kernel hooks, exactly as in a
    user's notebook.
    """

    name = "Kishu"
    incremental_checkout = True
    session_class = KishuSession

    def __init__(self, kernel: NotebookKernel, **session_kwargs) -> None:
        super().__init__(kernel)
        self.session = self.session_class.init(kernel, **session_kwargs)
        self._node_ids: List[str] = []

    def run_cell(
        self, cell: Union[str, Cell], *, raise_on_error: bool = True
    ) -> Tuple[CellResult, CheckpointCost]:
        """Run one cell; its checkpoint cost is the time the session's
        hooks add to it, plus the simulated write of its payloads."""
        with timed() as clock:
            result = self.kernel.run_cell(cell, raise_on_error=raise_on_error)
            metric = self.session.metrics[-1]
            self._charge_write(metric.bytes_written)
        self._node_ids.append(metric.node_id)
        cost = CheckpointCost(
            seconds=clock.seconds - result.duration,
            bytes_written=metric.bytes_written,
        )
        return result, self._record_cost(cost)

    def checkout(self, checkpoint_index: int) -> CheckoutCost:
        node_id = self._node_ids[checkpoint_index]
        try:
            with timed() as clock:
                report = self.session.checkout(node_id)
                self._charge_read(report.bytes_loaded)
        except KishuError as exc:
            return CheckoutCost(
                seconds=0.0, restored=None, failed=True, failure_reason=repr(exc)
            )
        return CheckoutCost(
            seconds=clock.seconds,
            restored=self.kernel.user_variables(),
            kernel_killed=False,
        )

    def total_storage_bytes(self) -> int:
        return self.session.total_checkpoint_bytes()


class DetReplaySession(KishuSession):
    """Kishu+Det-replay: skips checkpointing after deterministic cells.

    Cells tagged ``"deterministic"`` (manual annotation, §7.1 footnote 6)
    write no payloads; their co-variables are replayed via fallback
    recomputation at checkout — saving storage, sometimes catastrophically
    slow to check out (the paper's Cluster 1050 s case).
    """

    def should_store_delta(self, tags, record, cell_duration) -> bool:
        return "deterministic" not in tags


class DetReplayMethod(KishuMethod):
    """Kishu+Det-replay under the common interface."""

    name = "Kishu+Det-replay"
    session_class = DetReplaySession
