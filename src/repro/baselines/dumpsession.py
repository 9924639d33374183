"""DumpSession: whole-session serialization baseline (§7.1).

Models Dill's ``dump_session`` (and ForkIt, §8.2): after each cell the
*entire* user namespace is pickled into one blob. Restore loads the full
blob into a fresh kernel — correct (shared references preserved, the whole
state is one pickle) but never incremental in either direction, and a
single unserializable object fails the whole checkpoint (the paper's
Qiskit failure).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.baselines.base import CheckoutCost, CheckpointCost, CheckpointMethod, timed
from repro.core.serialization import SerializerChain
from repro.errors import DeserializationError, SerializationError
from repro.kernel.cells import CellResult
from repro.kernel.kernel import NotebookKernel
from repro.kernel.namespace import AccessRecord


class DumpSessionMethod(CheckpointMethod):
    """Bulk pickle of the full session state per cell execution."""

    name = "DumpSession"
    incremental_checkout = False

    def __init__(self, kernel: NotebookKernel) -> None:
        super().__init__(kernel)
        self.serializer = SerializerChain()
        self.dumps: List[Optional[tuple]] = []  # (blob, pickler_name) or None

    def on_cell_executed(
        self, result: CellResult, record: Optional[AccessRecord]
    ) -> CheckpointCost:
        items = self.kernel.user_variables()
        with timed() as clock:
            try:
                blob, pickler_name = self.serializer.serialize(set(items), items)
            except SerializationError as exc:
                self.dumps.append(None)
                return self._record_cost(
                    CheckpointCost(
                        seconds=clock.seconds,
                        bytes_written=0,
                        failed=True,
                        failure_reason=str(exc),
                    )
                )
            self._charge_write(len(blob))
        self.dumps.append((blob, pickler_name))
        return self._record_cost(
            CheckpointCost(seconds=clock.seconds, bytes_written=len(blob))
        )

    def checkout(self, checkpoint_index: int) -> CheckoutCost:
        dump = self.dumps[checkpoint_index]
        if dump is None:
            return CheckoutCost(
                seconds=0.0,
                restored=None,
                failed=True,
                failure_reason="checkpoint missing (session dump had failed)",
            )
        blob, pickler_name = dump
        fresh_kernel = NotebookKernel()
        with timed() as clock:
            self._charge_read(len(blob))
            try:
                restored = self.serializer.deserialize(blob, pickler_name, fresh_kernel.user_ns)
            except DeserializationError as exc:
                return CheckoutCost(
                    seconds=clock.seconds,
                    restored=None,
                    failed=True,
                    failure_reason=str(exc),
                )
            for name, value in restored.items():
                fresh_kernel.user_ns.plant(name, value)
        return CheckoutCost(
            seconds=clock.seconds,
            restored=fresh_kernel.user_variables(),
            kernel_killed=False,
        )

    def total_storage_bytes(self) -> int:
        return sum(len(dump[0]) for dump in self.dumps if dump is not None)
