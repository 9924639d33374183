"""ElasticNotebook-style session replicator baseline (§7.1).

ElasticNotebook optimizes live *migration*: per checkpoint it profiles
every variable (size and serializability probing) and solves a
store-versus-recompute decision, then writes one replication file for the
whole state. Used as a per-cell checkpointer, this gives it the paper's
observed cost profile:

* smaller files than DumpSession when variables are cheap to recompute
  (the recompute set stores only cell code) — next-best storage on most
  notebooks (Fig 13);
* checkpoint time inflated by the profiling pass — slower than
  DumpSession on some notebooks (Fig 14, §7.4);
* restore is whole-state into a fresh kernel, never incremental, with
  recompute-set cells re-run on load (Fig 15/16).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.baselines.base import CheckoutCost, CheckpointCost, CheckpointMethod, timed
from repro.core.serialization import SerializerChain
from repro.errors import DeserializationError, SerializationError
from repro.kernel.cells import CellResult
from repro.kernel.kernel import NotebookKernel
from repro.kernel.namespace import AccessRecord, filter_user_names


@dataclass
class _Replication:
    """One whole-state replication file."""

    stored_blob: Optional[bytes]
    pickler_name: Optional[str]
    recompute_cells: List[str]  # cell sources to re-run on restore
    size_bytes: int
    #: All cell sources up to this checkpoint, for the checkout-time
    #: fault-tolerance path (full replay if the blob fails to load).
    history_sources: List[str] = None


class ElasticNotebookMethod(CheckpointMethod):
    """Profiling-based store/recompute session replicator."""

    name = "ElasticNotebook"
    incremental_checkout = False

    #: Assumed storage throughput used by the cost model to convert a
    #: variable's size into an estimated write cost (bytes/second) —
    #: the paper testbed's ~360 MB/s NFS write speed, matching the
    #: simulated disk the benchmarks charge I/O through.
    assumed_write_bandwidth = 360 * 1024 * 1024

    def __init__(self, kernel: NotebookKernel) -> None:
        super().__init__(kernel)
        self.serializer = SerializerChain()
        self.replications: List[_Replication] = []
        #: (source, written names, read names, duration) per executed cell.
        self._cell_history: List[Tuple[str, Set[str], Set[str], float]] = []

    def on_cell_executed(
        self, result: CellResult, record: Optional[AccessRecord]
    ) -> CheckpointCost:
        items = self.kernel.user_variables()
        written = filter_user_names(record.sets) if record is not None else set(items)
        read = filter_user_names(record.gets) if record is not None else set()
        self._cell_history.append(
            (result.cell.source, written, read, result.duration)
        )

        with timed() as clock:
            store_names, recompute_cells = self._optimize(items)
            stored = {name: items[name] for name in store_names}
            try:
                blob, pickler_name = self.serializer.serialize(set(stored), stored)
            except SerializationError:
                # Fault tolerance: fall back to recomputing everything.
                blob, pickler_name = None, None
                recompute_cells = [source for source, _, _, _ in self._cell_history]
            size = len(blob) if blob is not None else 0
            self._charge_write(size)
            self.replications.append(
                _Replication(
                    stored_blob=blob,
                    pickler_name=pickler_name,
                    recompute_cells=recompute_cells,
                    size_bytes=size,
                    history_sources=[s for s, _, _, _ in self._cell_history],
                )
            )
        return self._record_cost(
            CheckpointCost(seconds=clock.seconds, bytes_written=size)
        )

    def _optimize(self, items: Dict[str, Any]) -> Tuple[Set[str], List[str]]:
        """The store-versus-recompute decision, with per-variable profiling.

        Profiling *is* the point: each variable is trial-pickled to learn
        its size and serializability (this is the overhead §7.4 describes).
        A variable is stored when its estimated write cost is below the
        cost of re-running its *lineage closure* — the producing cell plus,
        transitively, every cell producing an input it reads (EN's
        dependency-graph cost model): recomputing a variable in a fresh
        kernel replays its whole ancestry.
        """
        store: Set[str] = set()
        recompute_cells: List[str] = []
        producer: Dict[str, int] = {}
        for index, (_, written, _, _) in enumerate(self._cell_history):
            for name in written:
                producer[name] = index

        closure_cost = self._lineage_closure_costs(producer)

        recompute_sources: Set[str] = set()
        for name, value in items.items():
            size = self._profile_size(value)
            producing_cell = producer.get(name)
            if size is None:
                # Unserializable: must recompute.
                if producing_cell is not None:
                    recompute_sources.add(self._cell_history[producing_cell][0])
                continue
            write_cost = size / self.assumed_write_bandwidth
            rerun_cost = (
                closure_cost[producing_cell]
                if producing_cell is not None
                else float("inf")
            )
            if write_cost <= rerun_cost or producing_cell is None:
                store.add(name)
            else:
                recompute_sources.add(self._cell_history[producing_cell][0])

        # Replay order must follow execution order.
        for source, _, _, _ in self._cell_history:
            if source in recompute_sources:
                recompute_cells.append(source)
        return store, recompute_cells

    def _lineage_closure_costs(self, producer: Dict[str, int]) -> List[float]:
        """Per-cell cost of re-running the cell plus its full ancestry."""
        memo: Dict[int, float] = {}

        def closure(index: int) -> float:
            if index in memo:
                return memo[index]
            memo[index] = 0.0  # break dependency cycles from re-executed cells
            _, _, read, duration = self._cell_history[index]
            total = duration
            ancestors: Set[int] = set()
            for name in read:
                dependency = producer.get(name)
                if dependency is not None and dependency != index:
                    ancestors.add(dependency)
            for dependency in ancestors:
                total += closure(dependency)
            memo[index] = total
            return total

        return [closure(index) for index in range(len(self._cell_history))]

    def _profile_size(self, value: Any) -> Optional[int]:
        try:
            blob, _ = self.serializer.serialize({"probe"}, {"probe": value})
            return len(blob)
        except SerializationError:
            return None

    def checkout(self, checkpoint_index: int) -> CheckoutCost:
        replication = self.replications[checkpoint_index]
        fresh_kernel = NotebookKernel()
        with timed() as clock:
            if replication.stored_blob is not None:
                self._charge_read(len(replication.stored_blob))
                try:
                    restored = self.serializer.deserialize(
                        replication.stored_blob, replication.pickler_name, fresh_kernel.user_ns
                    )
                except DeserializationError:
                    # Fault tolerance: a payload that will not load is
                    # reconstructed by replaying the recorded cells.
                    restored = {}
                    for source in replication.history_sources or []:
                        fresh_kernel.run_cell(source, raise_on_error=False)
                for name, value in restored.items():
                    fresh_kernel.user_ns.plant(name, value)
            for source in replication.recompute_cells:
                fresh_kernel.run_cell(source, raise_on_error=False)
        return CheckoutCost(
            seconds=clock.seconds,
            restored=fresh_kernel.user_variables(),
            kernel_killed=False,
        )

    def total_storage_bytes(self) -> int:
        return sum(replication.size_bytes for replication in self.replications)
