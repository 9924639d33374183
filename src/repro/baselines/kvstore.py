"""Variable-level KV-store baseline: the shared-reference breaker.

On-disk key-value stores (shelve, %store magic, redis-shelve — §8.3 of the
paper) persist each variable *independently*. That makes them appear
incremental, but pickling variables separately severs references shared
*between* variables: two names aliasing one list come back as two distinct
lists. This baseline exists to demonstrate the correctness failure that
motivates the co-variable granularity (§2.4) — the correctness tests
assert that it breaks exactly where Kishu does not.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.baselines.base import CheckoutCost, CheckpointCost, CheckpointMethod, timed
from repro.core.serialization import SerializerChain
from repro.errors import DeserializationError, SerializationError
from repro.kernel.cells import CellResult
from repro.kernel.kernel import NotebookKernel
from repro.kernel.namespace import AccessRecord, filter_user_names


class KVStoreMethod(CheckpointMethod):
    """Per-variable pickling into a versioned key-value store."""

    name = "KV-store"
    incremental_checkout = False

    def __init__(self, kernel: NotebookKernel) -> None:
        super().__init__(kernel)
        self.serializer = SerializerChain()
        #: versions[i] maps name -> (blob, pickler) for the state after cell i.
        self.versions: List[Dict[str, Optional[Tuple[bytes, str]]]] = []
        self._store: Dict[str, Optional[Tuple[bytes, str]]] = {}

    def on_cell_executed(
        self, result: CellResult, record: Optional[AccessRecord]
    ) -> CheckpointCost:
        items = self.kernel.user_variables()
        touched = (
            filter_user_names(record.accessed) if record is not None else set(items)
        )
        bytes_written = 0
        with timed() as clock:
            for name in list(self._store):
                if name not in items:
                    del self._store[name]
            for name, value in items.items():
                if name in self._store and name not in touched:
                    continue  # unchanged key, keep prior version
                try:
                    blob, pickler = self.serializer.serialize({name}, {name: value})
                    self._store[name] = (blob, pickler)
                    bytes_written += len(blob)
                except SerializationError:
                    self._store[name] = None
            self._charge_write(bytes_written)
            self.versions.append(dict(self._store))
        return self._record_cost(
            CheckpointCost(seconds=clock.seconds, bytes_written=bytes_written)
        )

    def checkout(self, checkpoint_index: int) -> CheckoutCost:
        version = self.versions[checkpoint_index]
        fresh_kernel = NotebookKernel()
        with timed() as clock:
            for name, entry in version.items():
                if entry is None:
                    continue  # variable was unserializable; silently lost
                blob, pickler = entry
                self._charge_read(len(blob))
                try:
                    # Each variable unpickled independently: references
                    # shared between variables are NOT preserved.
                    payload = self.serializer.deserialize(blob, pickler, fresh_kernel.user_ns)
                except DeserializationError:
                    continue
                fresh_kernel.user_ns.plant(name, payload[name])
        return CheckoutCost(
            seconds=clock.seconds,
            restored=fresh_kernel.user_variables(),
            kernel_killed=False,
        )

    def total_storage_bytes(self) -> int:
        total = 0
        for version in self.versions:
            for entry in version.values():
                if entry is not None:
                    total += len(entry[0])
        return total
