"""Fault-injecting wrappers that compose over real components.

:class:`FaultInjectingStore` wraps any
:class:`~repro.core.storage.CheckpointStore` and consults a
:class:`~repro.faults.plan.FaultScript` before delegating each
operation. It also keeps an ``op_log`` of every operation attempted —
the fault-free trace is the kill-point universe the crash harness
enumerates. After a :class:`~repro.errors.SimulatedCrash` fires, the
wrapper is *dead*: every further operation raises, like a process whose
storage connection died with it. The harness then "reboots" by reopening
the underlying store (closing a SQLite connection mid-transaction rolls
back, exactly as a real crash would).

:class:`FaultInjectingSerializer` wraps a
:class:`~repro.core.serialization.SerializerChain` the same way for the
``serialize`` operation domain, turning fired rules into
:class:`~repro.errors.SerializationError` so the session's tombstone /
fallback-recomputation path is exercised.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.covariable import CoVarKey
from repro.core.serialization import SerializerChain
from repro.core.storage import (
    CheckpointStore,
    RecoveryReport,
    StoredNode,
    StoredPayload,
)
from repro.errors import (
    PermanentStorageError,
    SerializationError,
    SimulatedCrash,
)
from repro.faults.plan import FaultPlan, FaultScript, _SerializationFaultSignal
from repro.obs import EventType


class FaultInjectingStore(CheckpointStore):
    """A checkpoint store that misbehaves on schedule.

    Faults fire *before* the operation reaches the inner store, so a
    failed write leaves no partial effect of its own — partiality only
    arises from the sequence being cut short, which is precisely what
    the atomic commit protocol must tolerate.
    """

    def __init__(
        self, inner: CheckpointStore, plan: Optional[FaultPlan] = None
    ) -> None:
        self.inner = inner
        self.script: FaultScript = (plan or FaultPlan.none()).script()
        self.op_log: List[str] = []
        # Crash state is shared with every for_session() sibling view:
        # one simulated disk died for all sessions at once.
        self._crash_cell: List[bool] = [False]

    @property
    def crashed(self) -> bool:
        return self._crash_cell[0]

    @crashed.setter
    def crashed(self, value: bool) -> None:
        self._crash_cell[0] = value

    @property
    def session_id(self) -> str:  # type: ignore[override]
        return self.inner.session_id

    def for_session(self, session_id: str, **kwargs: Any) -> "FaultInjectingStore":
        """A sibling wrapper over the inner store's session view, sharing
        this wrapper's fault script, op log, and crash state — so one
        fault plan spans the whole fleet."""
        view = FaultInjectingStore.__new__(FaultInjectingStore)
        view.inner = self.inner.for_session(session_id, **kwargs)
        view.script = self.script
        view.op_log = self.op_log
        view._crash_cell = self._crash_cell
        return view

    # -- gate ------------------------------------------------------------------

    def _gate(self, op: str, detail: str = "") -> None:
        if self.crashed:
            raise PermanentStorageError(
                f"store unreachable: simulated process crash already occurred "
                f"(attempted {op})"
            )
        self.op_log.append(f"{op}:{detail}" if detail else op)
        try:
            self.script.check(op, detail)
        except SimulatedCrash:
            self.crashed = True
            self.observer.event(
                EventType.FAULT_INJECTED, kind="crash", op=op, detail=detail
            )
            raise
        except _SerializationFaultSignal as signal:
            # A serialization rule aimed at a store op degenerates to a
            # permanent storage fault — the nearest meaningful behaviour.
            self.observer.event(
                EventType.FAULT_INJECTED, kind="permanent", op=op, detail=detail
            )
            raise PermanentStorageError(str(signal)) from None
        except Exception as exc:
            self.observer.event(
                EventType.FAULT_INJECTED,
                kind=type(exc).__name__,
                op=op,
                detail=detail,
            )
            raise

    # -- delegated operations --------------------------------------------------

    def write_node(self, node: StoredNode) -> None:
        self._gate("write_node", node.node_id)
        self.inner.write_node(node)

    def read_nodes(self) -> List[StoredNode]:
        self._gate("read_nodes")
        return self.inner.read_nodes()

    def write_payload(self, payload: StoredPayload) -> None:
        self._gate("write_payload", payload.node_id)
        self.inner.write_payload(payload)

    def read_payload(self, node_id: str, key: CoVarKey) -> StoredPayload:
        self._gate("read_payload", node_id)
        return self.inner.read_payload(node_id, key)

    def payloads_of(self, node_id: str) -> List[StoredPayload]:
        self._gate("payloads_of", node_id)
        return self.inner.payloads_of(node_id)

    def total_payload_bytes(self) -> int:
        return self.inner.total_payload_bytes()

    def begin_checkpoint(self, node_id: str) -> None:
        self._gate("begin_checkpoint", node_id)
        self.inner.begin_checkpoint(node_id)

    def commit_checkpoint(self, node_id: str) -> None:
        self._gate("commit_checkpoint", node_id)
        self.inner.commit_checkpoint(node_id)

    def rollback_checkpoint(self, node_id: str) -> None:
        self._gate("rollback_checkpoint", node_id)
        self.inner.rollback_checkpoint(node_id)

    @property
    def in_checkpoint(self) -> bool:
        return self.inner.in_checkpoint

    def recover(self) -> RecoveryReport:
        # Delegate the sweep, but publish through the wrapper's observer
        # (the inner store usually has none bound): harnesses read
        # ``recovery`` events from the session's log after a reboot.
        report = self.inner.recover()
        return self._record_recovery(report)

    def close(self) -> None:
        self.inner.close()

    # -- ungated pass-throughs -------------------------------------------------
    # Lock hygiene, barriers, and registry metadata are not storage I/O:
    # they neither extend the kill-point universe nor consult the script.

    def release_crashed_checkpoint(self) -> None:
        self.inner.release_crashed_checkpoint()

    def flush(self) -> None:
        self.inner.flush()

    def drain(self) -> None:
        self.inner.drain()

    def sync(self) -> None:
        self.inner.sync()

    def list_sessions(self):
        return self.inner.list_sessions()

    def register_session(self, session_id: str, notebook_path: Optional[str] = None, *, status: str = "detached") -> None:
        self.inner.register_session(session_id, notebook_path, status=status)

    def rename_session(self, session_id: str, notebook_path: str) -> None:
        self.inner.rename_session(session_id, notebook_path)

    def set_session_status(self, session_id: str, status: str) -> None:
        self.inner.set_session_status(session_id, status)

    def has_session(self, session_id: str) -> bool:
        return self.inner.has_session(session_id)

    # -- harness helpers -------------------------------------------------------

    def checkpoint_op_count(self) -> int:
        """Checkpoint-protocol operations attempted so far — the size of
        the kill-point universe when recorded under a fault-free plan."""
        return self.script.occurrences("checkpoint")


class SlowStore(CheckpointStore):
    """A store whose *writes* take a configurable wall-clock delay.

    The benchmark companion to :class:`FaultInjectingStore`: the service
    acceptance criterion is that ``commit()`` enqueue latency stays flat
    while the background writer absorbs the injected delay, and this
    wrapper is the injected delay. Reads are untouched.
    """

    def __init__(self, inner: CheckpointStore, write_delay: float) -> None:
        self.inner = inner
        self.write_delay = write_delay

    def _stall(self) -> None:
        if self.write_delay > 0:
            time.sleep(self.write_delay)

    @property
    def session_id(self) -> str:  # type: ignore[override]
        return self.inner.session_id

    def for_session(self, session_id: str, **kwargs: Any) -> "SlowStore":
        return SlowStore(self.inner.for_session(session_id, **kwargs), self.write_delay)

    def write_node(self, node: StoredNode) -> None:
        self._stall()
        self.inner.write_node(node)

    def write_payload(self, payload: StoredPayload) -> None:
        self._stall()
        self.inner.write_payload(payload)

    def begin_checkpoint(self, node_id: str) -> None:
        self.inner.begin_checkpoint(node_id)

    def commit_checkpoint(self, node_id: str) -> None:
        self._stall()
        self.inner.commit_checkpoint(node_id)

    def rollback_checkpoint(self, node_id: str) -> None:
        self.inner.rollback_checkpoint(node_id)

    @property
    def in_checkpoint(self) -> bool:
        return self.inner.in_checkpoint

    def read_nodes(self) -> List[StoredNode]:
        return self.inner.read_nodes()

    def read_payload(self, node_id: str, key: CoVarKey) -> StoredPayload:
        return self.inner.read_payload(node_id, key)

    def payloads_of(self, node_id: str) -> List[StoredPayload]:
        return self.inner.payloads_of(node_id)

    def total_payload_bytes(self) -> int:
        return self.inner.total_payload_bytes()

    def recover(self) -> RecoveryReport:
        report = self.inner.recover()
        return self._record_recovery(report)

    def release_crashed_checkpoint(self) -> None:
        self.inner.release_crashed_checkpoint()

    def flush(self) -> None:
        self.inner.flush()

    def drain(self) -> None:
        self.inner.drain()

    def sync(self) -> None:
        self.inner.sync()

    def list_sessions(self):
        return self.inner.list_sessions()

    def register_session(self, session_id: str, notebook_path: Optional[str] = None, *, status: str = "detached") -> None:
        self.inner.register_session(session_id, notebook_path, status=status)

    def rename_session(self, session_id: str, notebook_path: str) -> None:
        self.inner.rename_session(session_id, notebook_path)

    def set_session_status(self, session_id: str, status: str) -> None:
        self.inner.set_session_status(session_id, status)

    def has_session(self, session_id: str) -> bool:
        return self.inner.has_session(session_id)

    def close(self) -> None:
        self.inner.close()


class FaultInjectingSerializer:
    """SerializerChain wrapper driving the ``serialize`` fault domain."""

    def __init__(
        self,
        inner: Optional[SerializerChain] = None,
        plan: Optional[FaultPlan] = None,
        *,
        script: Optional[FaultScript] = None,
    ) -> None:
        self.inner = inner if inner is not None else SerializerChain()
        # Sharing a script with a FaultInjectingStore lets one plan span
        # both serialization and storage domains with one set of counters.
        self.script = script if script is not None else (plan or FaultPlan.none()).script()

    def serialize(
        self, key: CoVarKey, values: Dict[str, Any]
    ) -> Tuple[bytes, str]:
        try:
            self.script.check("serialize", ",".join(sorted(key)))
        except _SerializationFaultSignal as signal:
            raise SerializationError(key, cause=signal) from signal
        return self.inner.serialize(key, values)

    def deserialize(
        self, data: bytes, serializer: Optional[str], namespace: Optional[Dict[str, Any]] = None
    ) -> Any:
        return self.inner.deserialize(data, serializer, namespace)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)
