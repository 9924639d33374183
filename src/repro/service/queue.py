"""Write-ahead commit queue: enqueue deltas; a background writer persists.

A session's commit against a :class:`QueuedStore` becomes "enqueue
delta": the session runs the ordinary begin/write/commit protocol, but
the handle captures the whole checkpoint into one record and hands it to
the :class:`CommitQueue` at commit time. The queue's single background
writer thread owns batching, the fsync policy, and
:class:`~repro.core.retry.RetryPolicy` retry against the real store — a
slow or faulting disk therefore never blocks cell execution, and enqueue
latency stays flat regardless of write latency underneath. The writer
applies each record with :func:`~repro.core.storage.persist_checkpoint`,
the same function the synchronous session path calls, so both paths
share one protocol, retry and tombstone degradation.

Ordering and durability contract (DESIGN.md §13):

* **Per-session FIFO.** Commits persist in enqueue order through one
  writer, so any interruption leaves a valid *prefix* of each session's
  history — the same invariant the kill-point harness proves for
  synchronous stores.
* **Barriers.** :meth:`CommitQueue.flush` waits until accepted work is
  applied; :meth:`CommitQueue.drain` is flush plus surfacing recorded
  write failures. Checkout drains first so it only ever sees a
  consistent committed prefix.
* **Poisoned lanes.** A commit the store permanently refuses poisons its
  session's lane: the failure is raised once at the next ``drain()``,
  and later enqueues for that session fail synchronously so the
  session's delta-carryover machinery engages. Other sessions are
  unaffected.
* **Writer crashes.** A :class:`~repro.errors.SimulatedCrash` (or any
  fatal error) in the writer marks the queue dead after releasing the
  store lock it may hold; already-committed prefixes remain readable and
  reopening the store recovers exactly as after a process crash.
* **Adaptive backpressure (DESIGN.md §16).** Beyond the fixed
  ``max_depth`` cap, the queue exposes a three-level pressure ladder —
  ``accept`` → ``degrade_fsync`` (the writer's per-commit
  ``store.sync()`` relaxes to per-batch, trading those extra fsyncs for
  drain throughput; every COMMIT to a file-backed store still fsyncs
  its log) → ``block`` (the effective cap drops to a configured ceiling so
  enqueue blocks until the writer catches up). The health engine's
  :class:`~repro.obs.health.BackpressureController` walks the ladder
  from sustained SLO burn; each transition emits a
  ``backpressure_changed`` event.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.covariable import CoVarKey
from repro.core.retry import RetryPolicy
from repro.core.storage import (
    CheckpointStore,
    RecoveryReport,
    SessionRecord,
    StoredNode,
    StoredPayload,
    persist_checkpoint,
)
from repro.errors import PermanentStorageError, StorageError
from repro.obs import COUNT_BUCKETS, LATENCY_BUCKETS, EventType, NO_OBSERVER, Observer

__all__ = ["CommitQueue", "QueuedStore", "PRESSURE_LEVELS"]

_FSYNC_POLICIES = ("per_commit", "per_batch", "off")

#: The adaptive backpressure ladder, mildest first.
PRESSURE_LEVELS = ("accept", "degrade_fsync", "block")


class _QueuedCommit:
    """One captured checkpoint waiting for the background writer."""

    __slots__ = ("session_id", "node", "payloads")

    def __init__(
        self, session_id: str, node: StoredNode, payloads: Tuple[StoredPayload, ...]
    ) -> None:
        self.session_id = session_id
        self.node = node
        self.payloads = payloads


class CommitQueue:
    """The write-ahead queue and its single background writer thread."""

    #: Ladder exposed for controllers (see module docstring).
    PRESSURE_LEVELS = PRESSURE_LEVELS

    def __init__(
        self,
        store: CheckpointStore,
        *,
        retry: Optional[RetryPolicy] = None,
        observer: Optional[Observer] = None,
        max_batch: int = 8,
        max_depth: int = 256,
        fsync: str = "per_commit",
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if fsync not in _FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {_FSYNC_POLICIES}, got {fsync!r}")
        self._store = store
        self._retry = retry if retry is not None else RetryPolicy()
        self._observer = observer if observer is not None else NO_OBSERVER
        self._max_batch = max_batch
        self._max_depth = max_depth
        self._fsync = fsync
        self._views: Dict[str, CheckpointStore] = {}
        self._active_view: Optional[CheckpointStore] = None

        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)  # writer waits here
        self._progress = threading.Condition(self._lock)  # flushers wait here
        self._pending: Deque[_QueuedCommit] = deque()
        # The batch the writer is applying. Records move from ``_pending``
        # into here under ONE lock acquisition (``_next_batch``) and leave
        # one by one as they are written or recorded failed — so a commit
        # is visible to ``flush()`` at every instant of its life. After a
        # writer crash the unapplied remainder stays here on purpose:
        # flush must not report those records as applied.
        self._in_flight: List[_QueuedCommit] = []
        self._poisoned: Dict[str, str] = {}
        self._failures: Dict[str, List[Tuple[str, str]]] = {}
        self._crashed: Optional[str] = None
        self._stopped = False

        self._enqueued = 0
        self._written = 0
        self._batches = 0
        self._write_failures = 0
        self._max_depth_seen = 0
        self._pressure = "accept"
        self._pressure_ceiling: Optional[int] = None

        self._writer = threading.Thread(
            target=self._run, name="repro-commit-writer", daemon=True
        )
        self._writer.start()

    # -- producer side ---------------------------------------------------------

    def check_writable(self, session_id: str) -> None:
        """Raise if this session's lane cannot accept a commit — called at
        ``begin_checkpoint`` so a session fails fast into delta carryover
        instead of building a checkpoint the queue will refuse."""
        with self._lock:
            self._check_writable_locked(session_id)

    def _check_writable_locked(self, session_id: str) -> None:
        if self._crashed is not None:
            raise StorageError(f"commit queue writer crashed: {self._crashed}")
        if self._stopped:
            raise StorageError("commit queue is stopped")
        error = self._poisoned.get(session_id)
        if error is not None:
            raise PermanentStorageError(
                f"commit lane for session {session_id!r} poisoned by an"
                f" earlier failed write: {error}"
            )

    def enqueue(
        self,
        session_id: str,
        node: StoredNode,
        payloads: List[StoredPayload],
    ) -> None:
        """Accept one checkpoint for asynchronous persistence. Returns as
        soon as the record is queued; blocks only when the queue is at
        ``max_depth`` (bounded-memory backpressure)."""
        record = _QueuedCommit(session_id, node, tuple(payloads))
        with self._lock:
            self._check_writable_locked(session_id)
            while (
                len(self._pending) >= self._effective_cap_locked()
                and self._crashed is None
                and not self._stopped
            ):
                self._progress.wait(0.05)
            self._check_writable_locked(session_id)
            self._pending.append(record)
            depth = len(self._pending)
            self._enqueued += 1
            if depth > self._max_depth_seen:
                self._max_depth_seen = depth
            self._wakeup.notify()
        self._observer.event(
            EventType.COMMIT_ENQUEUED,
            node=node.node_id,
            session=session_id,
            depth=depth,
        )
        self._observer.gauge("service.queue_depth", depth)

    def flush(
        self, session_id: Optional[str] = None, *, timeout: Optional[float] = None
    ) -> None:
        """Barrier: block until every accepted commit (for one session, or
        all) has been applied or recorded as failed. Returns — rather than
        hanging — if the writer has crashed; ``drain`` reports that."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._outstanding_locked(session_id) and self._crashed is None:
                if deadline is not None and time.monotonic() >= deadline:
                    raise StorageError(
                        f"flush timed out after {timeout}s with"
                        f" {len(self._pending)} commit(s) still queued"
                    )
                self._progress.wait(0.05)

    def drain(self, session_id: Optional[str] = None) -> None:
        """:meth:`flush`, then raise any recorded write failures (each is
        reported exactly once) or the writer's crash."""
        self.flush(session_id)
        with self._lock:
            failures: List[Tuple[str, str, str]] = []
            if session_id is None:
                for sid in sorted(self._failures):
                    failures.extend(
                        (sid, node_id, error)
                        for node_id, error in self._failures[sid]
                    )
                self._failures.clear()
            else:
                failures.extend(
                    (session_id, node_id, error)
                    for node_id, error in self._failures.pop(session_id, [])
                )
            crashed = self._crashed
        if failures:
            detail = "; ".join(
                f"{sid}/{node_id}: {error}" for sid, node_id, error in failures
            )
            raise StorageError(
                f"{len(failures)} queued commit(s) failed to persist: {detail}"
            )
        if crashed is not None:
            raise StorageError(f"commit queue writer crashed: {crashed}")

    def _outstanding_locked(self, session_id: Optional[str]) -> bool:
        if session_id is None:
            return bool(self._pending) or bool(self._in_flight)
        return any(
            record.session_id == session_id
            for record in (*self._pending, *self._in_flight)
        )

    def depth(self) -> int:
        with self._lock:
            return len(self._pending) + len(self._in_flight)

    # -- adaptive backpressure -------------------------------------------------

    def _effective_cap_locked(self) -> int:
        """The enqueue cap at the current pressure level. ``block``
        lowers the fixed ``max_depth`` cap to the configured ceiling;
        the milder levels keep it."""
        if self._pressure == "block" and self._pressure_ceiling is not None:
            return min(self._max_depth, self._pressure_ceiling)
        return self._max_depth

    def _effective_fsync_locked(self) -> str:
        """Under pressure, per-commit fsync relaxes to per-batch so the
        writer drains faster; explicit ``per_batch``/``off`` policies
        are already at least that relaxed and stay untouched."""
        if self._pressure != "accept" and self._fsync == "per_commit":
            return "per_batch"
        return self._fsync

    @property
    def pressure(self) -> str:
        with self._lock:
            return self._pressure

    def set_pressure(
        self,
        level: str,
        *,
        ceiling: Optional[int] = None,
        reason: str = "",
    ) -> None:
        """Move the queue to a backpressure level (see module docstring).

        Idempotent per level; every actual transition emits a
        ``backpressure_changed`` event and updates the
        ``service.backpressure`` gauge (the ladder index). Waiting
        producers are woken so a *relaxed* cap admits them promptly.
        """
        if level not in PRESSURE_LEVELS:
            raise ValueError(
                f"pressure must be one of {PRESSURE_LEVELS}, got {level!r}"
            )
        if ceiling is not None and ceiling < 1:
            raise ValueError("ceiling must be >= 1")
        with self._lock:
            previous = self._pressure
            if ceiling is not None:
                self._pressure_ceiling = ceiling
            if level == previous:
                return
            self._pressure = level
            self._progress.notify_all()
            self._wakeup.notify()
        self._observer.event(
            EventType.BACKPRESSURE_CHANGED,
            level=level,
            previous=previous,
            reason=reason,
        )
        self._observer.gauge(
            "service.backpressure", PRESSURE_LEVELS.index(level)
        )

    @property
    def crashed(self) -> bool:
        with self._lock:
            return self._crashed is not None

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "enqueued": self._enqueued,
                "written": self._written,
                "batches": self._batches,
                "write_failures": self._write_failures,
                "max_depth": self._max_depth_seen,
                "poisoned_sessions": sorted(self._poisoned),
                "crashed": self._crashed is not None,
                "pressure": self._pressure,
            }

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the writer; with ``drain`` (default) the queue empties
        first so no accepted commit is lost on a clean shutdown."""
        if drain:
            try:
                self.flush(timeout=timeout)
            except StorageError:
                pass
        with self._lock:
            self._stopped = True
            self._wakeup.notify_all()
            self._progress.notify_all()
        self._writer.join(timeout=timeout)

    # -- background writer -----------------------------------------------------

    def _run(self) -> None:
        try:
            while True:
                batch = self._next_batch()
                if batch is None:
                    return
                self._write_batch(batch)
        except BaseException as exc:  # SimulatedCrash included, by design
            self._on_writer_crash(exc)

    def _next_batch(self) -> Optional[List[_QueuedCommit]]:
        with self._lock:
            while not self._pending and not self._stopped:
                self._wakeup.wait()
            if not self._pending:
                return None
            batch = []
            while self._pending and len(batch) < self._max_batch:
                batch.append(self._pending.popleft())
            # Same lock acquisition as the pop: no instant exists where a
            # record is in neither _pending nor _in_flight.
            self._in_flight = list(batch)
            return batch

    def _write_batch(self, batch: List[_QueuedCommit]) -> None:
        written = 0
        with self._lock:
            fsync = self._effective_fsync_locked()
        for record in batch:
            try:
                if record.session_id in self._poisoned:
                    # FIFO integrity: once a lane lost a commit, later
                    # commits of that session would orphan themselves on
                    # the missing parent — record them as failed too.
                    raise PermanentStorageError(
                        f"lane poisoned: {self._poisoned[record.session_id]}"
                    )
                started = time.perf_counter()
                view = self._active_view = self._view(record.session_id)
                persist_checkpoint(
                    view,
                    record.node,
                    record.payloads,
                    retry=self._retry,
                    observer=self._observer,
                )
                elapsed = time.perf_counter() - started
                written += 1
                if fsync == "per_commit":
                    self._try_sync()
                with self._lock:
                    self._written += 1
                    self._in_flight.remove(record)
                    self._progress.notify_all()
                self._observer.observe(
                    "service.write_latency_seconds", elapsed, LATENCY_BUCKETS
                )
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                with self._lock:
                    self._poisoned.setdefault(record.session_id, error)
                    self._failures.setdefault(record.session_id, []).append(
                        (record.node.node_id, error)
                    )
                    self._write_failures += 1
                    self._in_flight.remove(record)
                    self._progress.notify_all()
                self._observer.event(
                    EventType.QUEUE_WRITE_FAILED,
                    node=record.node.node_id,
                    session=record.session_id,
                    error=error,
                )
            # BaseException (SimulatedCrash) escapes with this record (and
            # the batch remainder) still in _in_flight: flush() must not
            # report them as applied.
        if written and fsync == "per_batch":
            self._try_sync()
        with self._lock:
            depth = len(self._pending)
        self._observer.event(
            EventType.QUEUE_BATCH_WRITTEN,
            batch_size=len(batch),
            sessions=sorted({record.session_id for record in batch}),
        )
        self._observer.observe("service.batch_size", len(batch), COUNT_BUCKETS)
        self._observer.gauge("service.queue_depth", depth)
        with self._lock:
            self._batches += 1

    def _view(self, session_id: str) -> CheckpointStore:
        view = self._views.get(session_id)
        if view is None:
            view = self._store.for_session(session_id)
            self._views[session_id] = view
        return view

    def _try_sync(self) -> None:
        try:
            self._store.sync()
        except Exception:
            pass  # durability barrier is best-effort on faulting disks

    def _on_writer_crash(self, exc: BaseException) -> None:
        error = f"{type(exc).__name__}: {exc}"
        # Lock hygiene before anything else: the dying writer may hold
        # the store's checkpoint lock; releasing it (with rollback) keeps
        # the rest of the process deadlock-free while leaving durable
        # state identical to a real process crash.
        view = self._active_view
        try:
            (view if view is not None else self._store).release_crashed_checkpoint()
        except Exception:
            pass
        with self._lock:
            self._crashed = error
            pending = len(self._pending) + len(self._in_flight)
            self._wakeup.notify_all()
            self._progress.notify_all()
        self._observer.event(
            EventType.QUEUE_WRITER_CRASHED, error=error, pending=pending
        )
        self._observer.count("service.writer_crashes")


class QueuedStore(CheckpointStore):
    """Session-scoped write-ahead handle over a shared store.

    The checkpoint protocol captures writes locally and enqueues the
    whole checkpoint at ``commit_checkpoint`` — so the session's commit
    path returns at memory speed. Reads flush the session's lane first,
    so a session always observes its own accepted commits
    (read-your-writes); checkout calls :meth:`drain` for the stronger
    "consistent committed prefix or an error" guarantee.
    """

    def __init__(self, view: CheckpointStore, queue: CommitQueue) -> None:
        self._view = view
        self._queue = queue
        self.session_id = view.session_id
        self._observer = view.observer
        self._txn_node: Optional[str] = None
        self._staged_node: Optional[StoredNode] = None
        self._staged_payloads: List[StoredPayload] = []
        self.last_recovery = view.last_recovery

    # The session rebinds ``store.observer``; forward it to the durable
    # view so recovery scans and write-side events publish there too.
    @property
    def observer(self) -> Observer:  # type: ignore[override]
        return self._observer

    @observer.setter
    def observer(self, value: Observer) -> None:
        self._observer = value
        self._view.observer = value

    # -- atomic checkpoint protocol (capture side) -----------------------------

    def begin_checkpoint(self, node_id: str) -> None:
        if self._txn_node is not None:
            raise StorageError(
                f"checkpoint {self._txn_node!r} already in progress"
            )
        self._queue.check_writable(self.session_id)
        self._txn_node = node_id
        self._staged_node = None
        self._staged_payloads = []

    def commit_checkpoint(self, node_id: str) -> None:
        if self._txn_node != node_id:
            raise StorageError(
                f"commit_checkpoint({node_id!r}) without matching begin"
            )
        if self._staged_node is None:
            raise StorageError(
                f"checkpoint {node_id!r} has no node row to commit"
            )
        node, payloads = self._staged_node, self._staged_payloads
        self._clear_stage()
        self._queue.enqueue(self.session_id, node, payloads)

    def rollback_checkpoint(self, node_id: str) -> None:
        self._clear_stage()

    def release_crashed_checkpoint(self) -> None:
        self._clear_stage()

    def _clear_stage(self) -> None:
        self._txn_node = None
        self._staged_node = None
        self._staged_payloads = []

    @property
    def in_checkpoint(self) -> bool:
        return self._txn_node is not None

    # -- writes ----------------------------------------------------------------

    def write_node(self, node: StoredNode) -> None:
        if self._txn_node is not None:
            self._staged_node = node
            return
        # Standalone writes stay ordered behind queued commits.
        self._queue.flush(self.session_id)
        self._view.write_node(node)

    def write_payload(self, payload: StoredPayload) -> None:
        if self._txn_node is not None:
            self._staged_payloads.append(payload)
            return
        self._queue.flush(self.session_id)
        self._view.write_payload(payload)

    # -- reads (behind the barrier) --------------------------------------------

    def read_nodes(self) -> List[StoredNode]:
        self._queue.flush(self.session_id)
        return self._view.read_nodes()

    def read_payload(self, node_id: str, key: CoVarKey) -> StoredPayload:
        self._queue.flush(self.session_id)
        return self._view.read_payload(node_id, key)

    def payloads_of(self, node_id: str) -> List[StoredPayload]:
        self._queue.flush(self.session_id)
        return self._view.payloads_of(node_id)

    def total_payload_bytes(self) -> int:
        self._queue.flush(self.session_id)
        return self._view.total_payload_bytes()

    def recover(self) -> RecoveryReport:
        self._queue.flush(self.session_id)
        report = self._view.recover()
        self.last_recovery = self._view.last_recovery
        return report

    # -- barriers --------------------------------------------------------------

    def flush(self) -> None:
        self._queue.flush(self.session_id)

    def drain(self) -> None:
        self._queue.drain(self.session_id)

    def sync(self) -> None:
        self._view.sync()

    # -- session registry (delegated) ------------------------------------------

    def for_session(
        self, session_id: str, *, notebook_path: Optional[str] = None
    ) -> "QueuedStore":
        return QueuedStore(
            self._view.for_session(session_id, notebook_path=notebook_path),
            self._queue,
        )

    def list_sessions(self) -> List[SessionRecord]:
        return self._view.list_sessions()

    def register_session(
        self,
        session_id: str,
        notebook_path: Optional[str] = None,
        *,
        status: str = "detached",
    ) -> None:
        self._view.register_session(session_id, notebook_path, status=status)

    def rename_session(self, session_id: str, notebook_path: str) -> None:
        self._view.rename_session(session_id, notebook_path)

    def set_session_status(self, session_id: str, status: str) -> None:
        self._view.set_session_status(session_id, status)

    def has_session(self, session_id: str) -> bool:
        return self._view.has_session(session_id)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Flush this session's lane; the shared backend stays open (the
        service owns it). An open capture is rolled back, never abandoned."""
        if self._txn_node is not None:
            open_node = self._txn_node
            self._clear_stage()
            self._emit_rollback_on_close(open_node, self.session_id)
        try:
            self._queue.flush(self.session_id)
        except StorageError:
            pass
