"""Checkpoint stores: where versioned co-variable payloads live (§6.1).

The paper's implementation stores versioned co-variables in SQLite but
notes "any storage mechanism can be used in its place — even in-memory
ones". Both backends are provided here behind one interface:

* :class:`SQLiteCheckpointStore` — the paper's default; durable, queried
  with normalized tables.
* :class:`InMemoryCheckpointStore` — maximally fast, used by benchmarks
  that want to isolate algorithmic costs from disk I/O.

A store holds (a) node metadata rows — enough to rebuild the checkpoint
graph after a restart — and (b) payload rows: one pickled blob per
versioned co-variable, or a tombstone for payloads that failed to
serialize.

Sessions
--------
One physical store serves many notebook sessions (DESIGN.md §13): every
node/payload row is namespaced by a ``session_id``, and a ``sessions``
registry table records each session's notebook path and lifecycle
status. A store object is a *handle* bound to one session; sibling
handles over the same backend come from :meth:`CheckpointStore.for_session`.
All handles share one connection/lock, so ``":memory:"`` databases work
across sessions too. Databases written by earlier schema versions are
migrated in place (see :meth:`SQLiteCheckpointStore._migrate`); their
existing history lands under the ``"default"`` session.

Crash consistency
-----------------
A checkpoint spans many store writes (one payload per updated
co-variable, plus the node row). A crash between any two of them must
not leave a *torn* node — metadata without payloads, or vice versa —
observable after restart. Stores therefore expose a commit protocol:

    store.begin_checkpoint(node_id)
    store.write_payload(...); ...; store.write_node(...)
    store.commit_checkpoint(node_id)     # or rollback_checkpoint(...)

Between ``begin`` and ``commit`` nothing is visible to readers: the
SQLite backend holds one transaction and stamps the node row with a
``committed`` marker only at commit; the in-memory backend buffers
writes in a staging area merged atomically at commit. ``read_nodes()``
returns committed nodes only, and opening a durable store sweeps any
uncommitted leftovers (see :meth:`CheckpointStore.recover`).

:func:`persist_checkpoint` is the one implementation of that sequence,
with retry, tombstone degradation and rollback. The synchronous session
and the service's queue writer both call it.

Threading
---------
The SQLite connection is opened with ``check_same_thread=False`` so the
service's background commit writer can share it; every operation is
serialized through one re-entrant lock per backend. ``begin_checkpoint``
*holds* that lock until commit/rollback, so a checkpoint in one thread
is never interleaved with writes or reads from another.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.covariable import CoVarKey, covar_key
from repro.core.retry import NO_RETRY, RetryPolicy
from repro.errors import StorageError, StoreBusyError
from repro.obs import EventType, NO_OBSERVER, Observer

try:  # POSIX only; on other platforms the advisory store lock is a no-op.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

#: Separator for canonical co-variable key encoding. Unit-separator is not
#: a valid Python identifier character, so it cannot collide with names.
_KEY_SEP = "\x1f"

#: The session that single-session stores (and migrated history) live in.
DEFAULT_SESSION_ID = "default"

#: Current durable schema version (``PRAGMA user_version``).
#: v0 = pre-durability (no ``committed`` column); v1 = committed marker;
#: v2 = per-session namespacing (``sessions`` table + ``session_id``).
SCHEMA_VERSION = 2


def encode_key(key: CoVarKey) -> str:
    return _KEY_SEP.join(sorted(key))


def decode_key(encoded: str) -> CoVarKey:
    return covar_key(encoded.split(_KEY_SEP)) if encoded else frozenset()


@dataclass(frozen=True)
class StoredPayload:
    """One versioned co-variable's stored form."""

    node_id: str
    key: CoVarKey
    data: Optional[bytes]  # None when serialization was skipped
    serializer: Optional[str]

    @property
    def stored(self) -> bool:
        return self.data is not None

    @property
    def size_bytes(self) -> int:
        return len(self.data) if self.data is not None else 0


@dataclass(frozen=True)
class StoredNode:
    """Node metadata as persisted; mirrors CheckpointNode minus payloads."""

    node_id: str
    parent_id: Optional[str]
    timestamp: int
    execution_count: int
    cell_source: str
    deleted_keys: Tuple[CoVarKey, ...]
    dependencies: Tuple[Tuple[CoVarKey, str], ...]


@dataclass(frozen=True)
class SessionRecord:
    """One row of the session registry."""

    session_id: str
    notebook_path: Optional[str]
    created_seq: int
    status: str
    checkpoints: int = 0


@dataclass(frozen=True)
class RecoveryReport:
    """What a recovery scan found (and removed) in a checkpoint store.

    ``swept_nodes`` are node ids whose checkpoint never committed — the
    session crashed mid-checkpoint — and were pruned so readers only ever
    see whole checkpoints. ``orphan_payloads`` are (node_id, covar names)
    pairs for payload rows with no surviving node row. Ids from sessions
    other than ``"default"`` are rendered as ``session:node``.
    """

    swept_nodes: Tuple[str, ...] = ()
    orphan_payloads: Tuple[Tuple[str, str], ...] = ()

    @property
    def clean(self) -> bool:
        return not self.swept_nodes and not self.orphan_payloads

    def summary(self) -> str:
        if self.clean:
            return "store is clean: no torn checkpoints found"
        parts = []
        if self.swept_nodes:
            parts.append(
                f"swept {len(self.swept_nodes)} uncommitted checkpoint(s): "
                + ", ".join(self.swept_nodes)
            )
        if self.orphan_payloads:
            parts.append(f"pruned {len(self.orphan_payloads)} orphan payload(s)")
        return "; ".join(parts)


class CheckpointStore:
    """Interface both backends implement."""

    #: Recovery scan result from the most recent open/recover, if any.
    last_recovery: Optional[RecoveryReport] = None
    #: Observability sink (DESIGN.md §11); the disabled default makes
    #: every emission a single attribute check. Sessions rebind this to
    #: their live observer; recovery scans report through it.
    observer: Observer = NO_OBSERVER
    #: Which session's rows this handle reads and writes.
    session_id: str = DEFAULT_SESSION_ID

    def write_node(self, node: StoredNode) -> None:
        raise NotImplementedError

    def read_nodes(self) -> List[StoredNode]:
        raise NotImplementedError

    def write_payload(self, payload: StoredPayload) -> None:
        raise NotImplementedError

    def read_payload(self, node_id: str, key: CoVarKey) -> StoredPayload:
        raise NotImplementedError

    def payloads_of(self, node_id: str) -> List[StoredPayload]:
        raise NotImplementedError

    def total_payload_bytes(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; in-memory stores are a no-op."""

    # -- write-ahead barrier ---------------------------------------------------

    def flush(self) -> None:
        """Barrier: wait until every previously accepted write is applied.

        Synchronous stores apply writes immediately, so this is a no-op;
        write-ahead wrappers (``repro.service.queue``) override it.
        """

    def drain(self) -> None:
        """:meth:`flush`, then surface any asynchronous write failures.

        Checkout calls this first so it only ever sees a consistent
        committed prefix.
        """
        self.flush()

    def sync(self) -> None:
        """Durability barrier (fsync); no-op for non-durable backends."""

    # -- session registry ------------------------------------------------------

    def for_session(
        self, session_id: str, *, notebook_path: Optional[str] = None
    ) -> "CheckpointStore":
        """A sibling handle over the same backend, bound to ``session_id``
        (registering it if new). Handles share one connection and lock."""
        raise NotImplementedError

    def list_sessions(self) -> List[SessionRecord]:
        raise NotImplementedError

    def register_session(
        self,
        session_id: str,
        notebook_path: Optional[str] = None,
        *,
        status: str = "detached",
    ) -> None:
        """Idempotently add a session to the registry."""
        raise NotImplementedError

    def rename_session(self, session_id: str, notebook_path: str) -> None:
        """Repoint a session at a new notebook path (the "rename
        catastrophe" fix: identity is the session id, the path is mutable
        metadata). Raises :class:`StorageError` for unknown sessions."""
        raise NotImplementedError

    def set_session_status(self, session_id: str, status: str) -> None:
        raise NotImplementedError

    def has_session(self, session_id: str) -> bool:
        raise NotImplementedError

    # -- atomic checkpoint protocol --------------------------------------------

    def begin_checkpoint(self, node_id: str) -> None:
        """Start buffering writes for one checkpoint; nothing is visible
        to readers until :meth:`commit_checkpoint`."""
        raise NotImplementedError

    def commit_checkpoint(self, node_id: str) -> None:
        """Atomically publish every write since :meth:`begin_checkpoint`."""
        raise NotImplementedError

    def rollback_checkpoint(self, node_id: str) -> None:
        """Discard every write since :meth:`begin_checkpoint`."""
        raise NotImplementedError

    def release_crashed_checkpoint(self) -> None:
        """Last-gasp lock hygiene for a dying writer thread.

        A thread that took a :class:`~repro.errors.SimulatedCrash` (or any
        fatal error) mid-checkpoint still owns the backend lock; calling
        this from that thread rolls the open transaction back and releases
        the lock so the rest of the process is not deadlocked. Durable
        state afterwards equals what a real process crash would leave.
        """

    @property
    def in_checkpoint(self) -> bool:
        """Whether a begin_checkpoint is currently open."""
        return False

    def recover(self) -> RecoveryReport:
        """Sweep torn state (uncommitted nodes, orphan payloads).

        Durable stores run this automatically on open; it is also safe to
        invoke at any quiescent point. Returns what was pruned.
        """
        return self._record_recovery(RecoveryReport())

    def _record_recovery(self, report: RecoveryReport) -> RecoveryReport:
        """Publish a recovery scan: remember it and, when it actually
        swept something, emit a ``recovery`` event (satellite of
        DESIGN.md §11 — recovery actions must be visible outside the
        report object)."""
        self.last_recovery = report
        if not report.clean:
            self.observer.event(
                EventType.RECOVERY,
                swept_nodes=list(report.swept_nodes),
                orphan_payloads=[list(pair) for pair in report.orphan_payloads],
            )
            self.observer.count("store.recoveries")
        return report

    def _emit_rollback_on_close(self, node_id: str, session_id: str) -> None:
        """An open checkpoint was rolled back because the store is
        closing — never silently abandoned (DESIGN.md §13 lifecycle
        contract)."""
        self.observer.event(
            EventType.CHECKPOINT_ROLLED_BACK_ON_CLOSE,
            node=node_id,
            session=session_id,
        )
        self.observer.count("store.rollback_on_close")

    # -- context manager -------------------------------------------------------

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def persist_checkpoint(
    store: CheckpointStore,
    node: StoredNode,
    payloads: Sequence[StoredPayload],
    *,
    retry: RetryPolicy = NO_RETRY,
    observer: Observer = NO_OBSERVER,
) -> List[StoredPayload]:
    """Write one checkpoint whole, or not at all (DESIGN.md §6).

    Runs begin → each payload → node → commit on ``store``, every call
    under ``retry``. A payload storage permanently refuses is rewritten
    as a tombstone — checkout recomputes it (§5.3) — and reported as a
    ``tombstone_degraded`` event. Any other failure rolls the open
    checkpoint back and propagates. A
    :class:`~repro.errors.SimulatedCrash` is a BaseException and escapes
    *without* rollback: a crashed process cannot clean up, and
    recovery-on-open must cope with whatever remains.

    Returns the payloads that were degraded to tombstones.
    """
    node_id = node.node_id
    degraded: List[StoredPayload] = []
    try:
        retry.run(lambda: store.begin_checkpoint(node_id))
        for payload in payloads:
            try:
                retry.run(lambda: store.write_payload(payload))
            except StorageError:
                if payload.data is None:
                    raise  # it already was a tombstone; nothing left to shed
                tombstone = StoredPayload(
                    payload.node_id, payload.key, data=None, serializer=None
                )
                retry.run(lambda: store.write_payload(tombstone))
                degraded.append(payload)
                observer.event(
                    EventType.TOMBSTONE_DEGRADED,
                    node=node_id,
                    covariable=sorted(payload.key),
                    bytes_dropped=payload.size_bytes,
                )
        retry.run(lambda: store.write_node(node))
        retry.run(lambda: store.commit_checkpoint(node_id))
    except Exception:
        try:
            store.rollback_checkpoint(node_id)
        except Exception:
            pass  # recovery-on-open sweeps whatever rollback couldn't
        raise
    return degraded


def _node_sort_key(order: int, node: StoredNode) -> Tuple[int, int, int]:
    """Deterministic node ordering: timestamp, then execution count, then
    insertion order. Timestamps alone are not unique (two checkpoints in
    the same clock second), and graph reconstruction requires parents to
    sort before children."""
    return (node.timestamp, node.execution_count, order)


def _public_id(session_id: str, node_id: str) -> str:
    """Render a namespaced node id for reports: plain for the default
    session, ``session:node`` otherwise."""
    return node_id if session_id == DEFAULT_SESSION_ID else f"{session_id}:{node_id}"


class _MemoryBackend:
    """Shared state behind every session handle of one in-memory store."""

    __slots__ = (
        "lock",
        "sessions",
        "session_seq",
        "nodes",
        "node_order",
        "insertions",
        "payloads",
    )

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.sessions: Dict[str, Dict[str, object]] = {}
        self.session_seq = 0
        self.nodes: Dict[str, Dict[str, StoredNode]] = {}
        self.node_order: Dict[str, Dict[str, int]] = {}
        self.insertions: Dict[str, int] = {}
        # Payloads indexed by session, node_id, then encoded co-variable
        # key, so payloads_of() is O(payloads of that node).
        self.payloads: Dict[str, Dict[str, Dict[str, StoredPayload]]] = {}


class InMemoryCheckpointStore(CheckpointStore):
    """Dict-backed store, for tests and I/O-free benchmarking.

    Checkpoint atomicity is provided by staged-dict buffering: between
    ``begin_checkpoint`` and ``commit_checkpoint`` all writes land in a
    staging area invisible to readers; commit merges it in one step.
    Staging is per-handle, so independent sessions can stage concurrently;
    the merge itself happens under the backend lock.
    """

    def __init__(
        self,
        session_id: str = DEFAULT_SESSION_ID,
        *,
        notebook_path: Optional[str] = None,
        _backend: Optional[_MemoryBackend] = None,
    ) -> None:
        self.session_id = session_id
        self._backend = _backend if _backend is not None else _MemoryBackend()
        self._txn_node: Optional[str] = None
        self._staged_nodes: Dict[str, StoredNode] = {}
        self._staged_payloads: Dict[str, Dict[str, StoredPayload]] = {}
        self.last_recovery = None
        self.register_session(session_id, notebook_path)

    # -- session registry ------------------------------------------------------

    def for_session(
        self, session_id: str, *, notebook_path: Optional[str] = None
    ) -> "InMemoryCheckpointStore":
        return InMemoryCheckpointStore(
            session_id, notebook_path=notebook_path, _backend=self._backend
        )

    def register_session(
        self,
        session_id: str,
        notebook_path: Optional[str] = None,
        *,
        status: str = "detached",
    ) -> None:
        backend = self._backend
        with backend.lock:
            record = backend.sessions.get(session_id)
            if record is None:
                backend.session_seq += 1
                backend.sessions[session_id] = {
                    "notebook_path": notebook_path,
                    "created_seq": backend.session_seq,
                    "status": status,
                }
            elif notebook_path is not None and record["notebook_path"] is None:
                record["notebook_path"] = notebook_path

    def list_sessions(self) -> List[SessionRecord]:
        backend = self._backend
        with backend.lock:
            records = [
                SessionRecord(
                    session_id=sid,
                    notebook_path=meta["notebook_path"],  # type: ignore[arg-type]
                    created_seq=meta["created_seq"],  # type: ignore[arg-type]
                    status=meta["status"],  # type: ignore[arg-type]
                    checkpoints=len(backend.nodes.get(sid, {})),
                )
                for sid, meta in backend.sessions.items()
            ]
        return sorted(records, key=lambda record: record.created_seq)

    def rename_session(self, session_id: str, notebook_path: str) -> None:
        with self._backend.lock:
            record = self._backend.sessions.get(session_id)
            if record is None:
                raise StorageError(f"unknown session {session_id!r}")
            record["notebook_path"] = notebook_path

    def set_session_status(self, session_id: str, status: str) -> None:
        with self._backend.lock:
            record = self._backend.sessions.get(session_id)
            if record is None:
                raise StorageError(f"unknown session {session_id!r}")
            record["status"] = status

    def has_session(self, session_id: str) -> bool:
        with self._backend.lock:
            return session_id in self._backend.sessions

    # -- per-session views of the backend --------------------------------------

    def _session_nodes(self) -> Dict[str, StoredNode]:
        return self._backend.nodes.setdefault(self.session_id, {})

    def _session_order(self) -> Dict[str, int]:
        return self._backend.node_order.setdefault(self.session_id, {})

    def _session_payloads(self) -> Dict[str, Dict[str, StoredPayload]]:
        return self._backend.payloads.setdefault(self.session_id, {})

    # -- writes ----------------------------------------------------------------

    def write_node(self, node: StoredNode) -> None:
        if self._txn_node is not None:
            self._staged_nodes[node.node_id] = node
            return
        with self._backend.lock:
            self._store_node(node)

    def write_payload(self, payload: StoredPayload) -> None:
        if self._txn_node is not None:
            self._staged_payloads.setdefault(payload.node_id, {})[
                encode_key(payload.key)
            ] = payload
            return
        with self._backend.lock:
            self._session_payloads().setdefault(payload.node_id, {})[
                encode_key(payload.key)
            ] = payload

    def _store_node(self, node: StoredNode) -> None:
        order = self._session_order()
        if node.node_id not in order:
            count = self._backend.insertions.get(self.session_id, 0)
            order[node.node_id] = count
            self._backend.insertions[self.session_id] = count + 1
        self._session_nodes()[node.node_id] = node

    # -- atomic checkpoint protocol --------------------------------------------

    def begin_checkpoint(self, node_id: str) -> None:
        if self._txn_node is not None:
            raise StorageError(
                f"checkpoint {self._txn_node!r} already in progress"
            )
        self._txn_node = node_id

    def commit_checkpoint(self, node_id: str) -> None:
        if self._txn_node != node_id:
            raise StorageError(
                f"commit_checkpoint({node_id!r}) without matching begin"
            )
        with self._backend.lock:
            for node in self._staged_nodes.values():
                self._store_node(node)
            payloads = self._session_payloads()
            for owner, staged in self._staged_payloads.items():
                payloads.setdefault(owner, {}).update(staged)
        self._clear_stage()

    def rollback_checkpoint(self, node_id: str) -> None:
        self._clear_stage()

    def release_crashed_checkpoint(self) -> None:
        self._clear_stage()

    def _clear_stage(self) -> None:
        self._txn_node = None
        self._staged_nodes = {}
        self._staged_payloads = {}

    @property
    def in_checkpoint(self) -> bool:
        return self._txn_node is not None

    # -- reads (committed state only) ------------------------------------------

    def read_nodes(self) -> List[StoredNode]:
        with self._backend.lock:
            order = self._session_order()
            return sorted(
                self._session_nodes().values(),
                key=lambda node: _node_sort_key(order[node.node_id], node),
            )

    def read_payload(self, node_id: str, key: CoVarKey) -> StoredPayload:
        with self._backend.lock:
            try:
                return self._session_payloads()[node_id][encode_key(key)]
            except KeyError:
                raise StorageError(
                    f"no payload for co-variable {sorted(key)} at node {node_id}"
                ) from None

    def payloads_of(self, node_id: str) -> List[StoredPayload]:
        with self._backend.lock:
            return list(self._session_payloads().get(node_id, {}).values())

    def total_payload_bytes(self) -> int:
        with self._backend.lock:
            return sum(
                payload.size_bytes
                for payloads in self._session_payloads().values()
                for payload in payloads.values()
            )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        # Never silently abandon an open checkpoint: roll it back and say
        # so. The staging area would otherwise leak into the next begin.
        if self._txn_node is not None:
            open_node = self._txn_node
            self.rollback_checkpoint(open_node)
            self._emit_rollback_on_close(open_node, self.session_id)

    # -- recovery --------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Sweep staged leftovers (an abandoned checkpoint — the in-memory
        analogue of a crash) and payloads whose node never committed."""
        swept = tuple(sorted(self._staged_nodes))
        self._clear_stage()
        orphans: List[Tuple[str, str]] = []
        with self._backend.lock:
            nodes = self._session_nodes()
            payloads = self._session_payloads()
            for node_id in sorted(set(payloads) - set(nodes)):
                for encoded in sorted(payloads[node_id]):
                    orphans.append((node_id, encoded))
                del payloads[node_id]
        report = RecoveryReport(swept_nodes=swept, orphan_payloads=tuple(orphans))
        return self._record_recovery(report)


#: Process-local registry of held advisory store locks: realpath of the
#: database → ``[lock fd, refcount]``. ``flock`` locks are per open file
#: description, so a second in-process open of the same database must
#: share the first open's fd instead of re-locking (which would block
#: against ourselves and misreport the database as busy).
_STORE_LOCKS: Dict[str, List] = {}
_STORE_LOCKS_GUARD = threading.Lock()


def _acquire_store_lock(path: str) -> Optional[str]:
    """Take the cross-process advisory lock for database ``path``.

    Returns the registry token to pass to :func:`_release_store_lock`
    (``None`` for in-memory databases and non-POSIX platforms). Raises
    :class:`StoreBusyError` when another process holds the lock.
    """
    if fcntl is None or path == ":memory:":
        return None
    real = os.path.realpath(path)
    with _STORE_LOCKS_GUARD:
        entry = _STORE_LOCKS.get(real)
        if entry is not None:
            entry[1] += 1
            return real
        lock_path = real + ".lock"
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise StoreBusyError(
                f"checkpoint database {path!r} is open in another process "
                f"(advisory lock {lock_path!r} is held)"
            ) from None
        _STORE_LOCKS[real] = [fd, 1]
        return real


def _release_store_lock(token: Optional[str]) -> None:
    """Drop one reference on ``token``; the last drop unlocks the file."""
    if token is None:
        return
    with _STORE_LOCKS_GUARD:
        entry = _STORE_LOCKS.get(token)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] <= 0:
            del _STORE_LOCKS[token]
            try:
                fcntl.flock(entry[0], fcntl.LOCK_UN)
            finally:
                os.close(entry[0])


class _SQLiteBackend:
    """Shared connection state behind every session handle of one database.

    ``check_same_thread=False`` lets the service's background commit
    writer share the connection; ``lock`` serializes every use of it.
    ``txn_hold`` records that ``begin_checkpoint`` is holding the lock
    until its matching commit/rollback.
    """

    __slots__ = ("path", "conn", "lock", "txn_node", "txn_session", "txn_hold", "closed")

    def __init__(self, path: str) -> None:
        self.path = path
        # Autocommit mode: transactions are managed explicitly so the
        # checkpoint protocol can hold one open across many writes.
        self.conn = sqlite3.connect(
            path, isolation_level=None, check_same_thread=False
        )
        self.lock = threading.RLock()
        self.txn_node: Optional[str] = None
        self.txn_session: Optional[str] = None
        self.txn_hold = False
        self.closed = False


class SQLiteCheckpointStore(CheckpointStore):
    """SQLite-backed store — the paper's default storage mechanism.

    Pass ``":memory:"`` for an ephemeral database or a path for a durable
    one. The schema is normalized: ``sessions``, ``nodes``,
    ``node_deletes``, ``node_deps``, and ``payloads``; every data row
    carries a ``session_id``.

    Checkpoint atomicity: ``begin_checkpoint`` opens one SQLite
    transaction; node rows written inside it carry ``committed = 0``
    until ``commit_checkpoint`` flips the marker and commits. A process
    crash mid-checkpoint (connection dropped without COMMIT) therefore
    loses the whole transaction; if torn rows do reach disk through a
    non-transactional path, the ``committed`` marker keeps them invisible
    to :meth:`read_nodes` and the recovery scan on open sweeps them.
    """

    _TABLES = {
        "sessions": """
            CREATE TABLE IF NOT EXISTS sessions (
                session_id    TEXT PRIMARY KEY,
                notebook_path TEXT,
                created_seq   INTEGER NOT NULL,
                status        TEXT NOT NULL DEFAULT 'detached'
            )""",
        "nodes": """
            CREATE TABLE IF NOT EXISTS nodes (
                session_id      TEXT NOT NULL DEFAULT 'default',
                node_id         TEXT NOT NULL,
                parent_id       TEXT,
                timestamp       INTEGER NOT NULL,
                execution_count INTEGER NOT NULL,
                cell_source     TEXT NOT NULL,
                committed       INTEGER NOT NULL DEFAULT 1,
                PRIMARY KEY (session_id, node_id)
            )""",
        "node_deletes": """
            CREATE TABLE IF NOT EXISTS node_deletes (
                session_id TEXT NOT NULL DEFAULT 'default',
                node_id    TEXT NOT NULL,
                covar_key  TEXT NOT NULL,
                PRIMARY KEY (session_id, node_id, covar_key)
            )""",
        "node_deps": """
            CREATE TABLE IF NOT EXISTS node_deps (
                session_id TEXT NOT NULL DEFAULT 'default',
                node_id    TEXT NOT NULL,
                covar_key  TEXT NOT NULL,
                ref_node   TEXT NOT NULL,
                PRIMARY KEY (session_id, node_id, covar_key)
            )""",
        "payloads": """
            CREATE TABLE IF NOT EXISTS payloads (
                session_id TEXT NOT NULL DEFAULT 'default',
                node_id    TEXT NOT NULL,
                covar_key  TEXT NOT NULL,
                data       BLOB,
                serializer TEXT,
                PRIMARY KEY (session_id, node_id, covar_key)
            )""",
    }
    _INDEXES = (
        "CREATE INDEX IF NOT EXISTS idx_payloads_node"
        " ON payloads (session_id, node_id)",
    )
    #: v1 column lists, used to carry rows through the v1→v2 rebuild.
    _V1_COLUMNS = {
        "nodes": "node_id, parent_id, timestamp, execution_count, cell_source, committed",
        "node_deletes": "node_id, covar_key",
        "node_deps": "node_id, covar_key, ref_node",
        "payloads": "node_id, covar_key, data, serializer",
    }

    def __init__(
        self,
        path: str = ":memory:",
        session_id: str = DEFAULT_SESSION_ID,
        *,
        notebook_path: Optional[str] = None,
        _backend: Optional[_SQLiteBackend] = None,
    ) -> None:
        self.path = path
        self.session_id = session_id
        self._lock_token: Optional[str] = None
        if _backend is not None:
            self._backend = _backend
            self._owns_backend = False
            self.register_session(session_id, notebook_path)
            self.last_recovery = None
            return
        # Cross-process exclusivity first: two processes writing one
        # database interleave node sequences, so the open fails fast
        # with StoreBusyError instead (in-process double-opens refcount).
        self._lock_token = _acquire_store_lock(path)
        try:
            backend = _SQLiteBackend(path)
        except BaseException:
            _release_store_lock(self._lock_token)
            raise
        try:
            with backend.lock:
                self._migrate(backend.conn)
            self._backend = backend
            self._owns_backend = True
            self.register_session(session_id, notebook_path)
            self.last_recovery = self.recover()
        except BaseException:
            # Never leak the OS-level handle when open fails — a corrupt
            # or wrong-schema file reaches here via `_open_store_strict`.
            backend.conn.close()
            _release_store_lock(self._lock_token)
            raise

    @property
    def _conn(self) -> sqlite3.Connection:
        return self._backend.conn

    def _migrate(self, conn: sqlite3.Connection) -> None:
        """Bring older databases up to the current schema in place.

        v0 (pre-durability, no ``committed`` column) gains the marker with
        rows presumed committed; v1 (single-session) is rebuilt with
        ``session_id`` namespacing, its history assigned to the
        ``"default"`` session. Fresh databases are created at v2 directly.
        """
        existing = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if "nodes" in existing:
            columns = {
                row[1] for row in conn.execute("PRAGMA table_info(nodes)")
            }
            if "committed" not in columns:
                conn.execute(
                    "ALTER TABLE nodes ADD COLUMN committed INTEGER NOT NULL DEFAULT 1"
                )
            if "session_id" not in columns:
                self._rebuild_v1_to_v2(conn)
        for ddl in self._TABLES.values():
            conn.execute(ddl)
        for ddl in self._INDEXES:
            conn.execute(ddl)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    def _rebuild_v1_to_v2(self, conn: sqlite3.Connection) -> None:
        """One transaction: rename old tables aside, create the namespaced
        shape, copy rows under the default session preserving rowid order,
        drop the old tables."""
        tables = tuple(self._V1_COLUMNS)
        conn.execute("BEGIN IMMEDIATE")
        try:
            for table in tables:
                conn.execute(f"ALTER TABLE {table} RENAME TO {table}_v1")
            conn.execute("DROP INDEX IF EXISTS idx_payloads_node")
            for table in tables:
                # Strip IF NOT EXISTS semantics are fine: the originals
                # were just renamed away.
                conn.execute(self._TABLES[table])
            for table, columns in self._V1_COLUMNS.items():
                conn.execute(
                    f"INSERT INTO {table} (session_id, {columns})"
                    f" SELECT ?, {columns} FROM {table}_v1 ORDER BY rowid",
                    (DEFAULT_SESSION_ID,),
                )
            for table in tables:
                conn.execute(f"DROP TABLE {table}_v1")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    # -- session registry ------------------------------------------------------

    def for_session(
        self, session_id: str, *, notebook_path: Optional[str] = None
    ) -> "SQLiteCheckpointStore":
        if self._backend.closed:
            raise StorageError("store is closed")
        return SQLiteCheckpointStore(
            self.path,
            session_id,
            notebook_path=notebook_path,
            _backend=self._backend,
        )

    def register_session(
        self,
        session_id: str,
        notebook_path: Optional[str] = None,
        *,
        status: str = "detached",
    ) -> None:
        with self._backend.lock:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO sessions"
                " (session_id, notebook_path, created_seq, status) VALUES"
                " (?, ?, (SELECT COALESCE(MAX(created_seq), 0) + 1 FROM sessions), ?)",
                (session_id, notebook_path, status),
            )
            if cursor.rowcount == 0 and notebook_path is not None:
                self._conn.execute(
                    "UPDATE sessions SET notebook_path = ?"
                    " WHERE session_id = ? AND notebook_path IS NULL",
                    (notebook_path, session_id),
                )

    def list_sessions(self) -> List[SessionRecord]:
        with self._backend.lock:
            rows = self._conn.execute(
                "SELECT s.session_id, s.notebook_path, s.created_seq, s.status,"
                " (SELECT COUNT(*) FROM nodes n"
                "  WHERE n.session_id = s.session_id AND n.committed = 1)"
                " FROM sessions s ORDER BY s.created_seq"
            ).fetchall()
        return [
            SessionRecord(
                session_id=sid,
                notebook_path=path,
                created_seq=seq,
                status=status,
                checkpoints=checkpoints,
            )
            for sid, path, seq, status, checkpoints in rows
        ]

    def rename_session(self, session_id: str, notebook_path: str) -> None:
        with self._backend.lock:
            cursor = self._conn.execute(
                "UPDATE sessions SET notebook_path = ? WHERE session_id = ?",
                (notebook_path, session_id),
            )
            if cursor.rowcount == 0:
                raise StorageError(f"unknown session {session_id!r}")

    def set_session_status(self, session_id: str, status: str) -> None:
        with self._backend.lock:
            cursor = self._conn.execute(
                "UPDATE sessions SET status = ? WHERE session_id = ?",
                (status, session_id),
            )
            if cursor.rowcount == 0:
                raise StorageError(f"unknown session {session_id!r}")

    def has_session(self, session_id: str) -> bool:
        with self._backend.lock:
            row = self._conn.execute(
                "SELECT 1 FROM sessions WHERE session_id = ?", (session_id,)
            ).fetchone()
        return row is not None

    # -- writes ----------------------------------------------------------------

    @contextmanager
    def _write_scope(self) -> Iterator[None]:
        """One write's transaction scope: inside an open checkpoint this is
        a no-op (the outer transaction owns atomicity); standalone writes
        get their own immediate transaction. Always entered under the
        backend lock — an open checkpoint in another thread blocks here
        until it commits."""
        backend = self._backend
        with backend.lock:
            if backend.txn_node is not None:
                yield
                return
            backend.conn.execute("BEGIN IMMEDIATE")
            try:
                yield
            except BaseException:
                backend.conn.execute("ROLLBACK")
                raise
            backend.conn.execute("COMMIT")

    def write_node(self, node: StoredNode) -> None:
        with self._write_scope():
            committed = 0 if self._backend.txn_node is not None else 1
            self._conn.execute(
                "INSERT OR REPLACE INTO nodes VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    self.session_id,
                    node.node_id,
                    node.parent_id,
                    node.timestamp,
                    node.execution_count,
                    node.cell_source,
                    committed,
                ),
            )
            self._conn.executemany(
                "INSERT OR REPLACE INTO node_deletes VALUES (?, ?, ?)",
                [
                    (self.session_id, node.node_id, encode_key(key))
                    for key in node.deleted_keys
                ],
            )
            self._conn.executemany(
                "INSERT OR REPLACE INTO node_deps VALUES (?, ?, ?, ?)",
                [
                    (self.session_id, node.node_id, encode_key(key), ref)
                    for key, ref in node.dependencies
                ],
            )

    def write_payload(self, payload: StoredPayload) -> None:
        with self._write_scope():
            self._conn.execute(
                "INSERT OR REPLACE INTO payloads VALUES (?, ?, ?, ?, ?)",
                (
                    self.session_id,
                    payload.node_id,
                    encode_key(payload.key),
                    payload.data,
                    payload.serializer,
                ),
            )

    # -- atomic checkpoint protocol --------------------------------------------

    def begin_checkpoint(self, node_id: str) -> None:
        backend = self._backend
        # Hold the backend lock until commit/rollback: a checkpoint in
        # one thread is never interleaved with another thread's writes.
        backend.lock.acquire()
        try:
            if backend.txn_node is not None:
                raise StorageError(
                    f"checkpoint {backend.txn_node!r} already in progress"
                )
            backend.conn.execute("BEGIN IMMEDIATE")
            backend.txn_node = node_id
            backend.txn_session = self.session_id
            backend.txn_hold = True
        except BaseException:
            backend.lock.release()
            raise

    def commit_checkpoint(self, node_id: str) -> None:
        backend = self._backend
        with backend.lock:
            if backend.txn_node != node_id or backend.txn_session != self.session_id:
                raise StorageError(
                    f"commit_checkpoint({node_id!r}) without matching begin"
                )
            backend.conn.execute(
                "UPDATE nodes SET committed = 1 WHERE session_id = ? AND node_id = ?",
                (self.session_id, node_id),
            )
            backend.conn.execute("COMMIT")
            backend.txn_node = None
            backend.txn_session = None
            self._release_txn_hold()

    def rollback_checkpoint(self, node_id: str) -> None:
        backend = self._backend
        with backend.lock:
            if backend.conn.in_transaction:
                backend.conn.execute("ROLLBACK")
            backend.txn_node = None
            backend.txn_session = None
            # Belt-and-braces: if any rows for this checkpoint reached disk
            # outside the transaction, remove them now.
            self._sweep_nodes(
                [(self.session_id, node_id)], only_uncommitted=True
            )
            self._release_txn_hold()

    def release_crashed_checkpoint(self) -> None:
        backend = self._backend
        if backend.txn_node is None:
            return
        try:
            if backend.conn.in_transaction:
                backend.conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass
        backend.txn_node = None
        backend.txn_session = None
        self._release_txn_hold()

    def _release_txn_hold(self) -> None:
        backend = self._backend
        if backend.txn_hold:
            backend.txn_hold = False
            try:
                backend.lock.release()
            except RuntimeError:
                # The holding thread died without releasing (a simulated
                # crash); nothing to release from this thread.
                pass

    @property
    def in_checkpoint(self) -> bool:
        backend = self._backend
        return (
            backend.txn_node is not None
            and backend.txn_session == self.session_id
        )

    # -- reads (committed state only) ------------------------------------------

    def read_nodes(self) -> List[StoredNode]:
        with self._backend.lock:
            nodes = []
            rows = self._conn.execute(
                "SELECT node_id, parent_id, timestamp, execution_count, cell_source"
                " FROM nodes WHERE session_id = ? AND committed = 1"
                " ORDER BY timestamp, execution_count, rowid",
                (self.session_id,),
            ).fetchall()
            for node_id, parent_id, timestamp, execution_count, cell_source in rows:
                deleted = tuple(
                    decode_key(row[0])
                    for row in self._conn.execute(
                        "SELECT covar_key FROM node_deletes"
                        " WHERE session_id = ? AND node_id = ?",
                        (self.session_id, node_id),
                    )
                )
                deps = tuple(
                    (decode_key(row[0]), row[1])
                    for row in self._conn.execute(
                        "SELECT covar_key, ref_node FROM node_deps"
                        " WHERE session_id = ? AND node_id = ?",
                        (self.session_id, node_id),
                    )
                )
                nodes.append(
                    StoredNode(
                        node_id=node_id,
                        parent_id=parent_id,
                        timestamp=timestamp,
                        execution_count=execution_count,
                        cell_source=cell_source,
                        deleted_keys=deleted,
                        dependencies=deps,
                    )
                )
            return nodes

    def read_payload(self, node_id: str, key: CoVarKey) -> StoredPayload:
        with self._backend.lock:
            row = self._conn.execute(
                "SELECT data, serializer FROM payloads"
                " WHERE session_id = ? AND node_id = ? AND covar_key = ?",
                (self.session_id, node_id, encode_key(key)),
            ).fetchone()
        if row is None:
            raise StorageError(
                f"no payload for co-variable {sorted(key)} at node {node_id}"
            )
        data, serializer = row
        return StoredPayload(node_id=node_id, key=key, data=data, serializer=serializer)

    def payloads_of(self, node_id: str) -> List[StoredPayload]:
        with self._backend.lock:
            rows = self._conn.execute(
                "SELECT covar_key, data, serializer FROM payloads"
                " WHERE session_id = ? AND node_id = ?",
                (self.session_id, node_id),
            ).fetchall()
        return [
            StoredPayload(
                node_id=node_id,
                key=decode_key(encoded),
                data=data,
                serializer=serializer,
            )
            for encoded, data, serializer in rows
        ]

    def total_payload_bytes(self) -> int:
        with self._backend.lock:
            row = self._conn.execute(
                "SELECT COALESCE(SUM(LENGTH(data)), 0) FROM payloads"
                " WHERE session_id = ? AND data IS NOT NULL",
                (self.session_id,),
            ).fetchone()
        return int(row[0])

    # -- durability ------------------------------------------------------------

    def sync(self) -> None:
        """Fsync the database file — the commit queue's batch-level
        durability barrier. SQLite already fsyncs at COMMIT under its
        default ``synchronous`` level; this is the explicit barrier for
        relaxed-durability configurations."""
        if self.path == ":memory:":
            return
        fd = os.open(self.path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- recovery --------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Sweep uncommitted nodes and orphan payloads; runs on every open.

        The sweep is global — torn state from *any* session is crash
        debris. An open checkpoint transaction at recovery time is itself
        crash debris (the writer died holding it): it is rolled back — the
        same outcome a dropped connection produces — before the sweep.
        """
        backend = self._backend
        with backend.lock:
            if backend.conn.in_transaction:
                backend.conn.execute("ROLLBACK")
            backend.txn_node = None
            backend.txn_session = None
            self._release_txn_hold()
            swept = [
                (row[0], row[1])
                for row in self._conn.execute(
                    "SELECT session_id, node_id FROM nodes WHERE committed = 0"
                    " ORDER BY session_id, node_id"
                )
            ]
            orphans = self._conn.execute(
                "SELECT session_id, node_id, covar_key FROM payloads p"
                " WHERE NOT EXISTS (SELECT 1 FROM nodes n"
                "  WHERE n.session_id = p.session_id AND n.node_id = p.node_id"
                "  AND n.committed = 1)"
                " ORDER BY session_id, node_id, covar_key"
            ).fetchall()
            if swept or orphans:
                with self._write_scope():
                    self._sweep_nodes(swept, only_uncommitted=True)
                    self._conn.execute(
                        "DELETE FROM payloads WHERE NOT EXISTS"
                        " (SELECT 1 FROM nodes n WHERE n.session_id = payloads.session_id"
                        "  AND n.node_id = payloads.node_id)"
                    )
        report = RecoveryReport(
            swept_nodes=tuple(_public_id(sid, nid) for sid, nid in swept),
            orphan_payloads=tuple(
                (_public_id(sid, nid), key) for sid, nid, key in orphans
            ),
        )
        return self._record_recovery(report)

    def _sweep_nodes(
        self, keys: List[Tuple[str, str]], *, only_uncommitted: bool
    ) -> None:
        for session_id, node_id in keys:
            if only_uncommitted:
                self._conn.execute(
                    "DELETE FROM nodes WHERE session_id = ? AND node_id = ?"
                    " AND committed = 0",
                    (session_id, node_id),
                )
            else:
                self._conn.execute(
                    "DELETE FROM nodes WHERE session_id = ? AND node_id = ?",
                    (session_id, node_id),
                )
            still_there = self._conn.execute(
                "SELECT 1 FROM nodes WHERE session_id = ? AND node_id = ?",
                (session_id, node_id),
            ).fetchone()
            if still_there is None:
                for table in ("node_deletes", "node_deps", "payloads"):
                    self._conn.execute(
                        f"DELETE FROM {table} WHERE session_id = ? AND node_id = ?",
                        (session_id, node_id),
                    )

    def close(self) -> None:
        backend = self._backend
        if backend.closed:
            return
        with backend.lock:
            open_node = backend.txn_node
            if open_node is not None and (
                self._owns_backend or backend.txn_session == self.session_id
            ):
                # Roll the open checkpoint back explicitly (the same
                # outcome closing the connection mid-transaction produces)
                # and say so, instead of silently abandoning the staged
                # begin-marker.
                rolled_session = backend.txn_session or self.session_id
                if backend.conn.in_transaction:
                    backend.conn.execute("ROLLBACK")
                backend.txn_node = None
                backend.txn_session = None
                self._release_txn_hold()
                self._emit_rollback_on_close(open_node, rolled_session)
            if self._owns_backend:
                backend.closed = True
                backend.conn.close()
                _release_store_lock(self._lock_token)
                self._lock_token = None
