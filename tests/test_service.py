"""Multi-session checkpoint service: commit queue, manager, acceptance.

Covers the write-ahead commit queue's ordering/durability contract
(enqueue is fast, ``flush``/``drain`` are real barriers, failed lanes
poison and report exactly once, writer crashes leave the process
deadlock-free), the :class:`~repro.service.SessionManager` registry
semantics, the two acceptance scenarios from DESIGN.md §13 — the
*rename catastrophe* and the *blind reconnect* — and a writer-side
kill-point enumeration proving every crash lands on a valid resumable
per-session prefix.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Tuple

import pytest

from test_oracle import canonical_state

from repro.core.covariable import covar_key
from repro.core.graph import ROOT_ID
from repro.core.session import KishuSession
from repro.core.storage import (
    InMemoryCheckpointStore,
    SQLiteCheckpointStore,
    StoredNode,
    StoredPayload,
)
from repro.errors import PermanentStorageError, StorageError
from repro.faults import FaultInjectingStore, FaultPlan, FaultRule
from repro.faults.injector import SlowStore
from repro.kernel.kernel import NotebookKernel
from repro.obs import EventType, LATENCY_BUCKETS, Observer
from repro.service import CommitQueue, QueuedStore, SessionManager


def _node(node_id: str, parent: str = ROOT_ID) -> StoredNode:
    return StoredNode(
        node_id=node_id,
        parent_id=parent,
        timestamp=int(node_id[1:]),
        execution_count=int(node_id[1:]),
        cell_source=f"x = {node_id!r}",
        deleted_keys=(),
        dependencies=(),
    )


def _payload(node_id: str, name: str = "x", data: bytes = b"blob") -> StoredPayload:
    return StoredPayload(
        node_id=node_id, key=covar_key({name}), data=data, serializer="primary"
    )


def _commit(store, node: StoredNode, payloads=None) -> None:
    store.begin_checkpoint(node.node_id)
    for payload in payloads if payloads is not None else [_payload(node.node_id)]:
        store.write_payload(payload)
    store.write_node(node)
    store.commit_checkpoint(node.node_id)


@pytest.fixture(params=["memory", "sqlite"])
def shared_store(request):
    if request.param == "memory":
        store = InMemoryCheckpointStore()
    else:
        store = SQLiteCheckpointStore(":memory:")
    yield store
    store.close()


# ---------------------------------------------------------------------------
# Commit queue semantics
# ---------------------------------------------------------------------------


class TestCommitQueue:
    def test_enqueue_fast_flush_applies(self, shared_store):
        slow = SlowStore(shared_store, write_delay=0.05)
        queue = CommitQueue(slow)
        try:
            handle = QueuedStore(slow.for_session("a"), queue)
            started = time.perf_counter()
            _commit(handle, _node("t1"))
            enqueue_seconds = time.perf_counter() - started
            # Three delayed ops (payload, node, commit) would cost 150ms
            # synchronously; the enqueue must not pay them.
            assert enqueue_seconds < 0.05
            queue.flush()
            assert [n.node_id for n in shared_store.for_session("a").read_nodes()] == ["t1"]
        finally:
            queue.stop()

    def test_flush_covers_in_flight_batch(self, shared_store):
        """Regression: records the writer had already popped into its
        current batch were once invisible to the flush barrier, so flush
        could return with commits still unwritten."""
        slow = SlowStore(shared_store, write_delay=0.02)
        queue = CommitQueue(slow, max_batch=8)
        try:
            handle = QueuedStore(slow.for_session("a"), queue)
            parent = ROOT_ID
            for i in range(1, 6):
                _commit(handle, _node(f"t{i}", parent))
                parent = f"t{i}"
            queue.flush()
            survived = [n.node_id for n in shared_store.for_session("a").read_nodes()]
            assert survived == [f"t{i}" for i in range(1, 6)]
        finally:
            queue.stop()

    def test_reads_are_read_your_writes(self, shared_store):
        slow = SlowStore(shared_store, write_delay=0.02)
        queue = CommitQueue(slow)
        try:
            handle = QueuedStore(slow.for_session("a"), queue)
            _commit(handle, _node("t1"))
            # No explicit flush: the read itself is the barrier.
            assert [n.node_id for n in handle.read_nodes()] == ["t1"]
            assert handle.read_payload("t1", covar_key({"x"})).data == b"blob"
        finally:
            queue.stop()

    def test_fifo_order_within_session(self, shared_store):
        queue = CommitQueue(shared_store)
        try:
            handle = QueuedStore(shared_store.for_session("a"), queue)
            parent = ROOT_ID
            for i in range(1, 8):
                _commit(handle, _node(f"t{i}", parent))
                parent = f"t{i}"
            queue.drain()
            survived = [n.node_id for n in shared_store.for_session("a").read_nodes()]
            assert survived == [f"t{i}" for i in range(1, 8)]
        finally:
            queue.stop()

    def test_backpressure_bounds_queue_depth(self, shared_store):
        slow = SlowStore(shared_store, write_delay=0.01)
        queue = CommitQueue(slow, max_depth=2, max_batch=1)
        try:
            handle = QueuedStore(slow.for_session("a"), queue)
            parent = ROOT_ID
            for i in range(1, 9):
                _commit(handle, _node(f"t{i}", parent))
                parent = f"t{i}"
            queue.drain()
            assert queue.stats()["max_depth"] <= 2
            assert queue.stats()["written"] == 8
        finally:
            queue.stop()

    def test_permanent_failure_poisons_lane_and_reports_once(self):
        inner = InMemoryCheckpointStore()
        # First write_node the writer attempts fails permanently.
        faulty = FaultInjectingStore(
            inner, FaultPlan(rules=(FaultRule("write_node", 0, "permanent"),))
        )
        queue = CommitQueue(faulty)
        try:
            handle = QueuedStore(faulty.for_session("a"), queue)
            _commit(handle, _node("t1"))
            queue.flush()
            # The lane is poisoned: new commits are refused at capture time
            # (the session's delta-carryover machinery takes over).
            with pytest.raises(PermanentStorageError):
                handle.begin_checkpoint("t2")
            with pytest.raises(StorageError, match="t1"):
                queue.drain()
            queue.drain()  # failures are consumed: reported exactly once
            assert queue.stats()["write_failures"] == 1
            assert queue.stats()["poisoned_sessions"] == ["a"]
            # Nothing torn landed in the store.
            assert inner.for_session("a").read_nodes() == []
        finally:
            queue.stop()

    def test_poisoned_lane_fails_follow_up_records(self):
        """FIFO integrity: once a lane lost a commit, queued successors
        (whose parent never landed) are recorded as failures too."""
        inner = InMemoryCheckpointStore()
        faulty = FaultInjectingStore(
            inner, FaultPlan(rules=(FaultRule("write_node", 0, "permanent"),))
        )
        queue = CommitQueue(faulty, max_batch=4)
        try:
            handle = QueuedStore(faulty.for_session("a"), queue)
            _commit(handle, _node("t1"))
            _commit(handle, _node("t2", "t1"))
            with pytest.raises(StorageError, match="2 queued commit"):
                queue.drain()
            assert inner.for_session("a").read_nodes() == []
        finally:
            queue.stop()

    def test_other_sessions_unaffected_by_poisoned_lane(self):
        inner = InMemoryCheckpointStore()
        faulty = FaultInjectingStore(
            inner, FaultPlan(rules=(FaultRule("write_node", 0, "permanent"),))
        )
        queue = CommitQueue(faulty)
        try:
            poisoned = QueuedStore(faulty.for_session("a"), queue)
            healthy = QueuedStore(faulty.for_session("b"), queue)
            _commit(poisoned, _node("t1"))
            queue.flush()
            _commit(healthy, _node("t1"))
            healthy.drain()  # per-session drain: b's lane is clean
            assert [n.node_id for n in inner.for_session("b").read_nodes()] == ["t1"]
            with pytest.raises(StorageError):
                poisoned.drain()
        finally:
            queue.stop()

    def test_writer_tombstone_degradation(self):
        observer = Observer()
        inner = InMemoryCheckpointStore()
        faulty = FaultInjectingStore(
            inner, FaultPlan(rules=(FaultRule("write_payload", 0, "permanent"),))
        )
        queue = CommitQueue(faulty, observer=observer)
        try:
            handle = QueuedStore(faulty.for_session("a"), queue)
            _commit(handle, _node("t1"), [_payload("t1", data=b"precious")])
            queue.drain()  # no failure: the payload degraded, the commit landed
            view = inner.for_session("a")
            assert [n.node_id for n in view.read_nodes()] == ["t1"]
            assert view.read_payload("t1", covar_key({"x"})).data is None
            assert observer.events.of_type(EventType.TOMBSTONE_DEGRADED)
        finally:
            queue.stop()

    @pytest.mark.parametrize("refused", range(5))
    def test_checkout_after_writer_tombstone_reproduces_committed_state(
        self, refused
    ):
        """Only the synchronous path can mark a graph payload unstored: one
        the writer tombstones stays ``stored=True`` in the live session,
        so checkout must still rebuild it through recomputation."""
        store = FaultInjectingStore(
            InMemoryCheckpointStore(),
            FaultPlan(rules=(FaultRule("write_payload", refused, "permanent"),)),
        )
        with SessionManager(store) as manager:
            session = manager.create("a")
            committed: Dict[str, bytes] = {}
            for cell in (
                "xs = [1, 2, 3]",
                "ys = [xs, [4]]",
                "xs.append(5)",
                "zs = [len(xs)] * 3",
                "ys[1].extend(zs)",
            ):
                session.run_cell(cell)
                committed[session.head_id] = canonical_state(session.kernel)
            manager.drain()
            tombstones = manager.observer.events.of_type(EventType.TOMBSTONE_DEGRADED)
            assert len(tombstones) == 1
            for node_id, state in committed.items():
                session.checkout(node_id)
                assert canonical_state(session.kernel) == state, node_id

    def test_writer_crash_reported_and_lock_released(self, shared_store):
        observer = Observer()
        faulty = FaultInjectingStore(
            shared_store, FaultPlan.crash_at_checkpoint_op(2)
        )
        queue = CommitQueue(faulty, observer=observer)
        try:
            handle = QueuedStore(faulty.for_session("a"), queue)
            _commit(handle, _node("t1"))
            queue.flush()  # returns (does not hang) on a crashed writer
            assert queue.crashed
            with pytest.raises(StorageError, match="crashed"):
                queue.drain()
            with pytest.raises(StorageError):
                handle.begin_checkpoint("t2")  # queue refuses new work
            assert observer.events.of_type(EventType.QUEUE_WRITER_CRASHED)
            # Lock hygiene: the dying writer released the shared store's
            # checkpoint lock, so a direct (non-queued) handle can still
            # commit — no process-wide deadlock.
            direct = shared_store.for_session("b")
            _commit(direct, _node("t1"))
            assert [n.node_id for n in direct.read_nodes()] == ["t1"]
        finally:
            queue.stop()

    def test_queue_metrics_published(self, shared_store):
        observer = Observer()
        queue = CommitQueue(shared_store, observer=observer)
        try:
            handle = QueuedStore(shared_store.for_session("a"), queue)
            _commit(handle, _node("t1"))
            queue.drain()
        finally:
            queue.stop()
        assert observer.events.of_type(EventType.COMMIT_ENQUEUED)
        assert observer.events.of_type(EventType.QUEUE_BATCH_WRITTEN)
        assert observer.metrics.histogram("service.batch_size").count == 1
        latency = observer.metrics.histogram("service.write_latency_seconds")
        assert latency.count == 1
        assert latency.bounds == LATENCY_BUCKETS
        assert observer.metrics.gauge("service.queue_depth").value == 0

    def test_concurrent_producers_all_commits_land(self, shared_store):
        queue = CommitQueue(shared_store, max_batch=4)
        errors: List[str] = []
        try:
            def producer(sid: str) -> None:
                try:
                    handle = QueuedStore(shared_store.for_session(sid), queue)
                    parent = ROOT_ID
                    for i in range(1, 11):
                        _commit(handle, _node(f"t{i}", parent))
                        parent = f"t{i}"
                    handle.drain()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(f"{sid}: {exc}")

            threads = [
                threading.Thread(target=producer, args=(f"s{i}",)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            queue.drain()
            for i in range(4):
                survived = [
                    n.node_id
                    for n in shared_store.for_session(f"s{i}").read_nodes()
                ]
                assert survived == [f"t{j}" for j in range(1, 11)]
        finally:
            queue.stop()


# ---------------------------------------------------------------------------
# Session manager registry semantics
# ---------------------------------------------------------------------------


class TestSessionManager:
    def test_create_list_detach(self):
        with SessionManager() as manager:
            session = manager.create("alice", notebook_path="alice.ipynb")
            session.run_cell("x = 1")
            records = {r.session_id: r for r in manager.list()}
            assert records["alice"].status == "active"
            assert records["alice"].notebook_path == "alice.ipynb"
            manager.detach("alice")
            records = {r.session_id: r for r in manager.list()}
            assert records["alice"].status == "detached"
            assert manager.get("alice") is None

    def test_auto_session_ids(self):
        with SessionManager() as manager:
            first = manager.create()
            second = manager.create()
            assert first.session_id != second.session_id
            assert {first.session_id, second.session_id} <= set(
                r.session_id for r in manager.list()
            )

    def test_create_duplicate_refused(self):
        with SessionManager() as manager:
            manager.create("alice")
            with pytest.raises(StorageError, match="already attached"):
                manager.create("alice")
            manager.detach("alice")
            with pytest.raises(StorageError, match="resume it instead"):
                manager.create("alice")

    def test_resume_unknown_refused(self):
        with SessionManager() as manager:
            with pytest.raises(StorageError, match="unknown session"):
                manager.resume("ghost")

    def test_attach_returns_live_session(self):
        with SessionManager() as manager:
            session = manager.create("alice")
            assert manager.attach("alice") is session

    def test_list_filters_by_status(self):
        with SessionManager() as manager:
            manager.create("alice")
            manager.create("bob")
            manager.detach("bob")
            assert [r.session_id for r in manager.list(status="active")] == ["alice"]
            detached = [r.session_id for r in manager.list(status="detached")]
            assert "bob" in detached

    def test_sessions_are_isolated(self):
        with SessionManager() as manager:
            alice = manager.create("alice")
            bob = manager.create("bob")
            alice.run_cell("secret = 41")
            bob.run_cell("other = 1")
            manager.drain()
            assert [n.node_id for n in alice.store.read_nodes()] == ["t1"]
            assert [n.node_id for n in bob.store.read_nodes()] == ["t1"]
            assert sorted(alice.kernel.user_variables()) == ["secret"]
            assert sorted(bob.kernel.user_variables()) == ["other"]

    def test_closed_manager_refuses_work(self):
        manager = SessionManager()
        manager.close()
        with pytest.raises(StorageError, match="closed"):
            manager.create("alice")


# ---------------------------------------------------------------------------
# Acceptance: the rename catastrophe and the blind reconnect
# ---------------------------------------------------------------------------


class TestRenameCatastrophe:
    def test_live_session_survives_notebook_rename(self, tmp_path):
        """The demo paper's rename catastrophe: renaming the notebook
        mid-session must not orphan its checkpoint history."""
        path = str(tmp_path / "service.db")
        with SessionManager(SQLiteCheckpointStore(path)) as manager:
            session = manager.create("exp", notebook_path="untitled.ipynb")
            session.run_cell("model = 'trained'")
            session.run_cell("score = 0.97")

            manager.rename("exp", "final-results.ipynb")

            # Still live, still committing, history intact across the rename.
            session.run_cell("published = True")
            assert [n.node_id for n in session.log()] == ["t1", "t2", "t3"]
            session.checkout("t1")
            assert session.kernel.user_variables()["model"] == "trained"
            record = {r.session_id: r for r in manager.list()}["exp"]
            assert record.notebook_path == "final-results.ipynb"
            assert record.checkpoints >= 1
            renamed = manager.observer.events.of_type(EventType.SESSION_RENAMED)
            assert renamed and renamed[-1].fields["notebook_path"] == "final-results.ipynb"

        # The new path is durable, and history resumes under it.
        with SessionManager(SQLiteCheckpointStore(path)) as manager:
            record = {r.session_id: r for r in manager.list()}["exp"]
            assert record.notebook_path == "final-results.ipynb"
            resumed = manager.resume("exp")
            assert [n.node_id for n in resumed.log()] == ["t1", "t2", "t3"]


class TestBlindReconnect:
    def test_resume_full_state_in_new_process(self, tmp_path):
        """Friday's session, Monday's process: resume by session id alone
        restores the graph, the head state, and time travel."""
        path = str(tmp_path / "service.db")
        with SessionManager(SQLiteCheckpointStore(path)) as manager:
            friday = manager.create("thesis", notebook_path="thesis.ipynb")
            friday.run_cell("data = list(range(10))")
            friday.run_cell("total = sum(data)")
            friday.run_cell("mean = total / len(data)")
            head = friday.head_id
            manager.detach("thesis")

        # A brand-new manager over a reopened store: nothing in memory.
        with SessionManager(SQLiteCheckpointStore(path)) as manager:
            monday = manager.resume("thesis")
            assert monday.head_id == head
            assert [n.node_id for n in monday.log()] == ["t1", "t2", "t3"]
            assert monday.kernel.user_variables()["mean"] == 4.5
            monday.checkout("t1")
            assert sorted(monday.kernel.user_variables()) == ["data"]
            monday.checkout("t3")
            monday.run_cell("variance = sum((d - mean) ** 2 for d in data)")
            assert [n.node_id for n in monday.log()] == ["t1", "t2", "t3", "t4"]
            attached = manager.observer.events.of_type(EventType.SESSION_ATTACHED)
            assert attached and attached[-1].fields["checkpoints"] == 3

    def test_concurrent_fleet_resumes_independently(self, tmp_path):
        path = str(tmp_path / "fleet.db")
        cells = {
            "a": ["x = 1", "y = x + 1"],
            "b": ["s = 'hi'", "t = s * 2"],
            "c": ["n = [1, 2]", "m = n + [3]"],
        }
        with SessionManager(SQLiteCheckpointStore(path)) as manager:
            for sid, sources in cells.items():
                session = manager.create(sid, notebook_path=f"{sid}.ipynb")
                for source in sources:
                    session.run_cell(source)
        with SessionManager(SQLiteCheckpointStore(path)) as manager:
            for sid in cells:
                session = manager.resume(sid)
                assert [n.node_id for n in session.log()] == ["t1", "t2"]
            assert manager.attached_ids() == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# Writer kill-points: every crash recovers to a valid per-session prefix
# ---------------------------------------------------------------------------


_FLEET_CELLS: Dict[str, List[str]] = {
    "a": ["a1 = 10", "a2 = a1 + 5", "a3 = [a1, a2]"],
    "b": ["b1 = 'kishu'", "b2 = b1.upper()", "b3 = len(b2)"],
}


def _run_service_workload(
    store,
) -> Tuple[SessionManager, Dict[Tuple[str, str], bytes], Dict[str, int]]:
    """Drive the fixed two-session workload through a manager over
    ``store``; returns (manager, oracle keyed by (session, node),
    commits accepted per session). Storage errors after a simulated
    writer crash are tolerated — that is the scenario under test."""
    manager = SessionManager(store)
    sessions = {
        sid: manager.create(sid, notebook_path=f"{sid}.ipynb")
        for sid in _FLEET_CELLS
    }
    oracle: Dict[Tuple[str, str], bytes] = {}
    accepted = {sid: 0 for sid in _FLEET_CELLS}
    for step in range(max(len(c) for c in _FLEET_CELLS.values())):
        for sid, session in sessions.items():
            if step >= len(_FLEET_CELLS[sid]):
                continue
            before = session.head_id
            try:
                session.kernel.run_cell(_FLEET_CELLS[sid][step])
            except StorageError:
                continue
            if session.head_id != before:
                accepted[sid] += 1
                oracle[(sid, session.head_id)] = canonical_state(session.kernel)
    return manager, oracle, accepted


class TestWriterKillPoints:
    def test_every_writer_kill_point_leaves_resumable_prefix(self, tmp_path):
        # Fault-free probe run sizes the kill-point universe and records
        # the full oracle (enqueue order is deterministic, so the writer's
        # checkpoint-op sequence is too).
        probe_path = str(tmp_path / "probe.db")
        probe = FaultInjectingStore(SQLiteCheckpointStore(probe_path))
        manager, oracle, _ = _run_service_workload(probe)
        manager.drain()
        total_ops = probe.checkpoint_op_count()
        manager.close()
        assert total_ops >= 4 * sum(len(c) for c in _FLEET_CELLS.values())

        for kill_point in range(total_ops):
            path = str(tmp_path / f"kp{kill_point}.db")
            store = FaultInjectingStore(
                SQLiteCheckpointStore(path),
                FaultPlan.crash_at_checkpoint_op(kill_point),
            )
            manager, _, _ = _run_service_workload(store)
            manager.close()  # flush returns on a crashed writer; close store
            assert store.crashed, f"kill-point {kill_point} never fired"

            # Reboot: reopen the durable store; recovery sweeps any torn
            # record the dying writer left behind.
            reopened = SQLiteCheckpointStore(path)
            try:
                for sid in _FLEET_CELLS:
                    view = reopened.for_session(sid)
                    kernel = NotebookKernel()
                    session = KishuSession.resume(kernel, view)
                    assert session.graph.orphaned_node_ids == []
                    surviving = sorted(
                        (
                            n.node_id
                            for n in session.graph.all_nodes()
                            if n.node_id != ROOT_ID
                        ),
                        key=lambda nid: int(nid[1:]),
                    )
                    # A valid prefix: consecutive ids from t1, each fully
                    # committed during the run...
                    assert surviving == [
                        f"t{i}" for i in range(1, len(surviving) + 1)
                    ], f"kill-point {kill_point}, session {sid}"
                    # ...and each reproducing the oracle state exactly.
                    for node_id in surviving:
                        session.checkout(node_id)
                        assert canonical_state(kernel) == oracle[(sid, node_id)], (
                            f"kill-point {kill_point}: state mismatch at "
                            f"{sid}/{node_id}"
                        )
            finally:
                reopened.close()
