"""Crash-consistency and fault-injection harness.

The durability claim under test: *a checkpoint is observable after
restart if and only if it committed wholly*. The harness runs random
workload cell sequences through a fault-injected checkpoint store and
verifies, for every enumerated kill-point and every seeded fault plan:

(a) reopening the store yields only committed nodes — the recovered
    graph is a valid prefix tree of the original history, never a torn
    checkpoint;
(b) ``checkout()`` of every surviving node reproduces the in-memory
    oracle state exactly (the ``test_oracle`` equivalence helpers);
(c) transient faults are absorbed by retry with zero data loss;
(d) permanent payload faults degrade to tombstones and checkout falls
    back to recomputation.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import pytest

from test_oracle import canonical_state, generate_cell
from test_storage import assert_blocks_consistent

from repro.core.graph import ROOT_ID
from repro.core.retry import RetryPolicy
from repro.core.session import KishuSession
from repro.core.storage import (
    CheckpointStore,
    InMemoryCheckpointStore,
    SQLiteCheckpointStore,
    StoredNode,
    StoredPayload,
    persist_checkpoint,
)
from repro.errors import (
    PermanentStorageError,
    SimulatedCrash,
    StorageError,
    TransientStorageError,
)
from repro.faults import (
    FaultInjectingSerializer,
    FaultInjectingStore,
    FaultPlan,
    FaultRule,
    VirtualClock,
)
from repro.kernel.kernel import NotebookKernel


def _key(names) -> frozenset:
    return frozenset(names)


def scripted_workload(seed: int, n_cells: int) -> List[str]:
    """Deterministic cell sources for one workload, generated by a
    fault-free dry run (cell generation depends on the live namespace,
    so sources are recorded once and replayed verbatim under faults)."""
    rng = random.Random(seed)
    kernel = NotebookKernel()
    cells: List[str] = []
    for counter in range(n_cells):
        live = sorted(kernel.user_variables())
        cell = generate_cell(rng, live, counter)
        cells.append(cell)
        kernel.run_cell(cell)
    return cells


def run_workload(
    cells: List[str],
    store: CheckpointStore,
    *,
    retry: Optional[RetryPolicy] = None,
    serializer=None,
    tolerate_storage_errors: bool = False,
) -> Tuple[KishuSession, Dict[str, bytes], Optional[SimulatedCrash]]:
    """Replay recorded cells; returns (session, oracle, crash-or-None).

    The oracle maps each node id to the canonical in-memory state at the
    moment that checkpoint committed. A cell whose checkpoint failed
    (tolerated storage error) records nothing — its delta carries over
    into the next committed node, whose oracle entry then covers both.
    """
    kernel = NotebookKernel()
    kwargs = {}
    if retry is not None:
        kwargs["retry"] = retry
    if serializer is not None:
        kwargs["serializer"] = serializer
    session = KishuSession.init(kernel, store=store, **kwargs)
    oracle: Dict[str, bytes] = {}
    for cell in cells:
        before = session.head_id
        try:
            kernel.run_cell(cell)
        except SimulatedCrash as crash:
            return session, oracle, crash
        except StorageError:
            if not tolerate_storage_errors:
                raise
            continue
        if session.head_id != before:
            oracle[session.head_id] = canonical_state(kernel)
    return session, oracle, None


def reopened(store: FaultInjectingStore, path: Optional[str]) -> CheckpointStore:
    """Simulate a reboot after a crash: drop the dead connection and
    reopen the durable store (recovery scans on open), or run an explicit
    recovery scan on the in-memory backend."""
    if path is not None:
        store.inner.close()  # closing mid-transaction rolls back, like a crash
        return SQLiteCheckpointStore(path)
    inner = store.inner
    inner.recover()
    return inner


def assert_recovery_invariants(store: CheckpointStore, oracle: Dict[str, bytes]) -> None:
    """The two crash-consistency guarantees, checked via a full resume."""
    kernel = NotebookKernel()
    session = KishuSession.resume(kernel, store)
    assert session.graph.orphaned_node_ids == [], "recovered graph must be a tree"

    surviving = sorted(
        (n.node_id for n in session.graph.all_nodes() if n.node_id != ROOT_ID),
        key=lambda nid: int(nid[1:]),
    )
    # (a) Only whole checkpoints survive, as a prefix of the history:
    # node ids are consecutive from t1 and every one has an oracle entry.
    assert surviving == [f"t{i}" for i in range(1, len(surviving) + 1)]
    for node_id in surviving:
        assert node_id in oracle, f"{node_id} survived but never fully committed"

    # (b) Every surviving state is reproduced exactly.
    for node_id in surviving:
        session.checkout(node_id)
        assert canonical_state(kernel) == oracle[node_id], (
            f"state mismatch at {node_id} after crash recovery"
        )


# ---------------------------------------------------------------------------
# Kill-point enumeration: crash at EVERY checkpoint-protocol operation.
# ---------------------------------------------------------------------------


class TestKillPointEnumeration:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_kill_point_memory(self, seed):
        cells = scripted_workload(seed, n_cells=8)

        # Fault-free run to size the kill-point universe and the oracle.
        probe = FaultInjectingStore(InMemoryCheckpointStore())
        _, oracle, crash = run_workload(cells, probe)
        assert crash is None
        total_ops = probe.checkpoint_op_count()
        assert total_ops > 0

        for kill_point in range(total_ops):
            store = FaultInjectingStore(
                InMemoryCheckpointStore(),
                FaultPlan.crash_at_checkpoint_op(kill_point),
            )
            _, partial_oracle, crash = run_workload(cells, store)
            assert crash is not None, f"kill-point {kill_point} never fired"
            assert store.crashed
            recovered = reopened(store, None)
            assert_recovery_invariants(recovered, partial_oracle)

    def test_every_kill_point_sqlite_durable(self, tmp_path):
        cells = scripted_workload(seed=7, n_cells=5)

        probe = FaultInjectingStore(SQLiteCheckpointStore(":memory:"))
        _, oracle, crash = run_workload(cells, probe)
        assert crash is None
        total_ops = probe.checkpoint_op_count()
        probe.close()

        for kill_point in range(total_ops):
            path = str(tmp_path / f"kp{kill_point}.db")
            store = FaultInjectingStore(
                SQLiteCheckpointStore(path),
                FaultPlan.crash_at_checkpoint_op(kill_point),
            )
            _, partial_oracle, crash = run_workload(cells, store)
            assert crash is not None
            recovered = reopened(store, path)
            report = recovered.last_recovery
            assert report is not None
            assert_recovery_invariants(recovered, partial_oracle)
            recovered.close()

    def test_every_kill_point_sqlite_shared_blocks(self, tmp_path):
        """A co-variable of several payload blocks, edited in place and
        appended to, so consecutive nodes share blocks: every crash point
        recovers to a valid prefix, and recovery leaves every block
        referenced and every block list owned by a payload."""
        cells = [
            "buf = bytearray((i * 7919) % 251 for i in range(200_000))",
            "buf[70_000] ^= 0xFF",
            "buf.extend(b'tail')",
            "note = [len(buf)]",
            "buf[150_000:150_004] = b'edit'",
            "buf.extend(bytes(70_000))",
        ]
        probe = FaultInjectingStore(SQLiteCheckpointStore(":memory:"))
        _, oracle, crash = run_workload(cells, probe)
        assert crash is None
        conn = probe.inner._conn
        (references,) = conn.execute("SELECT COUNT(*) FROM payload_blocks").fetchone()
        (blocks,) = conn.execute("SELECT COUNT(*) FROM blocks").fetchone()
        assert blocks >= 4 and references > blocks, "nodes must share blocks"
        total_ops = probe.checkpoint_op_count()
        probe.close()

        for kill_point in range(total_ops):
            path = str(tmp_path / f"kp{kill_point}.db")
            store = FaultInjectingStore(
                SQLiteCheckpointStore(path),
                FaultPlan.crash_at_checkpoint_op(kill_point),
            )
            _, partial_oracle, crash = run_workload(cells, store)
            assert crash is not None
            recovered = reopened(store, path)
            assert recovered.last_recovery is not None
            assert_recovery_invariants(recovered, partial_oracle)
            assert_blocks_consistent(recovered)
            recovered.close()

    def test_torn_write_after_k_payloads(self):
        """The named torn-write scenario: crash once K payloads landed."""
        cells = [
            "a = list(range(5))",
            "b = {'x': 1}\nc = [9]\nd = 'многоknots'",  # several co-variables
            "e = [a, 7]",
        ]
        for k in range(4):
            store = FaultInjectingStore(
                InMemoryCheckpointStore(), FaultPlan.torn_after_payloads(k)
            )
            _, oracle, crash = run_workload(cells, store)
            assert crash is not None
            recovered = reopened(store, None)
            assert_recovery_invariants(recovered, oracle)


# ---------------------------------------------------------------------------
# Seeded fault plans: transient, permanent, serialization — property-based.
# ---------------------------------------------------------------------------


class TestSeededFaultPlans:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_fault_plan_never_corrupts(self, seed):
        cells = scripted_workload(seed, n_cells=10)
        plan = FaultPlan.random(seed)
        clock = VirtualClock()
        store = FaultInjectingStore(InMemoryCheckpointStore(), plan)
        serializer = FaultInjectingSerializer(script=store.script)
        retry = RetryPolicy(max_attempts=4, base_delay=0.01, sleep=clock.sleep)

        _, oracle, crash = run_workload(
            cells,
            store,
            retry=retry,
            serializer=serializer,
            tolerate_storage_errors=True,
        )
        assert crash is None  # random plans exclude crashes by default
        recovered = reopened(store, None)
        assert_recovery_invariants(recovered, oracle)

    def test_transient_faults_absorbed_with_zero_data_loss(self):
        cells = scripted_workload(seed=3, n_cells=8)
        plan = FaultPlan(
            rules=(
                FaultRule("write", 1, "transient", times=2),
                FaultRule("write", 6, "transient", times=3),
                FaultRule("commit_checkpoint", 2, "transient"),
            )
        )
        clock = VirtualClock()
        store = FaultInjectingStore(InMemoryCheckpointStore(), plan)
        retry = RetryPolicy(max_attempts=4, base_delay=0.01, sleep=clock.sleep)

        session, oracle, crash = run_workload(cells, store, retry=retry)
        assert crash is None
        assert clock.sleeps, "transient faults must have triggered backoff"
        # Zero data loss: every cell's checkpoint committed.
        committed = [n for n in store.inner.read_nodes()]
        assert len(committed) == len(cells)
        assert len(oracle) == len(cells)
        recovered = reopened(store, None)
        assert_recovery_invariants(recovered, oracle)

    def test_exponential_backoff_schedule(self):
        clock = VirtualClock()
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.01, multiplier=2.0, sleep=clock.sleep
        )
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 4:
                raise TransientStorageError("not yet")
            return "ok"

        assert policy.run(flaky) == "ok"
        assert clock.sleeps == [0.01, 0.02, 0.04]

    def test_retry_exhaustion_raises_last_transient(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, sleep=lambda _s: None)
        with pytest.raises(TransientStorageError):
            policy.run(lambda: (_ for _ in ()).throw(TransientStorageError("x")))

    def test_permanent_fault_does_not_retry(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_attempts=5, sleep=clock.sleep)
        calls = []

        def broken():
            calls.append(1)
            raise PermanentStorageError("disk gone")

        with pytest.raises(PermanentStorageError):
            policy.run(broken)
        assert len(calls) == 1
        assert clock.sleeps == []


# ---------------------------------------------------------------------------
# Graceful degradation: tombstones and fallback recomputation.
# ---------------------------------------------------------------------------


class TestGracefulDegradation:
    def test_permanent_payload_fault_degrades_to_tombstone(self):
        cells = ["xs = [1, 2, 3]", "ys = [x * 2 for x in xs]", "zs = sum(ys)"]
        # Permanently refuse the second payload write; the tombstone
        # retry (a fresh write) succeeds.
        plan = FaultPlan(rules=(FaultRule("write_payload", 1, "permanent"),))
        store = FaultInjectingStore(InMemoryCheckpointStore(), plan)
        retry = RetryPolicy(max_attempts=2, base_delay=0.0, sleep=lambda _s: None)

        session, oracle, crash = run_workload(cells, store, retry=retry)
        assert crash is None
        assert sum(m.degraded_payloads for m in session.metrics) == 1

        # The degraded co-variable is tombstoned, not torn: the node is
        # committed, and checkout recomputes the value from recorded
        # dependencies (§5.3).
        recovered = reopened(store, None)
        assert_recovery_invariants(recovered, oracle)

    def test_injected_serialization_fault_falls_back_to_recompute(self):
        cells = ["base = [4, 5]", "derived = [v + 1 for v in base]"]
        serializer = FaultInjectingSerializer(
            plan=FaultPlan.serialization_failure(1)
        )
        store = InMemoryCheckpointStore()
        _, oracle, crash = run_workload(cells, store, serializer=serializer)
        assert crash is None

        kernel = NotebookKernel()
        session = KishuSession.resume(kernel, store)
        report = session.checkout("t2")
        assert kernel.get("derived") == [5, 6]

    def test_node_write_permanent_failure_carries_delta_forward(self):
        """A checkpoint whose node write permanently fails is aborted,
        but its delta folds into the next committed checkpoint."""
        cells = ["p = [1]", "q = [2]", "r = [3]"]
        plan = FaultPlan(rules=(FaultRule("write_node", 1, "permanent"),))
        store = FaultInjectingStore(InMemoryCheckpointStore(), plan)
        retry = RetryPolicy(max_attempts=2, base_delay=0.0, sleep=lambda _s: None)

        session, oracle, crash = run_workload(
            cells, store, retry=retry, tolerate_storage_errors=True
        )
        assert crash is None
        # Two committed checkpoints (t1, then t2 carrying q and r).
        node_ids = [n.node_id for n in store.inner.read_nodes()]
        assert node_ids == ["t1", "t2"]
        merged = session.graph.get("t2")
        assert "q = [2]" in merged.cell_source and "r = [3]" in merged.cell_source

        recovered = reopened(store, None)
        assert_recovery_invariants(recovered, oracle)

    def test_checkout_discards_carried_delta(self):
        """Names created by a storage-failed checkpoint must not survive
        time travel (found by the PR 6 soak fuzzer): a checkout moves
        to a *recorded* state, so the stashed carryover — invisible to
        the plan's committed-state diff — belongs to the abandoned
        timeline and is dropped, from the namespace and the pool both."""
        plan = FaultPlan(rules=(FaultRule("write_node", 1, "permanent"),))
        store = FaultInjectingStore(InMemoryCheckpointStore(), plan)
        retry = RetryPolicy(max_attempts=2, base_delay=0.0, sleep=lambda _s: None)
        kernel = NotebookKernel()
        session = KishuSession.init(kernel, store=store, retry=retry)

        kernel.run_cell("keep = [1]")
        with pytest.raises(StorageError):
            kernel.run_cell("ghost = [2]")  # node write fails -> carryover
        assert session._carryover is not None
        assert "ghost" in kernel.user_variables()

        session.checkout("t1")
        assert session._carryover is None
        assert "ghost" not in kernel.user_variables()
        assert session.pool.key_of("ghost") is None
        assert kernel.get("keep") == [1]

        # The next commit is clean: no resurrected ghost in its state.
        kernel.run_cell("after = keep + [9]")
        head = session.graph.head
        assert "ghost" not in head.state.names()
        assert "after" in head.state.names()


# ---------------------------------------------------------------------------
# Protocol + recovery unit coverage (both backends via any_store).
# ---------------------------------------------------------------------------


def _payload(node_id: str) -> StoredPayload:
    return StoredPayload(
        node_id=node_id, key=_key({"x"}), data=b"d", serializer="primary"
    )


def _node(node_id: str, parent: str = "t0", timestamp: Optional[int] = None):
    return StoredNode(
        node_id=node_id,
        parent_id=parent,
        timestamp=timestamp if timestamp is not None else int(node_id[1:]),
        execution_count=int(node_id[1:]),
        cell_source=f"cell {node_id}",
        deleted_keys=(),
        dependencies=(),
    )


class TestCommitProtocol:
    def test_uncommitted_node_invisible(self, any_store):
        any_store.begin_checkpoint("t1")
        any_store.write_node(_node("t1"))
        any_store.write_payload(
            StoredPayload(node_id="t1", key=_key({"x"}), data=b"d", serializer="primary")
        )
        assert any_store.read_nodes() == []
        any_store.commit_checkpoint("t1")
        assert [n.node_id for n in any_store.read_nodes()] == ["t1"]

    def test_rollback_discards_everything(self, any_store):
        any_store.begin_checkpoint("t1")
        any_store.write_node(_node("t1"))
        any_store.write_payload(
            StoredPayload(node_id="t1", key=_key({"x"}), data=b"d", serializer="primary")
        )
        any_store.rollback_checkpoint("t1")
        assert any_store.read_nodes() == []
        with pytest.raises(StorageError):
            any_store.read_payload("t1", _key({"x"}))
        assert not any_store.in_checkpoint

    def test_checkpoint_context_manager_commits(self, any_store):
        """``persist_checkpoint`` publishes the whole checkpoint."""
        assert persist_checkpoint(any_store, _node("t1"), [_payload("t1")]) == []
        assert [n.node_id for n in any_store.read_nodes()] == ["t1"]
        assert any_store.read_payload("t1", _key({"x"})).data == b"d"
        assert not any_store.in_checkpoint

    def test_checkpoint_context_manager_rolls_back_on_error(
        self, any_store, monkeypatch
    ):
        """Any Exception mid-protocol rolls the checkpoint back."""

        def boom(node):
            raise RuntimeError("boom")

        monkeypatch.setattr(any_store, "write_node", boom)
        with pytest.raises(RuntimeError):
            persist_checkpoint(any_store, _node("t1"), [_payload("t1")])
        assert not any_store.in_checkpoint
        assert any_store.read_nodes() == []
        with pytest.raises(StorageError):
            any_store.read_payload("t1", _key({"x"}))

    def test_simulated_crash_escapes_context_without_rollback(self, any_store):
        """A SimulatedCrash must leave the uncommitted state in place —
        recovery, not rollback, is what cleans it."""
        crashing = FaultInjectingStore(
            any_store, FaultPlan(rules=(FaultRule("write_node", 0, "crash"),))
        )
        with pytest.raises(SimulatedCrash):
            persist_checkpoint(crashing, _node("t1"), [_payload("t1")])
        assert "rollback_checkpoint:t1" not in crashing.op_log
        assert any_store.in_checkpoint  # the "process" died holding it
        any_store.recover()
        assert not any_store.in_checkpoint
        assert any_store.read_nodes() == []

    def test_double_begin_rejected(self, any_store):
        any_store.begin_checkpoint("t1")
        with pytest.raises(StorageError):
            any_store.begin_checkpoint("t2")

    def test_commit_without_begin_rejected(self, any_store):
        with pytest.raises(StorageError):
            any_store.commit_checkpoint("t1")

    def test_recover_sweeps_orphan_payloads(self, any_store):
        any_store.write_payload(
            StoredPayload(
                node_id="t9", key=_key({"ghost"}), data=b"zzz", serializer="primary"
            )
        )
        report = any_store.recover()
        assert len(report.orphan_payloads) == 1
        assert not report.clean
        assert "orphan" in report.summary()
        with pytest.raises(StorageError):
            any_store.read_payload("t9", _key({"ghost"}))

    def test_recover_on_clean_store(self, any_store):
        any_store.write_node(_node("t1"))
        report = any_store.recover()
        assert report.clean
        assert "clean" in report.summary()
        assert [n.node_id for n in any_store.read_nodes()] == ["t1"]


class TestSQLiteCrashDurability:
    def test_uncommitted_transaction_lost_on_reopen(self, tmp_path):
        path = str(tmp_path / "crash.db")
        store = SQLiteCheckpointStore(path)
        store.write_node(_node("t1"))
        store.begin_checkpoint("t2")
        store.write_node(_node("t2", parent="t1"))
        store.write_payload(
            StoredPayload(node_id="t2", key=_key({"y"}), data=b"torn", serializer="p")
        )
        store.close()  # crash: no commit

        reopened_store = SQLiteCheckpointStore(path)
        assert [n.node_id for n in reopened_store.read_nodes()] == ["t1"]
        with pytest.raises(StorageError):
            reopened_store.read_payload("t2", _key({"y"}))
        reopened_store.close()

    def test_recovery_sweeps_committed_zero_rows(self, tmp_path):
        """Rows that reach disk outside a transaction with committed=0
        (the marker's belt-and-braces case) are swept on open."""
        path = str(tmp_path / "marker.db")
        store = SQLiteCheckpointStore(path)
        store._conn.execute(
            "INSERT INTO nodes VALUES ('default', 't5', 't0', 5, 5, 'torn', 0)"
        )
        store._conn.execute(
            "INSERT INTO payloads VALUES ('default', 't5', 'v', 1, 'primary')"
        )
        store._conn.execute(
            "INSERT INTO payload_blocks VALUES ('default', 't5', 'v', 0, X'AB')"
        )
        store._conn.execute("INSERT INTO blocks VALUES (X'AB', X'00')")
        store.close()

        reopened_store = SQLiteCheckpointStore(path)
        report = reopened_store.last_recovery
        assert report is not None and report.swept_nodes == ("t5",)
        assert reopened_store.read_nodes() == []
        assert reopened_store.payloads_of("t5") == []
        assert_blocks_consistent(reopened_store)
        (blocks,) = reopened_store._conn.execute("SELECT COUNT(*) FROM blocks").fetchone()
        assert blocks == 0
        reopened_store.close()

    def test_pre_durability_database_migrates(self, tmp_path):
        """A database created before the committed column existed opens
        cleanly; its rows are presumed committed."""
        import sqlite3

        path = str(tmp_path / "old.db")
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE nodes (
                node_id TEXT PRIMARY KEY, parent_id TEXT,
                timestamp INTEGER NOT NULL, execution_count INTEGER NOT NULL,
                cell_source TEXT NOT NULL
            );
            CREATE TABLE node_deletes (node_id TEXT NOT NULL, covar_key TEXT NOT NULL,
                PRIMARY KEY (node_id, covar_key));
            CREATE TABLE node_deps (node_id TEXT NOT NULL, covar_key TEXT NOT NULL,
                ref_node TEXT NOT NULL, PRIMARY KEY (node_id, covar_key));
            CREATE TABLE payloads (node_id TEXT NOT NULL, covar_key TEXT NOT NULL,
                data BLOB, serializer TEXT, PRIMARY KEY (node_id, covar_key));
            INSERT INTO nodes VALUES ('t1', 't0', 1, 1, 'x = 1');
            """
        )
        conn.commit()
        conn.close()

        store = SQLiteCheckpointStore(path)
        assert [n.node_id for n in store.read_nodes()] == ["t1"]
        assert store.last_recovery.clean
        store.close()


class TestFaultPlanDeterminism:
    def test_same_seed_same_plan(self):
        assert FaultPlan.random(42) == FaultPlan.random(42)

    def test_different_seeds_differ_somewhere(self):
        plans = {FaultPlan.random(seed).rules for seed in range(20)}
        assert len(plans) > 1

    def test_script_counters_are_per_run(self):
        plan = FaultPlan.fail_nth_write(0, kind="transient")
        store1 = FaultInjectingStore(InMemoryCheckpointStore(), plan)
        with pytest.raises(TransientStorageError):
            store1.write_node(_node("t1"))
        store1.write_node(_node("t1"))  # occurrence 1: passes

        store2 = FaultInjectingStore(InMemoryCheckpointStore(), plan)
        with pytest.raises(TransientStorageError):
            store2.write_node(_node("t1"))  # fresh counters, fires again

    def test_crashed_store_stays_dead(self):
        plan = FaultPlan(rules=(FaultRule("write_node", 0, "crash"),))
        store = FaultInjectingStore(InMemoryCheckpointStore(), plan)
        with pytest.raises(SimulatedCrash):
            store.write_node(_node("t1"))
        with pytest.raises(PermanentStorageError):
            store.read_nodes()
        with pytest.raises(PermanentStorageError):
            store.write_node(_node("t1"))

    def test_op_log_records_fault_free_trace(self):
        store = FaultInjectingStore(InMemoryCheckpointStore())
        persist_checkpoint(store, _node("t1"), [_payload("t1")])
        assert store.op_log == [
            "begin_checkpoint:t1",
            "write_payload:t1",
            "write_node:t1",
            "commit_checkpoint:t1",
        ]
        assert store.checkpoint_op_count() == 4
