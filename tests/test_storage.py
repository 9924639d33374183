"""Tests for checkpoint stores (SQLite and in-memory backends)."""

from __future__ import annotations

import pytest

from repro.core.covariable import covar_key
from repro.core.storage import (
    SQLiteCheckpointStore,
    StoredNode,
    StoredPayload,
    decode_key,
    encode_key,
    persist_checkpoint,
)
from repro.errors import StorageError


def make_node(node_id="t1", parent="t0"):
    return StoredNode(
        node_id=node_id,
        parent_id=parent,
        timestamp=int(node_id[1:]),
        execution_count=int(node_id[1:]),
        cell_source=f"x_{node_id} = 1",
        deleted_keys=(covar_key({"old"}),),
        dependencies=((covar_key({"dep"}), "t0"),),
    )


class TestKeyEncoding:
    def test_roundtrip(self):
        key = covar_key({"beta", "alpha"})
        assert decode_key(encode_key(key)) == key

    def test_canonical_order(self):
        assert encode_key(covar_key({"b", "a"})) == encode_key(covar_key({"a", "b"}))

    def test_empty_key(self):
        assert decode_key(encode_key(frozenset())) == frozenset()


class TestStoreParity:
    """Both backends must behave identically (the `any_store` fixture
    parameterizes over them)."""

    def test_node_roundtrip(self, any_store):
        node = make_node()
        any_store.write_node(node)
        (read,) = any_store.read_nodes()
        assert read == node

    def test_nodes_ordered_by_timestamp(self, any_store):
        any_store.write_node(make_node("t3", "t2"))
        any_store.write_node(make_node("t1", "t0"))
        ids = [n.node_id for n in any_store.read_nodes()]
        assert ids == ["t1", "t3"]

    def test_same_timestamp_orders_by_execution_count(self, any_store):
        """Regression: same-second checkpoints must not reorder parent
        after child on reload — execution count breaks the tie."""
        shared_ts = 100
        child = StoredNode(
            node_id="t2", parent_id="t1", timestamp=shared_ts,
            execution_count=2, cell_source="child",
            deleted_keys=(), dependencies=(),
        )
        parent = StoredNode(
            node_id="t1", parent_id="t0", timestamp=shared_ts,
            execution_count=1, cell_source="parent",
            deleted_keys=(), dependencies=(),
        )
        any_store.write_node(child)
        any_store.write_node(parent)
        ids = [n.node_id for n in any_store.read_nodes()]
        assert ids == ["t1", "t2"]

    def test_same_timestamp_and_count_keeps_insertion_order(self, any_store):
        """Final tiebreaker: insertion order, so reload is deterministic
        even for fully tied rows."""
        rows = [
            StoredNode(
                node_id=f"t{i}", parent_id="t0", timestamp=7,
                execution_count=7, cell_source=str(i),
                deleted_keys=(), dependencies=(),
            )
            for i in (3, 1, 2)
        ]
        for row in rows:
            any_store.write_node(row)
        ids = [n.node_id for n in any_store.read_nodes()]
        assert ids == ["t3", "t1", "t2"]

    def test_payload_roundtrip(self, any_store):
        payload = StoredPayload(
            node_id="t1", key=covar_key({"x"}), data=b"blob", serializer="primary"
        )
        any_store.write_payload(payload)
        read = any_store.read_payload("t1", covar_key({"x"}))
        assert read.data == b"blob"
        assert read.serializer == "primary"
        assert read.stored

    def test_tombstone_payload(self, any_store):
        any_store.write_payload(
            StoredPayload(node_id="t1", key=covar_key({"g"}), data=None, serializer=None)
        )
        read = any_store.read_payload("t1", covar_key({"g"}))
        assert not read.stored
        assert read.size_bytes == 0

    def test_missing_payload_raises(self, any_store):
        with pytest.raises(StorageError):
            any_store.read_payload("t9", covar_key({"nope"}))

    def test_payloads_of_node(self, any_store):
        for name in ("a", "b"):
            any_store.write_payload(
                StoredPayload(
                    node_id="t1",
                    key=covar_key({name}),
                    data=name.encode(),
                    serializer="primary",
                )
            )
        any_store.write_payload(
            StoredPayload(
                node_id="t2", key=covar_key({"c"}), data=b"c", serializer="primary"
            )
        )
        assert len(any_store.payloads_of("t1")) == 2

    def test_total_payload_bytes(self, any_store):
        any_store.write_payload(
            StoredPayload(
                node_id="t1", key=covar_key({"a"}), data=b"12345", serializer="primary"
            )
        )
        any_store.write_payload(
            StoredPayload(node_id="t1", key=covar_key({"b"}), data=None, serializer=None)
        )
        assert any_store.total_payload_bytes() == 5

    def test_payload_overwrite_replaces(self, any_store):
        key = covar_key({"x"})
        any_store.write_payload(
            StoredPayload(node_id="t1", key=key, data=b"old", serializer="primary")
        )
        any_store.write_payload(
            StoredPayload(node_id="t1", key=key, data=b"newer", serializer="fallback")
        )
        read = any_store.read_payload("t1", key)
        assert read.data == b"newer"
        assert read.serializer == "fallback"


class TestSQLiteDurability:
    def test_persists_across_connections(self, tmp_path):
        path = str(tmp_path / "checkpoints.db")
        with SQLiteCheckpointStore(path) as store:
            store.write_node(make_node())
            store.write_payload(
                StoredPayload(
                    node_id="t1",
                    key=covar_key({"x"}),
                    data=b"durable",
                    serializer="primary",
                )
            )
        with SQLiteCheckpointStore(path) as reopened:
            assert len(reopened.read_nodes()) == 1
            assert reopened.read_payload("t1", covar_key({"x"})).data == b"durable"

    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "c.db")
        with SQLiteCheckpointStore(path) as store:
            pass
        with pytest.raises(Exception):
            store.read_nodes()  # connection closed

    def test_full_round_trip_survives_reopen(self, tmp_path):
        """Every persisted facet — nodes, deletes, deps, stored payloads,
        and tombstones — must survive a close/reopen of a file-backed
        store, byte for byte."""
        path = str(tmp_path / "full.db")
        node = StoredNode(
            node_id="t1",
            parent_id="t0",
            timestamp=1,
            execution_count=3,
            cell_source="df = df.drop(columns=['x'])\ntotal = df.sum()",
            deleted_keys=(covar_key({"tmp"}), covar_key({"old", "older"})),
            dependencies=(
                (covar_key({"df"}), "t0"),
                (covar_key({"cfg", "params"}), "t0"),
            ),
        )
        stored = StoredPayload(
            node_id="t1", key=covar_key({"df"}), data=b"\x00blob\xff", serializer="primary"
        )
        tombstone = StoredPayload(
            node_id="t1", key=covar_key({"cfg", "params"}), data=None, serializer=None
        )
        with SQLiteCheckpointStore(path) as store:
            persist_checkpoint(store, node, [stored, tombstone])

        with SQLiteCheckpointStore(path) as back:
            assert back.last_recovery is not None and back.last_recovery.clean
            (read,) = back.read_nodes()
            assert (read.node_id, read.parent_id, read.timestamp) == ("t1", "t0", 1)
            assert read.execution_count == 3
            assert read.cell_source == node.cell_source
            assert set(read.deleted_keys) == set(node.deleted_keys)
            assert dict(read.dependencies) == dict(node.dependencies)
            payload = back.read_payload("t1", covar_key({"df"}))
            assert payload.data == b"\x00blob\xff"
            assert payload.serializer == "primary"
            ghost = back.read_payload("t1", covar_key({"cfg", "params"}))
            assert not ghost.stored and ghost.data is None
            assert back.total_payload_bytes() == len(b"\x00blob\xff")
            assert len(back.payloads_of("t1")) == 2


# ---------------------------------------------------------------------------
# Multi-session schema: namespacing, registry, migration
# ---------------------------------------------------------------------------


class TestSessionNamespacing:
    def test_for_session_views_are_isolated(self, any_store):
        alice = any_store.for_session("alice")
        bob = any_store.for_session("bob")
        alice.write_node(make_node("t1"))
        alice.write_payload(
            StoredPayload(
                node_id="t1", key=covar_key({"x"}), data=b"A", serializer="primary"
            )
        )
        bob.write_node(make_node("t1"))
        bob.write_payload(
            StoredPayload(
                node_id="t1", key=covar_key({"x"}), data=b"B", serializer="primary"
            )
        )
        # Same node id, two namespaces, no collision.
        assert alice.read_payload("t1", covar_key({"x"})).data == b"A"
        assert bob.read_payload("t1", covar_key({"x"})).data == b"B"
        assert len(alice.read_nodes()) == 1
        assert alice.total_payload_bytes() == 1

    def test_checkpoint_transactions_are_per_view(self, any_store):
        alice = any_store.for_session("alice")
        bob = any_store.for_session("bob")
        alice.begin_checkpoint("t1")
        alice.write_node(make_node("t1"))
        # An uncommitted checkpoint in one session is invisible to another.
        assert bob.read_nodes() == []
        alice.commit_checkpoint("t1")
        assert bob.read_nodes() == []
        assert [n.node_id for n in alice.read_nodes()] == ["t1"]

    def test_registry_roundtrip(self, any_store):
        any_store.register_session("alice", "alice.ipynb", status="active")
        any_store.register_session("bob", "bob.ipynb")
        assert any_store.has_session("alice")
        assert not any_store.has_session("ghost")
        records = {r.session_id: r for r in any_store.list_sessions()}
        assert records["alice"].status == "active"
        assert records["bob"].notebook_path == "bob.ipynb"

    def test_register_is_idempotent(self, any_store):
        any_store.register_session("alice", "alice.ipynb", status="active")
        any_store.register_session("alice", "other.ipynb")
        record = {r.session_id: r for r in any_store.list_sessions()}["alice"]
        # First registration wins; re-registering must not clobber.
        assert record.notebook_path == "alice.ipynb"
        assert record.status == "active"

    def test_rename_session(self, any_store):
        any_store.register_session("alice", "untitled.ipynb")
        any_store.rename_session("alice", "final.ipynb")
        record = {r.session_id: r for r in any_store.list_sessions()}["alice"]
        assert record.notebook_path == "final.ipynb"
        with pytest.raises(StorageError, match="unknown session"):
            any_store.rename_session("ghost", "x.ipynb")

    def test_session_status_transitions(self, any_store):
        any_store.register_session("alice")
        any_store.set_session_status("alice", "active")
        record = {r.session_id: r for r in any_store.list_sessions()}["alice"]
        assert record.status == "active"
        with pytest.raises(StorageError, match="unknown session"):
            any_store.set_session_status("ghost", "active")

    def test_list_counts_only_committed_checkpoints(self, any_store):
        view = any_store.for_session("alice")
        view.begin_checkpoint("t1")
        view.write_node(make_node("t1"))
        view.commit_checkpoint("t1")
        view.begin_checkpoint("t2")
        view.write_node(make_node("t2", "t1"))
        view.rollback_checkpoint("t2")
        record = {r.session_id: r for r in any_store.list_sessions()}["alice"]
        assert record.checkpoints == 1

    def test_sessions_persist_across_reopen(self, tmp_path):
        path = str(tmp_path / "multi.db")
        with SQLiteCheckpointStore(path) as store:
            view = store.for_session("alice", notebook_path="alice.ipynb")
            view.write_node(make_node("t1"))
        with SQLiteCheckpointStore(path) as back:
            assert back.has_session("alice")
            view = back.for_session("alice")
            assert [n.node_id for n in view.read_nodes()] == ["t1"]
            record = {r.session_id: r for r in back.list_sessions()}["alice"]
            assert record.notebook_path == "alice.ipynb"


class TestSchemaMigration:
    def _make_v1_store(self, path):
        """A pre-multi-session (v1) database: ``committed`` exists, no
        ``session_id`` anywhere."""
        import sqlite3

        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE nodes (
                node_id TEXT PRIMARY KEY, parent_id TEXT,
                timestamp INTEGER NOT NULL, execution_count INTEGER NOT NULL,
                cell_source TEXT NOT NULL,
                committed INTEGER NOT NULL DEFAULT 1
            );
            CREATE TABLE node_deletes (
                node_id TEXT NOT NULL, covar_key TEXT NOT NULL,
                PRIMARY KEY (node_id, covar_key)
            );
            CREATE TABLE node_deps (
                node_id TEXT NOT NULL, covar_key TEXT NOT NULL,
                ref_node TEXT NOT NULL, PRIMARY KEY (node_id, covar_key)
            );
            CREATE TABLE payloads (
                node_id TEXT NOT NULL, covar_key TEXT NOT NULL,
                data BLOB, serializer TEXT,
                PRIMARY KEY (node_id, covar_key)
            );
            CREATE INDEX idx_payloads_node ON payloads (node_id);
            INSERT INTO nodes VALUES ('t1', 't0', 1, 1, 'x = 1', 1);
            INSERT INTO nodes VALUES ('t2', 't1', 2, 2, 'y = x + 1', 1);
            INSERT INTO node_deletes VALUES ('t2', 'old');
            INSERT INTO node_deps VALUES ('t2', 'x', 't1');
            INSERT INTO payloads VALUES ('t1', 'x', X'AA', 'primary');
            INSERT INTO payloads VALUES ('t2', 'y', X'BB', 'primary');
            PRAGMA user_version = 1;
            """
        )
        conn.commit()
        conn.close()

    def test_v1_history_lands_in_default_session(self, tmp_path):
        path = str(tmp_path / "v1.db")
        self._make_v1_store(path)
        with SQLiteCheckpointStore(path) as store:
            assert [n.node_id for n in store.read_nodes()] == ["t1", "t2"]
            assert store.read_payload("t1", covar_key({"x"})).data == b"\xaa"
            (read_t2,) = [n for n in store.read_nodes() if n.node_id == "t2"]
            assert read_t2.deleted_keys == (covar_key({"old"}),)
            assert dict(read_t2.dependencies) == {covar_key({"x"}): "t1"}
            assert store.has_session("default")
            version = store._conn.execute("PRAGMA user_version").fetchone()[0]
            assert version == 2

    def test_migrated_store_supports_new_sessions(self, tmp_path):
        path = str(tmp_path / "v1.db")
        self._make_v1_store(path)
        with SQLiteCheckpointStore(path) as store:
            fresh = store.for_session("fresh")
            fresh.write_node(make_node("t1"))
            assert len(store.read_nodes()) == 2  # default untouched
            assert len(fresh.read_nodes()) == 1
        with SQLiteCheckpointStore(path) as back:
            assert len(back.read_nodes()) == 2
            assert len(back.for_session("fresh").read_nodes()) == 1

    def test_migration_is_idempotent(self, tmp_path):
        path = str(tmp_path / "v1.db")
        self._make_v1_store(path)
        for _ in range(3):
            with SQLiteCheckpointStore(path) as store:
                assert len(store.read_nodes()) == 2


# ---------------------------------------------------------------------------
# Satellite fixes: thread discipline, open-failure hygiene, close rollback
# ---------------------------------------------------------------------------


class TestCrossThreadDiscipline:
    def test_sqlite_store_usable_from_worker_thread(self, tmp_path):
        """Regression: the connection was created with the default
        ``check_same_thread=True``, so any touch from a non-creating
        thread (the commit-queue writer, soak workers) blew up with
        ProgrammingError."""
        import threading

        store = SQLiteCheckpointStore(str(tmp_path / "threads.db"))
        failures = []

        def worker():
            try:
                store.begin_checkpoint("t1")
                store.write_node(make_node("t1"))
                store.commit_checkpoint("t1")
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(repr(exc))

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert failures == []
        assert [n.node_id for n in store.read_nodes()] == ["t1"]
        store.close()

    def test_interleaved_threads_serialize_checkpoints(self, tmp_path):
        import threading

        store = SQLiteCheckpointStore(str(tmp_path / "serial.db"))
        views = [store.for_session(f"s{i}") for i in range(4)]
        errors = []

        def worker(view):
            try:
                parent = "t0"
                for i in range(1, 6):
                    view.begin_checkpoint(f"t{i}")
                    view.write_node(make_node(f"t{i}", parent))
                    view.commit_checkpoint(f"t{i}")
                    parent = f"t{i}"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(v,)) for v in views]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        for view in views:
            assert len(view.read_nodes()) == 5
        store.close()


class TestOpenFailureHygiene:
    def test_corrupt_file_does_not_leak_handle(self, tmp_path):
        """Regression: a failed ``_migrate`` on a corrupt file used to
        leave the sqlite3 connection dangling (no close on the error
        path) — visible as a leaked file descriptor."""
        import os

        path = tmp_path / "garbage.db"
        path.write_bytes(b"this is not a sqlite database at all")
        open_fds = set(os.listdir("/proc/self/fd"))
        with pytest.raises(Exception):
            SQLiteCheckpointStore(str(path))
        assert set(os.listdir("/proc/self/fd")) <= open_fds

    def test_wrong_schema_does_not_leak_handle(self, tmp_path):
        import os
        import sqlite3

        path = tmp_path / "other.db"
        conn = sqlite3.connect(str(path))
        conn.execute("CREATE TABLE nodes (wrong TEXT)")  # alien 'nodes' shape
        conn.commit()
        conn.close()
        open_fds = set(os.listdir("/proc/self/fd"))
        with pytest.raises(Exception):
            SQLiteCheckpointStore(str(path))
        assert set(os.listdir("/proc/self/fd")) <= open_fds


class TestRollbackOnClose:
    def test_close_rolls_back_open_checkpoint(self, any_store):
        from repro.obs import EventType, Observer

        observer = Observer()
        any_store.observer = observer
        any_store.begin_checkpoint("t1")
        any_store.write_node(make_node("t1"))
        any_store.close()
        events = observer.events.of_type(
            EventType.CHECKPOINT_ROLLED_BACK_ON_CLOSE
        )
        assert len(events) == 1
        assert events[0].fields["node"] == "t1"
        assert observer.metrics.counter("store.rollback_on_close").value == 1

    def test_closed_mid_checkpoint_leaves_no_torn_state(self, tmp_path):
        path = str(tmp_path / "midtxn.db")
        store = SQLiteCheckpointStore(path)
        store.write_node(make_node("t1"))
        store.begin_checkpoint("t2")
        store.write_node(make_node("t2", "t1"))
        store.write_payload(
            StoredPayload(
                node_id="t2", key=covar_key({"x"}), data=b"torn?", serializer="primary"
            )
        )
        store.close()  # explicit rollback, not a leaked transaction
        with SQLiteCheckpointStore(path) as back:
            assert back.last_recovery is not None and back.last_recovery.clean
            assert [n.node_id for n in back.read_nodes()] == ["t1"]

    def test_exit_rolls_back_open_checkpoint(self, tmp_path):
        path = str(tmp_path / "ctx.db")
        with SQLiteCheckpointStore(path) as store:
            store.begin_checkpoint("t1")
            store.write_node(make_node("t1"))
        with SQLiteCheckpointStore(path) as back:
            assert back.read_nodes() == []

    def test_close_without_open_checkpoint_emits_nothing(self, any_store):
        from repro.obs import EventType, Observer

        observer = Observer()
        any_store.observer = observer
        any_store.write_node(make_node("t1"))
        any_store.close()
        assert (
            observer.events.of_type(EventType.CHECKPOINT_ROLLED_BACK_ON_CLOSE)
            == []
        )
