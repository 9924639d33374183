"""The SQLite store's journal: a write-ahead log while open, one file
when closed (DESIGN.md §6).

A file-backed store runs in WAL mode at ``synchronous=FULL``, so each
checkpoint's COMMIT appends to ``-wal`` and fsyncs it once. These tests
pin what that must not change: a commit is durable when
``commit_checkpoint`` returns, even when the process dies before the log
is checkpointed into the database; an open checkpoint dies with the
process; a closed store, and a store read by the read-only tools, is
one file.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import sqlite3
import subprocess
import sys
import time
from typing import List

import pytest

from test_storage import assert_blocks_consistent

from repro.core.covariable import covar_key
from repro.core.storage import (
    BLOCK_BYTES,
    SCHEMA_VERSION,
    SQLiteCheckpointStore,
    StoredNode,
    StoredPayload,
    persist_checkpoint,
    read_store_usage,
)
from repro.errors import StorageError

TESTS = pathlib.Path(__file__).parent
SIDECARS = ("-wal", "-shm", "-journal")
BIG = covar_key({"big"})
SMALL = covar_key({"x"})


def unique_token(k: int) -> bytes:
    """32 bytes found only in checkpoint ``k``'s own block."""
    return hashlib.sha256(b"checkpoint %d" % k).digest()


def big_payload(k: int) -> bytes:
    """Two blocks every checkpoint shares, one block of its own and a
    short tail: four blocks, three of them not shared."""
    shared = bytes(i % 251 for i in range(BLOCK_BYTES)) + b"\x07" * BLOCK_BYTES
    own = unique_token(k) * (BLOCK_BYTES // 32)
    return shared + own + b"tail of t%d" % k


def checkpoint(k: int):
    node = StoredNode(
        node_id=f"t{k}",
        parent_id=f"t{k - 1}" if k > 1 else None,
        timestamp=k,
        execution_count=k,
        cell_source=f"big.append({k}); x = {k}",
        deleted_keys=(),
        dependencies=(),
    )
    payloads = [
        StoredPayload(node.node_id, BIG, big_payload(k), "primary"),
        StoredPayload(node.node_id, SMALL, b"x=%d" % k, "primary"),
    ]
    return node, payloads


def write_history(path: str, count: int, *, open_last: bool) -> None:
    """Commit ``count`` checkpoints; with ``open_last``, also begin one
    more and write its payloads and node without committing. The caller
    then dies without closing the store."""
    store = SQLiteCheckpointStore(path)
    for k in range(1, count + 1):
        node, payloads = checkpoint(k)
        persist_checkpoint(store, node, payloads)
    if open_last:
        node, payloads = checkpoint(count + 1)
        store.begin_checkpoint(node.node_id)
        for payload in payloads:
            store.write_payload(payload)
        store.write_node(node)


_CHILD = """
import os, sys
from test_store_journal import write_history
write_history(sys.argv[1], int(sys.argv[2]), open_last=sys.argv[3] == "open")
os._exit(0)
"""


def die_after(path: str, count: int, *, open_last: bool) -> None:
    """Run :func:`write_history` in a child process that exits with
    ``os._exit``: no close, no rollback, no finalizers."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]),
    }
    mode = "open" if open_last else "committed"
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, path, str(count), mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def listing(directory: pathlib.Path) -> List[str]:
    return sorted(os.listdir(directory))


def journal_mode(conn: sqlite3.Connection) -> str:
    return conn.execute("PRAGMA journal_mode").fetchone()[0]


def assert_history(store: SQLiteCheckpointStore, count: int) -> None:
    """Exactly checkpoints 1..count, byte for byte, and a consistent
    block store holding exactly their distinct blocks."""
    assert [n.node_id for n in store.read_nodes()] == [
        f"t{k}" for k in range(1, count + 1)
    ]
    expected_blocks = set()
    for k in range(1, count + 1):
        _, payloads = checkpoint(k)
        for payload in payloads:
            read = store.read_payload(payload.node_id, payload.key)
            assert read.data == payload.data
            data = payload.data
            assert data is not None
            expected_blocks.update(
                data[at : at + BLOCK_BYTES] for at in range(0, len(data), BLOCK_BYTES)
            )
    assert_blocks_consistent(store)
    (blocks,) = store._conn.execute("SELECT COUNT(*) FROM blocks").fetchone()
    assert blocks == len(expected_blocks)


class TestProcessDeath:
    COMMITTED = 3

    def test_open_checkpoint_dies_with_the_process(self, tmp_path):
        path = str(tmp_path / "store.db")
        die_after(path, self.COMMITTED, open_last=True)
        assert os.path.exists(path + "-wal"), listing(tmp_path)

        with SQLiteCheckpointStore(path) as store:
            assert store.last_recovery is not None and store.last_recovery.clean
            assert_history(store, self.COMMITTED)
        assert listing(tmp_path) == ["store.db", "store.db.lock"]

    def test_commit_in_the_log_survives(self, tmp_path):
        """Death right after ``commit_checkpoint`` returns: the last commit
        has not been checkpointed into the database file, only the log
        holds it, and it must survive."""
        path = str(tmp_path / "store.db")
        die_after(path, self.COMMITTED, open_last=False)
        last = unique_token(self.COMMITTED) * 8
        with open(path + "-wal", "rb") as log:
            assert last in log.read()
        with open(path, "rb") as database:
            assert last not in database.read()

        with SQLiteCheckpointStore(path) as store:
            assert store.last_recovery is not None and store.last_recovery.clean
            assert_history(store, self.COMMITTED)
            # The reopened store keeps writing on top of what it found.
            node, payloads = checkpoint(self.COMMITTED + 1)
            persist_checkpoint(store, node, payloads)
        with SQLiteCheckpointStore(path) as store:
            assert_history(store, self.COMMITTED + 1)
        assert listing(tmp_path) == ["store.db", "store.db.lock"]


class TestJournalMode:
    def test_wal_while_open_delete_after_close(self, tmp_path):
        path = str(tmp_path / "store.db")
        store = SQLiteCheckpointStore(path)
        assert journal_mode(store._conn) == "wal"
        assert store._conn.execute("PRAGMA synchronous").fetchone()[0] == 2  # FULL
        node, payloads = checkpoint(1)
        persist_checkpoint(store, node, payloads)
        assert os.path.exists(path + "-wal")
        store.close()
        assert listing(tmp_path) == ["store.db", "store.db.lock"]
        conn = sqlite3.connect(path)
        try:
            assert journal_mode(conn) == "delete"
            assert conn.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION
        finally:
            conn.close()

    def test_rollback_journal_store_converts_on_open(self, tmp_path):
        """A v4 file in the rollback journal — what every earlier version
        of the store left — opens in WAL with its history intact; the
        schema version does not move."""
        path = str(tmp_path / "store.db")
        with SQLiteCheckpointStore(path) as store:
            node, payloads = checkpoint(1)
            persist_checkpoint(store, node, payloads)
        conn = sqlite3.connect(path)
        try:
            assert journal_mode(conn) == "delete"
            assert conn.execute("PRAGMA user_version").fetchone()[0] == 4
        finally:
            conn.close()
        with SQLiteCheckpointStore(path) as store:
            assert journal_mode(store._conn) == "wal"
            assert_history(store, 1)
            assert store._conn.execute("PRAGMA user_version").fetchone()[0] == 4

    def test_memory_store_keeps_its_journal(self):
        with SQLiteCheckpointStore(":memory:") as store:
            assert journal_mode(store._conn) == "memory"
            node, payloads = checkpoint(1)
            persist_checkpoint(store, node, payloads)
            store.sync()
            assert_history(store, 1)

    def test_store_works_in_the_mode_sqlite_answers(self, tmp_path, monkeypatch):
        """If SQLite refuses WAL and answers with another mode, the store
        keeps working in that mode."""

        class Refusing(sqlite3.Connection):
            def execute(self, sql, *args):  # type: ignore[override]
                if sql == "PRAGMA journal_mode = WAL":
                    sql = "PRAGMA journal_mode = TRUNCATE"
                return super().execute(sql, *args)

        real_connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3, "connect", lambda *a, **kw: real_connect(*a, factory=Refusing, **kw)
        )
        path = str(tmp_path / "store.db")
        with SQLiteCheckpointStore(path) as store:
            assert journal_mode(store._conn) == "truncate"
            node, payloads = checkpoint(1)
            persist_checkpoint(store, node, payloads)
            store.sync()
            assert not os.path.exists(path + "-wal")
        monkeypatch.undo()
        with SQLiteCheckpointStore(path) as store:
            assert_history(store, 1)
        assert listing(tmp_path) == ["store.db", "store.db.lock"]


class TestReadOnlyUsage:
    def test_closed_store_stays_one_file(self, tmp_path):
        path = str(tmp_path / "store.db")
        with SQLiteCheckpointStore(path) as store:
            node, payloads = checkpoint(1)
            persist_checkpoint(store, node, payloads)
        before = listing(tmp_path)
        rows, total = read_store_usage(path)
        assert [row.commits for row in rows] == [1]
        assert total > 0
        assert listing(tmp_path) == before == ["store.db", "store.db.lock"]

    def test_open_checkpoint_is_invisible(self, tmp_path):
        path = str(tmp_path / "store.db")
        with SQLiteCheckpointStore(path) as store:
            node, payloads = checkpoint(1)
            persist_checkpoint(store, node, payloads)
            committed = store.total_payload_bytes()
            node, payloads = checkpoint(2)
            store.begin_checkpoint(node.node_id)
            for payload in payloads:
                store.write_payload(payload)
            store.write_node(node)

            rows, total = read_store_usage(path)
            assert [(row.commits, row.payload_bytes) for row in rows] == [
                (1, committed)
            ]
            assert total == committed
            store.rollback_checkpoint(node.node_id)
        assert listing(tmp_path) == ["store.db", "store.db.lock"]


class TestSharedFile:
    def test_closing_the_first_handle_does_not_wait(self, tmp_path):
        path = str(tmp_path / "store.db")
        first = SQLiteCheckpointStore(path)
        second = SQLiteCheckpointStore(path)
        node, payloads = checkpoint(1)
        persist_checkpoint(first, node, payloads)
        started = time.perf_counter()
        first.close()
        # SQLite's default busy timeout is 5 s; the switch must not use it.
        assert time.perf_counter() - started < 1.0
        assert journal_mode(second._conn) == "wal"
        node, payloads = checkpoint(2)
        persist_checkpoint(second, node, payloads)
        second.close()
        assert listing(tmp_path) == ["store.db", "store.db.lock"]
        with SQLiteCheckpointStore(path) as store:
            assert_history(store, 2)

    def test_a_reader_at_close_leaves_the_switch_to_the_next_open(self, tmp_path):
        path = str(tmp_path / "store.db")
        store = SQLiteCheckpointStore(path)
        node, payloads = checkpoint(1)
        persist_checkpoint(store, node, payloads)
        reader = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            reader.execute("BEGIN")
            reader.execute("SELECT COUNT(*) FROM nodes").fetchone()
            started = time.perf_counter()
            store.close()
            assert time.perf_counter() - started < 1.0
        finally:
            reader.close()
        assert any(name.endswith("-wal") for name in listing(tmp_path))
        with SQLiteCheckpointStore(path) as store:
            assert_history(store, 1)
        assert listing(tmp_path) == ["store.db", "store.db.lock"]


class TestSyncBarrier:
    def test_sync_fsyncs_the_log_then_the_database(self, tmp_path, monkeypatch):
        path = str(tmp_path / "store.db")
        with SQLiteCheckpointStore(path) as store:
            node, payloads = checkpoint(1)
            persist_checkpoint(store, node, payloads)
            synced: List[int] = []
            real_fsync = os.fsync

            def recording_fsync(fd: int) -> None:
                synced.append(os.fstat(fd).st_ino)
                real_fsync(fd)

            monkeypatch.setattr(os, "fsync", recording_fsync)
            store.sync()
            monkeypatch.undo()
            log = os.stat(path + "-wal").st_ino
            database = os.stat(path).st_ino
        assert synced == [log, database]


def test_failed_open_leaves_one_file(tmp_path):
    """A file whose schema the store refuses is left in the rollback
    journal, with no sidecar."""
    path = tmp_path / "other.db"
    conn = sqlite3.connect(str(path))
    conn.execute("CREATE TABLE nodes (wrong TEXT)")
    conn.commit()
    conn.close()
    with pytest.raises(Exception):
        SQLiteCheckpointStore(str(path))
    assert not [name for name in listing(tmp_path) if name.endswith(SIDECARS)]
    conn = sqlite3.connect(str(path))
    try:
        assert journal_mode(conn) == "delete"
    finally:
        conn.close()


def test_refused_open_leaves_the_file_byte_identical(tmp_path):
    """The shape check runs before the journal switch and the v0
    ``ALTER``: a refused file keeps every byte, and the error names the
    table and the columns it lacks."""
    path = tmp_path / "other.db"
    conn = sqlite3.connect(str(path))
    conn.execute("CREATE TABLE nodes (wrong TEXT)")
    conn.commit()
    conn.close()
    before = path.read_bytes()
    with pytest.raises(StorageError, match="nodes") as refused:
        SQLiteCheckpointStore(str(path))
    assert "cell_source" in str(refused.value)
    assert path.read_bytes() == before
    assert not [name for name in listing(tmp_path) if name.endswith(SIDECARS)]
