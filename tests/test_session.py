"""End-to-end tests for KishuSession (§3 workflow)."""

from __future__ import annotations

import pytest

from repro.core.session import KishuSession
from repro.core.storage import SQLiteCheckpointStore
from repro.errors import KishuError
from repro.kernel.cells import Cell
from repro.kernel.kernel import NotebookKernel
from test_oracle import canonical_state


class TestAttachment:
    def test_init_attaches(self, kernel):
        session = KishuSession.init(kernel)
        kernel.run_cell("x = 1")
        assert session.head_id == "t1"

    def test_double_attach_rejected(self, kernel):
        session = KishuSession.init(kernel)
        with pytest.raises(KishuError):
            session.attach()

    def test_detach_stops_checkpointing(self, kernel):
        session = KishuSession.init(kernel)
        kernel.run_cell("x = 1")
        session.detach()
        kernel.run_cell("y = 2")
        assert len(session.log()) == 1

    def test_attach_captures_preexisting_state(self):
        kernel = NotebookKernel()
        kernel.run_cell("existing = [1, 2]")
        session = KishuSession.init(kernel)
        attach_point = session.head_id
        kernel.run_cell("existing.append(3)")
        session.checkout(attach_point)
        assert kernel.get("existing") == [1, 2]

    def test_attach_to_empty_kernel_has_no_initial_commit(self, kernel):
        session = KishuSession.init(kernel)
        assert session.log() == []


class TestCheckpointing:
    def test_one_node_per_cell(self, session):
        session.run_cell("a = 1")
        session.run_cell("b = 2")
        assert [entry.node_id for entry in session.log()] == ["t1", "t2"]

    def test_delta_only_storage(self, session):
        session.run_cell("big = list(range(50_000))")
        size_after_big = session.total_checkpoint_bytes()
        session.run_cell("tiny = 1")
        growth = session.total_checkpoint_bytes() - size_after_big
        # The second checkpoint stores only {tiny}, not the big list again.
        assert growth < size_after_big / 10

    def test_metrics_recorded(self, session):
        session.run_cell("x = [1] * 100")
        metric = session.metrics[-1]
        assert metric.bytes_written > 0
        assert metric.checkpoint_seconds >= metric.tracking_seconds
        assert metric.updated_covariables == 1

    def test_unserializable_skipped_not_fatal(self, session):
        session.run_cell("gen = (i for i in range(3))")
        metric = session.metrics[-1]
        assert metric.skipped_unserializable == 1

    def test_payload_members_are_in_name_order(self, session):
        # However the key's frozenset iterates, equal values pickle to
        # equal bytes, so a co-variable stored again shares its blocks.
        names = ["m5", "m3", "m0", "m6", "m4", "m1", "m2"]
        session.run_cell("shared = []\n" + "\n".join(f"{n} = [shared]" for n in names))
        node = session.graph.head
        [key] = node.updated
        payload = session.store.read_payload(node.node_id, key)
        values = session.serializer.deserialize(payload.data, payload.serializer)
        assert list(values) == sorted(names + ["shared"])

    def test_dependencies_recorded(self, session):
        session.run_cell("base = [1]")
        session.run_cell("derived = [base[0] * 2]")
        node = session.graph.head
        assert any("base" in key for key in node.dependencies)


class TestLog:
    def test_log_previews_code(self, session):
        session.run_cell("value = 42  # the answer")
        (entry,) = session.log()
        assert entry.code_preview.startswith("value = 42")
        assert entry.is_head

    def test_log_marks_head_after_checkout(self, session):
        session.run_cell("a = 1")
        first = session.head_id
        session.run_cell("b = 2")
        session.checkout(first)
        entries = {e.node_id: e for e in session.log()}
        assert entries[first].is_head
        assert not entries["t2"].is_head


class TestArrayUpdates:
    """Array changes the digest fast path must not hide."""

    def test_object_array_elements_are_walked(self, kernel, session):
        session.run_cell(
            "import numpy as np\n"
            "inner = [1, 2]\n"
            "arr = np.empty(1, dtype=object)\n"
            "arr[0] = inner"
        )
        before, recorded = session.head_id, canonical_state(kernel)
        session.run_cell("arr[0].append(3)")
        assert session.metrics[-1].updated_covariables == 1
        assert session.pool.key_of("arr") == session.pool.key_of("inner")
        session.run_cell("arr.shape = (1, 1)")
        assert session.metrics[-1].updated_covariables == 1
        session.checkout(before)
        assert canonical_state(kernel) == recorded
        assert kernel.get("arr")[0] is kernel.get("inner")

    def test_zero_d_reshape_is_an_update(self, kernel, session):
        session.run_cell("import numpy as np\nx = np.array(3.5)")
        before, recorded = session.head_id, canonical_state(kernel)
        session.run_cell("x.shape = (1,)")
        assert session.metrics[-1].updated_covariables == 1
        session.checkout(before)
        assert canonical_state(kernel) == recorded
        assert kernel.get("x").shape == ()


class TestSqliteBacked:
    def test_full_workflow_on_sqlite(self, tmp_path):
        kernel = NotebookKernel()
        store = SQLiteCheckpointStore(str(tmp_path / "kishu.db"))
        session = KishuSession.init(kernel, store=store)
        kernel.run_cell("data = {'k': [1, 2]}")
        before = kernel and session.head_id
        kernel.run_cell("data['k'].clear()")
        session.checkout(before)
        assert kernel.get("data") == {"k": [1, 2]}
        store.close()


class TestDetReplayVariant:
    def test_deterministic_cells_skip_storage(self, kernel):
        from repro.baselines import DetReplaySession

        session = DetReplaySession(kernel)
        session.attach()
        kernel.run_cell(Cell.make("model = sorted([3, 1, 2])", "c0", "deterministic"))
        metric = session.metrics[-1]
        assert metric.bytes_written == 0

    def test_deterministic_cells_replayed_on_checkout(self, kernel):
        from repro.baselines import DetReplaySession

        session = DetReplaySession(kernel)
        session.attach()
        kernel.run_cell(Cell.make("model = sorted([3, 1, 2])", "c0", "deterministic"))
        target = session.head_id
        kernel.run_cell("model = None")
        report = session.checkout(target)
        assert kernel.get("model") == [1, 2, 3]
        assert report.recomputed_keys  # replay, not load
