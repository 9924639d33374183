"""Tests for incremental checkout and fallback recomputation (§5.2–5.3)."""

from __future__ import annotations

import pytest

from repro.core.covariable import covar_key
from repro.core.session import KishuSession
from repro.errors import RestorationError
from repro.kernel.kernel import NotebookKernel


@pytest.fixture
def session():
    kernel = NotebookKernel()
    return KishuSession.init(kernel)


class TestIncrementalCheckout:
    def test_undo_inplace_mutation(self, session):
        session.run_cell("data = [1, 2, 3]")
        before = session.head_id
        session.run_cell("data.clear()")
        report = session.checkout(before)
        assert session.kernel.get("data") == [1, 2, 3]
        assert covar_key({"data"}) in report.loaded_keys

    def test_identical_covariables_not_loaded(self, session):
        session.run_cell("big = list(range(1000))")
        session.run_cell("small = 1")
        before = session.head_id
        session.run_cell("small = 2")
        report = session.checkout(before)
        assert covar_key({"big"}) in report.identical_keys
        assert covar_key({"big"}) not in report.loaded_keys
        assert session.kernel.get("small") == 1

    def test_untouched_objects_not_replaced(self, session):
        # Incremental checkout must reuse kernel objects, not reload them.
        session.run_cell("keep = [42]")
        keep_before = session.kernel.get("keep")
        before = session.head_id
        session.run_cell("other = 5")
        session.checkout(before)
        assert session.kernel.get("keep") is keep_before

    def test_checkout_deletes_later_variables(self, session):
        session.run_cell("x = 1")
        before = session.head_id
        session.run_cell("y = 2")
        report = session.checkout(before)
        assert session.kernel.get("y", "<absent>") == "<absent>"
        assert "y" in report.deleted_names

    def test_shared_references_restored_exactly(self, session):
        session.run_cell("xs = [1, 2]")
        session.run_cell("alias = {'ref': xs}")
        before = session.head_id
        session.run_cell("xs.append(3)")
        session.checkout(before)
        xs = session.kernel.get("xs")
        alias = session.kernel.get("alias")
        assert xs == [1, 2]
        assert alias["ref"] is xs

    def test_branch_switching(self, session):
        session.run_cell("base = 10")
        fork = session.head_id
        session.run_cell("result = base * 2")
        branch_a = session.head_id
        session.checkout(fork)
        session.run_cell("result = base * 3")
        branch_b = session.head_id
        session.checkout(branch_a)
        assert session.kernel.get("result") == 20
        session.checkout(branch_b)
        assert session.kernel.get("result") == 30

    def test_checkout_to_root_empties_state(self, session):
        from repro.core.graph import ROOT_ID

        session.run_cell("a = 1")
        session.run_cell("b = 2")
        session.checkout(ROOT_ID)
        assert session.kernel.user_variables() == {}

    def test_next_cell_after_checkout_starts_branch(self, session):
        session.run_cell("x = 1")
        first = session.head_id
        session.run_cell("x = 2")
        session.checkout(first)
        session.run_cell("x = 3")
        node = session.graph.head
        assert node.parent_id == first

    def test_report_timing_and_bytes(self, session):
        session.run_cell("payload = list(range(100))")
        before = session.head_id
        session.run_cell("payload = None")
        report = session.checkout(before)
        assert report.seconds > 0
        assert report.bytes_loaded > 0


class TestFallbackRecomputation:
    def test_unserializable_recomputed(self, session):
        session.run_cell("gen = (i for i in range(4))")
        target = session.head_id
        session.run_cell("del gen")
        report = session.checkout(target)
        assert list(session.kernel.get("gen")) == [0, 1, 2, 3]
        assert covar_key({"gen"}) in report.recomputed_keys

    def test_recomputation_uses_dependencies(self, session):
        # An unserializable object built *eagerly* from another variable:
        # the dependency is recorded and reloaded for the rerun.
        session.run_cell("import hashlib")
        session.run_cell("seed = [5]")
        session.run_cell("digest = hashlib.sha256(str(seed).encode())")
        expected = session.kernel.get("digest").hexdigest()
        target = session.head_id
        session.run_cell("del digest")
        report = session.checkout(target)
        assert session.kernel.get("digest").hexdigest() == expected
        assert covar_key({"digest"}) in report.recomputed_keys

    def test_lazy_generator_dependencies_resolved_by_static_replay(self, session):
        # A generator reads its free variables lazily, so the producing
        # cell never *accesses* them (Lemma 1) and the runtime dependency
        # record misses them. The static dataflow plan sees the read in
        # the genexp body, loads `seed` into the scratch namespace, and
        # the restored generator resolves its free variables there —
        # closing the paper's §5.3 lazy-read limitation (DESIGN.md §10).
        session.run_cell("seed = [5]")
        session.run_cell("gen = (i * seed[0] for i in range(3))")
        target = session.head_id
        session.run_cell("del gen")
        session.checkout(target)
        assert list(session.kernel.get("gen")) == [0, 5, 10]
        assert session.plan_stats.plans_executed >= 1
        assert session.plan_stats.validation_mismatches == 0

    def test_lazy_generator_resolves_without_static_replay(self, session):
        # With the static replay engine disabled, the legacy recursion
        # reruns the producing cell on its *runtime-recorded* deps only,
        # which miss the lazily-read `seed`. The replay runs in the
        # session's own namespace, so the restored generator reads `seed`
        # there when a later cell iterates it, as a cold re-execution does.
        session.loader.restorer.replay_engine = None
        session.run_cell("seed = [5]")
        session.run_cell("gen = (i * seed[0] for i in range(3))")
        target = session.head_id
        session.run_cell("del gen")
        session.checkout(target)
        assert list(session.kernel.get("gen")) == [0, 5, 10]

    def test_recursive_fallback_chain(self, session):
        # The paper's Fig 11: plot@t3 needs gmm@t2, which itself needs
        # gmm@t1. Generators are unserializable, so the whole chain must
        # recompute recursively.
        session.run_cell("gmm = (i for i in range(10))")
        session.run_cell("gmm = (i * 2 for i in gmm)")
        session.run_cell("plot = (i + 1 for i in gmm)")
        target = session.head_id
        session.run_cell("del plot\ndel gmm")
        report = session.checkout(target)
        assert list(session.kernel.get("plot")) == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]
        assert len(report.recomputed_keys) >= 2

    def test_corrupt_payload_falls_back(self, session):
        from repro.core.storage import StoredPayload

        session.run_cell("value = [1, 2, 3]")
        node_id = session.head_id
        key = covar_key({"value"})
        # Corrupt the stored payload in place (simulated bit rot).
        session.store.write_payload(
            StoredPayload(node_id=node_id, key=key, data=b"garbage", serializer="primary")
        )
        session.run_cell("value = None")
        report = session.checkout(node_id)
        assert session.kernel.get("value") == [1, 2, 3]
        assert key in report.recomputed_keys

    def test_blocklisted_class_recomputed(self):
        from repro.core.serialization import Blocklist

        kernel = NotebookKernel()
        session = KishuSession.init(kernel, blocklist=Blocklist({"list"}))
        session.run_cell("items = [1, 2]")
        target = session.head_id
        session.run_cell("items = None")
        report = session.checkout(target)
        assert kernel.get("items") == [1, 2]
        assert covar_key({"items"}) in report.recomputed_keys

    def test_missing_variable_after_rerun_raises(self, session):
        # Build a node whose recorded code cannot reproduce the variable:
        # conditional creation that depended on since-deleted state.
        session.run_cell("flag = True")
        session.run_cell("gen = (i for i in range(2)) if flag else None")
        target = session.head_id
        # Tamper: rewrite the node's code so the rerun produces nothing.
        session.graph.get(target).__dict__["cell_source"] = "unrelated = 1"
        session.run_cell("del gen")
        with pytest.raises(RestorationError):
            session.checkout(target)

    def test_failed_checkout_does_not_half_update(self, session):
        session.run_cell("stable = [7]")
        session.run_cell("gen = (i for i in range(2))")
        target = session.head_id
        session.graph.get(target).__dict__["cell_source"] = ""
        session.run_cell("del gen\nstable.append(8)")
        with pytest.raises(RestorationError):
            session.checkout(target)
        # The live namespace must be untouched by the failed checkout.
        assert session.kernel.get("stable") == [7, 8]


class TestCheckoutValidation:
    """Materialized payloads are validated before the namespace is touched."""

    def test_incomplete_payload_aborts_before_mutation(self, session):
        session.run_cell("xs = [1, 2]")
        target = session.head_id
        session.run_cell("xs.append(3)")
        session.run_cell("later = 'created after target'")

        def truncated_materialize(key, node_id, **kwargs):
            return {}  # deserialized to a dict missing every member

        session.loader.restorer.materialize = truncated_materialize
        with pytest.raises(RestorationError, match="before touching the namespace"):
            session.checkout(target)
        # Nothing was applied: no deletion, no plant, head unmoved.
        assert session.kernel.get("xs") == [1, 2, 3]
        assert session.kernel.get("later") == "created after target"
        assert session.head_id != target

    def test_partially_missing_member_reported_by_name(self, session):
        session.run_cell("a = [1]")
        session.run_cell("b = a")  # one co-variable {a, b}
        target = session.head_id
        session.run_cell("a.append(2)")

        real_materialize = session.loader.restorer.materialize

        def dropping_materialize(key, node_id, **kwargs):
            values = real_materialize(key, node_id, **kwargs)
            values.pop("b", None)
            return values

        session.loader.restorer.materialize = dropping_materialize
        with pytest.raises(RestorationError, match="missing \\['b'\\]"):
            session.checkout(target)
        assert session.kernel.get("a") == [1, 2]
        assert session.kernel.get("b") == [1, 2]


class TestResyncRegrouping:
    """_resync_pool re-groups rebuilt graphs instead of trusting plan keys.

    Materialized values can alias across plan keys (a shared dependency
    memoized by the restorer, a nondeterministic recompute); Definition 1
    requires the pool partition to reflect the *restored* object graph.
    """

    def test_cross_key_aliasing_merges_covariables(self, session):
        session.run_cell("xs = [1, 2]")
        session.run_cell("ys = [3, 4]")
        target = session.head_id
        session.run_cell("xs.append(9)")
        session.run_cell("ys.append(9)")

        shared = [1, 2]

        def aliasing_materialize(key, node_id, **kwargs):
            return {name: shared for name in key}

        session.loader.restorer.materialize = aliasing_materialize
        session.checkout(target)
        # Both names now point at one object; the pool must have merged
        # them into a single co-variable.
        assert session.kernel.get("xs") is session.kernel.get("ys")
        merged = session.pool.covariable_of("xs")
        assert merged is not None
        assert set(merged.names) == {"xs", "ys"}
        assert session.pool.covariable_of("ys") is merged

    def test_detection_stays_sound_after_aliased_restore(self, session):
        # The merged partition must keep working: a later mutation through
        # one name is a modification of the merged co-variable.
        session.run_cell("xs = [1, 2]")
        session.run_cell("ys = [3, 4]")
        target = session.head_id
        session.run_cell("xs.append(9)")
        session.run_cell("ys.append(9)")

        shared = [1, 2]

        def aliasing_materialize(key, node_id, **kwargs):
            return {name: shared for name in key}

        session.loader.restorer.materialize = aliasing_materialize
        session.checkout(target)
        session.run_cell("xs.append(5)")
        assert session.kernel.get("ys") == [1, 2, 5]
        merged_key = session.pool.key_of("ys")
        assert merged_key == frozenset({"xs", "ys"})
