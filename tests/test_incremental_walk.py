"""Incremental VarGraph construction (DESIGN.md §7).

Three layers of coverage:

* :class:`SubtreeCache` unit behaviour — lookup, invalidation through the
  reverse member index, eviction, refresh.
* Builder-level splicing — spliced builds are node-table-identical to
  cold builds; invalidation forces a re-walk; policy layering keeps
  handler registrations private to one builder.
* End-to-end equivalence — a notebook kernel driven through randomized
  mutation/aliasing/deletion cell sequences, tracked by two delta
  detectors (one cold, one incremental); every per-name node table and
  every delta must be identical. This is the property that makes the
  cache a pure optimization.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.covariable import CoVariablePool
from repro.core.delta import DeltaDetector
from repro.core.objectwalk import DEFAULT_POLICY, Visit
from repro.core.vargraph import SubtreeCache, VarGraphBuilder, _CacheEntry, GraphNode
from repro.kernel.kernel import NotebookKernel
from repro import telemetry
from repro.core.hashing import digest_bytes


def _entry(root, nodes=1, extra_ids=()):
    ids = frozenset({id(root), *extra_ids})
    return _CacheEntry(
        root=root,
        nodes=tuple(
            GraphNode(
                obj_id=id(root) + i,
                type_name="list",
                kind="composite",
                value=None,
                children=(),
            )
            for i in range(nodes)
        ),
        ids=ids,
        mutable_ids=ids,
        contains_opaque=False,
    )


class TestSubtreeCache:
    def test_store_and_lookup(self):
        cache = SubtreeCache()
        root = [1, 2]
        cache.store(_entry(root))
        assert cache.lookup(id(root)) is not None
        assert cache.lookup(12345) is None

    def test_invalidation_by_member_id(self):
        # Dirtying any object *inside* a segment drops the whole segment,
        # not just segments rooted at the dirty object.
        cache = SubtreeCache()
        inner = [1]
        outer = [inner]
        cache.store(_entry(outer, nodes=2, extra_ids=(id(inner),)))
        assert cache.invalidate_ids({id(inner)}) == 1
        assert cache.lookup(id(outer)) is None
        assert len(cache) == 0

    def test_invalidation_of_unknown_ids_is_noop(self):
        cache = SubtreeCache()
        root = [1]
        cache.store(_entry(root))
        assert cache.invalidate_ids({999999}) == 0
        assert cache.lookup(id(root)) is not None

    def test_eviction_over_node_budget(self):
        cache = SubtreeCache(max_total_nodes=5)
        roots = [[i] for i in range(4)]
        for root in roots:
            cache.store(_entry(root, nodes=2))
        # 4 entries x 2 nodes > 5: the oldest entries were evicted.
        assert cache.total_nodes <= 5
        assert cache.lookup(id(roots[0])) is None
        assert cache.lookup(id(roots[-1])) is not None

    def test_restore_refreshes_entry(self):
        cache = SubtreeCache()
        root = [1]
        cache.store(_entry(root, nodes=1))
        cache.store(_entry(root, nodes=3))
        assert len(cache) == 1
        assert cache.total_nodes == 3

    def test_clear(self):
        cache = SubtreeCache()
        root = [1]
        cache.store(_entry(root))
        cache.clear()
        assert len(cache) == 0
        assert cache.total_nodes == 0


class TestBuilderSplicing:
    def test_spliced_rebuild_is_node_table_identical(self):
        builder = VarGraphBuilder(incremental=True)
        data = {"rows": [[1.5, 2.5], [3.5]], "n": 7}
        cold = VarGraphBuilder().build("d", data)
        first = builder.build("d", data)
        second = builder.build("d", data)  # unchanged: splices from cache
        assert first.nodes == cold.nodes
        assert second.nodes == cold.nodes
        assert second.fingerprint == cold.fingerprint
        assert second.id_set == cold.id_set
        assert builder.telemetry.nodes_spliced > 0

    def test_invalidation_forces_rewalk_and_sees_mutation(self):
        builder = VarGraphBuilder(incremental=True)
        data = [[1, 2], [3, 4]]
        before = builder.build("x", data)
        data[0][0] = 99
        builder.invalidate_ids({id(data[0])})
        after = builder.build("x", data)
        assert before.differs_from(after)
        assert after.nodes == VarGraphBuilder().build("x", data).nodes

    def test_stale_without_invalidation_then_invalidate_all(self):
        # The documented contract: the cache only observes mutations its
        # caller reports. invalidate_all() is the conservative reset.
        builder = VarGraphBuilder(incremental=True)
        data = [[1]]
        before = builder.build("x", data)
        data[0][0] = 2
        stale = builder.build("x", data)
        assert not before.differs_from(stale)  # cache cannot know
        builder.invalidate_all()
        fresh = builder.build("x", data)
        assert before.differs_from(fresh)

    def test_telemetry_counts_cold_and_warm_builds(self):
        builder = VarGraphBuilder(incremental=True)
        data = [[1.5], [2.5]]
        builder.build("x", data)
        cold = builder.telemetry.snapshot()
        builder.build("x", data)
        warm = builder.telemetry.since(cold)
        assert cold.objects_visited >= 5
        assert warm.cache_hits >= 1
        assert warm.objects_visited <= 1  # only the uncached root


class TestPolicyIsolation:
    def test_registered_handler_stays_private_to_builder(self):
        class Marker:
            pass

        handler_calls = []

        def handle(obj):
            handler_calls.append(obj)
            return Visit(kind="opaque")

        customized = VarGraphBuilder()
        customized.policy.register(Marker, handle)
        plain = VarGraphBuilder()

        marker = Marker()
        assert customized.build("m", marker).opaque
        assert handler_calls == [marker]

        # Neither the shared default policy nor other builders saw the
        # registration: Marker still walks as a plain composite.
        assert not plain.build("m", marker).opaque
        assert DEFAULT_POLICY.visit(marker).kind != "opaque"
        assert not any(
            issubclass(type_, Marker) for type_, _ in DEFAULT_POLICY._handlers
        )

    def test_layer_overrides_win_over_parent(self):
        base = DEFAULT_POLICY.layer()
        base.register(list, lambda obj: Visit(kind="opaque"))
        layered = base.layer()
        assert layered.visit([1]).kind == "opaque"
        layered.register(list, lambda obj: Visit(kind="composite", children=()))
        assert layered.visit([1]).kind == "composite"
        assert base.visit([1]).kind == "opaque"
        assert DEFAULT_POLICY.visit([1]).kind == "composite"


# -- end-to-end equivalence -----------------------------------------------------

# Cell templates over a fixed name universe v0..v4. Each opcode maps to a
# source builder given (i, j) operand name indices and the set of names
# currently bound; inapplicable ops degrade to a create so every drawn
# sequence is executable.
_N_NAMES = 5


def _name(i):
    return f"v{i % _N_NAMES}"


def _cell_source(opcode, i, j, bound):
    target, other = _name(i), _name(j)
    if opcode == 0:
        return f"{target} = [{i}, {i} + 0.5, ['s', {j}]]"
    if opcode == 1:
        return f"{target} = {{'k': [{i} + 1.5], 'n': {j}}}"
    if opcode == 2 and other in bound:  # alias
        return f"{target} = {other}"
    if opcode == 3 and other in bound:  # share a substructure
        return f"{target} = [{other}, [{i}]]"
    if opcode == 4 and target in bound:  # mutate through the name
        return f"{target} = {target}; {target}.append(7) if isinstance({target}, list) else {target}.update(m={i})"
    if opcode == 5 and target in bound:
        return f"del {target}"
    if opcode == 6 and target in bound:  # read-only access
        return f"_ = repr({target})"
    if opcode == 7:  # self-referencing structure
        return f"{target} = []\n{target}.append({target})"
    if opcode == 8 and target in bound:  # rebind to a fresh object
        return f"{target} = [{j} + 2.5]"
    return f"{target} = [{i}, [{j} + 0.25]]"


operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=_N_NAMES - 1),
        st.integers(min_value=0, max_value=_N_NAMES - 1),
    ),
    min_size=1,
    max_size=10,
)


@pytest.mark.slow
class TestIncrementalEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(operations)
    def test_incremental_detection_equals_cold(self, ops):
        kernel = NotebookKernel()
        cold_pool = CoVariablePool(VarGraphBuilder(incremental=False))
        warm_pool = CoVariablePool(VarGraphBuilder(incremental=True))
        cold = DeltaDetector(cold_pool)
        warm = DeltaDetector(warm_pool)

        bound = set()
        for opcode, i, j in ops:
            source = _cell_source(opcode, i, j, bound)
            kernel.user_ns.begin_recording()
            kernel.run_cell(source, raise_on_error=False)
            record = kernel.user_ns.end_recording()
            items = kernel.user_variables()
            bound = {name for name in items if name.startswith("v")}

            delta_cold = cold.detect(record, items)
            delta_warm = warm.detect(record, items)

            # Identical deltas: the cache must be invisible to detection.
            assert set(delta_cold.created) == set(delta_warm.created)
            assert set(delta_cold.modified) == set(delta_warm.modified)
            assert delta_cold.deleted == delta_warm.deleted
            assert delta_cold.accessed_keys == delta_warm.accessed_keys

            # Identical partitions and per-name node tables.
            assert cold_pool.keys() == warm_pool.keys()
            for name in items:
                cold_graph = cold_pool.graph_of(name)
                warm_graph = warm_pool.graph_of(name)
                assert (cold_graph is None) == (warm_graph is None)
                if cold_graph is None:
                    continue
                assert cold_graph.nodes == warm_graph.nodes, name
                assert cold_graph.fingerprint == warm_graph.fingerprint
                assert cold_graph.id_set == warm_graph.id_set
                assert cold_graph.opaque == warm_graph.opaque
                assert cold_graph.truncated == warm_graph.truncated


def _active_telemetry() -> telemetry.WalkTelemetry:
    """The calling thread's active sink, read by an activate/deactivate pair."""
    previous = telemetry.activate(telemetry.WalkTelemetry())
    telemetry.deactivate(previous)
    return previous


class TestActiveTelemetryPerThread:
    def test_interleaved_threads_keep_their_own_sink(self):
        """Two threads' activate → hash → deactivate pairs, interleaved
        by events: each thread's bytes land in its own telemetry, and
        neither thread's sink stays active afterwards."""
        sinks = {"a": telemetry.WalkTelemetry(), "b": telemetry.WalkTelemetry()}
        a_active, b_active, a_done = (threading.Event() for _ in range(3))
        after = {}

        def thread_a():
            previous = telemetry.activate(sinks["a"])
            a_active.set()
            b_active.wait(timeout=10)
            digest_bytes(b"abc")
            telemetry.deactivate(previous)
            a_done.set()

        def thread_b():
            a_active.wait(timeout=10)
            previous = telemetry.activate(sinks["b"])
            b_active.set()
            a_done.wait(timeout=10)
            digest_bytes(b"12345")
            telemetry.deactivate(previous)
            after["b"] = _active_telemetry()

        workers = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert sinks["a"].bytes_hashed == 3
        assert sinks["b"].bytes_hashed == 5
        assert after["b"] is telemetry.GLOBAL_TELEMETRY
        assert _active_telemetry() is telemetry.GLOBAL_TELEMETRY
