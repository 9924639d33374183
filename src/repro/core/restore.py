"""Incremental state restoration (§5.2) and fallback recomputation (§5.3).

The :class:`StateLoader` executes a checkout plan against the live kernel:
it loads (only) the diverged co-variables of the target state, deletes
names absent from it, re-partitions the pool for everything it touched
(leaving co-variables loaded from their payloads pending, DESIGN.md §7),
and moves the head — all inside the same kernel process, which is what
makes Kishu's checkout *incremental* and non-intrusive.

The :class:`DataRestorer` reconstructs versioned co-variables whose
payloads are missing (skipped at checkpoint time) or fail to load: it loads
the cell's recorded dependencies — recursively recomputing any of *those*
that are also missing — and re-runs the cell's code on them in a
:func:`~repro.core.replay.replay_scope` of the checkout's namespace (Fig 11
of the paper). Memoizing materialized versions per checkout makes the
recursion follow the shortest load/recompute path through the checkpoint
graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.dataflow import ChainAnalysis
from repro.core.covariable import (
    CoVariablePool,
    CoVarKey,
    covariables_from_graphs,
)
from repro.core.graph import CheckpointGraph
from repro.core.planner import CheckoutPlan, CheckoutPlanner
from repro.core.replay import ReplayEngine, exec_node, replay_scope
from repro.core.retry import RetryPolicy
from repro.core.serialization import SerializerChain
from repro.core.storage import CheckpointStore
from repro.errors import (
    DeserializationError,
    RestorationError,
    StorageError,
)
from repro.kernel.namespace import PatchedNamespace
from repro.obs import NO_OBSERVER, EventType, Observer


@dataclass
class CheckoutReport:
    """What a checkout did, for verification and benchmarking."""

    target_id: str
    seconds: float = 0.0
    loaded_keys: List[CoVarKey] = field(default_factory=list)
    recomputed_keys: List[CoVarKey] = field(default_factory=list)
    identical_keys: List[CoVarKey] = field(default_factory=list)
    deleted_names: List[str] = field(default_factory=list)
    bytes_loaded: int = 0
    #: Replay-plan declines hit while materializing this checkout
    #: (:class:`~repro.core.replay.PlanDecline` records, reason + detail).
    declines: List[Any] = field(default_factory=list)


class DataRestorer:
    """Fallback recomputation engine (§5.3)."""

    def __init__(
        self,
        graph: CheckpointGraph,
        store: CheckpointStore,
        serializer: SerializerChain,
        *,
        max_depth: int = 10_000,
        retry: Optional[RetryPolicy] = None,
        replay_engine: Optional[ReplayEngine] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.graph = graph
        self.store = store
        self.serializer = serializer
        self.max_depth = max_depth
        self.retry = retry if retry is not None else RetryPolicy()
        #: Statically planned replay (DESIGN.md §10), tried before the
        #: recursive runtime-dependency recomputation. None disables the
        #: static path entirely (legacy behavior).
        self.replay_engine = replay_engine
        self.observer = observer if observer is not None else NO_OBSERVER

    def materialize(
        self,
        key: CoVarKey,
        node_id: str,
        *,
        namespace: PatchedNamespace,
        cache: Optional[Dict[Tuple[CoVarKey, str], Dict[str, Any]]] = None,
        report: Optional[CheckoutReport] = None,
    ) -> Dict[str, Any]:
        """Produce the value dict of versioned co-variable (key, node_id).

        Tries the stored payload first; on a missing or unloadable payload
        falls back to recomputation. ``namespace`` is the one the checkout
        installs into: loaded functions bind it, and replays borrow it,
        leaving its bindings as they were. ``cache`` memoizes versions
        across one checkout so shared dependencies load once.
        """
        if cache is None:
            cache = {}
        with self.observer.span(
            "checkout.materialize", covariable=sorted(key), node=node_id
        ):
            return self._materialize(key, node_id, namespace, cache, report, depth=0)

    def _materialize(
        self,
        key: CoVarKey,
        node_id: str,
        namespace: PatchedNamespace,
        cache: Dict[Tuple[CoVarKey, str], Dict[str, Any]],
        report: Optional[CheckoutReport],
        depth: int,
    ) -> Dict[str, Any]:
        cache_key = (key, node_id)
        if cache_key in cache:
            return cache[cache_key]
        if depth > self.max_depth:
            raise RestorationError(
                f"fallback recomputation exceeded depth {self.max_depth} "
                f"for co-variable {sorted(key)}"
            )

        node = self.graph.get(node_id)
        info = node.updated.get(key)
        values: Optional[Dict[str, Any]] = None
        if info is not None and info.stored:
            values = self._try_load(key, node_id, namespace)
            if values is not None and report is not None:
                report.loaded_keys.append(key)
                report.bytes_loaded += info.size_bytes
        if values is None and self.replay_engine is not None and depth == 0:
            # Preferred fallback: a statically planned minimal replay
            # (DESIGN.md §10). The engine reports its own loads and
            # recomputations and populates ``cache``; it returns None to
            # decline, in which case the legacy recursion below runs.
            # Only tried at the recursion root — inner frames are already
            # executing the legacy strategy's dependency walk.
            values = self.replay_engine.try_materialize(
                key,
                node_id,
                namespace=namespace,
                cache=cache,
                report=report,
                load_values=lambda k, v: self._try_load(k, v, namespace),
            )
            if (
                values is not None
                and report is not None
                and key not in report.recomputed_keys
            ):
                report.recomputed_keys.append(key)
        if values is None:
            values = self._recompute(key, node_id, namespace, cache, report, depth)
            if report is not None:
                report.recomputed_keys.append(key)

        cache[cache_key] = values
        return values

    def _try_load(
        self, key: CoVarKey, node_id: str, namespace: PatchedNamespace
    ) -> Optional[Dict[str, Any]]:
        try:
            # Transient read faults retry with backoff; anything storage
            # still cannot produce degrades to fallback recomputation.
            payload = self.retry.run(
                lambda: self.store.read_payload(node_id, key)
            )
        except StorageError:
            return None
        if payload.data is None:
            return None
        try:
            values = self.serializer.deserialize(payload.data, payload.serializer, namespace)
        except DeserializationError:
            return None
        if not isinstance(values, dict):
            return None
        return values

    def _recompute(
        self,
        key: CoVarKey,
        node_id: str,
        namespace: PatchedNamespace,
        cache: Dict[Tuple[CoVarKey, str], Dict[str, Any]],
        report: Optional[CheckoutReport],
        depth: int,
    ) -> Dict[str, Any]:
        """Re-run CE ``node_id`` on its recorded dependencies (Fig 11),
        all materialized before its replay scope opens: scopes never nest."""
        node = self.graph.get(node_id)
        if not node.cell_source:
            raise RestorationError(
                f"cannot recompute co-variable {sorted(key)}: node {node_id} "
                "records no cell code"
            )
        inputs: Dict[str, Any] = {}
        for dep_key, dep_node in node.dependencies.items():
            inputs.update(
                self._materialize(dep_key, dep_node, namespace, cache, report, depth + 1)
            )
        with replay_scope(namespace):
            for name, value in inputs.items():
                namespace.plant(name, value)
            try:
                with self.observer.span(
                    "replay.legacy", node=node_id, covariable=sorted(key), depth=depth
                ):
                    exec_node(node, namespace)
            except Exception as exc:
                # The kernel commits cells that raise: a cell can error
                # live, leave its (partially mutated) namespace behind, and
                # still produce a checkpoint — conservative dirty-marking
                # then bumps co-variables the cell never wrote. Replaying
                # such a cell reproduces the same deterministic error at
                # the same point, with the same partial effects applied to
                # the materialized dependencies. If every name of the key
                # is bound, the failed replay IS the faithful
                # reconstruction; only a key the replay cannot resolve at
                # all is a hard restoration failure.
                if not all(name in namespace for name in key):
                    raise RestorationError(
                        f"re-running cell of node {node_id} failed while "
                        f"recomputing co-variable {sorted(key)}: {exc!r}"
                    ) from exc
                self.observer.event(
                    EventType.REPLAY_ERROR_TOLERATED,
                    node=node_id,
                    covariable=sorted(key),
                    error=f"{type(exc).__name__}: {exc}",
                )
            missing = [name for name in key if name not in namespace]
            if missing:
                raise RestorationError(
                    f"re-running cell of node {node_id} did not produce "
                    f"variable(s) {missing} of co-variable {sorted(key)}"
                )
            return {name: namespace.peek(name) for name in key}


class StateLoader:
    """Executes checkout plans against the live kernel namespace (§5.2)."""

    def __init__(
        self,
        graph: CheckpointGraph,
        store: CheckpointStore,
        serializer: SerializerChain,
        pool: CoVariablePool,
        *,
        retry: Optional[RetryPolicy] = None,
        observer: Optional[Observer] = None,
        plan_stats: Optional["PlanStats"] = None,
        analysis: Optional[ChainAnalysis] = None,
    ) -> None:
        self.graph = graph
        self.store = store
        self.serializer = serializer
        self.pool = pool
        self.observer = observer if observer is not None else NO_OBSERVER
        self.planner = CheckoutPlanner(graph)
        self.replay_engine = ReplayEngine(
            graph, observer=self.observer, stats=plan_stats, analysis=analysis
        )
        self.restorer = DataRestorer(
            graph, store, serializer, retry=retry,
            replay_engine=self.replay_engine,
            observer=self.observer,
        )

    def checkout(
        self,
        target_id: str,
        namespace: PatchedNamespace,
        *,
        resync_summaries: Optional[Callable[[str], None]] = None,
    ) -> CheckoutReport:
        """Restore the kernel to the session state at ``target_id``.

        Follows the paper's three steps: (1) load versioned co-variables to
        update diverged ones, (2) re-partition the pool for what changed,
        (3) move the head. ``resync_summaries`` brings the session's
        analysis state to the target last, inside the checkout's span
        and its ``seconds``.
        """
        started = time.perf_counter()
        # Write-ahead barrier: wait out (and surface failures from) any
        # queued commits so checkout only ever sees a consistent
        # committed prefix. Synchronous stores make this a no-op.
        self.store.drain()
        with self.observer.span("checkout", target=target_id) as root:
            with self.observer.span("checkout.plan"):
                plan = self.planner.plan(self.graph.head_id, target_id)
                self.observer.annotate(
                    loads=len(plan.loads),
                    deletes=len(plan.delete_names),
                    identical=len(plan.identical),
                )
            report = CheckoutReport(target_id=target_id)
            report.identical_keys = sorted(plan.identical, key=sorted)

            # Materialize every diverged co-variable before touching the
            # live bindings, so a failed load cannot leave the state
            # half-updated. Replays borrow the namespace itself, and
            # their scope gives every binding back when they end.
            cache: Dict[Tuple[CoVarKey, str], Dict[str, Any]] = {}
            materialized: List[Tuple[CoVarKey, Dict[str, Any]]] = []
            for load in plan.loads:
                values = self.restorer.materialize(
                    load.key,
                    load.node_id,
                    namespace=namespace,
                    cache=cache,
                    report=report,
                )
                materialized.append((load.key, values))

            # Validate every materialized dict against its co-variable's
            # member names BEFORE mutating the namespace: a payload that
            # deserializes to a dict missing a member (corruption, a buggy
            # reducer) must not crash the apply phase half-way through —
            # after deletions were applied but before all plants landed.
            incomplete = [
                (key, sorted(set(key) - set(values)))
                for key, values in materialized
                if not set(key) <= set(values)
            ]
            if incomplete:
                details = "; ".join(
                    f"co-variable {sorted(key)} missing {missing}"
                    for key, missing in incomplete
                )
                raise RestorationError(
                    f"checkout of {target_id} aborted before touching the "
                    f"namespace: materialized payload(s) incomplete — "
                    f"{details}"
                )

            with self.observer.span("checkout.apply"):
                # Apply deletions, then plant loaded co-variables.
                for name in plan.delete_names:
                    namespace.uproot(name)
                    report.deleted_names.append(name)
                for key, values in materialized:
                    for name in key:
                        namespace.plant(name, values[name])

            with self.observer.span("checkout.resync"):
                self._resync_pool(plan, materialized, namespace, report)
            self.graph.move_head(target_id)
            if resync_summaries is not None:
                with self.observer.span("checkout.resync_summaries"):
                    resync_summaries(target_id)
            root.update(
                {
                    "loaded": len(report.loaded_keys),
                    "recomputed": len(report.recomputed_keys),
                    "bytes_loaded": report.bytes_loaded,
                }
            )
        report.seconds = time.perf_counter() - started
        self.observer.event(
            EventType.CHECKOUT,
            target=target_id,
            loads=len(report.loaded_keys),
            recomputes=len(report.recomputed_keys),
            deletes=len(report.deleted_names),
            declines=len(report.declines),
            bytes_loaded=report.bytes_loaded,
        )
        self.observer.count("checkout.count")
        self.observer.count("checkout.bytes_loaded", report.bytes_loaded)
        return report

    def _resync_pool(
        self,
        plan: CheckoutPlan,
        materialized: List[Tuple[CoVarKey, Dict[str, Any]]],
        namespace: PatchedNamespace,
        report: CheckoutReport,
    ) -> None:
        """Step 2 of checkout: re-partition the pool for the updated
        co-variables.

        A co-variable loaded from its own payload joins the pool pending
        (DESIGN.md §7): its objects come from one deserialization of what
        the commit grouped as one component, so its key is still one, and
        a cell builds its graphs only when it may touch it. Every other
        co-variable's graphs are rebuilt and re-grouped into connected
        components rather than trusting the plan-key grouping: a replay or
        recomputation shares the restorer's cache, so its values may alias
        across plan keys, and keeping them in separate co-variables would
        violate Definition 1's disjointness invariant — every later delta
        and checkout would then reason over a broken partition. The same
        holds for a key the restorer produced without reporting a load."""
        touched_names: Set[str] = set(plan.delete_names)
        for key, _ in materialized:
            touched_names |= key
        if not touched_names:
            return

        stale_keys = {
            self.pool.key_of(name)
            for name in touched_names
            if self.pool.key_of(name) is not None
        }
        # The old objects of every stale co-variable were just replaced (or
        # deleted); drop their cached subtrees so the walk cache neither
        # pins dead objects nor splices pre-checkout state.
        builder = self.pool.builder
        if getattr(builder, "cache", None) is not None:
            stale_ids: Set[int] = set()
            for key in stale_keys:
                covariable = self.pool.get(key)
                if covariable is not None:
                    stale_ids |= covariable.id_set
            builder.invalidate_ids(stale_ids)

        loaded = set() if report.recomputed_keys else set(report.loaded_keys)
        pending = [key for key, _ in materialized if key in loaded]
        rebuilt = []
        restored_names = {
            name for key, _ in materialized if key not in loaded for name in key
        }
        if restored_names:
            rebuilt = covariables_from_graphs(
                self.pool.rebuild_for_names(restored_names, namespace.user_items())
            )
        self.pool.replace(stale_keys, rebuilt, pending=pending)
        self.observer.count("checkout.pool.pending", len(pending))
