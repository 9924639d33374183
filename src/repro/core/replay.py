"""Statically planned replay — checkout's preferred fallback path (§5.3).

When a checkout needs a co-variable whose payload is missing (skipped as
unserializable, degraded, corrupt, or deliberately unstored by the
Det-replay baseline), the legacy :class:`~repro.core.restore.DataRestorer`
recursion re-runs the producing cell on its *runtime-recorded*
dependencies. That recursion is correct but blind: it replays whole
dependency chains cell by cell, cannot skip over stored intermediate
versions it passes, and cannot see lazy (call-time) reads the runtime
record missed.

The :class:`ReplayEngine` here does the same job through the static
dataflow lens of :mod:`repro.analysis.dataflow`: it lifts the checkpoint
chain leading to the target node into a
:class:`~repro.analysis.dataflow.NotebookDataflowGraph` — its cells come
from a :func:`~repro.analysis.dataflow.chain_analysis`, the fold a
session's checkout resync runs too, over the session's prefix memo, so a
replaying checkout analyses each chain cell once — asks the
:class:`~repro.analysis.dataflow.ReplayPlanner` for the minimal ordered
cell subset reconstructing the co-variable — consulting stored payloads
and the checkout's materialization cache as shortcut versions — and
executes the plan, cross-validating every replayed cell's runtime access
record against its static effects exactly the way the session's
:class:`~repro.analysis.crossval.CrossValidator` validates live cells.

The engine and the legacy recursion share one executor: cell code runs
(:func:`exec_node`) in a :func:`replay_scope` of the namespace the checkout
installs into, so every function a replay loads or re-creates keeps as its
globals the dict the session runs in afterwards.

The engine is deliberately fail-safe: any plan that is incomplete,
replay-unsafe (routes through an opaque cell), needs inputs the chain
cannot produce, or fails mid-execution is *declined* — the caller falls
back to the legacy recursion, so correctness never depends on the static
analysis being right, only the saved work does (DESIGN.md §10).
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.dataflow import (
    CellNode,
    ChainAnalysis,
    NotebookDataflowGraph,
    ReplayPlan,
    ReplayPlanner,
    StoredVersion,
    ast_cost,
    chain_analysis,
)
from repro.analysis.summaries import PrefixMemo
from repro.core.covariable import CoVarKey
from repro.core.graph import ROOT_ID, CheckpointGraph, CheckpointNode
from repro.kernel.namespace import PatchedNamespace, filter_user_names
from repro.obs import NO_OBSERVER, EventType, Observer
from repro.telemetry import PlanStats

#: Loads the value dict of versioned co-variable (key, node_id) from
#: storage, or None when the payload is absent/unloadable.
ValueLoader = Callable[[CoVarKey, str], Optional[Dict[str, Any]]]


@contextmanager
def replay_scope(namespace: PatchedNamespace) -> Iterator[None]:
    """Lend ``namespace`` to one replay, emptied of its user bindings.

    The replay sees only what it plants and runs; the kernel's
    ``__name__`` and ``__builtins__`` stay, so a replayed def or class
    gets ``__module__ == "__main__"``. On exit, returned or raised, the
    namespace is again exactly the dict it was on entry: every saved
    binding is back and nothing the replay bound stays. Scopes never
    nest: a caller materializes a replay's inputs before entering.
    """
    saved = dict(namespace)
    namespace.replace_user_state({})
    try:
        yield
    finally:
        dict.clear(namespace)
        dict.update(namespace, saved)


def exec_node(node: CheckpointNode, namespace: Dict[str, Any]) -> None:
    """Run ``node``'s recorded cell code in ``namespace``."""
    exec(compile(node.cell_source, f"<replay:{node.node_id}>", "exec"), namespace)


class DeclineReason(enum.Enum):
    """Why the engine refused (or abandoned) a replay plan.

    Every decline path of :meth:`ReplayEngine.try_materialize` maps onto
    exactly one of these — the checkout report, the event log, and the
    ``replay.declined.<reason>`` counters all carry the same value, so a
    declined checkout is explainable after the fact instead of being one
    anonymous tick of ``plans_declined``.
    """

    #: The target node is not in the checkpoint graph at all.
    NO_CHAIN = "no-chain"
    #: The plan routes through an opaque (escaped) cell — replay-unsafe.
    UNSAFE = "unsafe"
    #: The plan cannot produce every target name (missing producers).
    INCOMPLETE = "incomplete"
    #: The plan needs inputs the chain cannot produce (external reads).
    EXTERNAL_INPUTS = "external-inputs"
    #: The plan has no replay steps (nothing to execute — a pure-load
    #: plan is the stored-payload path's job, not the engine's).
    EMPTY_PLAN = "empty-plan"
    #: A replayed cell raised, or a load step failed mid-execution.
    EXEC_FAILED = "exec-failed"
    #: Execution finished but did not produce every target name.
    MISSING_OUTPUT = "missing-output"


@dataclass(frozen=True)
class PlanDecline:
    """One machine-readable decline record (reason + human detail)."""

    reason: DeclineReason
    detail: str
    names: Tuple[str, ...]
    node_id: str

    @property
    def reason_value(self) -> str:
        return self.reason.value

    def as_dict(self) -> Dict[str, Any]:
        return {
            "reason": self.reason.value,
            "detail": self.detail,
            "names": list(self.names),
            "node": self.node_id,
        }


class ReplayEngine:
    """Plans and executes minimal static replays over a checkpoint chain."""

    def __init__(
        self,
        graph: CheckpointGraph,
        *,
        stats: Optional[PlanStats] = None,
        observer: Optional[Observer] = None,
        analysis: Optional[ChainAnalysis] = None,
    ) -> None:
        self.graph = graph
        self.stats = stats if stats is not None else PlanStats()
        self.observer = observer if observer is not None else NO_OBSERVER
        #: Analyses a chain's sources into dataflow cells. A session passes
        #: one over its own prefix memo, in its own configuration; without
        #: one the engine folds with the defaults on a memo of its own.
        self.analysis = (
            analysis if analysis is not None else chain_analysis(PrefixMemo())
        )

    # -- chain and graph construction ---------------------------------------

    def chain_to(self, node_id: str) -> List[CheckpointNode]:
        """Checkpoint nodes from the first cell to ``node_id``, in
        execution order (the root's empty pseudo-cell is excluded)."""
        path = self.graph.path_to_root(node_id)
        return [
            self.graph.get(ancestor)
            for ancestor in reversed(path)
            if ancestor != ROOT_ID
        ]

    def _cell_nodes(self, chain: List[CheckpointNode]) -> List[CellNode]:
        """The chain's analysed cells, labelled by their checkpoint nodes."""
        cells = self.analysis(
            [node.cell_source for node in chain], [node.executed for node in chain]
        )
        return [
            replace(cell, label=node.node_id, node_id=node.node_id)
            for cell, node in zip(cells, chain)
        ]

    # -- planning ------------------------------------------------------------

    def _payload_lookup(
        self,
        chain: List[CheckpointNode],
        *,
        exclude: Optional[Tuple[CoVarKey, str]] = None,
        cache: Optional[Dict[Tuple[CoVarKey, str], Dict[str, Any]]] = None,
    ) -> Callable[[str, int], Optional[StoredVersion]]:
        """Stored-version resolver over the chain's session states.

        A name at chain index *i* is coverable by a load iff the session
        state of chain[i] maps the name's co-variable to a version whose
        payload is stored (or already materialized in the checkout
        cache). The version being reconstructed right now is excluded —
        its load already failed, which is why we are planning at all.
        """

        # A version's payload holds values as of after the node that
        # *created* it; anchoring the load there (not at the query
        # index) keeps it ordered before any replayed cell that reads
        # the loaded names.
        positions = {node.node_id: index for index, node in enumerate(chain)}

        def lookup(name: str, upto: int) -> Optional[StoredVersion]:
            if upto < 0 or upto >= len(chain):
                return None
            state = chain[upto].state
            for key, version in state.items():
                if name not in key:
                    continue
                if exclude is not None and (key, version) == exclude:
                    return None
                anchor = positions.get(version, upto)
                if cache is not None and (key, version) in cache:
                    return StoredVersion(
                        names=key, ref=version, index=anchor, size_bytes=0
                    )
                if version not in self.graph:
                    return None
                info = self.graph.get(version).updated.get(key)
                if info is not None and info.stored:
                    return StoredVersion(
                        names=key,
                        ref=version,
                        index=anchor,
                        size_bytes=info.size_bytes,
                    )
                return None
            return None

        return lookup

    def plan_for(
        self,
        names: Any,  # Iterable[str]
        node_id: str,
        *,
        exclude: Optional[Tuple[CoVarKey, str]] = None,
        cache: Optional[Dict[Tuple[CoVarKey, str], Dict[str, Any]]] = None,
        cost_of: Optional[Callable[[CellNode], float]] = None,
    ) -> Tuple[ReplayPlan, List[CheckpointNode]]:
        """Compute (but do not execute) a replay plan for ``names`` at
        ``node_id``. Returns the plan together with the chain it is
        relative to (plan step indices are chain positions)."""
        with self.observer.span(
            "replay.plan", node=node_id, targets=sorted(names)
        ) as span:
            chain = self.chain_to(node_id)
            graph = NotebookDataflowGraph(self._cell_nodes(chain))
            planner = ReplayPlanner(
                graph,
                payload_lookup=self._payload_lookup(
                    chain, exclude=exclude, cache=cache
                ),
                cost_of=cost_of,
            )
            plan = planner.plan(sorted(names), len(chain) - 1 if chain else -1)
            self.stats.plans_computed += 1
            if not plan.is_safe:
                self.stats.unsafe_plans += 1
            span.set("chain_cells", len(chain))
            span.set("replay_cells", plan.cells_replayed)
            span.set("load_steps", len(plan.load_steps))
            span.set("safe", plan.is_safe)
            span.set("complete", plan.is_complete)
        return plan, chain

    # -- execution -----------------------------------------------------------

    def try_materialize(
        self,
        key: CoVarKey,
        node_id: str,
        *,
        namespace: PatchedNamespace,
        cache: Dict[Tuple[CoVarKey, str], Dict[str, Any]],
        load_values: ValueLoader,
        report: Optional[Any] = None,
    ) -> Optional[Dict[str, Any]]:
        """Reconstruct versioned co-variable (key, node_id) by planned
        replay in ``namespace`` (see :func:`replay_scope`), or return
        None to decline (caller falls back to the legacy recursion).

        Declines when the plan is incomplete, needs external inputs the
        chain cannot produce, is replay-unsafe, or fails mid-execution.
        Every decline records a :class:`PlanDecline` (reason enum +
        detail) on :attr:`PlanStats.declines`, the checkout report, and
        the event log — the counter alone never tells the story.
        On success the checkout ``cache`` has been populated with every
        versioned co-variable the replay produced along the way, so
        sibling materializations reuse (and alias with) these objects.
        """
        if node_id not in self.graph:
            return self._decline(
                DeclineReason.NO_CHAIN,
                f"node {node_id} not in checkpoint graph",
                key,
                node_id,
                report,
            )
        plan, chain = self.plan_for(
            key, node_id, exclude=(key, node_id), cache=cache
        )
        if not plan.is_safe:
            return self._decline(
                DeclineReason.UNSAFE,
                "; ".join(plan.unsafe_reasons) or "plan routes through opaque cells",
                key,
                node_id,
                report,
            )
        if not plan.is_complete:
            return self._decline(
                DeclineReason.INCOMPLETE,
                "no producer for: " + ", ".join(plan.missing),
                key,
                node_id,
                report,
            )
        if plan.external_inputs:
            return self._decline(
                DeclineReason.EXTERNAL_INPUTS,
                "chain cannot produce: " + ", ".join(plan.external_inputs),
                key,
                node_id,
                report,
            )
        if not plan.replay_steps:
            return self._decline(
                DeclineReason.EMPTY_PLAN,
                "plan has no replay steps",
                key,
                node_id,
                report,
            )
        with self.observer.span(
            "replay.execute", node=node_id, covariable=sorted(key)
        ) as span:
            values, failure = self._execute(
                plan, chain, namespace, cache=cache, load_values=load_values, report=report
            )
            span.set("ok", values is not None)
        if values is None:
            return self._decline(
                DeclineReason.EXEC_FAILED, failure, key, node_id, report
            )
        missing = [name for name in key if name not in values]
        if missing:
            return self._decline(
                DeclineReason.MISSING_OUTPUT,
                "replay did not produce: " + ", ".join(sorted(missing)),
                key,
                node_id,
                report,
            )
        self.stats.plans_executed += 1
        self.stats.cells_skipped += plan.cells_skipped
        self.observer.event(
            EventType.REPLAY_PLAN_EXECUTED,
            covariable=sorted(key),
            node=node_id,
            cells_replayed=plan.cells_replayed,
            cells_skipped=plan.cells_skipped,
            loads=len(plan.load_steps),
        )
        return {name: values[name] for name in key}

    def _decline(
        self,
        reason: DeclineReason,
        detail: str,
        key: CoVarKey,
        node_id: str,
        report: Optional[Any],
    ) -> None:
        """Record one decline everywhere it must be visible, return None."""
        decline = PlanDecline(
            reason=reason, detail=detail, names=tuple(sorted(key)), node_id=node_id
        )
        self.stats.record_decline(decline)
        if report is not None and hasattr(report, "declines"):
            report.declines.append(decline)
        self.observer.event(
            EventType.REPLAY_PLAN_DECLINED,
            reason=reason.value,
            detail=detail,
            covariable=sorted(key),
            node=node_id,
        )
        return None

    def _execute(
        self,
        plan: ReplayPlan,
        chain: List[CheckpointNode],
        namespace: PatchedNamespace,
        *,
        cache: Dict[Tuple[CoVarKey, str], Dict[str, Any]],
        load_values: ValueLoader,
        report: Optional[Any],
    ) -> Tuple[Optional[Dict[str, Any]], str]:
        """Run the plan in a :func:`replay_scope` of ``namespace``.

        Returns ``(user variables, "")`` on success, or ``(None,
        detail)`` on any failure (a failed load, a raising cell, an
        incomplete result) — the detail feeds the decline record.
        """
        cells = self._cell_nodes(chain)
        with replay_scope(namespace):
            for step in plan.steps:
                if step.kind == "load":
                    covar = frozenset(step.names)
                    assert step.ref is not None
                    values = cache.get((covar, step.ref))
                    if values is None:
                        values = load_values(covar, step.ref)
                        if values is None or not set(covar) <= set(values):
                            return None, f"load of {sorted(covar)} @ {step.ref} failed"
                        cache[(covar, step.ref)] = values
                    for name in sorted(covar):
                        namespace.plant(name, values[name])
                    self.stats.payload_loads += 1
                    if report is not None:
                        report.loaded_keys.append(covar)
                        report.bytes_loaded += step.size_bytes
                    continue
                node = chain[step.index]
                namespace.begin_recording()
                try:
                    exec_node(node, namespace)
                except Exception as exc:
                    return None, f"replayed cell {node.node_id} raised {exc!r}"
                finally:
                    record = namespace.end_recording()
                predicted = filter_user_names(set(cells[step.index].effects.definite_accesses))
                if predicted - record.accessed:
                    self.stats.validation_mismatches += 1
                self.stats.cells_replayed += 1
                self._cache_products(node, namespace, cache, report)
            return namespace.user_items(), ""

    def _cache_products(
        self,
        node: CheckpointNode,
        namespace: PatchedNamespace,
        cache: Dict[Tuple[CoVarKey, str], Dict[str, Any]],
        report: Optional[Any],
    ) -> None:
        """Record co-variables a replayed cell (re)produced.

        Caching them under the same (key, version) scheme the
        DataRestorer memoizes with lets sibling materializations in the
        same checkout reuse these exact objects — preserving aliasing
        across separately requested co-variables, exactly like the
        legacy recursion's memoization does.
        """
        for key in node.updated:
            if all(name in namespace for name in key):
                cache.setdefault(
                    (key, node.node_id),
                    {name: namespace.peek(name) for name in key},
                )
                if report is not None and key not in report.recomputed_keys:
                    report.recomputed_keys.append(key)


def session_cost_model(
    durations: Dict[str, float],
) -> Callable[[CellNode], float]:
    """Cost model preferring measured cell durations, falling back to the
    deterministic AST-size proxy for cells without metrics."""

    def cost(cell: CellNode) -> float:
        if cell.node_id is not None:
            measured = durations.get(cell.node_id, 0.0)
            if measured > 0.0:
                return measured
        return ast_cost(cell)

    return cost


__all__ = [
    "DeclineReason",
    "PlanDecline",
    "ReplayEngine",
    "ValueLoader",
    "exec_node",
    "replay_scope",
    "session_cost_model",
]
