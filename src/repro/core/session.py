"""KishuSession — the user-facing façade (§3 of the paper).

Attaching a session to a kernel wires up the full workflow of Fig 5:

* the kernel namespace is access-tracked (the *Patched Namespace*),
* after each cell execution the *Delta Detector* computes the co-variable
  granularity state delta,
* the delta is written as an incremental checkpoint node on the
  *Checkpoint Graph* (payloads go to the checkpoint store),
* ``checkout(checkpoint_id)`` incrementally restores any past state via the
  *State Loader*, with the *Data Restorer* reconstructing anything that
  failed to serialize.

Mirrors the paper's command palette: ``init`` (attach), ``log``,
``checkout``.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from typing import AbstractSet, Any, Dict, List, Optional, Set, Tuple, Union

from repro.analysis.crossval import CrossValidator
from repro.analysis.dataflow import in_place_mutation_targets
from repro.analysis.effects import CellEffects
from repro.analysis.summaries import NotebookSummaries, PrefixMemo
from repro.analysis.typetrack import NotebookTypeEnv, StubContext
from repro.analysis.visitor import analyze_cell
from repro.core.covariable import CoVariablePool, CoVarKey
from repro.core.delta import DeltaDetector, StateDelta, fold_deltas
from repro.core.graph import CheckpointGraph, CheckpointNode, PayloadInfo, ROOT_ID
from repro.core.refs import RefManager
from repro.core.replay import session_cost_model
from repro.core.restore import CheckoutReport, StateLoader
from repro.core.retry import RetryPolicy
from repro.core.serialization import Blocklist, SerializerChain
from repro.core.storage import (
    CheckpointStore,
    InMemoryCheckpointStore,
    StoredNode,
    StoredPayload,
    persist_checkpoint,
)
from repro.core.vargraph import VarGraphBuilder
from repro.errors import KishuError, SerializationError, StorageError
from repro.obs import BYTE_BUCKETS, EventType, NO_OBSERVER, Observer
from repro.telemetry import (
    AnalysisStats,
    PlanStats,
    WalkStats,
    publish_walk_stats,
)
from repro.kernel.cells import Cell, CellResult
from repro.kernel.events import POST_RUN_CELL, PRE_RUN_CELL, ExecutionInfo
from repro.kernel.kernel import NotebookKernel
from repro.kernel.namespace import AccessRecord


#: Source recorded on the synthetic node that captures the state a
#: kernel already held when the session attached.
ATTACH_SOURCE = "# state at kishu attach"


@dataclass
class CellCheckpointMetrics:
    """Per-checkpoint costs, the raw material of Figs 13–17 / Table 6."""

    node_id: str
    execution_count: int
    cell_duration: float
    detect_seconds: float
    serialize_seconds: float
    write_seconds: float
    bytes_written: int
    updated_covariables: int
    skipped_unserializable: int
    #: Payloads degraded to tombstones because storage permanently
    #: refused them; checkout recomputes these (§5.3).
    degraded_payloads: int = 0
    #: Walk-telemetry counters of this checkpoint's delta detection:
    #: objects visited, cache hits/misses, nodes spliced, bytes hashed,
    #: graphs built (DESIGN.md §7).
    walk: WalkStats = field(default_factory=WalkStats)
    #: True when the cross-validator distrusted this cell's access record
    #: (escape hatches or an under-reported definite access) and detection
    #: ran in check-all mode for this one cell (DESIGN.md §8).
    escalated: bool = False
    #: Total serialized payload bytes, *before* tombstone degradation
    #: dropped anything (≥ ``bytes_written``) — the per-cell checkpoint
    #: size of Fig 13, populated from the ``commit.serialize`` span.
    serialized_bytes: int = 0
    #: Store write+commit wall seconds, from the ``commit.persist`` span
    #: (equal to ``write_seconds`` when tracing is disabled).
    store_write_seconds: float = 0.0

    @property
    def checkpoint_seconds(self) -> float:
        """Total checkpoint cost: tracking plus data writing (§7.1)."""
        return self.detect_seconds + self.serialize_seconds + self.write_seconds

    @property
    def tracking_seconds(self) -> float:
        return self.detect_seconds


@dataclass
class LogEntry:
    """One row of ``kishu log``."""

    node_id: str
    parent_id: Optional[str]
    execution_count: int
    code_preview: str
    is_head: bool
    refs: List[str] = field(default_factory=list)


class KishuSession:
    """Time-traveling controller attached to one notebook kernel."""

    def __init__(
        self,
        kernel: NotebookKernel,
        store: Optional[CheckpointStore] = None,
        *,
        serializer: Optional[SerializerChain] = None,
        blocklist: Optional[Blocklist] = None,
        builder: Optional[VarGraphBuilder] = None,
        rule_analyzer: Optional["ReadOnlyCellAnalyzer"] = None,
        retry: Optional[RetryPolicy] = None,
        use_summaries: bool = True,
        use_stubs: bool = True,
        stub_registry: Optional[Any] = None,
        observe: Union[bool, Observer] = True,
    ) -> None:
        self.kernel = kernel
        self.store = store if store is not None else InMemoryCheckpointStore()
        self.serializer = serializer if serializer is not None else SerializerChain()
        self.blocklist = blocklist if blocklist is not None else Blocklist()
        #: Observability sinks (DESIGN.md §11): lifecycle tracer, metrics
        #: registry, and structured event log. ``observe=False`` swaps in
        #: the shared no-op observer (near-zero overhead — every verb
        #: bails on one attribute check); passing an :class:`Observer`
        #: shares sinks across sessions.
        if isinstance(observe, Observer):
            self.observer = observe
        else:
            self.observer = Observer() if observe else NO_OBSERVER
        # Stats views (analysis.* / replay.*) share the observer's registry
        # when observing; a disabled session gets private per-view
        # registries so counting still works without leaking into the
        # process-wide NO_OBSERVER sinks shared by every disabled session.
        stats_registry = self.observer.metrics if self.observer.enabled else None
        #: Optional §6.2 extension: skip delta detection entirely for cells
        #: the analyzer proves read-only (e.g. bare prints, `df.head()`).
        self.rule_analyzer = rule_analyzer
        #: Backoff schedule for transient storage faults, applied to every
        #: store operation issued while checkpointing or restoring.
        self.retry = retry if retry is not None else RetryPolicy()
        self.retry.observer = self.observer
        self.store.observer = self.observer
        #: Runtime cross-validation of Lemma 1 (DESIGN.md §8): after each
        #: cell the static effect prediction is compared against the
        #: runtime access record; cells with tracking escape hatches or
        #: under-reported records are escalated to check-all detection.
        #: Its stats are a view over the session registry (``analysis.*``).
        self.validator = CrossValidator(stats=AnalysisStats(registry=stats_registry))
        self.analysis_stats = self.validator.stats
        self._installed_analyzer = False
        #: Interprocedural function-effect summaries (DESIGN.md §14). The
        #: table is fed every committed cell in execution order; the
        #: pre-run analyzer consults its current view so call sites expand
        #: through helper summaries and escape-carrying helper bodies are
        #: charged to the cells that call them, not the cells that define
        #: them. ``use_summaries=False`` reverts to the PR 3/4
        #: intraprocedural analysis (the benchmark baseline).
        #: Library effect stubs (DESIGN.md §15): declarative third-party
        #: call models plus the notebook's abstract-type environment. The
        #: session owns the lifecycle — it advances the environment once
        #: per executed cell in ``_on_post_run`` and resyncs it at
        #: checkout. ``use_stubs=False`` reverts library calls to the
        #: conservative treatment (the benchmark baseline);
        #: ``stub_registry`` substitutes a custom
        #: :class:`~repro.analysis.stubs.StubRegistry` (user stub files).
        self.stubs: Optional[StubContext] = (
            StubContext(registry=stub_registry) if use_stubs else None
        )
        self.summaries: Optional[NotebookSummaries] = (
            NotebookSummaries(stubs=self.stubs) if use_summaries else None
        )
        #: Summary tables folded by checkout resyncs, by chain prefix, so
        #: an undo or redo re-analyses only the cells since the deepest
        #: ancestor already folded (DESIGN.md §14).
        self._resync_memo = PrefixMemo()

        # The session's DeltaDetector observes every cell's access record
        # and invalidates dirty subtrees before rebuilding, which is what
        # makes the incremental walk cache sound — so the session-owned
        # builder enables it (a caller-supplied builder is used as-is).
        if builder is None:
            builder = VarGraphBuilder(incremental=True)
        self.pool = CoVariablePool(builder)
        self.detector = DeltaDetector(self.pool)
        self.graph = CheckpointGraph()
        self.loader = StateLoader(
            self.graph, self.store, self.serializer, self.pool,
            retry=self.retry,
            observer=self.observer,
            plan_stats=PlanStats(registry=stats_registry),
            use_summaries=use_summaries,
            use_stubs=use_stubs,
            stub_registry=stub_registry,
        )
        self.refs = RefManager()

        self.metrics: List[CellCheckpointMetrics] = []
        self.checkout_reports: List[CheckoutReport] = []
        self._attached = False
        #: Effects of the cell currently between pre- and post-run hooks.
        self._cell_effects: Optional[CellEffects] = None
        #: Delta of a checkpoint whose store write failed, folded into the
        #: next successful checkpoint so the history loses no state.
        self._carryover: Optional[Tuple[StateDelta, str]] = None

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def init(cls, kernel: NotebookKernel, **kwargs) -> "KishuSession":
        """Create a session and attach it — the paper's ``init`` command."""
        session = cls(kernel, **kwargs)
        session.attach()
        return session

    @classmethod
    def resume(
        cls, kernel: NotebookKernel, store: CheckpointStore, **kwargs
    ) -> "KishuSession":
        """Reattach to a durable checkpoint store after a kernel restart.

        Rebuilds the checkpoint graph from the store, attaches to the
        (fresh) kernel, and restores the stored head state into it — the
        durability story the SQLite backend (§6.1) exists for.
        """
        session = cls(kernel, store=store, **kwargs)
        session.graph = CheckpointGraph.from_store(store)
        session.loader = StateLoader(
            session.graph,
            session.store,
            session.serializer,
            session.pool,
            retry=session.retry,
            observer=session.observer,
            plan_stats=PlanStats(
                registry=session.observer.metrics
                if session.observer.enabled
                else None
            ),
            use_summaries=session.summaries is not None,
            use_stubs=session.stubs is not None,
            stub_registry=(
                session.stubs.registry if session.stubs is not None else None
            ),
        )
        session.attach()
        head = session.graph.head_id
        if head != ROOT_ID:
            # The fresh kernel's actual state is empty (the root state);
            # point the head there so the checkout diff loads everything
            # the stored head state contains.
            session.graph.move_head(ROOT_ID)
            session.checkout(head)
        return session

    def attach(self) -> None:
        """Hook into the kernel and checkpoint any pre-existing state."""
        if self._attached:
            raise KishuError("session already attached")
        self.kernel.events.register(PRE_RUN_CELL, self._on_pre_run)
        self.kernel.events.register(POST_RUN_CELL, self._on_post_run)
        self.kernel.observer = self.observer
        if self.kernel.cell_analyzer is None:
            # Install the pre-execution static-analysis hook so every
            # cell's effects are computed before it runs. The bound
            # method consults the session's summary table, making the
            # analysis interprocedural when summaries are enabled.
            self.kernel.cell_analyzer = self._analyze_cell
            self._installed_analyzer = True
        self._attached = True
        existing = self.kernel.user_variables()
        if existing:
            # Capture whatever the user created before attaching as an
            # initial synthetic checkpoint so every later state is reachable.
            record = AccessRecord()
            record.sets |= set(existing)
            self._commit(record, ATTACH_SOURCE, self.kernel.execution_count)
            # A checkout resync folds this node's source like any cell's,
            # so the live tables observe it too and stay equal to the
            # fold of their chain.
            if self.summaries is not None:
                self.summaries.advance(ATTACH_SOURCE)
            elif self.stubs is not None:
                self.stubs.observe_cell(ATTACH_SOURCE)

    def detach(self) -> None:
        if not self._attached:
            return
        self.kernel.events.unregister(PRE_RUN_CELL, self._on_pre_run)
        self.kernel.events.unregister(POST_RUN_CELL, self._on_post_run)
        self.kernel.observer = NO_OBSERVER
        if self._installed_analyzer:
            self.kernel.cell_analyzer = None
            self._installed_analyzer = False
        self._attached = False

    # -- hooks -------------------------------------------------------------------

    def _analyze_cell(self, source: str) -> CellEffects:
        """Static analysis of one cell, through the summary view when
        interprocedural summaries are enabled (DESIGN.md §14) and the
        stub context when library effect stubs are enabled (§15)."""
        view = (
            self.summaries.view_for_cell(source)
            if self.summaries is not None
            else None
        )
        return analyze_cell(source, view, stubs=self.stubs)

    def _on_pre_run(self, info: ExecutionInfo) -> None:
        effects = info.analysis
        if not isinstance(effects, CellEffects):
            # No analyzer on the kernel (or a foreign one): analyze here
            # so cross-validation still sees every cell.
            effects = self._analyze_cell(info.cell.source)
        self._cell_effects = effects
        if not self.kernel.user_ns.recording:
            self.kernel.user_ns.begin_recording()

    def _on_post_run(self, result: CellResult) -> None:
        record = self.kernel.user_ns.end_recording()
        self.observer.annotate(
            accesses=len(record.accessed), writes=len(record.sets)
        )
        effects = self._cell_effects
        self._cell_effects = None
        if effects is None and (
            self.summaries is not None or self.stubs is not None
        ):
            effects = self._analyze_cell(result.cell.source)
        stub_pure: Set[str] = set()
        if self.summaries is not None:
            invalidated_before = len(self.summaries.invalidations)
            self.summaries.observe_cell(
                result.cell.source, effects, executed=result.error is None
            )
            self.analysis_stats.summary_invalidations += (
                len(self.summaries.invalidations) - invalidated_before
            )
            # Summary-informed record completion: ``STORE_GLOBAL`` and
            # ``DELETE_GLOBAL`` executed inside a called helper bypass the
            # patched dict, so rebinds/deletes the summaries attribute to
            # a call site never reach the runtime record — and, with the
            # escape deferred, no escalation catches them either. Folding
            # them in keeps Lemma-1 candidate selection sound; the
            # detector's graph comparison discards any that did not
            # actually change (e.g. a call guarded by a false branch).
            record.sets |= effects.summary_writes | effects.summary_mutations
            record.deletes |= effects.summary_deletes
        if self.stubs is not None and effects is not None:
            # Stub-informed record completion, mirroring the summary
            # fold above: stub-declared receiver/argument mutations and
            # hidden global writes never hit the patched dict, so they
            # must join the Lemma-1 candidate set by hand.
            record.sets |= effects.stub_mutations | effects.stub_writes
            if result.error is None and effects.syntax_error is None:
                stub_pure = self._stub_pure_witnesses(result.cell.source, effects)
            # The session owns the stub env lifecycle: exactly one
            # observation per executed cell, after analysis used the
            # pre-cell environment.
            self.stubs.observe_cell(
                result.cell.source,
                executed=result.error is None,
                opaque=effects.opaque_writes,
            )
        self._commit(
            record,
            result.cell.source,
            result.execution_count,
            cell_duration=result.duration,
            tags=result.cell.tags,
            effects=effects,
            stub_pure=stub_pure,
        )

    def _stub_pure_witnesses(self, source: str, effects: CellEffects) -> Set[str]:
        """Receivers this cell touched *only* through declared-pure stub
        calls — the names a commit-time delta can refute (§15.3).

        A receiver some other statement legitimately mutates (a stubbed
        mutator, an aug-assign, an unstubbed method the conservative
        walk flags) is excluded: a runtime change there proves nothing
        about the pure stub.
        """
        pure = set(effects.stub_pure_receivers)
        pure -= effects.stub_mutations | effects.stub_writes
        if not pure:
            return pure
        try:
            module = ast.parse(source)
        except SyntaxError:
            return set()
        assert self.stubs is not None
        resolver = self.stubs.resolver(module)
        pure -= set(
            in_place_mutation_targets(module, method_effect=resolver.method_effect)
        )
        return pure

    def _refuted_stub_purity(
        self,
        delta: StateDelta,
        record: AccessRecord,
        effects: Optional[CellEffects],
        stub_pure: AbstractSet[str],
    ) -> Set[str]:
        """Pure-stub witnesses the runtime delta refutes.

        A co-variable counts as refuting evidence only when it contains
        a witness AND none of its members has another static explanation
        (a recorded rebind/delete, or a summary/stub-declared write) —
        shared object graphs make any explained member an alternative
        cause for the whole co-variable's change.
        """
        explained = set(record.sets) | set(record.deletes)
        if effects is not None:
            explained |= (
                effects.summary_writes
                | effects.summary_mutations
                | effects.summary_deletes
                | effects.stub_mutations
                | effects.stub_writes
            )
        refuted: Set[str] = set()
        for key, _covariable in delta.updated.items():
            members = set(key)
            witnesses = members & stub_pure
            if witnesses and not (members & explained):
                refuted |= witnesses
        return refuted

    # -- checkpointing --------------------------------------------------------------

    def _commit(
        self,
        record: AccessRecord,
        source: str,
        execution_count: int,
        *,
        cell_duration: float = 0.0,
        tags: AbstractSet[str] = frozenset(),
        effects: Optional[CellEffects] = None,
        stub_pure: AbstractSet[str] = frozenset(),
    ) -> CheckpointNode:
        """Write one cell execution as an incremental checkpoint.

        ``effects`` is the cell's static analysis, cross-validated
        against ``record``; ``stub_pure`` holds its stub-purity
        witnesses (see :meth:`_stub_pure_witnesses`).
        """
        obs = self.observer
        with obs.span("commit", execution_count=execution_count) as commit_span:
            # Cross-validate Lemma 1 (DESIGN.md §8): compare the static
            # prediction against what the patched namespace recorded. Cells
            # containing escape hatches, and cells whose record misses a
            # definite static access, run this one detection in check-all
            # mode — correctness is restored at AblatedKishu's per-cell
            # cost.
            escalate = False
            if effects is not None:
                with obs.span("commit.crossval") as crossval_span:
                    outcome = self.validator.validate(effects, record)
                    crossval_span.set("escalate", outcome.escalate)
                escalate = outcome.escalate
                if escalate:
                    obs.event(
                        EventType.CROSSVAL_ESCALATION,
                        execution_count=execution_count,
                        reasons=list(outcome.reasons),
                        missing=sorted(outcome.missing),
                    )

            if (
                self.rule_analyzer is not None
                and not escalate
                and self.rule_analyzer.is_read_only(source)
            ):
                # Rule-based fast path (§6.2): a provably read-only cell
                # cannot have updated any co-variable — write an empty
                # checkpoint without any VarGraph work.
                delta = StateDelta()
                self.analysis_stats.read_only_skips += 1
            else:
                with obs.span("commit.detect", escalate=escalate) as detect_span:
                    delta = self.detector.detect(
                        record, self.kernel.user_variables(), escalate=escalate
                    )
                    detect_span.update(
                        {
                            "updated": len(delta.updated),
                            "deleted": len(delta.deleted),
                            "objects_visited": delta.walk.objects_visited,
                            "bytes_hashed": delta.walk.bytes_hashed,
                        }
                    )
            # Stub-mismatch safety net (DESIGN.md §15.3): the delta
            # detector is the runtime oracle for stub truthfulness. A
            # changed co-variable containing a declared-pure receiver,
            # with no other static explanation for the change, means a
            # stub lied (or drifted across library versions). The delta
            # itself already captured the change — correctness of *this*
            # checkpoint is intact — so the response is observational:
            # count the mismatch, emit events, and mark the checkpoint
            # escalated so downstream consumers distrust the cell.
            if self.stubs is not None and stub_pure:
                refuted = self._refuted_stub_purity(
                    delta, record, effects, stub_pure
                )
                if refuted:
                    self.validator.note_stub_mismatch(
                        frozenset(refuted), already_escalated=escalate
                    )
                    obs.event(
                        EventType.STUB_MISMATCH,
                        names=sorted(refuted),
                        execution_count=execution_count,
                    )
                    obs.event(
                        EventType.CROSSVAL_ESCALATION,
                        execution_count=execution_count,
                        reasons=[
                            "stub-mismatch: " + ", ".join(sorted(refuted))
                        ],
                        missing=[],
                    )
                    escalate = True

            if obs.enabled:
                publish_walk_stats(obs.metrics, delta.walk)

            if self._carryover is not None:
                # A previous checkpoint's store write failed after the pool
                # was already advanced; fold its delta under this one so no
                # state update is lost from the history.
                carried_delta, carried_source = self._carryover
                self._carryover = None
                delta = fold_deltas(carried_delta, delta)
                source = (
                    f"{carried_source}\n{source}" if source else carried_source
                )
                obs.event(
                    EventType.DELTA_CARRYOVER,
                    action="folded",
                    execution_count=execution_count,
                    carried_updates=len(carried_delta.updated),
                )

            try:
                node = self._write_checkpoint(
                    delta, source, execution_count, cell_duration,
                    store_payloads=self.should_store_delta(
                        tags, record, cell_duration
                    ),
                    escalated=escalate,
                )
            except StorageError as exc:
                self._carryover = (delta, source)
                obs.event(
                    EventType.DELTA_CARRYOVER,
                    action="stashed",
                    execution_count=execution_count,
                    updates=len(delta.updated),
                    error=type(exc).__name__,
                )
                raise
            commit_span.update(
                {"node": node.node_id, "updated": len(delta.updated)}
            )
        metric = self.metrics[-1]
        obs.event(
            EventType.COMMIT,
            node=node.node_id,
            execution_count=execution_count,
            updated=metric.updated_covariables,
            bytes_written=metric.bytes_written,
            skipped=metric.skipped_unserializable,
            degraded=metric.degraded_payloads,
            escalated=escalate,
        )
        obs.count("commit.count")
        self.refs.advance_active_branch(node.node_id)
        return node

    def should_store_delta(
        self, tags: AbstractSet[str], record: AccessRecord, cell_duration: float
    ) -> bool:
        """Whether this cell's updated co-variables should be serialized.

        Always True for plain Kishu. The Det-replay variant (§7.1) overrides
        this to skip storage for deterministic-annotated cells, relying on
        replay (fallback recomputation) at checkout; the cost-based variant
        also weighs the cell's ``record`` and ``cell_duration``.
        """
        return True

    def _write_checkpoint(
        self,
        delta: StateDelta,
        cell_source: str,
        execution_count: int,
        cell_duration: float,
        *,
        store_payloads: bool = True,
        escalated: bool = False,
    ) -> CheckpointNode:
        parent_id = self.graph.head_id
        parent_state = self.graph.head.state
        node_id = self.graph.new_node_id()
        timestamp = self.graph.next_timestamp

        obs = self.observer
        serialize_seconds = 0.0
        bytes_written = 0
        skipped = 0
        updated_infos: Dict[CoVarKey, PayloadInfo] = {}
        payloads: List[StoredPayload] = []

        with obs.span("commit.serialize") as serialize_span:
            for key, covariable in delta.updated.items():
                data: Optional[bytes] = None
                serializer_name: Optional[str] = None
                if store_payloads and not self.blocklist.blocks_any(
                    covariable.type_names()
                ):
                    values = {
                        name: self.kernel.user_ns.peek(name) for name in key
                    }
                    started = time.perf_counter()
                    try:
                        data, serializer_name = self.serializer.serialize(key, values)
                    except SerializationError:
                        data = None
                    serialize_seconds += time.perf_counter() - started
                if data is None:
                    skipped += 1
                else:
                    bytes_written += len(data)
                    obs.observe("store.payload_bytes", len(data), BYTE_BUCKETS)
                updated_infos[key] = PayloadInfo(
                    key=key,
                    stored=data is not None,
                    serializer=serializer_name if data is not None else None,
                    size_bytes=len(data) if data is not None else 0,
                )
                payloads.append(
                    StoredPayload(
                        node_id=node_id,
                        key=key,
                        data=data,
                        serializer=serializer_name if data is not None else None,
                    )
                )
            serialize_span.update(
                {"payloads": len(payloads), "bytes": bytes_written}
            )

        dependencies: Dict[CoVarKey, str] = {}
        for key in delta.accessed_keys:
            version = parent_state.get(key)
            if version is not None:
                dependencies[key] = version

        stored_node = StoredNode(
            node_id=node_id,
            parent_id=parent_id,
            timestamp=timestamp,
            execution_count=execution_count,
            cell_source=cell_source,
            deleted_keys=tuple(delta.deleted),
            dependencies=tuple(dependencies.items()),
        )

        # Persist first, under the store's atomic commit protocol; the
        # in-memory graph node is added only once the store committed, so
        # a storage failure leaves both graph and store at the parent.
        started = time.perf_counter()
        with obs.span("commit.persist", node=node_id) as persist_span:
            degraded = persist_checkpoint(
                self.store, stored_node, payloads, retry=self.retry, observer=obs
            )
        write_seconds = time.perf_counter() - started
        # Degraded payloads are tombstones now; checkout recomputes them.
        for payload in degraded:
            updated_infos[payload.key] = PayloadInfo(key=payload.key, stored=False)
        serialized_bytes = bytes_written
        skipped += len(degraded)
        bytes_written -= sum(payload.size_bytes for payload in degraded)
        persist_span.update({"bytes": bytes_written, "degraded": len(degraded)})

        node = self.graph.add_node(
            cell_source=cell_source,
            execution_count=execution_count,
            updated=updated_infos,
            deleted=delta.deleted,
            dependencies=dependencies,
            parent_id=parent_id,
        )

        if obs.enabled:
            # Storage accounting (registry, ``store.*``): written vs
            # reused payloads, and the incremental-vs-monolithic size
            # comparison — a monolithic checkpointer would re-write every
            # stored co-variable of the head state each commit.
            obs.count("store.bytes_written", bytes_written)
            obs.count("store.payloads_stored", len(payloads) - skipped)
            obs.count("store.tombstones", skipped)
            state = node.state
            reused = sum(
                1 for _, version in state.items() if version != node.node_id
            )
            obs.count("store.dedup_hits", reused)
            obs.count("store.incremental_bytes", bytes_written)
            monolithic = 0
            for key, version in state.items():
                info = self.graph.get(version).updated.get(key)
                if info is not None:
                    monolithic += info.size_bytes
            obs.count("store.monolithic_bytes", monolithic)
            obs.gauge("store.state_covariables", len(state))

        self.metrics.append(
            CellCheckpointMetrics(
                node_id=node.node_id,
                execution_count=execution_count,
                cell_duration=cell_duration,
                detect_seconds=delta.detection_seconds,
                serialize_seconds=serialize_seconds,
                write_seconds=write_seconds,
                bytes_written=bytes_written,
                updated_covariables=len(delta.updated),
                skipped_unserializable=skipped,
                degraded_payloads=len(degraded),
                walk=delta.walk,
                escalated=escalated,
                serialized_bytes=serialized_bytes,
                store_write_seconds=persist_span.duration or write_seconds,
            )
        )
        return node

    # -- time-traveling -----------------------------------------------------------

    def checkout(self, ref: str) -> CheckoutReport:
        """Incrementally restore a past state (§5.2).

        ``ref`` may be a checkpoint id (``t7``), a branch name, or a tag
        name. Checking out a branch makes it active (subsequent commits
        advance it); anything else leaves the head detached.
        """
        resolved = self.refs.resolve(ref)
        checkpoint_id = resolved if resolved is not None else ref
        report = self.loader.checkout(
            checkpoint_id,
            self.kernel.user_ns,
            resync_summaries=self._resync_summaries,
        )
        self._discard_carryover_after_checkout(checkpoint_id, report)
        self.checkout_reports.append(report)
        if ref in self.refs.branches():
            self.refs.activate_branch(ref)
        else:
            self.refs.activate_branch(None)
        return report

    def _resync_summaries(self, target_id: str) -> None:
        """Rebuild the summary table and stub type environment for the
        checked-out timeline.

        Function bindings — and, for stubs, import/constructor bindings —
        are session state like any other: a checkout moves to the state
        *as of* the target node, so summaries and abstract types from the
        abandoned timeline (defs executed after the target, rebinds,
        invalidation events) must not leak into analyses of cells run
        from here on. Rebuilding from the target's chain sources is
        exactly the replay both tables would have observed live; the
        prefix memo resumes it from the deepest ancestor an earlier
        resync folded.
        """
        if self.summaries is None and self.stubs is None:
            return
        sources = [
            self.graph.get(ancestor).cell_source
            for ancestor in reversed(self.graph.path_to_root(target_id))
            if ancestor != ROOT_ID
        ]
        if self.summaries is not None:
            # from_sources leaves the shared stub context's env at the
            # same point as the table, keeping the two in lockstep.
            memo = self._resync_memo
            self.summaries = NotebookSummaries.from_sources(
                sources, stubs=self.stubs, memo=memo
            )
            reused, folded = memo.reused, memo.folded
        else:
            assert self.stubs is not None
            self.stubs.env = NotebookTypeEnv.from_sources(
                sources, self.stubs.registry
            )
            reused, folded = 0, len(sources)
        self.observer.count("checkout.resync.reused", reused)
        self.observer.count("checkout.resync.folded", folded)

    def _discard_carryover_after_checkout(
        self, target_id: str, report: CheckoutReport
    ) -> None:
        """A checkout abandons state that never reached the store.

        When a checkpoint write fails, its delta is stashed as a
        carryover to be folded under the next commit. A checkout moves
        to a *recorded* state, so the carried delta belongs to the
        abandoned timeline — and the checkout plan, which diffs
        committed states only, cannot see names the failed cell
        created. Without this pass those names would survive time
        travel in both the namespace and the pool.
        """
        if self._carryover is None:
            return
        carried_delta, _ = self._carryover
        self._carryover = None
        target_names = self.graph.get(target_id).state.names()
        for key, covariable in carried_delta.created.items():
            stale = [name for name in key if name not in target_names]
            if not stale:
                continue
            for name in stale:
                self.kernel.user_ns.uproot(name)
                report.deleted_names.append(name)
            # Any member the target does know was repartitioned by the
            # checkout resync; a key of only-stale names lingers whole.
            pool_key = self.pool.key_of(stale[0])
            if pool_key is not None and not (set(pool_key) & target_names):
                self.pool.replace([pool_key], [])
        self.observer.event(
            EventType.DELTA_CARRYOVER,
            action="discarded",
            target=target_id,
            carried_updates=len(carried_delta.updated),
        )

    def plan_replay(self, names, ref: Optional[str] = None):
        """Compute (without executing) the minimal replay plan that would
        reconstruct ``names`` at ``ref`` (default: the head) — the
        ``%replay-plan`` command (DESIGN.md §10).

        Cost estimates prefer measured cell durations from
        :class:`CellCheckpointMetrics`, falling back to a deterministic
        AST-size proxy for nodes without metrics (e.g. after resume).
        """
        node_id = self._resolve_or_head(ref)
        durations = {
            metric.node_id: metric.cell_duration for metric in self.metrics
        }
        plan, _ = self.loader.replay_engine.plan_for(
            names, node_id, cost_of=session_cost_model(durations)
        )
        return plan

    @property
    def plan_stats(self):
        """Replay-planner telemetry (plans, cells replayed vs skipped,
        validation mismatches) — surfaced by ``%telemetry``."""
        return self.loader.replay_engine.stats

    # -- refs (kishu branch / kishu tag) -----------------------------------------

    def tag(self, name: str, ref: Optional[str] = None) -> str:
        """Create an immutable tag at ``ref`` (default: the head)."""
        node_id = self._resolve_or_head(ref)
        self.refs.create_tag(name, node_id)
        return node_id

    def branch(
        self, name: str, ref: Optional[str] = None, *, switch: bool = True
    ) -> str:
        """Create a branch at ``ref`` (default: the head).

        With ``switch`` (default) the new branch becomes active, so the
        next cell executions advance it — `git checkout -b` semantics.
        """
        node_id = self._resolve_or_head(ref)
        self.refs.create_branch(name, node_id)
        if switch and node_id == self.graph.head_id:
            self.refs.activate_branch(name)
        return node_id

    def _resolve_or_head(self, ref: Optional[str]) -> str:
        if ref is None:
            return self.graph.head_id
        resolved = self.refs.resolve(ref)
        node_id = resolved if resolved is not None else ref
        self.graph.get(node_id)  # raises CheckpointNotFoundError if bad
        return node_id

    def log(self) -> List[LogEntry]:
        """All checkpoints, oldest first — the paper's ``log`` command."""
        entries = []
        for node in sorted(self.graph.all_nodes(), key=lambda n: n.timestamp):
            if node.node_id == ROOT_ID:
                continue
            first_line = node.cell_source.strip().splitlines()
            preview = first_line[0][:60] if first_line else ""
            entries.append(
                LogEntry(
                    node_id=node.node_id,
                    parent_id=node.parent_id,
                    execution_count=node.execution_count,
                    code_preview=preview,
                    is_head=node.node_id == self.graph.head_id,
                    refs=self.refs.names_of(node.node_id),
                )
            )
        return entries

    @property
    def head_id(self) -> str:
        return self.graph.head_id

    @property
    def session_id(self) -> str:
        """Which session's rows this session reads and writes in the
        (possibly shared) store."""
        return self.store.session_id

    # -- write-ahead barrier -------------------------------------------------------

    def flush(self) -> None:
        """Wait until every accepted commit is applied to the store.

        A no-op for synchronous stores; against a write-ahead
        :class:`~repro.service.queue.QueuedStore` this is the barrier
        the service's durability contract is stated in terms of.
        """
        self.store.flush()

    def drain(self) -> None:
        """:meth:`flush`, then raise any asynchronous write failures."""
        self.store.drain()

    # -- convenience ---------------------------------------------------------------

    def run_cell(self, cell, **kwargs) -> CellResult:
        """Run a cell on the attached kernel (checkpointing via hooks)."""
        return self.kernel.run_cell(cell, **kwargs)

    # -- aggregate metrics -----------------------------------------------------------

    def total_checkpoint_seconds(self) -> float:
        return sum(metric.checkpoint_seconds for metric in self.metrics)

    def total_walk_stats(self) -> WalkStats:
        """Cumulative walk-telemetry counters across all checkpoints."""
        total = WalkStats()
        for metric in self.metrics:
            total = total + metric.walk
        return total

    def total_checkpoint_bytes(self) -> int:
        return self.store.total_payload_bytes()
