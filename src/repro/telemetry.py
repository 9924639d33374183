"""Walk telemetry — counters for the per-cell VarGraph hot path.

The delta detector's cost is dominated by object-graph traversal: every
candidate co-variable is re-walked after every cell (§4.2–4.3, Table 6 /
Fig 17). The incremental construction layer (DESIGN.md §7) makes that cost
proportional to the *delta* instead of the state; this module makes the
claim measurable instead of asserted.

A :class:`WalkTelemetry` is a set of monotonically increasing counters
owned by one :class:`~repro.core.vargraph.VarGraphBuilder`:

* ``objects_visited`` — traversal-policy visits (one per object walked);
* ``cache_hits`` / ``cache_misses`` — subtree-cache lookups that spliced a
  cached segment vs. fell through to a walk;
* ``nodes_spliced`` — graph nodes copied from cached segments instead of
  being re-walked;
* ``bytes_hashed`` — raw bytes fed to the content-digest fast path
  (arrays, buffers, strings);
* ``graphs_built`` — VarGraph constructions (cold or incremental);
* ``cache_invalidations`` — cached subtrees dropped by dirty-set
  invalidation.

Callers that want per-cell numbers take a :meth:`WalkTelemetry.snapshot`
before the work and :meth:`WalkTelemetry.since` after; the resulting
:class:`WalkStats` rides on ``StateDelta`` → ``CellCheckpointMetrics`` /
``TrackingCost`` and surfaces in the CLI (``%telemetry``) and the
``benchmarks/test_ablation_incremental_walk.py`` microbenchmark.

``bytes_hashed`` is recorded at the hashing layer, which has no builder in
scope; builders declare themselves the calling thread's *active*
telemetry for the duration of a build (:func:`activate` /
:func:`deactivate`), and unattributed hashing lands on the module-wide
:data:`GLOBAL_TELEMETRY`.

Since the observability layer (DESIGN.md §11) this module sits *on top
of* :mod:`repro.obs`: :class:`AnalysisStats` and :class:`PlanStats` are
no longer freestanding counter bags but **views over a**
:class:`~repro.obs.metrics.MetricsRegistry` — attribute reads and writes
go straight to registry counters (``analysis.*`` / ``replay.*``), so a
session-bound stats object and ``repro stats`` always agree. A stats
object constructed bare (no registry) gets a private registry, keeping
the historical standalone behaviour. :class:`WalkTelemetry` stays a
plain slotted counter bag — it is incremented per *object visited* on
the walk hot path — and its per-commit deltas are published into the
registry in one batch via :func:`publish_walk_stats`.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

_COUNTERS = (
    "objects_visited",
    "cache_hits",
    "cache_misses",
    "nodes_spliced",
    "bytes_hashed",
    "graphs_built",
    "cache_invalidations",
)


@dataclass(frozen=True)
class WalkStats:
    """An immutable snapshot (or difference) of walk counters."""

    objects_visited: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    nodes_spliced: int = 0
    bytes_hashed: int = 0
    graphs_built: int = 0
    cache_invalidations: int = 0

    def __add__(self, other: "WalkStats") -> "WalkStats":
        return WalkStats(
            **{name: getattr(self, name) + getattr(other, name) for name in _COUNTERS}
        )

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _COUNTERS}

    @property
    def hit_ratio(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0


class WalkTelemetry:
    """Mutable walk counters owned by one builder (or the global sink)."""

    __slots__ = _COUNTERS

    def __init__(self) -> None:
        for name in _COUNTERS:
            setattr(self, name, 0)

    def snapshot(self) -> WalkStats:
        return WalkStats(**{name: getattr(self, name) for name in _COUNTERS})

    def since(self, earlier: WalkStats) -> WalkStats:
        """Counter increments accumulated after ``earlier`` was taken."""
        return WalkStats(
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in _COUNTERS
            }
        )

    def reset(self) -> None:
        for name in _COUNTERS:
            setattr(self, name, 0)


class RegistryStats:
    """Base for stats objects that are views over a metrics registry.

    Attribute reads and writes of names in ``_FIELDS`` resolve to the
    counter ``{_PREFIX}.{name}`` in the backing registry, so the
    historical mutation style (``stats.escalations += 1``) keeps working
    while ``repro stats`` reads the very same numbers from the registry.
    Constructed without a registry, a private one is created — the
    standalone behaviour every existing call site relies on.
    """

    _PREFIX = ""
    _FIELDS: Tuple[str, ...] = ()
    #: Field-specific metric names for counters whose registry name does
    #: not follow the ``{_PREFIX}.{field}`` pattern (dots are not valid in
    #: attribute names, so e.g. ``summary_expansions`` can back the
    #: ``analysis.summary.expansions`` counter).
    _FIELD_METRICS: Dict[str, str] = {}

    @classmethod
    def _metric_name(cls, name: str) -> str:
        return cls._FIELD_METRICS.get(name, f"{cls._PREFIX}.{name}")

    def __init__(
        self, registry: Optional[MetricsRegistry] = None, **initial: int
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        for name, value in initial.items():
            if name not in self._FIELDS:
                raise TypeError(f"unknown counter {name!r}")
            setattr(self, name, value)

    def __getattr__(self, name: str) -> Any:
        # Only called for attributes not found normally — i.e. counters.
        if name in type(self)._FIELDS:
            try:
                registry = self.__dict__["registry"]
            except KeyError:
                raise AttributeError(name) from None
            return registry.counter(type(self)._metric_name(name)).value
        raise AttributeError(name)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in type(self)._FIELDS:
            self.__dict__["registry"].counter(
                type(self)._metric_name(name)
            ).set(value)
        else:
            object.__setattr__(self, name, value)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self._FIELDS}

    def __repr__(self) -> str:
        rendered = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({rendered})"


class AnalysisStats(RegistryStats):
    """Counters of the static-analysis / cross-validation layer
    (DESIGN.md §8), backed by ``analysis.*`` registry counters.

    Owned by one :class:`~repro.analysis.crossval.CrossValidator` (and
    therefore one session). ``escalations`` is the interesting number: a
    non-zero count means Lemma 1's runtime guarantee was not trusted for
    those cells and detection fell back to check-all mode for exactly
    them.

    Fields: ``cells_analyzed`` (cells statically analyzed and
    cross-validated), ``escapes_found`` (escape-hatch occurrences — one
    cell may contain several), ``predictions_confirmed`` /
    ``predictions_violated`` (runtime record contained / missed a
    definite static access), ``escalations`` (cells escalated to
    check-all detection), ``read_only_skips`` (cells skipped entirely by
    the §6.2 read-only rule).

    The ``summary_*`` fields track the interprocedural summary layer
    (DESIGN.md §14) and back ``analysis.summary.*`` registry counters:
    ``summary_expansions`` (call sites expanded through a
    :class:`~repro.analysis.summaries.FunctionSummary`),
    ``summary_unknown_calls`` (calls hitting the conservative top),
    ``summary_deferred_escapes`` (escapes deferred from def sites into
    summaries), ``summary_deescalations`` (cells that carried deferred
    escapes yet did *not* escalate — exactly the escalations the old
    intraprocedural analysis would have charged), and
    ``summary_invalidations`` (summary bindings invalidated by rebinds or
    opaque cells).

    The ``stub_*`` fields track the library-effect-stub layer
    (DESIGN.md §15) and back ``analysis.stub.*`` registry counters:
    ``stub_expansions`` (call sites bounded by a declared stub),
    ``stub_unknown_calls`` (library-shaped calls with no covering stub —
    the KSH502 feed), and ``stub_mismatches`` (declared-pure stubs
    refuted by a runtime delta — each also escalates its cell and emits
    a ``stub_mismatch`` event).
    """

    _PREFIX = "analysis"
    _FIELDS = (
        "cells_analyzed",
        "escapes_found",
        "predictions_confirmed",
        "predictions_violated",
        "escalations",
        "read_only_skips",
        "summary_expansions",
        "summary_unknown_calls",
        "summary_deferred_escapes",
        "summary_deescalations",
        "summary_invalidations",
        "stub_expansions",
        "stub_unknown_calls",
        "stub_mismatches",
    )
    _FIELD_METRICS = {
        "summary_expansions": "analysis.summary.expansions",
        "summary_unknown_calls": "analysis.summary.unknown_calls",
        "summary_deferred_escapes": "analysis.summary.deferred_escapes",
        "summary_deescalations": "analysis.summary.deescalations",
        "summary_invalidations": "analysis.summary.invalidations",
        "stub_expansions": "analysis.stub.expansions",
        "stub_unknown_calls": "analysis.stub.unknown_calls",
        "stub_mismatches": "analysis.stub.mismatches",
    }


class PlanStats(RegistryStats):
    """Counters of the static replay planner / engine (DESIGN.md §10),
    backed by ``replay.*`` registry counters.

    Owned by one :class:`~repro.core.replay.ReplayEngine` (and therefore
    one session). ``validation_mismatches`` is the interesting number: a
    non-zero count means a replayed cell's runtime access record missed a
    definite static access — the same Lemma 1 cross-check the session
    applies to live executions, applied to replays.

    Fields: ``plans_computed`` (including plans only displayed),
    ``plans_executed`` (plans that materialized a co-variable at
    checkout), ``plans_declined`` (fell back to the legacy recursion —
    each decline also carries a machine-readable reason in
    :attr:`declines`), ``cells_replayed``, ``cells_skipped`` (cells a
    full-history replay would have run), ``payload_loads`` (stored
    payloads planted instead of replaying), ``validation_mismatches``,
    ``unsafe_plans`` (plans routing through opaque cells).
    """

    _PREFIX = "replay"
    _FIELDS = (
        "plans_computed",
        "plans_executed",
        "plans_declined",
        "cells_replayed",
        "cells_skipped",
        "payload_loads",
        "validation_mismatches",
        "unsafe_plans",
    )

    def __init__(
        self, registry: Optional[MetricsRegistry] = None, **initial: int
    ) -> None:
        super().__init__(registry, **initial)
        #: Machine-readable decline records
        #: (:class:`~repro.core.replay.PlanDecline`), newest last.
        self.declines: List[Any] = []

    @property
    def last_decline(self) -> Optional[Any]:
        return self.declines[-1] if self.declines else None

    def record_decline(self, decline: Any) -> None:
        self.declines.append(decline)
        self.plans_declined += 1
        self.registry.counter(
            f"replay.declined.{getattr(decline, 'reason_value', decline)}"
        ).inc()

    def declines_by_reason(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for decline in self.declines:
            reason = str(getattr(decline, "reason_value", decline))
            totals[reason] = totals.get(reason, 0) + 1
        return dict(sorted(totals.items()))


class HealthStats(RegistryStats):
    """Counters of the fleet-health layer (DESIGN.md §16), backed by
    ``health.*`` registry counters.

    Owned by one :class:`~repro.obs.health.HealthEngine`.
    ``alerts_fired`` is the interesting number: non-zero means at least
    one SLO's multi-window burn rate crossed its threshold during the
    run. ``backpressure_transitions`` counts commit-queue pressure-level
    changes driven by firing backpressure-flagged alerts.

    Fields: ``evaluations`` (evaluator passes over the aggregator
    windows), ``alerts_fired``, ``alerts_resolved``, and
    ``backpressure_transitions``.
    """

    _PREFIX = "health"
    _FIELDS = (
        "evaluations",
        "alerts_fired",
        "alerts_resolved",
        "backpressure_transitions",
    )


def publish_walk_stats(registry: MetricsRegistry, stats: "WalkStats") -> None:
    """Accumulate one walk-stats delta into ``walk.*`` registry counters.

    Called once per commit (with the detection's per-cell delta), not on
    the walk hot path — :class:`WalkTelemetry` stays a plain counter bag
    precisely so per-object increments never pay registry lookups.
    """
    for name in _COUNTERS:
        value = getattr(stats, name)
        if value:
            registry.counter(f"walk.{name}").inc(value)


#: Sink for hashing performed outside any builder's build (rare: direct
#: digest calls from tests or library fast paths).
GLOBAL_TELEMETRY = WalkTelemetry()

#: The telemetry hashing reports to, per thread (and per asyncio task):
#: the service's thread fleet builds VarGraphs concurrently, so one
#: process-wide sink would credit one session's bytes to another.
_ACTIVE: ContextVar[WalkTelemetry] = ContextVar(
    "active_walk_telemetry", default=GLOBAL_TELEMETRY
)


def activate(telemetry: WalkTelemetry) -> WalkTelemetry:
    """Make ``telemetry`` the recipient of this thread's hashing-layer
    counts.

    Returns the previously active telemetry, which the caller must restore
    with :func:`deactivate`. The pair only affects the calling thread, so
    builds on other threads keep their own sinks.
    """
    previous = _ACTIVE.get()
    _ACTIVE.set(telemetry)
    return previous


def deactivate(previous: WalkTelemetry) -> None:
    _ACTIVE.set(previous)


def count_bytes_hashed(n: int) -> None:
    """Called by the hashing layer for every buffer it digests."""
    _ACTIVE.get().bytes_hashed += n
