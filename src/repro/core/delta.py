"""Co-variable granularity state delta detection (§4.2–4.3 of the paper).

After each cell execution the :class:`DeltaDetector`:

1. takes the access record captured by the patched namespace,
2. identifies the *possibly updated* co-variables — those with at least one
   accessed member (Lemma 1 guarantees all others were definitely not
   updated),
3. re-generates VarGraphs for the members of those candidates (plus any
   newly created names),
4. compares new against old graphs to confirm modifications, and
5. re-groups the candidates' names into connected components to catch
   merges and splits.

The result is a :class:`StateDelta` — the set of co-variables updated by
the execution (Definition 2's "updates" = modifications + creations +
deletions) — which is exactly what an incremental checkpoint must store.

Setting ``check_all=True`` disables the access-based pruning (step 2),
producing the paper's *AblatedKishu (Check all)* baseline of §7.6.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.core.covariable import (
    CoVariable,
    CoVariablePool,
    CoVarKey,
    covariables_from_graphs,
)
from repro.kernel.namespace import AccessRecord, filter_user_names
from repro.telemetry import WalkStats


@dataclass
class StateDelta:
    """Updates made to the co-variable partition by one cell execution.

    Attributes:
        created: Co-variables that did not exist before (includes the
            products of merges and splits, per Definition 2).
        modified: Co-variables whose membership is unchanged but whose
            object graphs differ.
        deleted: Keys of co-variables that no longer exist.
        accessed_keys: Keys (pre-execution grouping) of every co-variable
            the cell accessed — recorded in the checkpoint node as the
            cell's dependencies for fallback recomputation (§5.1).
        checked_names: Names whose VarGraphs were re-generated; the size of
            this set is the work the access pruning saves.
        detection_seconds: Wall-clock cost of detection (tracking overhead,
            the quantity reported in Table 6 / Fig 17).
        walk: Walk-telemetry counters attributable to this detection
            (objects visited, cache hits/misses, nodes spliced, bytes
            hashed, graphs built) — the §7.6-style evidence that tracking
            cost tracks the delta, not the state.
        unbuilt: Candidates that were still pending (DESIGN.md §7): with
            no "before" graph to compare against, each counts as changed
            and is stored again.
    """

    created: Dict[CoVarKey, CoVariable] = field(default_factory=dict)
    modified: Dict[CoVarKey, CoVariable] = field(default_factory=dict)
    deleted: Set[CoVarKey] = field(default_factory=set)
    accessed_keys: Set[CoVarKey] = field(default_factory=set)
    checked_names: Set[str] = field(default_factory=set)
    detection_seconds: float = 0.0
    walk: WalkStats = field(default_factory=WalkStats)
    unbuilt: int = 0

    @property
    def updated(self) -> Dict[CoVarKey, CoVariable]:
        """Co-variables whose data must be written to the checkpoint."""
        merged = dict(self.created)
        merged.update(self.modified)
        return merged

    @property
    def is_empty(self) -> bool:
        return not (self.created or self.modified or self.deleted)


def fold_deltas(older: StateDelta, newer: StateDelta) -> StateDelta:
    """Combine two consecutive deltas into one equivalent delta.

    Used when a checkpoint write failed and its delta must be carried
    into the next checkpoint: the detector's pool was already advanced,
    so the older delta cannot be re-detected — it is folded under the
    newer one instead. The newer delta wins on conflicts; a co-variable
    the newer delta re-created stops being deleted, and one it deleted
    stops being updated.
    """
    folded = StateDelta()
    folded.created = dict(older.created)
    folded.modified = dict(older.modified)
    for key in set(newer.updated) | newer.deleted:
        folded.created.pop(key, None)
        folded.modified.pop(key, None)
    folded.created.update(newer.created)
    folded.modified.update(newer.modified)
    folded.deleted = (older.deleted - set(newer.updated)) | newer.deleted
    folded.accessed_keys = older.accessed_keys | newer.accessed_keys
    folded.checked_names = older.checked_names | newer.checked_names
    folded.detection_seconds = older.detection_seconds + newer.detection_seconds
    folded.walk = older.walk + newer.walk
    return folded


class DeltaDetector:
    """Detects co-variable updates after each cell execution."""

    def __init__(self, pool: CoVariablePool, *, check_all: bool = False) -> None:
        self.pool = pool
        self.check_all = check_all

    def needs_full_check(
        self, record: Optional[AccessRecord], *, escalate: bool = False
    ) -> bool:
        """The single fallback decision: can access pruning be trusted?

        Pruning (Lemma 1) is sound only when a complete access record
        exists and nothing has challenged its completeness. Three things
        disable it, all funneled through here so every consumer — the
        candidate-selection step and the walk-cache invalidation — agrees:

        * ``check_all`` — the detector-wide ablation switch (the paper's
          AblatedKishu baseline, §7.6);
        * ``record is None`` — no access information at all (e.g. a lost
          or never-opened recording window); every pool member plus every
          current name must be treated as accessed;
        * ``escalate`` — a per-cell escalation requested by the runtime
          cross-validator (DESIGN.md §8): the record exists but is not
          trusted, because the cell contained tracking escape hatches or
          under-reported a definite static access.
        """
        return self.check_all or escalate or record is None

    def detect(
        self,
        record: Optional[AccessRecord],
        namespace_items: Dict[str, Any],
        *,
        escalate: bool = False,
    ) -> StateDelta:
        """Compute the state delta and update the pool to the new partition.

        Args:
            record: Accesses captured during the cell execution. ``None``
                (no information) is treated as "everything accessed", the
                conservative fallback.
            namespace_items: Current user variables, post-execution.
            escalate: Force check-all behaviour for this one detection
                without flipping the detector-wide ``check_all`` switch —
                the cross-validator's per-cell escalation path.
        """
        started = time.perf_counter()
        before = self.pool.builder.telemetry.snapshot()
        delta = self._detect_inner(record, namespace_items, escalate)
        delta.walk = self.pool.builder.telemetry.since(before)
        delta.detection_seconds = time.perf_counter() - started
        return delta

    def _detect_inner(
        self,
        record: Optional[AccessRecord],
        namespace_items: Dict[str, Any],
        escalate: bool,
    ) -> StateDelta:
        delta = StateDelta()
        known_names = self.pool.all_names()
        current_names = set(namespace_items)

        if self.needs_full_check(record, escalate=escalate):
            accessed_names = known_names | current_names
        else:
            accessed_names = filter_user_names(record.accessed)

        # Candidate co-variables: any with an accessed member (Lemma 1).
        candidate_keys: Set[CoVarKey] = set()
        for name in accessed_names:
            key = self.pool.key_of(name)
            if key is not None:
                candidate_keys.add(key)
        delta.accessed_keys = set(candidate_keys)
        delta.unbuilt = len(candidate_keys & self.pool.pending)

        new_names = current_names - known_names
        candidate_names: Set[str] = set(new_names)
        for key in candidate_keys:
            candidate_names |= key

        if not candidate_names:
            return delta

        # Incremental walk cache: a cell can only mutate objects it could
        # reach, and it reaches objects only through accessed names (Lemma 1
        # below variable granularity) — so exactly the subtrees intersecting
        # the accessed names' previous id-sets are dirty; everything else
        # splices from cache. Without access information (check-all mode,
        # lost records) or with an under-approximated id-set (opaque or
        # truncated prior graph) the whole cache is conservatively dropped.
        self._invalidate_cache(accessed_names, record, escalate)

        # Re-generate VarGraphs for all candidates still present (§4.3
        # step 1). Names that vanished show up as absent here.
        new_graphs = self.pool.rebuild_for_names(candidate_names, namespace_items)
        delta.checked_names = set(candidate_names)

        # Re-group candidates into connected components (§4.3 step 3):
        # merges and splits can only involve accessed co-variables.
        new_covariables = covariables_from_graphs(new_graphs)

        old_graphs: Dict[str, Any] = {}
        for key in candidate_keys:
            covariable = self.pool.get(key)
            if covariable is not None:
                old_graphs.update(covariable.graphs)

        surviving_keys: Set[CoVarKey] = set()
        for covariable in new_covariables:
            key = covariable.key
            if key in candidate_keys:
                surviving_keys.add(key)
                if self._graphs_changed(covariable, old_graphs):
                    delta.modified[key] = covariable
            else:
                delta.created[key] = covariable

        delta.deleted = candidate_keys - surviving_keys
        self.pool.replace(candidate_keys, new_covariables)
        return delta

    def _invalidate_cache(
        self,
        accessed_names: Set[str],
        record: Optional[AccessRecord],
        escalate: bool,
    ) -> None:
        """Drop cached subtrees the cell could have mutated (the dirty set)."""
        builder = self.pool.builder
        if getattr(builder, "cache", None) is None:
            return
        if self.needs_full_check(record, escalate=escalate):
            builder.invalidate_all()
            return
        dirty: Set[int] = set()
        for name in accessed_names:
            graph = self.pool.graph_of(name)
            if graph is None:
                # New, or pending: nothing walked its objects, so no
                # cached subtree holds them.
                continue
            if graph.opaque or graph.truncated:
                # The graph's id-set under-approximates what the cell could
                # reach through this name; no sound dirty set exists.
                builder.invalidate_all()
                return
            dirty |= graph.id_set
        builder.invalidate_ids(dirty)

    @staticmethod
    def _graphs_changed(covariable: CoVariable, old_graphs: Dict[str, Any]) -> bool:
        for name, graph in covariable.graphs.items():
            old = old_graphs.get(name)
            if old is None or graph.differs_from(old):
                return True
        return False
