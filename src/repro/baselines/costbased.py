"""Cost-based Det-replay: the optimization the paper leaves to future work.

§7.5.2 of the paper: "cost-based optimization is required for
Kishu+Det-replay to function, which we leave to future work" — plain
Det-replay skips storage for *every* deterministic cell, which saves
storage but can make checkout catastrophically slow (the 1050 s Cluster
replay). This extension makes the skip decision per cell with a cost
model: skip storage only when the estimated replay cost (the cell's own
measured duration plus its dependency chain) stays below a budget,
otherwise store the payload like plain Kishu.

The result keeps Det-replay's storage savings on cheap deterministic
cells while bounding worst-case checkout time.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List

from repro.baselines.kishu_method import KishuMethod
from repro.core.session import KishuSession
from repro.kernel.namespace import AccessRecord, filter_user_names


class CostBasedDetReplaySession(KishuSession):
    """Det-replay with a per-cell replay-cost budget.

    A deterministic cell's payloads are skipped only if replaying it at
    checkout — including transitively replaying any earlier skipped cells
    it depends on — is estimated to stay under ``replay_budget_seconds``.
    """

    def __init__(
        self, *args, replay_budget_seconds: float = 1.0, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        self.replay_budget_seconds = replay_budget_seconds
        #: Estimated replay cost of each *skipped* node (cell duration
        #: plus the replay cost of skipped dependencies).
        self._skipped_replay_cost: Dict[str, float] = {}
        self._decisions: List[bool] = []

    def should_store_delta(
        self, tags: AbstractSet[str], record: AccessRecord, cell_duration: float
    ) -> bool:
        store = "deterministic" not in tags
        # Keyed by the id of the node this commit is about to write; a
        # commit whose write failed leaves that id to the next commit.
        node_id = self.graph.new_node_id()
        self._skipped_replay_cost.pop(node_id, None)
        if not store:
            replay_cost = self._estimate_replay_cost(record, cell_duration)
            store = replay_cost > self.replay_budget_seconds
            if not store:
                self._skipped_replay_cost[node_id] = replay_cost
        self._decisions.append(store)
        return store

    def _estimate_replay_cost(
        self, record: AccessRecord, cell_duration: float
    ) -> float:
        """Cell duration plus replay costs of skipped ancestors it reads."""
        cost = cell_duration
        parent_state = self.graph.head.state
        for name in filter_user_names(record.gets):
            key = self.pool.key_of(name)
            if key is None:
                continue
            version = parent_state.get(key)
            if version is not None and version in self._skipped_replay_cost:
                cost += self._skipped_replay_cost[version]
        return cost

    @property
    def skip_decisions(self) -> List[bool]:
        """Per-commit store decisions (False = skipped, replay on checkout)."""
        return list(self._decisions)


class CostBasedDetReplayMethod(KishuMethod):
    """Cost-based Det-replay under the common benchmark interface; pass
    ``replay_budget_seconds`` through to the session."""

    name = "Kishu+Det-replay (cost-based)"
    session_class = CostBasedDetReplaySession
