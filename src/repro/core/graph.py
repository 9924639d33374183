"""The Checkpoint Graph (§5.1–5.2 of the paper).

A directed tree of incremental checkpoints, analogous to Git's commit
graph. Each node corresponds to one cell execution *CE t* and stores:

1. the state delta of CE *t* — which co-variables it updated (payloads live
   in the checkpoint store) and which it deleted,
2. the cell's code, and whether it ran to the end or raised,
3. the versioned co-variables CE *t* accessed — its dependencies, enabling
   fallback recomputation (§5.3),

plus (footnote 5) the session-state metadata snapshot at *t*.

The graph answers the two queries checkout needs: the **lowest common
ancestor** of two nodes, and the **state difference** between two states —
which co-variables are *identical* (no update on either side of the LCA,
Definition 6) and which have *diverged* and must be loaded or deleted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.covariable import CoVarKey
from repro.core.versioning import SessionState
from repro.errors import CheckpointNotFoundError

ROOT_ID = "t0"


@dataclass
class PayloadInfo:
    """Where one updated co-variable's data ended up.

    ``stored`` is False when serialization failed and the payload was
    skipped (§5.1 "Handling Unserializable Data") — checkout must then
    reconstruct it via fallback recomputation.
    """

    key: CoVarKey
    stored: bool
    serializer: Optional[str] = None
    size_bytes: int = 0


@dataclass
class CheckpointNode:
    """One checkpoint: the delta, code, and dependencies of CE *t*."""

    node_id: str
    parent_id: Optional[str]
    timestamp: int
    execution_count: int
    cell_source: str
    updated: Dict[CoVarKey, PayloadInfo] = field(default_factory=dict)
    deleted: Set[CoVarKey] = field(default_factory=set)
    dependencies: Dict[CoVarKey, str] = field(default_factory=dict)
    state: SessionState = field(default_factory=SessionState)
    #: False when the cell raised: the analysis folds its source as a
    #: cell that may have stopped anywhere (DESIGN.md §14).
    executed: bool = True

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    def payload_bytes(self) -> int:
        return sum(info.size_bytes for info in self.updated.values())


@dataclass(frozen=True)
class StateDifference:
    """Result of diffing a current against a target state (Definition 6).

    Attributes:
        identical: Co-variable keys whose version is consistent across
            current, target, and their LCA — no data movement needed.
        to_load: Diverged co-variables of the target state, mapped to the
            node holding the version to load.
        to_delete_names: Variable names live in the current state but not
            in the target state.
        lca_id: The lowest common ancestor used for the classification.
    """

    identical: frozenset
    to_load: Tuple[Tuple[CoVarKey, str], ...]
    to_delete_names: frozenset
    lca_id: str


class CheckpointGraph:
    """In-memory checkpoint tree with LCA and state-difference queries."""

    def __init__(self) -> None:
        root = CheckpointNode(
            node_id=ROOT_ID,
            parent_id=None,
            timestamp=0,
            execution_count=0,
            cell_source="",
            state=SessionState(),
        )
        self._nodes: Dict[str, CheckpointNode] = {ROOT_ID: root}
        self._children: Dict[str, List[str]] = {ROOT_ID: []}
        self._depth: Dict[str, int] = {ROOT_ID: 0}
        self.head_id: str = ROOT_ID
        self._next_timestamp = 1
        #: Node ids found in a store but unreachable from the root (their
        #: parent was swept by crash recovery); see :meth:`from_store`.
        self.orphaned_node_ids: List[str] = []

    # -- construction ---------------------------------------------------------

    def new_node_id(self) -> str:
        return f"t{self._next_timestamp}"

    @property
    def next_timestamp(self) -> int:
        """Timestamp the next added node will carry — exposed so callers
        can persist a node's record *before* adding it to the graph."""
        return self._next_timestamp

    def add_node(
        self,
        *,
        cell_source: str,
        execution_count: int,
        updated: Dict[CoVarKey, PayloadInfo],
        deleted: Set[CoVarKey],
        dependencies: Dict[CoVarKey, str],
        parent_id: Optional[str] = None,
        executed: bool = True,
    ) -> CheckpointNode:
        """Append a checkpoint under the head (or an explicit parent).

        The new node's session-state metadata is derived from its parent's
        by applying the delta, and the head moves to the new node —
        matching the paper's "written under the head node" semantics.
        """
        parent_id = parent_id if parent_id is not None else self.head_id
        parent = self.get(parent_id)
        node_id = f"t{self._next_timestamp}"
        node = CheckpointNode(
            node_id=node_id,
            parent_id=parent_id,
            timestamp=self._next_timestamp,
            execution_count=execution_count,
            cell_source=cell_source,
            updated=dict(updated),
            deleted=set(deleted),
            dependencies=dict(dependencies),
            state=parent.state.child(node_id, updated.keys(), deleted),
            executed=executed,
        )
        self._next_timestamp += 1
        self._nodes[node_id] = node
        self._children[node_id] = []
        self._children[parent_id].append(node_id)
        self._depth[node_id] = self._depth[parent_id] + 1
        self.head_id = node_id
        return node

    def move_head(self, node_id: str) -> None:
        self._require(node_id)
        self.head_id = node_id

    # -- queries ---------------------------------------------------------------

    def get(self, node_id: str) -> CheckpointNode:
        self._require(node_id)
        return self._nodes[node_id]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def head(self) -> CheckpointNode:
        return self._nodes[self.head_id]

    def children_of(self, node_id: str) -> List[str]:
        self._require(node_id)
        return list(self._children[node_id])

    def all_nodes(self) -> List[CheckpointNode]:
        return list(self._nodes.values())

    def depth_of(self, node_id: str) -> int:
        self._require(node_id)
        return self._depth[node_id]

    def path_to_root(self, node_id: str) -> List[str]:
        """Node ids from ``node_id`` up to and including the root."""
        self._require(node_id)
        path = [node_id]
        current = self._nodes[node_id]
        while current.parent_id is not None:
            path.append(current.parent_id)
            current = self._nodes[current.parent_id]
        return path

    def is_ancestor(self, ancestor_id: str, node_id: str) -> bool:
        """True if ``ancestor_id`` is ``node_id`` or one of its ancestors."""
        self._require(ancestor_id)
        current: Optional[str] = node_id
        while current is not None:
            if current == ancestor_id:
                return True
            current = self._nodes[current].parent_id
        return False

    def lowest_common_ancestor(self, a: str, b: str) -> str:
        """LCA by depth-equalising walk — O(depth), the off-the-shelf
        algorithm the paper cites for its linear state-diff cost."""
        self._require(a)
        self._require(b)
        while self._depth[a] > self._depth[b]:
            a = self._nodes[a].parent_id
        while self._depth[b] > self._depth[a]:
            b = self._nodes[b].parent_id
        while a != b:
            a = self._nodes[a].parent_id
            b = self._nodes[b].parent_id
        return a

    # -- state difference (Definition 6) ----------------------------------------

    def state_difference(self, current_id: str, target_id: str) -> StateDifference:
        """Classify co-variables as identical or diverged between states.

        A co-variable X is *identical* iff the same versioned co-variable
        (X, t_c) appears in the states of the current node, the target
        node, and their lowest common ancestor. Everything else in the
        target state must be loaded; names live only in the current state
        must be deleted.
        """
        current_state = self.get(current_id).state
        target_state = self.get(target_id).state
        lca_id = self.lowest_common_ancestor(current_id, target_id)
        lca_state = self.get(lca_id).state

        identical: Set[CoVarKey] = set()
        to_load: List[Tuple[CoVarKey, str]] = []
        for key, version in target_state.items():
            if (
                current_state.get(key) == version
                and lca_state.get(key) == version
            ):
                identical.add(key)
            else:
                to_load.append((key, version))

        to_delete = current_state.names() - target_state.names()
        return StateDifference(
            identical=frozenset(identical),
            to_load=tuple(to_load),
            to_delete_names=frozenset(to_delete),
            lca_id=lca_id,
        )

    # -- durability -----------------------------------------------------------------

    @classmethod
    def from_store(cls, store) -> "CheckpointGraph":
        """Rebuild the graph from a checkpoint store's node records
        (see :meth:`load`)."""
        graph = cls()
        graph.load(store)
        return graph

    def load(self, store) -> None:
        """Adopt a checkpoint store's node records into this new graph.

        Nodes are replayed in the store's deterministic order (timestamp,
        then execution count, then insertion), re-deriving each node's
        session-state metadata; payload availability is recovered from the
        store's payload rows. The head is left at the latest node (callers
        may move it before checking out).

        A node whose parent is absent — possible when crash recovery swept
        an uncommitted ancestor — is skipped rather than fatal, along with
        its descendants; their ids are recorded in ``orphaned_node_ids``
        so callers can surface the loss. The result is always a valid
        prefix tree of the original history.
        """
        for record in store.read_nodes():
            parent_id = record.parent_id if record.parent_id is not None else ROOT_ID
            if parent_id not in self._nodes:
                self.orphaned_node_ids.append(record.node_id)
                continue
            updated: Dict[CoVarKey, PayloadInfo] = {}
            for payload in store.payloads_of(record.node_id):
                updated[payload.key] = PayloadInfo(
                    key=payload.key,
                    stored=payload.stored,
                    serializer=payload.serializer,
                    size_bytes=payload.size_bytes,
                )
            parent = record.parent_id if record.parent_id is not None else ROOT_ID
            node = CheckpointNode(
                node_id=record.node_id,
                parent_id=parent,
                timestamp=record.timestamp,
                execution_count=record.execution_count,
                cell_source=record.cell_source,
                updated=updated,
                deleted=set(record.deleted_keys),
                dependencies=dict(record.dependencies),
                executed=record.executed,
            )
            self._adopt(node)

    def _adopt(self, node: CheckpointNode) -> None:
        """Insert a reconstructed node, deriving its state metadata."""
        if node.parent_id not in self._nodes:
            raise CheckpointNotFoundError(
                f"cannot adopt node {node.node_id!r}: parent {node.parent_id!r} unknown"
            )
        parent = self._nodes[node.parent_id]
        node.state = parent.state.child(
            node.node_id, node.updated.keys(), node.deleted
        )
        self._nodes[node.node_id] = node
        self._children[node.node_id] = []
        self._children[node.parent_id].append(node.node_id)
        self._depth[node.node_id] = self._depth[node.parent_id] + 1
        self.head_id = node.node_id
        self._next_timestamp = max(self._next_timestamp, node.timestamp + 1)

    # -- sizes (Fig 19) ------------------------------------------------------------

    def metadata_size_estimate(self) -> int:
        """Approximate in-memory metadata footprint in bytes.

        Counts node bookkeeping and per-node session-state references —
        the quantity Fig 19 (left) shows growing linearly with executed
        cells.
        """
        total = 0
        for node in self._nodes.values():
            total += 96  # fixed node overhead
            total += len(node.cell_source)
            for key in node.updated:
                total += sum(len(name) for name in key) + 24
            for key in node.deleted:
                total += sum(len(name) for name in key) + 24
            for key in node.dependencies:
                total += sum(len(name) for name in key) + 32
            for key, version in node.state.items():
                total += sum(len(name) for name in key) + len(version) + 16
        return total

    # -- internals -------------------------------------------------------------------

    def _require(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise CheckpointNotFoundError(f"no checkpoint with id {node_id!r}")
