"""VarGraphs — per-variable reachability graphs (§4.2 of the paper).

A VarGraph captures, for one variable, every object reachable from it. Each
node records the object's (1) type, (2) memory address, and (3) child
pointers for non-primitives or (4) value for primitives — exactly the four
attributes the paper lists. Two uses:

* **Update detection** — comparing a variable's VarGraph before and after a
  cell execution; any structural difference or node attribute change (address
  or type) indicates the co-variable was modified (Definition 2).
* **Membership detection** — intersecting the mutable-object id-sets of two
  VarGraphs; a non-empty intersection means the variables share reachable
  objects and belong to one co-variable (Definition 1).

The graph is stored as a flat node table with child indices, so comparison
is a linear scan and intersection is a set operation, both independent of
Python object identity semantics at compare time (the referenced objects may
already be gone).

Incremental construction (DESIGN.md §7)
---------------------------------------

Rebuilding a candidate co-variable after every cell re-walks the *entire*
reachable graph, even when the cell touched one element of a huge shared
structure. The :class:`SubtreeCache` removes that: while walking, the
builder captures every self-contained subtree segment of the node table;
a later build that reaches the same (unchanged) object splices the cached
segment instead of re-walking and re-hashing it. Validity follows Lemma 1
extended below variable granularity: a cell can only mutate objects it
obtained references to, and every obtainable object is reachable from an
accessed name — so the delta detector invalidates exactly the cached
subtrees intersecting the accessed names' previous id-sets (the *dirty
set*) and everything else splices verbatim. Spliced builds are
node-table-identical to cold builds by construction: a segment is captured
only when it is the contiguous, self-contained run of nodes a cold
traversal emits for that subtree, and it is spliced only when the cold
traversal would emit it at that exact position (first encounter, no
overlap with already-visited nodes).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro import telemetry as telemetry_mod
from repro.core.hashing import combine, digest_bytes
from repro.core.objectwalk import DEFAULT_POLICY, TraversalPolicy, _stable_repr
from repro.telemetry import WalkTelemetry

#: Guard against pathological graphs (e.g. million-node linked structures):
#: past this many nodes the graph is truncated and marked opaque, which is
#: conservative — the co-variable is then assumed updated whenever accessed.
DEFAULT_MAX_NODES = 200_000

#: Subtree segments larger than this are never cached: splicing them is
#: cheap but capturing every nested giant segment would make the walk
#: quadratic; their *children* still cache individually.
DEFAULT_MAX_ENTRY_NODES = 4096

#: Total node budget across all cached segments of one builder; oldest
#: entries are evicted beyond it.
DEFAULT_MAX_CACHED_NODES = 1_000_000

#: Per-build ceiling on nodes copied into new cache entries, bounding the
#: capture overhead of deeply nested structures (single-node array entries
#: are exempt — they are the hashing fast path).
DEFAULT_CAPTURE_BUDGET = 65_536


@dataclass(frozen=True)
class GraphNode:
    """One reachable object.

    Attributes:
        obj_id: The object's memory address (``id``) at build time.
        type_name: Qualified type name; a changed type at the same address
            is a modification (the paper's robustness addition over
            ElasticNotebook's ID graph).
        kind: "primitive", "array", "composite", or "opaque".
        value: Primitive value / array digest for leaves; an object
            array's ``(dtype.str, shape)``; None otherwise.
        children: Indices into the owning graph's node table.
    """

    obj_id: int
    type_name: str
    kind: str
    value: Any
    children: Tuple[int, ...]


_KIND_CODE = {"primitive": 1, "array": 2, "composite": 3, "opaque": 4}


class VarGraph:
    """Immutable snapshot of one variable's reachable object graph."""

    __slots__ = ("name", "nodes", "id_set", "opaque", "truncated", "_fingerprint")

    def __init__(
        self,
        name: str,
        nodes: List[GraphNode],
        id_set: FrozenSet[int],
        opaque: bool,
        truncated: bool,
    ) -> None:
        self.name = name
        self.nodes = nodes
        self.id_set = id_set
        self.opaque = opaque
        self.truncated = truncated
        self._fingerprint: Optional[int] = None

    # -- comparison (update detection, Definition 2) --------------------------

    @property
    def fingerprint(self) -> int:
        """Digest of the graph's structure, types, kinds, and values.

        Deliberately excludes node addresses (``obj_id``) and uses only
        process-stable value digests, so equal session states produce equal
        fingerprints across interpreter runs and ``PYTHONHASHSEED`` values.
        Update detection does not use it: :func:`graphs_equal` compares the
        node tables, ``obj_id`` included, directly.
        """
        if self._fingerprint is None:
            digests = []
            for node in self.nodes:
                digests.append(
                    combine(
                        _KIND_CODE.get(node.kind, 0),
                        digest_bytes(node.type_name.encode()),
                        _value_digest(node.value),
                        *node.children,
                    )
                )
            self._fingerprint = combine(len(self.nodes), *digests)
        return self._fingerprint

    def differs_from(self, other: "VarGraph") -> bool:
        """True if an update must be reported between the two snapshots.

        Opaque or truncated graphs cannot be compared and are conservatively
        reported as differing (the paper's "assumed updated on access").
        """
        if self.opaque or other.opaque or self.truncated or other.truncated:
            return True
        return not graphs_equal(self, other)

    # -- membership (Definition 1) ---------------------------------------------

    def shares_objects_with(self, other: "VarGraph") -> bool:
        """True if any mutable reachable object is common to both graphs."""
        if len(self.id_set) > len(other.id_set):
            return not other.id_set.isdisjoint(self.id_set)
        return not self.id_set.isdisjoint(other.id_set)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (
            f"VarGraph({self.name!r}, nodes={len(self.nodes)}, "
            f"opaque={self.opaque}, truncated={self.truncated})"
        )


def graphs_equal(a: VarGraph, b: VarGraph) -> bool:
    """Exact node-table comparison of two graphs built for the same name.

    The node tables decide on their own: equal tables have equal
    fingerprints, so computing :attr:`VarGraph.fingerprint` first (one
    digest per node of both graphs) could only repeat the answer.
    """
    return len(a.nodes) == len(b.nodes) and a.nodes == b.nodes


def _value_digest(value: Any) -> int:
    """Process-stable digest of a node value.

    Never routes through builtin ``hash()``: string hashing is randomized
    by ``PYTHONHASHSEED``, which made graph fingerprints differ across
    processes for identical state. Each branch mixes a type tag so equal
    byte patterns of different types cannot collide.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return combine(7, int(value))
    if isinstance(value, int):
        return value & 0xFFFFFFFFFFFFFFFF
    if isinstance(value, str):
        return combine(1, digest_bytes(value.encode("utf-8", "surrogatepass")))
    if isinstance(value, bytes):
        return combine(2, digest_bytes(value))
    if isinstance(value, float):
        return combine(3, digest_bytes(struct.pack("<d", value)))
    if isinstance(value, complex):
        return combine(4, digest_bytes(struct.pack("<dd", value.real, value.imag)))
    if isinstance(value, tuple):
        return combine(5, *(_value_digest(item) for item in value))
    return combine(6, digest_bytes(_stable_repr(value).encode()))


class _CacheEntry:
    """One cached subtree: a self-contained, segment-relative node table.

    Holds a strong reference to the subtree's root. While the entry is
    valid the root is by definition unmodified, so it transitively pins
    every object in the segment — which is what makes id-keyed lookup
    sound (a pinned object's address cannot be recycled)."""

    __slots__ = ("root", "nodes", "ids", "mutable_ids", "contains_opaque")

    def __init__(
        self,
        root: Any,
        nodes: Tuple[GraphNode, ...],
        ids: FrozenSet[int],
        mutable_ids: FrozenSet[int],
        contains_opaque: bool,
    ) -> None:
        self.root = root
        self.nodes = nodes
        self.ids = ids
        self.mutable_ids = mutable_ids
        self.contains_opaque = contains_opaque

    @property
    def size(self) -> int:
        return len(self.nodes)


class SubtreeCache:
    """Identity-keyed store of reusable node-table segments.

    Entries are keyed by the root object's ``id`` and indexed in reverse by
    every member id, so dirty-set invalidation is one dictionary lookup per
    dirty object. Total size is bounded; the oldest entries evict first
    (insertion order, refreshed on re-store).
    """

    def __init__(self, max_total_nodes: int = DEFAULT_MAX_CACHED_NODES) -> None:
        self.max_total_nodes = max_total_nodes
        self._entries: Dict[int, _CacheEntry] = {}
        self._owners: Dict[int, Set[int]] = {}
        self.total_nodes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, obj_id: int) -> Optional[_CacheEntry]:
        return self._entries.get(obj_id)

    def store(self, entry: _CacheEntry) -> None:
        root_id = id(entry.root)
        if root_id in self._entries:
            self._discard(root_id)
        self._entries[root_id] = entry
        for member in entry.ids:
            self._owners.setdefault(member, set()).add(root_id)
        self.total_nodes += entry.size
        while self.total_nodes > self.max_total_nodes and self._entries:
            self._discard(next(iter(self._entries)))

    def invalidate_ids(self, ids: Iterable[int]) -> int:
        """Drop every entry whose segment contains any of ``ids``.

        Returns the number of entries dropped."""
        dropped = 0
        for obj_id in ids:
            owners = self._owners.get(obj_id)
            if owners:
                for root_id in list(owners):
                    self._discard(root_id)
                    dropped += 1
        return dropped

    def clear(self) -> int:
        dropped = len(self._entries)
        self._entries.clear()
        self._owners.clear()
        self.total_nodes = 0
        return dropped

    def _discard(self, root_id: int) -> None:
        entry = self._entries.pop(root_id, None)
        if entry is None:
            return
        self.total_nodes -= entry.size
        for member in entry.ids:
            owners = self._owners.get(member)
            if owners is not None:
                owners.discard(root_id)
                if not owners:
                    del self._owners[member]


class VarGraphBuilder:
    """Builds VarGraphs by breadth-first reachability traversal.

    With ``incremental=True`` the builder memoizes self-contained subtree
    segments in a :class:`SubtreeCache` and splices them into later builds.
    The cache is sound only when every mutation is reported to it before
    the next build: callers that observe mutations (the delta detector,
    the checkout resync) feed the dirty set to :meth:`invalidate_ids` /
    :meth:`invalidate_all` before rebuilding. A bare builder has no such
    observer, so the default is ``incremental=False`` (every build walks
    cold); :class:`~repro.core.session.KishuSession` and the trackers opt
    in because their :class:`~repro.core.delta.DeltaDetector` derives the
    dirty set from the patched namespace's access records (Lemma 1).

    The builder's traversal policy is a private layer over the shared
    :data:`~repro.core.objectwalk.DEFAULT_POLICY` (or over the policy
    passed in), so handler registrations through ``builder.policy`` never
    leak across sessions or test runs.
    """

    def __init__(
        self,
        policy: Optional[TraversalPolicy] = None,
        max_nodes: int = DEFAULT_MAX_NODES,
        *,
        incremental: bool = False,
        max_entry_nodes: int = DEFAULT_MAX_ENTRY_NODES,
        max_cached_nodes: int = DEFAULT_MAX_CACHED_NODES,
        capture_budget: int = DEFAULT_CAPTURE_BUDGET,
        telemetry: Optional[WalkTelemetry] = None,
    ) -> None:
        base = policy if policy is not None else DEFAULT_POLICY
        self.policy = base.layer()
        self.max_nodes = max_nodes
        self.max_entry_nodes = max_entry_nodes
        self.capture_budget = capture_budget
        self.incremental = incremental
        self._cache: Optional[SubtreeCache] = (
            SubtreeCache(max_cached_nodes) if incremental else None
        )
        self.telemetry = telemetry if telemetry is not None else WalkTelemetry()

    # -- cache control (dirty-set invalidation) --------------------------------

    @property
    def cache(self) -> Optional[SubtreeCache]:
        return self._cache

    def invalidate_ids(self, ids: Iterable[int]) -> int:
        """Drop cached subtrees containing any of the (possibly mutated)
        object ids. Called with the dirty set before a rebuild cycle."""
        if self._cache is None:
            return 0
        dropped = self._cache.invalidate_ids(ids)
        self.telemetry.cache_invalidations += dropped
        return dropped

    def invalidate_all(self) -> int:
        """Drop the whole cache — the conservative fallback when no access
        information exists (``check_all`` / lost records) or when a prior
        graph was opaque or truncated (its id-set under-approximates
        reachability, so the dirty set would too)."""
        if self._cache is None:
            return 0
        dropped = self._cache.clear()
        self.telemetry.cache_invalidations += dropped
        return dropped

    # -- construction -----------------------------------------------------------

    def build(self, name: str, obj: Any) -> VarGraph:
        """Construct the VarGraph for variable ``name`` bound to ``obj``."""
        previous = telemetry_mod.activate(self.telemetry)
        try:
            return self._build(name, obj)
        finally:
            telemetry_mod.deactivate(previous)

    def _build(self, name: str, obj: Any) -> VarGraph:
        telemetry = self.telemetry
        telemetry.graphs_built += 1
        cache = self._cache
        policy = self.policy

        nodes: List[GraphNode] = []
        id_set: set = set()
        index_of: Dict[int, int] = {}
        opaque = False
        truncated = False

        # Worklist of (object, slot-filler). Children indices are patched in
        # after each node's children have been assigned indices. Spliced
        # nodes never enter ``child_slots``: their children are final.
        pending: List[Any] = [obj]
        pending_parent: List[Optional[Tuple[int, int]]] = [None]
        child_slots: Dict[int, List[int]] = {}

        # Open subtree spans, innermost last: (root object, segment start
        # index, worklist watermark). A span closes — its subtree fully
        # emitted — when the worklist shrinks back to its watermark.
        spans: List[Tuple[Any, int, int]] = []
        captured_nodes = 0

        while pending:
            current = pending.pop()
            parent_slot = pending_parent.pop()
            obj_id = id(current)
            existing = index_of.get(obj_id)
            if existing is not None:
                if parent_slot is not None:
                    child_slots[parent_slot[0]][parent_slot[1]] = existing
                captured_nodes += self._close_spans(
                    spans, len(pending), nodes, child_slots, captured_nodes
                )
                continue
            if len(nodes) >= self.max_nodes:
                truncated = True
                break

            if cache is not None:
                entry = cache.lookup(obj_id)
                if (
                    entry is not None
                    and len(nodes) + entry.size <= self.max_nodes
                    and entry.ids.isdisjoint(index_of)
                ):
                    offset = len(nodes)
                    for position, cached in enumerate(entry.nodes):
                        nodes.append(
                            GraphNode(
                                obj_id=cached.obj_id,
                                type_name=cached.type_name,
                                kind=cached.kind,
                                value=cached.value,
                                children=tuple(
                                    child + offset for child in cached.children
                                ),
                            )
                        )
                        index_of[cached.obj_id] = offset + position
                    id_set |= entry.mutable_ids
                    opaque = opaque or entry.contains_opaque
                    if parent_slot is not None:
                        child_slots[parent_slot[0]][parent_slot[1]] = offset
                    telemetry.cache_hits += 1
                    telemetry.nodes_spliced += entry.size
                    captured_nodes += self._close_spans(
                        spans, len(pending), nodes, child_slots, captured_nodes
                    )
                    continue
                telemetry.cache_misses += 1

            visit = policy.visit(current)
            telemetry.objects_visited += 1
            node_index = len(nodes)
            index_of[obj_id] = node_index
            if parent_slot is not None:
                child_slots[parent_slot[0]][parent_slot[1]] = node_index
            if visit.kind != "primitive":
                id_set.add(obj_id)
            if visit.kind == "opaque":
                opaque = True

            slots = [-1] * len(visit.children)
            child_slots[node_index] = slots
            nodes.append(
                GraphNode(
                    obj_id=obj_id,
                    type_name=type(current).__qualname__,
                    kind=visit.kind,
                    value=visit.value,
                    children=(),  # patched below
                )
            )
            if cache is not None:
                spans.append((current, node_index, len(pending)))
            for position, child in enumerate(visit.children):
                pending.append(child)
                pending_parent.append((node_index, position))
            captured_nodes += self._close_spans(
                spans, len(pending), nodes, child_slots, captured_nodes
            )

        # Patch children tuples now that all indices are known. Unfilled
        # slots (truncation) are dropped; spliced segments are already final.
        final_nodes: List[GraphNode] = []
        for index, node in enumerate(nodes):
            slots = child_slots.get(index)
            if slots is None:
                final_nodes.append(node)
            else:
                final_nodes.append(
                    GraphNode(
                        obj_id=node.obj_id,
                        type_name=node.type_name,
                        kind=node.kind,
                        value=node.value,
                        children=tuple(i for i in slots if i >= 0),
                    )
                )
        return VarGraph(
            name=name,
            nodes=final_nodes,
            id_set=frozenset(id_set),
            opaque=opaque or truncated,
            truncated=truncated,
        )

    def _close_spans(
        self,
        spans: List[Tuple[Any, int, int]],
        pending_len: int,
        nodes: List[GraphNode],
        child_slots: Dict[int, List[int]],
        captured_so_far: int,
    ) -> int:
        """Close every span whose subtree is fully emitted; returns nodes
        newly copied into the cache."""
        captured = 0
        while spans and pending_len <= spans[-1][2]:
            root, start, _ = spans.pop()
            captured += self._maybe_capture(
                root, start, nodes, child_slots, captured_so_far + captured
            )
        return captured

    def _maybe_capture(
        self,
        root: Any,
        start: int,
        nodes: List[GraphNode],
        child_slots: Dict[int, List[int]],
        captured_so_far: int,
    ) -> int:
        """Capture the closed span's segment (``nodes[start:]``) as a cache
        entry if it is self-contained and within budget. Returns the number
        of nodes copied (0 if skipped)."""
        end = len(nodes)
        size = end - start
        root_kind = nodes[start].kind
        if size == 1 and root_kind == "primitive":
            return 0  # re-visiting a lone primitive is cheaper than caching
        if size > self.max_entry_nodes:
            return 0
        if size > 1 and captured_so_far + size > self.capture_budget:
            return 0  # keep capture overhead linear on deep nestings
        segment: List[GraphNode] = []
        segment_ids: List[int] = []
        mutable_ids: List[int] = []
        contains_opaque = False
        for index in range(start, end):
            node = nodes[index]
            slots = child_slots.get(index)
            children_abs = slots if slots is not None else node.children
            relative: List[int] = []
            for child in children_abs:
                if child < start:
                    return 0  # back-edge out of the segment: context-dependent
                relative.append(child - start)
            segment.append(
                GraphNode(
                    obj_id=node.obj_id,
                    type_name=node.type_name,
                    kind=node.kind,
                    value=node.value,
                    children=tuple(relative),
                )
            )
            segment_ids.append(node.obj_id)
            if node.kind != "primitive":
                mutable_ids.append(node.obj_id)
            if node.kind == "opaque":
                contains_opaque = True
        self._cache.store(
            _CacheEntry(
                root=root,
                nodes=tuple(segment),
                ids=frozenset(segment_ids),
                mutable_ids=frozenset(mutable_ids),
                contains_opaque=contains_opaque,
            )
        )
        return size

    def build_many(self, items: Dict[str, Any]) -> Dict[str, VarGraph]:
        """Build graphs for a mapping of variable names to objects.

        Within one call the namespace is quiescent, so subtrees cached by
        earlier builds splice into later ones even without any dirty-set
        information — shared structures are walked once per cycle, not once
        per referencing variable."""
        return {name: self.build(name, obj) for name, obj in items.items()}
