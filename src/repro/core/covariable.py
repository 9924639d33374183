"""Co-variables and the co-variable pool (§4.1 of the paper).

A **co-variable** is a set of variable names whose reachable objects form a
maximally connected component (Definition 1). It is the minimum granularity
at which state can be stored and loaded without breaking shared references:
by construction there are no references between distinct co-variables, so a
co-variable can be treated as an independent data table.

The :class:`CoVariablePool` maintains the current partition of the
namespace into co-variables, keyed by frozensets of member names, together
with each member's most recent VarGraph snapshot. A co-variable a checkout
loaded from its payload is *pending* until a cell may touch it: its key is
known, its graphs are built only when a cell needs them as the "before"
graphs (DESIGN.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Any, Dict, FrozenSet, Iterable, List, Optional, Set

from repro.core.vargraph import VarGraph, VarGraphBuilder

#: A co-variable is identified by its (frozen) set of member names.
CoVarKey = FrozenSet[str]


def covar_key(names: Iterable[str]) -> CoVarKey:
    return frozenset(names)


@dataclass
class CoVariable:
    """One co-variable: member names plus their VarGraph snapshots."""

    names: CoVarKey
    graphs: Dict[str, VarGraph] = field(default_factory=dict)

    @property
    def key(self) -> CoVarKey:
        return self.names

    @property
    def opaque(self) -> bool:
        """True if any member graph contains untraversable objects."""
        return any(graph.opaque for graph in self.graphs.values())

    @property
    def id_set(self) -> FrozenSet[int]:
        union: Set[int] = set()
        for graph in self.graphs.values():
            union |= graph.id_set
        return frozenset(union)

    def total_nodes(self) -> int:
        return sum(len(graph) for graph in self.graphs.values())

    def type_names(self) -> Set[str]:
        """Qualified type names of every reachable object (blocklist checks)."""
        names: Set[str] = set()
        for graph in self.graphs.values():
            names.update(node.type_name for node in graph.nodes)
        return names

    def __repr__(self) -> str:
        return f"CoVariable({{{', '.join(sorted(self.names))}}})"


def group_into_components(graphs: Dict[str, VarGraph]) -> List[Set[str]]:
    """Partition variable names into connected components of shared objects.

    Two names are joined when their VarGraphs' mutable-object id-sets
    intersect (the paper's Fig 7 intersection test). Union-find over the
    object ids gives the maximal components of Definition 1.
    """
    parent: Dict[str, str] = {name: name for name in graphs}

    def find(name: str) -> str:
        root = name
        while parent[root] != root:
            root = parent[root]
        while parent[name] != root:  # path compression
            parent[name], name = root, parent[name]
        return root

    def union(a: str, b: str) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    owner_of_id: Dict[int, str] = {}
    for name, graph in graphs.items():
        for obj_id in graph.id_set:
            existing = owner_of_id.get(obj_id)
            if existing is None:
                owner_of_id[obj_id] = name
            else:
                union(existing, name)

    components: Dict[str, Set[str]] = {}
    for name in graphs:
        components.setdefault(find(name), set()).add(name)
    return list(components.values())


def covariables_from_graphs(graphs: Dict[str, VarGraph]) -> List[CoVariable]:
    """The co-variables :func:`group_into_components` forms, with their graphs."""
    return [
        CoVariable(
            names=covar_key(member_names),
            graphs={name: graphs[name] for name in member_names},
        )
        for member_names in group_into_components(graphs)
    ]


class CoVariablePool:
    """The current partition of the user namespace into co-variables."""

    def __init__(self, builder: Optional[VarGraphBuilder] = None) -> None:
        self.builder = builder if builder is not None else VarGraphBuilder()
        self._covars: Dict[CoVarKey, CoVariable] = {}
        self._key_of_name: Dict[str, CoVarKey] = {}
        #: Keys of the co-variables whose graphs are not built yet.
        self._pending: Set[CoVarKey] = set()

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_namespace(
        cls, items: Dict[str, Any], builder: Optional[VarGraphBuilder] = None
    ) -> "CoVariablePool":
        """Build the pool for an entire namespace snapshot."""
        pool = cls(builder)
        pool.replace((), covariables_from_graphs(pool.builder.build_many(items)))
        return pool

    # -- queries ---------------------------------------------------------------

    def keys(self) -> Set[CoVarKey]:
        return set(self._covars)

    def get(self, key: CoVarKey) -> Optional[CoVariable]:
        return self._covars.get(key)

    def covariable_of(self, name: str) -> Optional[CoVariable]:
        key = self._key_of_name.get(name)
        return self._covars.get(key) if key is not None else None

    def key_of(self, name: str) -> Optional[CoVarKey]:
        return self._key_of_name.get(name)

    def graph_of(self, name: str) -> Optional[VarGraph]:
        """The most recent VarGraph snapshot of one variable, if tracked."""
        covariable = self.covariable_of(name)
        if covariable is None:
            return None
        return covariable.graphs.get(name)

    def all_names(self) -> Set[str]:
        return set(self._key_of_name)

    def covariables(self) -> List[CoVariable]:
        return list(self._covars.values())

    def __len__(self) -> int:
        return len(self._covars)

    def __contains__(self, key: CoVarKey) -> bool:
        return key in self._covars

    @property
    def pending(self) -> AbstractSet[CoVarKey]:
        """Keys of the co-variables whose graphs are not built yet (a
        read-only view)."""
        return self._pending

    # -- mutation (used by the delta detector and checkout) ---------------------

    def _insert(self, covariable: CoVariable) -> None:
        self._covars[covariable.key] = covariable
        self._pending.discard(covariable.key)
        for name in covariable.names:
            self._key_of_name[name] = covariable.key

    def _remove(self, key: CoVarKey) -> None:
        covariable = self._covars.pop(key)
        self._pending.discard(key)
        for name in covariable.names:
            existing = self._key_of_name.get(name)
            if existing == key:
                del self._key_of_name[name]

    def replace(
        self,
        removed_keys: Iterable[CoVarKey],
        added: Iterable[CoVariable],
        *,
        pending: Iterable[CoVarKey] = (),
    ) -> None:
        """Atomically swap a set of co-variables for their successors;
        the ``pending`` keys join without graphs."""
        for key in removed_keys:
            if key in self._covars:
                self._remove(key)
        for covariable in added:
            self._insert(covariable)
        for key in pending:
            self._insert(CoVariable(names=key))
            self._pending.add(key)

    def build_pending(
        self, keys: Iterable[CoVarKey], namespace_items: Dict[str, Any]
    ) -> None:
        """Build the graphs of pending co-variables and regroup their
        members into connected components, as a checkout resync does."""
        keys = [key for key in keys if key in self._pending]
        graphs = self.rebuild_for_names(
            {name for key in keys for name in key}, namespace_items
        )
        self.replace(keys, covariables_from_graphs(graphs))

    def rebuild_for_names(
        self, names: Iterable[str], namespace_items: Dict[str, Any]
    ) -> Dict[str, VarGraph]:
        """Re-generate VarGraphs for ``names`` that still exist in the
        namespace; missing names are simply absent from the result."""
        present = {
            name: namespace_items[name] for name in names if name in namespace_items
        }
        return self.builder.build_many(present)
