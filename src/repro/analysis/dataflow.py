"""Inter-cell dataflow graph and static replay planning (DESIGN.md §10).

PR 3's :class:`~repro.analysis.effects.CellEffects` describe what one cell
may do to the session namespace. This module lifts those per-cell effect
sets to a *whole-notebook* view: a :class:`NotebookDataflowGraph` chaining
the cells of an execution history into def-use edges, and a
:class:`ReplayPlanner` that answers the question fallback recomputation
(§5.3 of the paper) actually needs answered — *which minimal ordered
subset of cells must re-execute to reconstruct these variables at that
point in history?*

The graph distinguishes four edge kinds, ordered from strongest to
weakest knowledge:

* ``DEFINITE`` — the read is satisfied by the latest unconditional
  top-level write of the name;
* ``CONDITIONAL`` — a guarded write (branch arm, loop body, function
  body) after the definite writer may have produced the value instead;
* ``MUTATION`` — a cell that holds the name only in a *Load* context but
  syntactically mutates through it (``x[0] = …``, ``x.append(…)``,
  ``x.attr = …``) may have changed the object in place;
* ``ESCAPE`` — a cell whose effects are opaque (``exec``, star imports,
  hidden global stores, …) conservatively widens to a potential producer
  of *every* name.

Deletions kill definitions: a definite ``del x`` ends the reaching scope
of every earlier producer of ``x``.

The planner walks these edges backward from a target name set, optionally
short-circuiting through *stored versions* (checkpoint payloads known to
hold the value at an intermediate point), and returns a
:class:`ReplayPlan` — an ordered list of load and replay steps, the names
it could not resolve, and, crucially, an explicit ``unsafe_reasons`` list
whenever the plan routes through an escaped cell: a plan through opaque
code is *reported* as replay-unsafe, never silently presented as minimal.

Everything here is deterministic: cells are analyzed in index order,
name sets iterate sorted, and plan/lint output is byte-stable across
runs and interpreters (no ``id()``, no hash-order dependence).
"""

from __future__ import annotations

import ast
import builtins
import enum
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.effects import CellEffects, Span
from repro.analysis.visitor import analyze_cell

if TYPE_CHECKING:  # pragma: no cover - cycle broken by lazy import
    from repro.analysis.summaries import NotebookSummaries, SummaryView
    from repro.analysis.typetrack import StubContext

__all__ = [
    "CellNode",
    "DefUseEdge",
    "EdgeKind",
    "NotebookDataflowGraph",
    "PlanStep",
    "ReplayPlan",
    "ReplayPlanner",
    "Resolution",
    "StoredVersion",
    "ast_cost",
    "make_cell_node",
    "split_script_cells",
]


# ---------------------------------------------------------------------------
# Per-cell analysis beyond CellEffects: ordered external reads and
# in-place mutation capture.
# ---------------------------------------------------------------------------


class _TopLevelLoadCollector(ast.NodeVisitor):
    """Collects Name loads evaluated when a statement executes.

    Skips the bodies of nested function/lambda definitions (those loads
    happen at call time, possibly after later bindings) but descends into
    class bodies, comprehensions, and default-value expressions, which
    evaluate eagerly. Comprehension-local targets are excluded.
    """

    def __init__(self) -> None:
        self.loads: List[str] = []
        self._comp_locals: Set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id not in self._comp_locals:
            self.loads.append(node.id)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function_header(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function_header(node)

    def _visit_function_header(
        self, node: Any
    ) -> None:  # ast.FunctionDef | ast.AsyncFunctionDef
        # Decorators, defaults, and annotations evaluate at def time.
        for decorator in node.decorator_list:
            self.visit(decorator)
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            self.visit(default)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            self.visit(default)

    def _visit_comprehension(self, node: ast.AST) -> None:
        comp_locals: Set[str] = set()
        for generator in getattr(node, "generators", []):
            for target in ast.walk(generator.target):
                if isinstance(target, ast.Name):
                    comp_locals.add(target.id)
        previous = self._comp_locals
        self._comp_locals = previous | comp_locals
        try:
            self.generic_visit(node)
        finally:
            self._comp_locals = previous

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)


def _statement_bindings(statement: ast.stmt) -> Set[str]:
    """Names a top-level statement binds when it executes."""
    bound: Set[str] = set()

    def add_target(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            bound.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                add_target(element)
        elif isinstance(target, ast.Starred):
            add_target(target.value)

    if isinstance(statement, ast.Assign):
        for target in statement.targets:
            add_target(target)
    elif isinstance(statement, ast.AnnAssign):
        if statement.value is not None:
            add_target(statement.target)
    elif isinstance(statement, ast.AugAssign):
        add_target(statement.target)
    elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        bound.add(statement.name)
    elif isinstance(statement, ast.Import):
        for alias in statement.names:
            bound.add(alias.asname or alias.name.split(".")[0])
    elif isinstance(statement, ast.ImportFrom):
        for alias in statement.names:
            if alias.name != "*":
                bound.add(alias.asname or alias.name)
    # Walrus targets bind wherever the expression evaluates.
    for child in ast.walk(statement):
        if isinstance(child, ast.NamedExpr) and isinstance(child.target, ast.Name):
            bound.add(child.target.id)
    return bound


def ordered_external_reads(module: ast.Module) -> FrozenSet[str]:
    """Names a cell reads *before* binding them at top level.

    Walking the module body in statement order and threading the
    bound-so-far set distinguishes ``x = 1; y = x`` (no external read of
    ``x``) from ``x = x + 1`` as a first statement (external read). Reads
    inside nested function bodies are excluded — they execute at call
    time, by which point the cell's own top-level bindings exist.
    """
    bound: Set[str] = set()
    external: Set[str] = set()
    for statement in module.body:
        collector = _TopLevelLoadCollector()
        collector.visit(statement)
        external |= set(collector.loads) - bound
        bound |= _statement_bindings(statement)
    return frozenset(external)


#: Method names treated as non-mutating for mutation capture. Kept local
#: (rather than importing the lint purity registry) so the dataflow layer
#: has no dependency on the lint layer; the sets intentionally agree.
_PURE_METHOD_NAMES: FrozenSet[str] = frozenset(
    {"head", "tail", "describe", "info", "keys", "values", "items", "get",
     "mean", "sum", "min", "max", "std", "count", "copy", "hexdigest",
     "index", "startswith", "endswith", "split", "join", "strip", "encode",
     "decode", "format", "lower", "upper", "tolist", "item"}
)


def _base_name(node: ast.expr) -> Optional[str]:
    """The root Name of an attribute/subscript access chain, if any."""
    current: ast.expr = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


def in_place_mutation_targets(
    module: ast.Module,
    *,
    skip_function_bodies: bool = False,
    method_effect: Optional[Callable[[ast.Call], Optional[bool]]] = None,
) -> FrozenSet[str]:
    """Names through which a cell may mutate an object without rebinding.

    Captures subscript/attribute stores and deletes (``x[0] = v``,
    ``x.attr = v``, ``del x[k]``), augmented assignment to a subscript or
    attribute, and calls of non-whitelisted methods on a name
    (``x.append(v)``). This over-approximates — a pure custom ``append``
    is still captured — which is the sound direction for replay planning:
    a possible mutator is included in the plan, never dropped.

    With ``skip_function_bodies`` (summary mode), mutations inside
    function/lambda bodies are excluded: they happen at call time and are
    attributed to call sites through the callee's
    :class:`~repro.analysis.summaries.FunctionSummary` instead of
    spuriously marking the defining cell a mutator.

    ``method_effect`` (the stub layer's
    :meth:`~repro.analysis.typetrack.CellResolver.method_effect`)
    overrides the name-based heuristic per call site: ``True`` forces
    mutation capture, ``False`` is a *proof* of purity and suppresses it,
    ``None`` falls back to the ``_PURE_METHOD_NAMES`` check.
    """
    mutated: Set[str] = set()

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if skip_function_bodies and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                # Decorators and default values still evaluate at def time.
                for decorator in getattr(child, "decorator_list", []):
                    walk(decorator)
                for default in list(child.args.defaults) + [
                    d for d in child.args.kw_defaults if d is not None
                ]:
                    walk(default)
                continue
            visit(child)

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            name = _base_name(node)
            if name is not None:
                mutated.add(name)
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, (ast.Attribute, ast.Subscript)
        ):
            name = _base_name(node.target)
            if name is not None:
                mutated.add(name)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            verdict = method_effect(node) if method_effect is not None else None
            if verdict is None:
                verdict = node.func.attr not in _PURE_METHOD_NAMES
            if verdict:
                name = _base_name(node.func.value)
                if name is not None:
                    mutated.add(name)
        walk(node)

    walk(module)
    return frozenset(mutated)


# ---------------------------------------------------------------------------
# Cell nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellNode:
    """One cell of an execution history, with its static analysis.

    ``index`` is the cell's position in execution order (0-based);
    ``node_id`` optionally names the checkpoint node the cell committed
    as; ``execution_count`` is the kernel's counter (0 when unknown).
    """

    index: int
    label: str
    source: str
    effects: CellEffects
    external_reads: FrozenSet[str] = frozenset()
    mutators: FrozenSet[str] = frozenset()
    execution_count: int = 0
    node_id: Optional[str] = None

    @property
    def executed(self) -> bool:
        """Cells that failed to parse never ran; they produce nothing."""
        return self.effects.syntax_error is None

    @property
    def is_opaque(self) -> bool:
        return self.executed and self.effects.is_opaque

    @property
    def dependency_names(self) -> FrozenSet[str]:
        """Names whose pre-cell values the cell's execution may consume.

        Ordered definite external reads plus every conditional read —
        guarded reads cannot be ordered against top-level bindings, so
        they are conservatively treated as external.
        """
        return frozenset(
            self.external_reads | self.effects.conditional_reads
        )


def make_cell_node(
    index: int,
    source: str,
    *,
    label: Optional[str] = None,
    execution_count: int = 0,
    node_id: Optional[str] = None,
    summaries: "Optional[SummaryView]" = None,
    stubs: "Optional[StubContext]" = None,
) -> CellNode:
    """Analyze one cell source into a :class:`CellNode`.

    With ``summaries`` the analysis is interprocedural: calls to
    summarized helpers contribute their global reads (call-time-eager,
    so they join ``external_reads`` rather than the planner's lazy set)
    and their mutations (of globals and of global arguments), while
    mutations *inside* summarizable function bodies stop being
    attributed to the defining cell.

    With ``stubs`` library calls resolve through effect stubs
    (DESIGN.md §15): declared-pure calls stop being captured as
    mutations (tighter MUTATION edges), declared mutations — including
    ``mutates_args`` argument positions — join ``mutators``.
    """
    effects = analyze_cell(source, summaries, stubs=stubs)
    external: FrozenSet[str] = frozenset()
    mutators: FrozenSet[str] = frozenset()
    if effects.syntax_error is None:
        try:
            module = ast.parse(source)
        except SyntaxError:  # pragma: no cover - analyze_cell already parsed
            module = None
        if module is not None:
            external = ordered_external_reads(module)
            resolver = stubs.resolver(module) if stubs is not None else None
            mutators = in_place_mutation_targets(
                module,
                skip_function_bodies=summaries is not None,
                method_effect=(
                    resolver.method_effect if resolver is not None else None
                ),
            )
            if summaries is not None:
                external = frozenset(external | effects.summary_reads)
                mutators = frozenset(mutators | effects.summary_mutations)
            if stubs is not None:
                mutators = frozenset(mutators | effects.stub_mutations)
    return CellNode(
        index=index,
        label=label if label is not None else f"cell[{index}]",
        source=source,
        effects=effects,
        external_reads=external,
        mutators=mutators,
        execution_count=execution_count,
        node_id=node_id,
    )


def split_script_cells(source: str) -> List[str]:
    """Split a script into notebook-style cells.

    Honors ``# %%`` cell separators (the jupytext/VS Code convention);
    a script without separators is split into one cell per top-level
    statement, which is the closest faithful reading of a linear script
    as an executed cell history.
    """
    lines = source.splitlines()
    if any(line.strip().startswith("# %%") for line in lines):
        cells: List[List[str]] = [[]]
        for line in lines:
            if line.strip().startswith("# %%"):
                cells.append([])
            else:
                cells[-1].append(line)
        return ["\n".join(cell) for cell in cells if "\n".join(cell).strip()]
    try:
        module = ast.parse(source)
    except SyntaxError:
        return [source]
    if not module.body:
        return []
    starts = [statement.lineno for statement in module.body]
    ends = starts[1:] + [len(lines) + 1]
    segments: List[str] = []
    for statement, end in zip(module.body, ends):
        start = statement.lineno
        for decorator in getattr(statement, "decorator_list", []):
            start = min(start, decorator.lineno)
        segments.append("\n".join(lines[start - 1 : end - 1]).rstrip())
    return [segment for segment in segments if segment.strip()]


# ---------------------------------------------------------------------------
# The dataflow graph
# ---------------------------------------------------------------------------


class EdgeKind(enum.Enum):
    """How strongly a producer cell is believed to supply a read."""

    DEFINITE = "definite"
    CONDITIONAL = "conditional"
    MUTATION = "mutation"
    ESCAPE = "escape"


@dataclass(frozen=True)
class DefUseEdge:
    """``reader`` may consume a value ``producer`` (re)wrote for ``name``."""

    name: str
    reader: int
    producer: int
    kind: EdgeKind

    def __str__(self) -> str:
        return f"{self.name}: {self.producer} -[{self.kind.value}]-> {self.reader}"


@dataclass(frozen=True)
class Resolution:
    """Producers of ``name``'s value as of *after* cell ``at_index``.

    ``definite`` is the latest unconditional writer (None when the name
    was never definitely written, or a definite delete killed it);
    ``conditional`` / ``mutators`` / ``escapes`` are later cells that may
    have replaced or mutated the value; ``killed`` reports a definite
    delete with no subsequent writer.
    """

    name: str
    at_index: int
    definite: Optional[int]
    conditional: Tuple[int, ...]
    mutators: Tuple[int, ...]
    escapes: Tuple[int, ...]
    killed: bool

    @property
    def producers(self) -> Tuple[int, ...]:
        """All potential producer indices, ascending, deduplicated."""
        merged: Set[int] = set(self.conditional) | set(self.mutators) | set(
            self.escapes
        )
        if self.definite is not None:
            merged.add(self.definite)
        return tuple(sorted(merged))

    @property
    def unresolved(self) -> bool:
        return not self.producers


@dataclass
class _NameEvents:
    """Chronological per-name event streams the resolver scans."""

    definite_writes: List[int] = field(default_factory=list)
    conditional_writes: List[int] = field(default_factory=list)
    definite_deletes: List[int] = field(default_factory=list)
    conditional_deletes: List[int] = field(default_factory=list)
    mutations: List[int] = field(default_factory=list)
    reads: List[int] = field(default_factory=list)


class NotebookDataflowGraph:
    """Def-use structure over one linear cell execution history."""

    def __init__(self, cells: Sequence[CellNode]) -> None:
        self.cells: Tuple[CellNode, ...] = tuple(cells)
        for position, cell in enumerate(self.cells):
            if cell.index != position:
                raise ValueError(
                    f"cell at position {position} carries index {cell.index}; "
                    "cells must be supplied in execution order with "
                    "contiguous indices"
                )
        #: The function-summary table used to analyze the cells, when the
        #: graph was built with ``from_sources(use_summaries=True)``.
        self.summaries: "Optional[NotebookSummaries]" = None
        #: The stub context (registry + final type bindings) used to
        #: analyze the cells, when built with ``use_stubs=True``.
        self.stub_context: "Optional[StubContext]" = None
        self._events: Dict[str, _NameEvents] = {}
        self._escape_cells: List[int] = []
        self._build_events()
        self.edges: Tuple[DefUseEdge, ...] = tuple(self._build_edges())

    @classmethod
    def from_sources(
        cls,
        sources: Iterable[str],
        *,
        labels: Optional[Sequence[str]] = None,
        execution_counts: Optional[Sequence[int]] = None,
        use_summaries: bool = False,
        use_stubs: bool = False,
        stub_registry: Optional[Any] = None,
    ) -> "NotebookDataflowGraph":
        """Build the graph from cell sources in execution order.

        With ``use_summaries`` a
        :class:`~repro.analysis.summaries.NotebookSummaries` table is
        threaded through the cells: each cell is analyzed with the
        summaries its position can see (def-use edges through helper
        calls become tight), and the populated table is retained as
        ``graph.summaries`` for lint and reporting consumers.

        With ``use_stubs`` a :class:`~repro.analysis.typetrack.StubContext`
        (over ``stub_registry``, or the shipped default registry) is
        threaded the same way: each cell resolves library calls against
        the type bindings earlier cells established, and the context is
        retained as ``graph.stub_context``.
        """
        context: "Optional[StubContext]" = None
        if use_stubs:
            from repro.analysis.typetrack import StubContext

            context = StubContext(registry=stub_registry)
        table: "Optional[NotebookSummaries]" = None
        if use_summaries:
            from repro.analysis.summaries import NotebookSummaries

            table = NotebookSummaries(stubs=context)
        cells = []
        for index, source in enumerate(sources):
            view = table.view_for_cell(source) if table is not None else None
            node = make_cell_node(
                index,
                source,
                label=labels[index] if labels is not None else None,
                execution_count=(
                    execution_counts[index]
                    if execution_counts is not None
                    else 0
                ),
                summaries=view,
                stubs=context,
            )
            if table is not None:
                table.observe_cell(source, node.effects)
            if context is not None:
                context.observe_cell(
                    source, opaque=node.effects.opaque_writes
                )
            cells.append(node)
        graph = cls(cells)
        graph.summaries = table
        graph.stub_context = context
        return graph

    # -- construction -------------------------------------------------------

    def _events_for(self, name: str) -> _NameEvents:
        events = self._events.get(name)
        if events is None:
            events = _NameEvents()
            self._events[name] = events
        return events

    def _build_events(self) -> None:
        for cell in self.cells:
            if not cell.executed:
                continue
            effects = cell.effects
            index = cell.index
            for name in sorted(effects.all_reads):
                self._events_for(name).reads.append(index)
            for name in sorted(effects.writes):
                self._events_for(name).definite_writes.append(index)
            for name in sorted(effects.conditional_writes):
                self._events_for(name).conditional_writes.append(index)
            for name in sorted(effects.deletes):
                self._events_for(name).definite_deletes.append(index)
            for name in sorted(effects.conditional_deletes):
                self._events_for(name).conditional_deletes.append(index)
            for name in sorted(cell.mutators):
                self._events_for(name).mutations.append(index)
            if cell.is_opaque:
                self._escape_cells.append(index)

    def _build_edges(self) -> List[DefUseEdge]:
        edges: List[DefUseEdge] = []
        for cell in self.cells:
            if not cell.executed:
                continue
            for name in sorted(cell.effects.all_reads):
                resolution = self.resolve(name, cell.index - 1)
                if resolution.definite is not None:
                    edges.append(
                        DefUseEdge(
                            name=name,
                            reader=cell.index,
                            producer=resolution.definite,
                            kind=EdgeKind.DEFINITE,
                        )
                    )
                for producer in resolution.conditional:
                    edges.append(
                        DefUseEdge(
                            name=name,
                            reader=cell.index,
                            producer=producer,
                            kind=EdgeKind.CONDITIONAL,
                        )
                    )
                for producer in resolution.mutators:
                    edges.append(
                        DefUseEdge(
                            name=name,
                            reader=cell.index,
                            producer=producer,
                            kind=EdgeKind.MUTATION,
                        )
                    )
                for producer in resolution.escapes:
                    edges.append(
                        DefUseEdge(
                            name=name,
                            reader=cell.index,
                            producer=producer,
                            kind=EdgeKind.ESCAPE,
                        )
                    )
        return edges

    # -- queries ------------------------------------------------------------

    @property
    def escape_cells(self) -> Tuple[int, ...]:
        """Indices of cells whose effects are opaque (conservative widening)."""
        return tuple(self._escape_cells)

    def names(self) -> List[str]:
        return sorted(self._events)

    def events_of(self, name: str) -> Optional[_NameEvents]:
        return self._events.get(name)

    def resolve(self, name: str, at_index: int) -> Resolution:
        """Producers of ``name``'s value as of after cell ``at_index``.

        ``at_index`` may be -1 (the pre-notebook state: nothing resolves).
        """
        events = self._events.get(name, _NameEvents())
        definite: Optional[int] = None
        for index in events.definite_writes:
            if index <= at_index:
                definite = index
            else:
                break
        last_kill: Optional[int] = None
        for index in events.definite_deletes:
            if index <= at_index:
                last_kill = index
            else:
                break
        killed = False
        if last_kill is not None and (definite is None or last_kill > definite):
            definite = None
            killed = True
        floor = -1
        if definite is not None:
            floor = definite
        elif last_kill is not None:
            floor = last_kill
        conditional = tuple(
            index
            for index in events.conditional_writes
            if floor < index <= at_index
        )
        mutators = tuple(
            index
            for index in events.mutations
            if floor <= index <= at_index
            and index != definite
        )
        escapes = tuple(
            index for index in self._escape_cells if floor < index <= at_index
        )
        if definite is None and not conditional and not escapes:
            # A mutation cannot conjure a binding: without any possible
            # writer in scope the name does not exist, so bare mutators
            # (e.g. method calls inside a function body) are not
            # producers.
            mutators = ()
        if conditional or escapes:
            killed = False
        return Resolution(
            name=name,
            at_index=at_index,
            definite=definite,
            conditional=conditional,
            mutators=mutators,
            escapes=escapes,
            killed=killed,
        )

    def live_names(self, at_index: Optional[int] = None) -> List[str]:
        """Names with at least one surviving producer at ``at_index``."""
        index = at_index if at_index is not None else len(self.cells) - 1
        live = [
            name
            for name in self.names()
            if not self.resolve(name, index).unresolved
        ]
        return sorted(live)

    def readers_of(self, name: str) -> Tuple[int, ...]:
        events = self._events.get(name)
        return tuple(events.reads) if events is not None else ()


# ---------------------------------------------------------------------------
# Replay planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoredVersion:
    """A checkpoint payload that can substitute for replaying producers.

    ``names`` are the co-variable members the payload plants as a unit;
    ``ref`` is an opaque version handle (a checkpoint node id); ``index``
    anchors the version in the cell chain — the payload holds the names'
    values as of after the cell at that index.
    """

    names: FrozenSet[str]
    ref: str
    index: int
    size_bytes: int = 0


#: Callback resolving (name, chain index) to a loadable stored version.
PayloadLookup = Callable[[str, int], Optional[StoredVersion]]
#: Callback estimating the replay cost of one cell.
CostModel = Callable[[CellNode], float]


def ast_cost(cell: CellNode) -> float:
    """Deterministic static cost proxy: the cell's AST node count.

    Used when no runtime metrics exist (file-mode planning); stable
    across runs so ``--format json`` output is byte-identical.
    """
    if cell.effects.syntax_error is not None:
        return 0.0
    try:
        module = ast.parse(cell.source)
    except SyntaxError:  # pragma: no cover - guarded above
        return 0.0
    return float(sum(1 for _ in ast.walk(module)))


@dataclass(frozen=True)
class PlanStep:
    """One ordered action of a replay plan.

    ``kind`` is ``"load"`` (plant a stored co-variable payload) or
    ``"replay"`` (re-execute a cell). Steps sort by ``index`` with loads
    after replays at the same index — a load anchored at a cell's index
    represents the state *after* that cell, so replaying the cell on top
    of it would apply the cell's in-place mutations twice.
    """

    kind: str
    index: int
    label: str
    names: Tuple[str, ...]
    ref: Optional[str] = None
    cost: float = 0.0
    size_bytes: int = 0
    source: str = ""

    @property
    def sort_key(self) -> Tuple[int, int, str]:
        return (self.index, 1 if self.kind == "load" else 0, ",".join(self.names))

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "index": self.index,
            "label": self.label,
            "names": list(self.names),
            "cost": self.cost,
        }
        if self.ref is not None:
            payload["ref"] = self.ref
        if self.kind == "load":
            payload["size_bytes"] = self.size_bytes
        return payload


@dataclass(frozen=True)
class ReplayPlan:
    """An ordered, minimal plan to reconstruct ``target_names``.

    ``total_cells`` is the full-history replay size the plan is measured
    against; ``cells_skipped`` is the planner's saving. ``unsafe_reasons``
    is non-empty whenever the plan depends on an escaped (opaque) cell —
    such a plan may be executed, but its completeness is not guaranteed
    and callers must surface the flag rather than trust the plan
    silently.
    """

    target_names: Tuple[str, ...]
    target_index: int
    target_label: str
    steps: Tuple[PlanStep, ...]
    external_inputs: Tuple[str, ...]
    missing: Tuple[str, ...]
    unsafe_reasons: Tuple[str, ...]
    total_cells: int

    @property
    def replay_steps(self) -> Tuple[PlanStep, ...]:
        return tuple(step for step in self.steps if step.kind == "replay")

    @property
    def load_steps(self) -> Tuple[PlanStep, ...]:
        return tuple(step for step in self.steps if step.kind == "load")

    @property
    def cells_replayed(self) -> int:
        return len(self.replay_steps)

    @property
    def cells_skipped(self) -> int:
        return self.total_cells - self.cells_replayed

    @property
    def is_safe(self) -> bool:
        return not self.unsafe_reasons

    @property
    def is_complete(self) -> bool:
        return not self.missing

    @property
    def estimated_cost(self) -> float:
        return sum(step.cost for step in self.steps)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-stable dict (sorted keys, pre-sorted lists)."""
        return {
            "target": {
                "names": list(self.target_names),
                "index": self.target_index,
                "label": self.target_label,
            },
            "steps": [step.to_dict() for step in self.steps],
            "external_inputs": list(self.external_inputs),
            "missing": list(self.missing),
            "unsafe_reasons": list(self.unsafe_reasons),
            "summary": {
                "total_cells": self.total_cells,
                "cells_replayed": self.cells_replayed,
                "cells_skipped": self.cells_skipped,
                "payload_loads": len(self.load_steps),
                "estimated_cost": self.estimated_cost,
                "safe": self.is_safe,
                "complete": self.is_complete,
            },
        }

    def format(self) -> str:
        """Human-oriented multi-line rendering (the ``%replay-plan`` view)."""
        lines = [
            f"replay plan for {{{', '.join(self.target_names)}}} "
            f"at {self.target_label}:"
        ]
        if not self.steps:
            lines.append("  (nothing to do)")
        for step in self.steps:
            names = ", ".join(step.names)
            if step.kind == "load":
                lines.append(
                    f"  load   [{step.index:>3}] {{{names}}} @ {step.ref}"
                    f" ({step.size_bytes} B)"
                )
            else:
                preview = step.source.strip().splitlines()
                head = preview[0][:48] if preview else ""
                lines.append(
                    f"  replay [{step.index:>3}] {step.label}: {head}"
                    f"  (cost {step.cost:.4g})"
                )
        lines.append(
            f"  = {self.cells_replayed} of {self.total_cells} cells replayed, "
            f"{len(self.load_steps)} payload load(s), "
            f"{self.cells_skipped} cell(s) skipped"
        )
        if self.external_inputs:
            lines.append(f"  external inputs: {', '.join(self.external_inputs)}")
        if self.missing:
            lines.append(f"  UNRESOLVED targets: {', '.join(self.missing)}")
        for reason in self.unsafe_reasons:
            lines.append(f"  REPLAY-UNSAFE: {reason}")
        return "\n".join(lines)


class ReplayPlanner:
    """Computes minimal ordered replay plans over a dataflow graph."""

    def __init__(
        self,
        graph: NotebookDataflowGraph,
        *,
        payload_lookup: Optional[PayloadLookup] = None,
        cost_of: Optional[CostModel] = None,
    ) -> None:
        self.graph = graph
        self.payload_lookup = payload_lookup
        self.cost_of = cost_of if cost_of is not None else ast_cost

    def plan(
        self, target_names: Iterable[str], at_index: Optional[int] = None
    ) -> ReplayPlan:
        """Plan reconstruction of ``target_names`` as of after ``at_index``.

        Walks def-use edges backward from the targets. A name whose value
        a stored version covers is satisfied by a load step (cutting the
        recursion — the stored version already embodies every mutation up
        to its anchor); otherwise its definite producer plus every later
        conditional writer and in-place mutator joins the replay set, and
        their own dependencies are resolved in turn. Escaped cells in a
        resolution window are included as producers *and* flagged in
        ``unsafe_reasons`` — never silently treated as precise.
        """
        cells = self.graph.cells
        index = at_index if at_index is not None else len(cells) - 1
        if index >= len(cells):
            raise ValueError(
                f"at_index {index} out of range for {len(cells)} cells"
            )
        targets = tuple(sorted(set(target_names)))

        replay_indices: Set[int] = set()
        loads: Dict[Tuple[FrozenSet[str], str], StoredVersion] = {}
        external: Set[str] = set()
        missing: Set[str] = set()
        unsafe: Dict[int, str] = {}
        seen: Set[Tuple[str, int]] = set()
        worklist: List[Tuple[str, int, bool]] = [
            (name, index, True) for name in reversed(targets)
        ]

        while worklist:
            name, upto, is_target = worklist.pop()
            if (name, upto) in seen:
                continue
            seen.add((name, upto))

            resolution = self.graph.resolve(name, upto)
            if resolution.unresolved:
                if is_target:
                    missing.add(name)
                elif not resolution.killed:
                    external.add(name)
                continue

            version = (
                self.payload_lookup(name, upto)
                if self.payload_lookup is not None
                else None
            )
            if version is not None:
                loads[(version.names, version.ref)] = version
                continue

            for producer in resolution.producers:
                cell = cells[producer]
                if cell.is_opaque and producer in resolution.escapes:
                    unsafe.setdefault(
                        producer,
                        self._unsafe_reason(cell, name),
                    )
                if producer not in replay_indices:
                    replay_indices.add(producer)
                    # Definite (eagerly executed) reads consume the state
                    # *before* the producer ran; lazy reads — names only
                    # touched inside function/lambda bodies the cell
                    # defines — are consumed at call time, i.e. against
                    # the state the plan reconstructs. Resolving them at
                    # the target index handles the def-before-data
                    # notebook pattern (the function cell precedes the
                    # cell binding its data).
                    lazy = (
                        cell.effects.conditional_reads
                        - set(cell.external_reads)
                    )
                    for dependency in sorted(cell.dependency_names):
                        at = index if dependency in lazy else producer - 1
                        worklist.append((dependency, at, False))

        steps = self._assemble_steps(replay_indices, loads)
        unsafe_reasons = tuple(
            unsafe[producer] for producer in sorted(unsafe)
        )
        external -= {name for name in external if is_builtin_name(name)}
        return ReplayPlan(
            target_names=targets,
            target_index=index,
            target_label=cells[index].label if cells else f"cell[{index}]",
            steps=steps,
            external_inputs=tuple(sorted(external)),
            missing=tuple(sorted(missing)),
            unsafe_reasons=unsafe_reasons,
            total_cells=index + 1,
        )

    def _unsafe_reason(self, cell: CellNode, name: str) -> str:
        kinds = sorted({escape.kind.value for escape in cell.effects.escapes})
        if not kinds and cell.effects.opaque_writes:
            kinds = ["opaque-writes"]
        return (
            f"{cell.label} (index {cell.index}) is an opaque producer of "
            f"{name!r} ({', '.join(kinds)}); its effects cannot be bounded "
            "statically"
        )

    def _assemble_steps(
        self,
        replay_indices: Set[int],
        loads: Dict[Tuple[FrozenSet[str], str], StoredVersion],
    ) -> Tuple[PlanStep, ...]:
        steps: List[PlanStep] = []
        for version in loads.values():
            steps.append(
                PlanStep(
                    kind="load",
                    index=version.index,
                    label=f"load@{version.index}",
                    names=tuple(sorted(version.names)),
                    ref=version.ref,
                    size_bytes=version.size_bytes,
                )
            )
        for index in sorted(replay_indices):
            cell = self.graph.cells[index]
            produced = sorted(
                cell.effects.all_writes | set(cell.mutators)
            )
            steps.append(
                PlanStep(
                    kind="replay",
                    index=index,
                    label=cell.label,
                    names=tuple(produced),
                    ref=cell.node_id,
                    cost=self.cost_of(cell),
                    source=cell.source,
                )
            )
        steps.sort(key=lambda step: step.sort_key)
        return tuple(steps)


def is_builtin_name(name: str) -> bool:
    """True for names resolvable from the interpreter's builtins."""
    return hasattr(builtins, name)
