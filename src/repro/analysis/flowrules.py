"""Inter-cell (whole-notebook) lint rules — the KSH30x family.

Per-cell rules in :mod:`repro.analysis.rules` see one cell at a time;
the rules here see the :class:`~repro.analysis.dataflow.NotebookDataflowGraph`
built over the whole execution history and can therefore reason about
*relationships* between cells:

* ``KSH301`` — a cell reads a name with no definite producer anywhere
  before it (never defined, or only conditionally defined);
* ``KSH302`` — a definite write is shadowed by a later definite write
  before any cell reads it (dead write; checkpointing it wastes space);
* ``KSH303`` — execution order diverges from notebook order (the
  classic out-of-order notebook hazard that breaks top-to-bottom
  reproduction);
* ``KSH304`` — a read's value may flow through an escaped (opaque)
  cell, making any static replay plan for it unsafe.

The KSH40x family reasons over the interprocedural
:class:`~repro.analysis.summaries.NotebookSummaries` table (DESIGN.md
§14) instead of the dataflow graph:

* ``KSH401`` — a call lets a helper mutate caller state in place
  (a global, or an argument bound to a parameter the body mutates);
* ``KSH402`` — a call reaches helper code that defeats namespace
  tracking (hidden global stores, ``exec``, frame access, …);
* ``KSH403`` — a rebinding invalidates a function's summary, demoting
  every later call to the conservative unknown-callee analysis.

The KSH50x family reasons over the library effect stubs and the
abstract-type environment (DESIGN.md §15) carried by a
:class:`~repro.analysis.typetrack.StubContext`:

* ``KSH501`` — a library call mutates caller state per its effect stub
  (receiver, argument position, or hidden global write);
* ``KSH502`` — a library-shaped call (receiver provably a module or a
  stubbed type's instance) has no stub entry, so the conservative
  treatment applies — with a fix-it naming the stub file to extend;
* ``KSH503`` — a user stub pins a library version that disagrees with
  the imported module's ``__version__``.

The rules yield the same :class:`~repro.analysis.rules.Finding` type as
per-cell rules, carrying ``cell_index`` so the engine can sort globally
by (cell index, span, rule id) — the deterministic order the byte-stable
``--format json`` contract depends on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.analysis.dataflow import (
    CellNode,
    NotebookDataflowGraph,
    is_builtin_name,
)
from repro.analysis.effects import EscapeKind, Span
from repro.analysis.rules import Finding, LintRule, Severity
from repro.analysis.summaries import FunctionSummary, NotebookSummaries
from repro.analysis.typetrack import StubContext, stub_call_mutates
from repro.parsing import parse

__all__ = [
    "DeadWriteRule",
    "EscapedDependencyRule",
    "ExecutionOrderRule",
    "HelperArgumentMutationRule",
    "HelperHiddenEffectRule",
    "NotebookContext",
    "NotebookLintRule",
    "StubMutationRule",
    "StubVersionMismatchRule",
    "SummaryInvalidationRule",
    "UnstubbedLibraryCallRule",
    "UseBeforeDefiniteDefRule",
    "default_notebook_rules",
]


@dataclass(frozen=True)
class NotebookContext:
    """Everything a notebook-level rule may inspect."""

    graph: NotebookDataflowGraph
    execution_counts: Optional[Tuple[int, ...]] = None
    #: Interprocedural summary table built over the same cells, for the
    #: KSH40x rules. ``None`` disables that family (the KSH30x graph is
    #: deliberately built *without* summaries, so its findings are
    #: independent of whether the summary layer is enabled).
    summaries: Optional[NotebookSummaries] = None
    #: Stub context (registry + abstract-type env) built over the same
    #: cells, for the KSH50x rules. ``None`` disables that family.
    stubs: Optional[StubContext] = None

    @property
    def cells(self) -> Tuple[CellNode, ...]:
        return self.graph.cells


def _first_load_span(source: str, name: str) -> Span:
    """The span of the first Load of ``name`` in the cell, if locatable."""
    try:
        module = parse(source)
    except SyntaxError:
        return Span(1, 0, 1, 0)
    for node in ast.walk(module):
        if (
            isinstance(node, ast.Name)
            and node.id == name
            and isinstance(node.ctx, ast.Load)
        ):
            return Span.of(node)
    return Span(1, 0, 1, 0)


def _first_store_span(source: str, name: str) -> Span:
    try:
        module = parse(source)
    except SyntaxError:
        return Span(1, 0, 1, 0)
    for node in ast.walk(module):
        if (
            isinstance(node, ast.Name)
            and node.id == name
            and isinstance(node.ctx, ast.Store)
        ):
            return Span.of(node)
    return Span(1, 0, 1, 0)


class NotebookLintRule(LintRule):
    """Base class for rules that inspect the whole-notebook graph.

    The per-cell ``check`` is intentionally inert — these rules only
    participate in :meth:`~repro.analysis.rules.LintEngine.lint_notebook`.
    """

    def check(self, context: object) -> Iterator[Finding]:  # pragma: no cover
        return iter(())

    def check_notebook(self, notebook: NotebookContext) -> Iterator[Finding]:
        raise NotImplementedError

    def cell_finding(
        self, cell: CellNode, message: str, span: Span
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            span=span,
            label=cell.label,
            cell_index=cell.index,
        )


class UseBeforeDefiniteDefRule(NotebookLintRule):
    rule_id = "KSH301"
    severity = Severity.WARNING
    description = (
        "cell reads a name no earlier cell definitely defines"
    )

    def check_notebook(self, notebook: NotebookContext) -> Iterator[Finding]:
        for cell in notebook.cells:
            if not cell.executed:
                continue
            for name in sorted(cell.external_reads):
                if is_builtin_name(name):
                    continue
                resolution = notebook.graph.resolve(name, cell.index - 1)
                if resolution.definite is not None:
                    continue
                if resolution.escapes:
                    continue  # KSH304's concern, not a missing definition
                span = _first_load_span(cell.source, name)
                if resolution.conditional:
                    producers = ", ".join(
                        notebook.cells[index].label
                        for index in resolution.conditional
                    )
                    yield self.cell_finding(
                        cell,
                        f"{name!r} is only conditionally defined before this "
                        f"cell (guarded writes in {producers}); re-execution "
                        "may raise NameError",
                        span,
                    )
                elif resolution.killed:
                    yield self.cell_finding(
                        cell,
                        f"{name!r} was deleted by an earlier cell and never "
                        "redefined; this read only worked against stale "
                        "session state",
                        span,
                    )
                else:
                    yield self.cell_finding(
                        cell,
                        f"{name!r} is read but no earlier cell defines it; "
                        "top-to-bottom re-execution will raise NameError",
                        span,
                    )


class DeadWriteRule(NotebookLintRule):
    rule_id = "KSH302"
    severity = Severity.WARNING
    description = (
        "definite write is shadowed by a later definite write before "
        "any cell reads it"
    )

    def check_notebook(self, notebook: NotebookContext) -> Iterator[Finding]:
        escape_cells = set(notebook.graph.escape_cells)
        for name in notebook.graph.names():
            events = notebook.graph.events_of(name)
            if events is None:
                continue
            writes = events.definite_writes
            reads = set(events.reads)
            conditional = set(events.conditional_writes)
            mutations = set(events.mutations)
            deletes = set(events.definite_deletes) | set(
                events.conditional_deletes
            )
            for earlier, later in zip(writes, writes[1:]):
                window = range(earlier + 1, later + 1)
                if any(index in reads for index in window):
                    continue
                if any(
                    index in conditional
                    or index in mutations
                    or index in deletes
                    or index in escape_cells
                    for index in range(earlier + 1, later)
                ):
                    continue
                if earlier in escape_cells:
                    continue
                cell = notebook.cells[earlier]
                yield self.cell_finding(
                    cell,
                    f"write to {name!r} is shadowed by "
                    f"{notebook.cells[later].label} before any cell reads "
                    "it; the value is checkpointed but never used",
                    _first_store_span(cell.source, name),
                )


class ExecutionOrderRule(NotebookLintRule):
    rule_id = "KSH303"
    severity = Severity.WARNING
    description = (
        "execution order diverges from notebook order"
    )

    def check_notebook(self, notebook: NotebookContext) -> Iterator[Finding]:
        counts = notebook.execution_counts
        if counts is None or len(counts) != len(notebook.cells):
            return
        previous: Optional[int] = None
        previous_cell: Optional[CellNode] = None
        for cell, count in zip(notebook.cells, counts):
            if count <= 0:
                continue  # unknown counter; nothing to compare
            if previous is not None and count <= previous:
                assert previous_cell is not None
                yield self.cell_finding(
                    cell,
                    f"executed as In[{count}] but appears after "
                    f"{previous_cell.label} (In[{previous}]); notebook "
                    "order no longer reproduces the session",
                    Span(1, 0, 1, 0),
                )
            previous = count
            previous_cell = cell


class EscapedDependencyRule(NotebookLintRule):
    rule_id = "KSH304"
    severity = Severity.WARNING
    description = (
        "read may depend on an escaped (opaque) cell; static replay "
        "through it is unsafe"
    )

    def check_notebook(self, notebook: NotebookContext) -> Iterator[Finding]:
        for cell in notebook.cells:
            if not cell.executed:
                continue
            for name in sorted(cell.external_reads):
                if is_builtin_name(name):
                    continue
                resolution = notebook.graph.resolve(name, cell.index - 1)
                if not resolution.escapes:
                    continue
                producers = ", ".join(
                    notebook.cells[index].label for index in resolution.escapes
                )
                yield self.cell_finding(
                    cell,
                    f"{name!r} may have been (re)defined by opaque cell(s) "
                    f"{producers}; a static replay plan for this value is "
                    "replay-unsafe",
                    _first_load_span(cell.source, name),
                )


# -- KSH40x: interprocedural summary rules (DESIGN.md §14) -----------------


def _toplevel_named_calls(source: str) -> List[ast.Call]:
    """Calls ``f(...)`` with a plain-name callee, outside any function or
    lambda body (calls inside bodies belong to the callee's summary)."""
    try:
        module = parse(source)
    except SyntaxError:
        return []
    calls: List[ast.Call] = []

    class _Collector(ast.NodeVisitor):
        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            pass  # summary territory

        def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
            pass

        def visit_Lambda(self, node: ast.Lambda) -> None:
            pass

        def visit_Call(self, node: ast.Call) -> None:
            if isinstance(node.func, ast.Name):
                calls.append(node)
            self.generic_visit(node)

    _Collector().visit(module)
    return calls


def _describe_argument(expression: ast.expr) -> str:
    if isinstance(expression, ast.Name):
        return repr(expression.id)
    rendered = ast.unparse(expression)
    if len(rendered) > 40:
        rendered = rendered[:37] + "..."
    return repr(rendered)


def _mutated_bindings(
    call: ast.Call, summary: FunctionSummary
) -> List[Tuple[str, str]]:
    """(parameter, argument description) pairs for arguments bound to
    parameters the callee's body may mutate in place."""
    mutated = set(summary.mutated_params)
    pairs: List[Tuple[str, str]] = []
    params = list(summary.params)
    for position, argument in enumerate(call.args):
        if isinstance(argument, ast.Starred):
            break  # later positional alignment is unknown
        parameter = (
            params[position] if position < len(params) else summary.vararg
        )
        if parameter is not None and parameter in mutated:
            pairs.append((parameter, _describe_argument(argument)))
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in mutated:
            pairs.append((keyword.arg, _describe_argument(keyword.value)))
    return pairs


class HelperArgumentMutationRule(NotebookLintRule):
    rule_id = "KSH401"
    severity = Severity.WARNING
    description = (
        "call lets a helper mutate caller state in place (argument or "
        "global)"
    )

    def check_notebook(self, notebook: NotebookContext) -> Iterator[Finding]:
        table = notebook.summaries
        if table is None:
            return
        for cell in notebook.cells:
            if not cell.executed:
                continue
            view = table.view_as_run(cell.index, cell.source)
            for call in _toplevel_named_calls(cell.source):
                assert isinstance(call.func, ast.Name)
                summary = view.get(call.func.id)
                if summary is None:
                    continue
                span = Span.of(call)
                for parameter, argument in _mutated_bindings(call, summary):
                    yield self.cell_finding(
                        cell,
                        f"call to {summary.name}() may mutate argument "
                        f"{argument} in place (parameter {parameter!r}); "
                        "the change is attributed to this cell's delta",
                        span,
                    )
                for name in sorted(summary.global_mutations):
                    yield self.cell_finding(
                        cell,
                        f"call to {summary.name}() may mutate global "
                        f"{name!r} in place; the change is attributed to "
                        "this cell's delta",
                        span,
                    )


class HelperHiddenEffectRule(NotebookLintRule):
    rule_id = "KSH402"
    severity = Severity.WARNING
    description = (
        "call reaches helper code that defeats namespace tracking"
    )

    def check_notebook(self, notebook: NotebookContext) -> Iterator[Finding]:
        table = notebook.summaries
        if table is None:
            return
        for cell in notebook.cells:
            if not cell.executed:
                continue
            view = table.view_as_run(cell.index, cell.source)
            for call in _toplevel_named_calls(cell.source):
                assert isinstance(call.func, ast.Name)
                summary = view.get(call.func.id)
                if summary is None or not summary.escapes:
                    continue
                kinds = ", ".join(
                    sorted({escape.kind.value for escape in summary.escapes})
                )
                surfacing = any(
                    escape.kind is not EscapeKind.HIDDEN_GLOBAL_STORE
                    or summary.calls_unknown
                    for escape in summary.escapes
                )
                if surfacing:
                    tail = (
                        "this cell's detection is escalated to "
                        "check-all mode"
                    )
                else:
                    tail = (
                        "the hidden stores are bounded by the summary "
                        "and folded into this cell's write set"
                    )
                yield self.cell_finding(
                    cell,
                    f"call to {summary.name}() reaches code that defeats "
                    f"tracking ({kinds}); {tail}",
                    Span.of(call),
                )


class SummaryInvalidationRule(NotebookLintRule):
    rule_id = "KSH403"
    severity = Severity.INFO
    description = (
        "rebinding invalidates a function summary; later calls use the "
        "conservative analysis"
    )

    def check_notebook(self, notebook: NotebookContext) -> Iterator[Finding]:
        table = notebook.summaries
        if table is None:
            return
        for record in table.invalidations:
            if not 0 <= record.cell_index < len(notebook.cells):
                continue
            cell = notebook.cells[record.cell_index]
            base = record.name.split(".", 1)[0]
            yield self.cell_finding(
                cell,
                f"{record.name!r} loses its function summary here "
                f"({record.reason}); later calls fall back to the "
                "conservative unknown-callee analysis",
                _first_store_span(cell.source, base),
            )


# -- KSH50x: library effect stub rules (DESIGN.md §15) ---------------------


def _toplevel_calls(source: str) -> List[ast.Call]:
    """All calls outside any function or lambda body, in source order —
    attribute callees included (the KSH50x rules care about
    ``df.sort_values(...)`` as much as ``loads(...)``)."""
    try:
        module = parse(source)
    except SyntaxError:
        return []
    calls: List[ast.Call] = []

    class _Collector(ast.NodeVisitor):
        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            pass  # the summaries fixpoint resolves body calls

        def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
            pass

        def visit_Lambda(self, node: ast.Lambda) -> None:
            pass

        def visit_Call(self, node: ast.Call) -> None:
            calls.append(node)
            self.generic_visit(node)

    _Collector().visit(module)
    return calls


def _parse_or_none(source: str) -> Optional[ast.Module]:
    try:
        return parse(source)
    except SyntaxError:
        return None


class StubMutationRule(NotebookLintRule):
    rule_id = "KSH501"
    severity = Severity.INFO
    description = (
        "library call mutates caller state per its effect stub"
    )

    def check_notebook(self, notebook: NotebookContext) -> Iterator[Finding]:
        context = notebook.stubs
        if context is None:
            return
        for cell in notebook.cells:
            if not cell.executed:
                continue
            module = _parse_or_none(cell.source)
            if module is None:
                continue
            resolver = context.resolver_as_run(cell.index, module)
            for call in _toplevel_calls(cell.source):
                resolved = resolver.resolve_call(call)
                if resolved is None:
                    continue
                stub = resolved.stub
                span = Span.of(call)
                if resolved.receiver is not None and stub_call_mutates(
                    stub, call
                ):
                    yield self.cell_finding(
                        cell,
                        f"call to {resolved.qualname}() mutates "
                        f"{resolved.receiver!r} in place (per its effect "
                        "stub); the change is attributed to this cell's "
                        "delta",
                        span,
                    )
                for position in stub.mutates_args:
                    if position < len(call.args):
                        argument = _describe_argument(call.args[position])
                        yield self.cell_finding(
                            cell,
                            f"call to {resolved.qualname}() mutates "
                            f"argument {argument} in place (per its effect "
                            "stub)",
                            span,
                        )
                for name in stub.writes_globals:
                    yield self.cell_finding(
                        cell,
                        f"call to {resolved.qualname}() writes global "
                        f"{name!r} behind namespace tracking (per its "
                        "effect stub); the write is folded into this "
                        "cell's write set",
                        span,
                    )


class UnstubbedLibraryCallRule(NotebookLintRule):
    rule_id = "KSH502"
    severity = Severity.WARNING
    description = (
        "library-shaped call has no effect stub; the conservative "
        "treatment applies"
    )

    def check_notebook(self, notebook: NotebookContext) -> Iterator[Finding]:
        context = notebook.stubs
        if context is None:
            return
        for cell in notebook.cells:
            if not cell.executed:
                continue
            module = _parse_or_none(cell.source)
            if module is None:
                continue
            resolver = context.resolver_as_run(cell.index, module)
            for call in _toplevel_calls(cell.source):
                if resolver.resolve_call(call) is not None:
                    continue
                unknown = resolver.unknown_library_call(call)
                if unknown is None:
                    continue
                if unknown.stub_file is not None:
                    fix = (
                        f"add an entry for it to {unknown.stub_file} to "
                        "tighten replay plans"
                    )
                else:
                    fix = (
                        "declare it in a stub file and load it with "
                        "StubRegistry.add_file() / `repro stubs check`"
                    )
                yield self.cell_finding(
                    cell,
                    f"no effect stub covers {unknown.qualname}(); the "
                    f"receiver is conservatively assumed mutated — {fix}",
                    Span.of(call),
                )


class StubVersionMismatchRule(NotebookLintRule):
    rule_id = "KSH503"
    severity = Severity.WARNING
    description = (
        "stub pins a library version that disagrees with the imported "
        "module"
    )

    def check_notebook(self, notebook: NotebookContext) -> Iterator[Finding]:
        context = notebook.stubs
        if context is None:
            return
        reported: set = set()
        for cell in notebook.cells:
            if not cell.executed:
                continue
            module = _parse_or_none(cell.source)
            if module is None:
                continue
            for statement in ast.walk(module):
                if isinstance(statement, ast.Import):
                    names = [alias.name for alias in statement.names]
                elif isinstance(statement, ast.ImportFrom):
                    names = [statement.module] if statement.module else []
                else:
                    continue
                for name in names:
                    if name in reported:
                        continue
                    mismatch = context.registry.version_mismatch(name)
                    if mismatch is None:
                        continue
                    reported.add(name)
                    declared, imported = mismatch
                    yield self.cell_finding(
                        cell,
                        f"effect stubs for {name!r} declare version "
                        f"{declared} but the imported module reports "
                        f"{imported}; stub effects may be stale — the "
                        "runtime mismatch oracle remains the safety net",
                        Span.of(statement),
                    )


def default_notebook_rules() -> List[NotebookLintRule]:
    """The built-in KSH30x + KSH40x + KSH50x rule set, in rule-id order."""
    return [
        UseBeforeDefiniteDefRule(),
        DeadWriteRule(),
        ExecutionOrderRule(),
        EscapedDependencyRule(),
        HelperArgumentMutationRule(),
        HelperHiddenEffectRule(),
        SummaryInvalidationRule(),
        StubMutationRule(),
        UnstubbedLibraryCallRule(),
        StubVersionMismatchRule(),
    ]
