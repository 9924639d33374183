"""Lint rules, the rule registry, and the purity whitelist registry.

The lint engine turns :class:`~repro.analysis.effects.CellEffects` into
user-facing findings. Rules are small objects with an identifier, a
severity, and a ``check`` method; they live in a :class:`RuleRegistry`
that callers can extend, prune, or replace. The built-in set covers the
escape taxonomy (one rule id per
:class:`~repro.analysis.effects.EscapeKind`), syntax errors, builtin
shadowing, and a positive informational rule for provably read-only
cells.

Suppression: a cell can silence findings with comments —

* ``# kishu: disable=KSH101,KSH104`` on the offending line suppresses
  those rules for that line only;
* the same comment on the **first** line of the cell suppresses the rules
  for the whole cell;
* ``disable=all`` suppresses every rule.

The :class:`PurityRegistry` holds the callables and method names the
read-only analysis (§6.2 of the paper) treats as non-mutating. It is
user-registerable: ``GLOBAL_PURITY.register_callable("show")`` makes
``show(x)`` acceptable in read-only cells for every analyzer that uses
the global registry (the default).
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.effects import CellEffects, EscapeKind, Span
from repro.analysis.visitor import analyze_cell
from repro.parsing import parse

#: Built-in callables that cannot mutate their arguments' object graphs.
PURE_BUILTINS: FrozenSet[str] = frozenset(
    {"print", "len", "repr", "str", "type", "id", "abs", "min", "max",
     "sum", "sorted", "list", "dict", "tuple", "set", "format", "round",
     "any", "all", "isinstance", "hash", "bool", "int", "float"}
)

#: Method names conventionally non-mutating in data-science libraries
#: (the paper's ``df.head`` example). Conservative: a library *could*
#: define a mutating ``head``, so the set is user-extensible.
PURE_METHODS: FrozenSet[str] = frozenset(
    {"head", "tail", "describe", "info", "keys", "values", "items",
     "mean", "sum", "min", "max", "std", "count", "copy", "hexdigest"}
)


class PurityRegistry:
    """User-registerable whitelists of pure callables and methods."""

    def __init__(
        self,
        builtins: Optional[Iterable[str]] = None,
        methods: Optional[Iterable[str]] = None,
    ) -> None:
        self._builtins = set(PURE_BUILTINS if builtins is None else builtins)
        self._methods = set(PURE_METHODS if methods is None else methods)

    def register_callable(self, name: str) -> None:
        """Declare ``name(...)`` non-mutating for read-only analysis."""
        self._builtins.add(name)

    def register_method(self, name: str) -> None:
        """Declare ``obj.name(...)`` non-mutating for read-only analysis."""
        self._methods.add(name)

    def unregister_callable(self, name: str) -> None:
        self._builtins.discard(name)

    def unregister_method(self, name: str) -> None:
        self._methods.discard(name)

    def is_pure_callable(self, name: str) -> bool:
        return name in self._builtins

    def is_pure_method(self, name: str) -> bool:
        return name in self._methods

    @property
    def pure_callables(self) -> FrozenSet[str]:
        return frozenset(self._builtins)

    @property
    def pure_methods(self) -> FrozenSet[str]:
        return frozenset(self._methods)


#: Process-wide default purity whitelists; analyzers constructed without
#: explicit whitelists consult this registry live, so user registrations
#: take effect everywhere.
GLOBAL_PURITY = PurityRegistry()


class ReadOnlyCellAnalyzer:
    """Statically classifies cells that provably perform no state update.

    A cell qualifies as read-only only when *every* statement is an
    expression whose AST consists of name loads, constants, subscripts,
    attribute loads, and calls whose callables the purity registry
    whitelists. Anything else — assignments, deletes, arbitrary calls,
    imports — disqualifies the cell, so skipping detection is always safe
    (§6.2 of the paper).
    """

    def __init__(
        self,
        pure_builtins: Optional[FrozenSet[str]] = None,
        pure_methods: Optional[FrozenSet[str]] = None,
        *,
        purity: Optional[PurityRegistry] = None,
    ) -> None:
        if purity is not None:
            self.purity = purity
        elif pure_builtins is None and pure_methods is None:
            # No explicit whitelists: consult the live global registry so
            # user registrations apply to every default-constructed analyzer.
            self.purity = GLOBAL_PURITY
        else:
            self.purity = PurityRegistry(builtins=pure_builtins, methods=pure_methods)

    @property
    def pure_builtins(self) -> FrozenSet[str]:
        return self.purity.pure_callables

    @property
    def pure_methods(self) -> FrozenSet[str]:
        return self.purity.pure_methods

    def is_read_only(self, source: str) -> bool:
        """True only if every statement is a provably pure expression."""
        try:
            module = parse(source)
        except SyntaxError:
            return False
        if not module.body:
            return True
        return all(
            isinstance(stmt, ast.Expr) and self._pure_expression(stmt.value)
            for stmt in module.body
        )

    def _pure_expression(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Constant, ast.Name)):
            return True
        if isinstance(node, ast.Attribute):
            return self._pure_expression(node.value)
        if isinstance(node, ast.Subscript):
            return self._pure_expression(node.value) and self._pure_slice(node.slice)
        if isinstance(node, (ast.Tuple, ast.List)):
            return all(self._pure_expression(item) for item in node.elts)
        if isinstance(node, ast.BinOp):
            return self._pure_expression(node.left) and self._pure_expression(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._pure_expression(node.operand)
        if isinstance(node, ast.Compare):
            return self._pure_expression(node.left) and all(
                self._pure_expression(comp) for comp in node.comparators
            )
        if isinstance(node, ast.Call):
            return self._pure_call(node)
        if isinstance(node, ast.JoinedStr):
            return all(
                self._pure_expression(value.value)
                for value in node.values
                if isinstance(value, ast.FormattedValue)
            )
        return False

    def _pure_slice(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Slice):
            parts = (node.lower, node.upper, node.step)
            return all(part is None or self._pure_expression(part) for part in parts)
        return self._pure_expression(node)

    def _pure_call(self, node: ast.Call) -> bool:
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            return False
        arguments_pure = all(
            self._pure_expression(arg) for arg in node.args
        ) and all(
            keyword.value is not None and self._pure_expression(keyword.value)
            for keyword in node.keywords
        )
        if not arguments_pure:
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return self.purity.is_pure_callable(func.id)
        if isinstance(func, ast.Attribute):
            return self.purity.is_pure_method(func.attr) and self._pure_expression(
                func.value
            )
        return False


# ---------------------------------------------------------------------------
# Lint engine
# ---------------------------------------------------------------------------


class Severity(enum.IntEnum):
    """Finding severities, ordered so ``max()`` picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One lint finding anchored to a source span.

    ``cell_index`` places the finding in an execution history when the
    lint ran over a whole notebook (``-1`` for single-cell lints); it is
    the primary sort key so multi-cell output is deterministic.
    """

    rule_id: str
    severity: Severity
    message: str
    span: Span
    label: str = "<cell>"
    cell_index: int = -1

    @property
    def sort_key(self) -> Tuple[int, int, int, str]:
        return (self.cell_index, self.span.line, self.span.col, self.rule_id)

    def format(self) -> str:
        return (
            f"{self.label}:{self.span.line}:{self.span.col}: "
            f"{self.severity} {self.rule_id}: {self.message}"
        )


@dataclass(frozen=True)
class LintContext:
    """Everything a rule may inspect about one cell."""

    source: str
    effects: CellEffects
    tree: Optional[ast.Module]
    label: str
    cell_index: int = -1


class LintRule:
    """Base class for lint rules.

    Subclasses set ``rule_id`` (stable, ``KSH###``), ``severity``, and
    ``description``, and yield :class:`Finding` values from :meth:`check`.
    """

    rule_id: str = "KSH000"
    severity: Severity = Severity.WARNING
    description: str = ""

    def check(self, context: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, context: LintContext, message: str, span: Span) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            span=span,
            label=context.label,
            cell_index=context.cell_index,
        )


class SyntaxErrorRule(LintRule):
    rule_id = "KSH100"
    severity = Severity.ERROR
    description = "cell does not parse"

    def check(self, context: LintContext) -> Iterator[Finding]:
        if context.effects.syntax_error is not None:
            yield self.finding(
                context,
                f"syntax error: {context.effects.syntax_error}",
                Span(1, 0, 1, 0),
            )


class EscapeRule(LintRule):
    """One rule per escape kind; subclasses pin ``kind`` and ``rule_id``."""

    kind: EscapeKind = EscapeKind.EXEC_EVAL
    severity = Severity.WARNING

    def check(self, context: LintContext) -> Iterator[Finding]:
        for escape in context.effects.escapes_of(self.kind):
            yield self.finding(
                context,
                f"{escape.detail} defeats namespace access tracking; "
                "this cell will be escalated to full update detection",
                escape.span,
            )


class ExecEvalRule(EscapeRule):
    rule_id = "KSH101"
    kind = EscapeKind.EXEC_EVAL
    description = "exec/eval/compile runs code the tracker cannot see"


class NamespaceIntrospectionRule(EscapeRule):
    rule_id = "KSH102"
    kind = EscapeKind.NAMESPACE_INTROSPECTION
    description = "globals()/locals()/vars() bypasses access recording"


class DynamicImportRule(EscapeRule):
    rule_id = "KSH103"
    kind = EscapeKind.DYNAMIC_IMPORT
    description = "importlib/__import__ loads modules under computed names"


class StarImportRule(EscapeRule):
    rule_id = "KSH104"
    kind = EscapeKind.STAR_IMPORT
    description = "star imports bind a statically unknowable name set"


class NameReflectionRule(EscapeRule):
    rule_id = "KSH105"
    kind = EscapeKind.NAME_REFLECTION
    description = "setattr/delattr mutates attributes under computed names"


class FrameIntrospectionRule(EscapeRule):
    rule_id = "KSH106"
    kind = EscapeKind.FRAME_INTROSPECTION
    description = "frame introspection reaches the namespace sideways"


class ModulePatchRule(EscapeRule):
    rule_id = "KSH107"
    kind = EscapeKind.MODULE_PATCH
    description = "module attribute assignment is process-global state"


class HiddenGlobalStoreRule(EscapeRule):
    rule_id = "KSH108"
    kind = EscapeKind.HIDDEN_GLOBAL_STORE
    description = (
        "global stores from nested scopes compile to STORE_GLOBAL, "
        "which namespace patching cannot observe"
    )


class BuiltinShadowRule(LintRule):
    rule_id = "KSH110"
    severity = Severity.WARNING
    description = "cell rebinds a builtin the read-only analysis trusts"

    def check(self, context: LintContext) -> Iterator[Finding]:
        shadowed = sorted(context.effects.all_writes & PURE_BUILTINS)
        for name in shadowed:
            yield self.finding(
                context,
                f"assignment shadows builtin {name!r}; read-only cell "
                "analysis treats calls to it as pure",
                Span(1, 0, 1, 0),
            )


class ReadOnlyInfoRule(LintRule):
    rule_id = "KSH201"
    severity = Severity.INFO
    description = "cell is provably read-only (detection will be skipped)"

    def __init__(self, analyzer: Optional[ReadOnlyCellAnalyzer] = None) -> None:
        self.analyzer = analyzer if analyzer is not None else ReadOnlyCellAnalyzer()

    def check(self, context: LintContext) -> Iterator[Finding]:
        if context.source.strip() and self.analyzer.is_read_only(context.source):
            yield self.finding(
                context,
                "cell is provably read-only; update detection can be skipped",
                Span(1, 0, 1, 0),
            )


class RuleRegistry:
    """Ordered, id-keyed collection of lint rules."""

    def __init__(self, rules: Optional[Iterable[LintRule]] = None) -> None:
        self._rules: Dict[str, LintRule] = {}
        for rule in rules or ():
            self.register(rule)

    @classmethod
    def default(cls) -> "RuleRegistry":
        return cls(
            [
                SyntaxErrorRule(),
                ExecEvalRule(),
                NamespaceIntrospectionRule(),
                DynamicImportRule(),
                StarImportRule(),
                NameReflectionRule(),
                FrameIntrospectionRule(),
                ModulePatchRule(),
                HiddenGlobalStoreRule(),
                BuiltinShadowRule(),
                ReadOnlyInfoRule(),
            ]
        )

    def register(self, rule: LintRule) -> None:
        self._rules[rule.rule_id] = rule

    def unregister(self, rule_id: str) -> None:
        self._rules.pop(rule_id, None)

    def get(self, rule_id: str) -> Optional[LintRule]:
        return self._rules.get(rule_id)

    def rules(self) -> List[LintRule]:
        return list(self._rules.values())

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __len__(self) -> int:
        return len(self._rules)


_SUPPRESSION = re.compile(r"#\s*kishu:\s*disable\s*=\s*([A-Za-z0-9_,\s]+)")


def _suppressions(source: str) -> Tuple[FrozenSet[str], Dict[int, FrozenSet[str]]]:
    """Cell-wide and per-line suppressed rule ids from magic comments."""
    cell_wide: FrozenSet[str] = frozenset()
    per_line: Dict[int, FrozenSet[str]] = {}
    for index, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION.search(line)
        if not match:
            continue
        ids = frozenset(
            token.strip().upper()
            for token in match.group(1).split(",")
            if token.strip()
        )
        per_line[index] = ids
        if index == 1:
            cell_wide = ids
    return cell_wide, per_line


class LintEngine:
    """Applies a rule registry to cell sources."""

    def __init__(self, registry: Optional[RuleRegistry] = None) -> None:
        self.registry = registry if registry is not None else RuleRegistry.default()

    def lint_source(
        self, source: str, label: str = "<cell>", *, cell_index: int = -1
    ) -> List[Finding]:
        """Lint one cell, honouring suppression comments."""
        effects = analyze_cell(source)
        try:
            tree: Optional[ast.Module] = parse(source)
        except SyntaxError:
            tree = None
        context = LintContext(
            source=source,
            effects=effects,
            tree=tree,
            label=label,
            cell_index=cell_index,
        )
        cell_wide, per_line = _suppressions(source)
        findings: List[Finding] = []
        for rule in self.registry.rules():
            for finding in rule.check(context):
                if self._suppressed(finding, cell_wide, per_line):
                    continue
                findings.append(finding)
        findings.sort(key=lambda f: (f.span.line, f.span.col, f.rule_id))
        return findings

    def lint_cells(
        self, cells: Iterable[Tuple[str, str]]
    ) -> List[Finding]:
        """Lint ``(label, source)`` pairs, concatenating the findings."""
        findings: List[Finding] = []
        for index, (label, source) in enumerate(cells):
            findings.extend(
                self.lint_source(source, label=label, cell_index=index)
            )
        return findings

    def lint_notebook(
        self,
        cells: Iterable[Tuple[str, str]],
        execution_counts: Optional[Iterable[int]] = None,
    ) -> List[Finding]:
        """Lint ``(label, source)`` pairs as one execution history.

        Runs every per-cell rule on each cell *plus* the whole-notebook
        KSH30x rules over the inter-cell dataflow graph. Findings are
        globally sorted by (cell index, line, column, rule id) so the
        output is byte-stable across runs. Suppression comments in a
        cell silence notebook-level findings anchored to that cell,
        exactly as they do per-cell findings.
        """
        # Imported lazily: flowrules imports Finding/LintRule from here.
        from repro.analysis.dataflow import make_cell_node
        from repro.analysis.flowrules import (
            NotebookContext,
            default_notebook_rules,
        )

        pairs = list(cells)
        counts = (
            tuple(execution_counts) if execution_counts is not None else None
        )
        findings: List[Finding] = []
        suppressions: List[Tuple[FrozenSet[str], Dict[int, FrozenSet[str]]]] = []
        nodes = []
        for index, (label, source) in enumerate(pairs):
            findings.extend(
                self.lint_source(source, label=label, cell_index=index)
            )
            suppressions.append(_suppressions(source))
            nodes.append(make_cell_node(index, source, label=label))
        from repro.analysis.dataflow import NotebookDataflowGraph
        from repro.analysis.summaries import NotebookSummaries
        from repro.analysis.typetrack import StubContext

        graph = NotebookDataflowGraph(nodes)
        # The KSH40x rules need the interprocedural summary table, the
        # KSH50x rules the stub type environment; the KSH30x graph stays
        # intraprocedural so its findings do not shift with either layer.
        summaries = NotebookSummaries.from_sources(
            [source for _, source in pairs], stubs=StubContext()
        )
        notebook = NotebookContext(
            graph=graph, execution_counts=counts, summaries=summaries,
            stubs=summaries.stubs,
        )
        for rule in default_notebook_rules():
            for finding in rule.check_notebook(notebook):
                if 0 <= finding.cell_index < len(suppressions):
                    cell_wide, per_line = suppressions[finding.cell_index]
                    if self._suppressed(finding, cell_wide, per_line):
                        continue
                findings.append(finding)
        findings.sort(key=lambda f: f.sort_key)
        return findings

    @staticmethod
    def _suppressed(
        finding: Finding,
        cell_wide: FrozenSet[str],
        per_line: Dict[int, FrozenSet[str]],
    ) -> bool:
        for scope in (cell_wide, per_line.get(finding.span.line, frozenset())):
            if "ALL" in scope or finding.rule_id.upper() in scope:
                return True
        return False
