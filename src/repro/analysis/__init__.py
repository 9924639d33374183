"""Static cell-effect analysis (DESIGN.md §8).

A standalone static-analysis subsystem over notebook cells:

* :func:`analyze_cell` — AST-based effect analysis producing per-cell
  read/write/delete sets (definite vs. conditional) and an escape report
  (:class:`CellEffects`);
* :class:`LintEngine` / :class:`RuleRegistry` — a lint layer with stable
  rule ids, severities, and suppression comments, surfaced as ``%lint``
  in the REPL and ``repro lint`` on the command line;
* :class:`CrossValidator` — runtime cross-validation of Lemma 1,
  escalating cells whose access records cannot be trusted;
* :class:`ReadOnlyCellAnalyzer` / :data:`GLOBAL_PURITY` — the §6.2
  read-only cell rule, now with user-registerable purity whitelists
  (``repro.core.rules`` re-exports these for backward compatibility);
* :class:`NotebookSummaries` / :class:`FunctionSummary` — interprocedural
  function-effect summaries (DESIGN.md §14): a per-notebook call graph
  with fixpoint effect propagation, versioned per cell and invalidated on
  rebind, expanded at call sites by :func:`analyze_cell`;
* :class:`StubRegistry` / :class:`StubContext` — library effect stubs
  (DESIGN.md §15): declarative per-callable effect models keyed by
  resolved import names, bound to receivers by a flow-insensitive local
  type tracker and consulted by :func:`analyze_cell` before any call is
  declared opaque.
"""

from repro.analysis.crossval import CrossValidator, ValidationOutcome
from repro.analysis.dataflow import (
    CellNode,
    DefUseEdge,
    EdgeKind,
    NotebookDataflowGraph,
    PlanStep,
    ReplayPlan,
    ReplayPlanner,
    Resolution,
    StoredVersion,
    make_cell_node,
    split_script_cells,
)
from repro.analysis.effects import CellEffects, Escape, EscapeKind, Span
from repro.analysis.flowrules import (
    NotebookContext,
    NotebookLintRule,
    default_notebook_rules,
)
from repro.analysis.reporters import (
    JsonReporter,
    TextReporter,
    finding_to_dict,
    worst_severity,
)
from repro.analysis.rules import (
    GLOBAL_PURITY,
    PURE_BUILTINS,
    PURE_METHODS,
    Finding,
    LintContext,
    LintEngine,
    LintRule,
    PurityRegistry,
    ReadOnlyCellAnalyzer,
    RuleRegistry,
    Severity,
)
from repro.analysis.stubs import (
    STUB_FORMAT_VERSION,
    CallStub,
    ModuleStubs,
    StubError,
    StubRegistry,
    TypeStub,
    default_registry,
    load_stub_file,
    parse_stub_mapping,
    shipped_stub_files,
)
from repro.analysis.summaries import (
    FunctionSummary,
    InvalidationRecord,
    NotebookSummaries,
    SummaryView,
    extract_cell_summaries,
    resolve_summaries,
)
from repro.analysis.typetrack import (
    AbstractType,
    CellResolver,
    ResolvedCall,
    StubContext,
    UnknownLibraryCall,
    stub_call_mutates,
    stub_is_pure_at,
)
from repro.analysis.visitor import EffectVisitor, analyze_cell, parse_cell

__all__ = [
    "AbstractType",
    "CallStub",
    "CellEffects",
    "CellNode",
    "CellResolver",
    "CrossValidator",
    "DefUseEdge",
    "EdgeKind",
    "EffectVisitor",
    "Escape",
    "EscapeKind",
    "Finding",
    "FunctionSummary",
    "GLOBAL_PURITY",
    "InvalidationRecord",
    "JsonReporter",
    "LintContext",
    "LintEngine",
    "LintRule",
    "ModuleStubs",
    "NotebookContext",
    "NotebookDataflowGraph",
    "NotebookLintRule",
    "NotebookSummaries",
    "PURE_BUILTINS",
    "PURE_METHODS",
    "PlanStep",
    "PurityRegistry",
    "ReadOnlyCellAnalyzer",
    "ReplayPlan",
    "ReplayPlanner",
    "ResolvedCall",
    "Resolution",
    "RuleRegistry",
    "STUB_FORMAT_VERSION",
    "Severity",
    "Span",
    "StoredVersion",
    "StubContext",
    "StubError",
    "StubRegistry",
    "SummaryView",
    "TextReporter",
    "TypeStub",
    "UnknownLibraryCall",
    "ValidationOutcome",
    "analyze_cell",
    "default_notebook_rules",
    "default_registry",
    "extract_cell_summaries",
    "finding_to_dict",
    "load_stub_file",
    "make_cell_node",
    "parse_cell",
    "parse_stub_mapping",
    "resolve_summaries",
    "shipped_stub_files",
    "split_script_cells",
    "stub_call_mutates",
    "stub_is_pure_at",
    "worst_severity",
]
