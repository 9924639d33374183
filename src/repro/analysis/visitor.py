"""AST visitor computing per-cell effect sets (DESIGN.md §8).

:func:`analyze_cell` parses a cell and walks it with :class:`EffectVisitor`
to produce a :class:`~repro.analysis.effects.CellEffects`. The visitor
tracks two orthogonal dimensions:

* **scope** — a stack of module / class / function / lambda / comprehension
  scopes, each with its pre-collected local-binding set, so that only
  accesses resolving to the cell's global namespace are reported (a
  function-local ``x = 1`` is not a cell write; a ``global x; x = 1`` is);
* **conditionality** — a nesting counter incremented inside any region a
  successful execution may skip (branch arms, loop bodies, ``try`` bodies
  and handlers, short-circuit tails, comprehension elements, function and
  lambda bodies). Accesses at depth zero are *definite*; the runtime
  cross-validator may safely require them to appear in the access record.

Escape hatches (``exec``, ``globals()``, star imports, ``setattr``, frame
introspection, same-cell module patching) are reported with their spans;
see :class:`~repro.analysis.effects.EscapeKind` for the taxonomy.
"""

from __future__ import annotations

import ast
import builtins
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.effects import CellEffects, Escape, EscapeKind, Span
from repro.analysis.typetrack import (
    INSTANCE,
    CellResolver,
    ResolvedCall,
    StubContext,
    stub_call_mutates,
)
from repro.parsing import parse

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.analysis.summaries import FunctionSummary, SummaryView

#: Callables whose invocation executes code the AST cannot see.
EXEC_EVAL_NAMES = frozenset({"exec", "eval", "compile"})
#: Callables returning the raw namespace mapping.
NAMESPACE_NAMES = frozenset({"globals", "locals", "vars"})
#: Callables that rebind or unbind attributes under computed names.
REFLECTION_NAMES = frozenset({"setattr", "delattr"})
#: Names through which modules are loaded dynamically.
DYNAMIC_IMPORT_NAMES = frozenset({"__import__", "importlib"})
#: Attribute names that reach interpreter frames or raw ``__dict__``s.
FRAME_ATTRS = frozenset(
    {"_getframe", "currentframe", "f_globals", "f_locals", "f_back",
     "tb_frame", "gi_frame", "__globals__"}
)

_SCOPE_MODULE = "module"
_SCOPE_CLASS = "class"
_SCOPE_FUNCTION = "function"
_SCOPE_LAMBDA = "lambda"
_SCOPE_COMPREHENSION = "comprehension"

#: Scope kinds whose bindings are invisible to nested scopes when
#: resolving reads (class bodies do not form closures).
_CLOSURE_SCOPES = (_SCOPE_FUNCTION, _SCOPE_LAMBDA, _SCOPE_COMPREHENSION)


class _Scope:
    """One lexical scope with its statically collected binding set."""

    __slots__ = ("kind", "local_names", "global_names")

    def __init__(self, kind: str, local_names: Set[str], global_names: Set[str]) -> None:
        self.kind = kind
        self.local_names = local_names
        self.global_names = global_names


def _collect_bindings(
    body: Sequence[ast.stmt], params: Sequence[str] = ()
) -> Tuple[Set[str], Set[str]]:
    """Names bound locally in a scope body, and names declared ``global``.

    Mirrors the compiler's symbol-table pass closely enough for effect
    analysis: assignment targets, ``for``/``with``/``except`` binders,
    imports, nested ``def``/``class`` names, walrus targets (which bind in
    the nearest non-comprehension scope, so walruses inside comprehensions
    still land here), and ``match`` captures. Does not descend into nested
    function/class/lambda bodies — their bindings are their own.
    """
    local_names: Set[str] = set(params)
    global_names: Set[str] = set()

    def collect_target(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            local_names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                collect_target(element)
        elif isinstance(target, ast.Starred):
            collect_target(target.value)

    def collect_expr(node: ast.expr) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Lambda):
                continue  # bindings inside belong to the lambda
            if isinstance(child, ast.NamedExpr) and isinstance(
                child.target, ast.Name
            ):
                local_names.add(child.target.id)

    def collect_stmt(stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            local_names.add(stmt.name)
            for decorator in stmt.decorator_list:
                collect_expr(decorator)
            return  # do not descend into the nested body
        if isinstance(stmt, ast.Global):
            global_names.update(stmt.names)
            return
        if isinstance(stmt, ast.Nonlocal):
            # Binds in an enclosing function; not local here, not global.
            return
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                collect_target(target)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                collect_target(stmt.target)
        elif isinstance(stmt, ast.AugAssign):
            collect_target(stmt.target)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            collect_target(stmt.target)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    collect_target(item.optional_vars)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local_names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                if alias.name != "*":
                    local_names.add(alias.asname or alias.name)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                collect_target(target)
        # Walrus targets hide anywhere an expression can appear.
        for child_expr in ast.iter_child_nodes(stmt):
            if isinstance(child_expr, ast.expr):
                collect_expr(child_expr)
        # Recurse into nested statement blocks of compound statements.
        for field_name in ("body", "orelse", "finalbody"):
            nested = getattr(stmt, field_name, None)
            if isinstance(nested, list):
                for nested_stmt in nested:
                    if isinstance(nested_stmt, ast.stmt):
                        collect_stmt(nested_stmt)
        for handler in getattr(stmt, "handlers", []) or []:
            if isinstance(handler, ast.ExceptHandler):
                if handler.name:
                    local_names.add(handler.name)
                for nested_stmt in handler.body:
                    collect_stmt(nested_stmt)
        match_cases = getattr(stmt, "cases", None)
        if match_cases:
            for case in match_cases:
                for pattern_node in ast.walk(case.pattern):
                    captured = getattr(pattern_node, "name", None)
                    if isinstance(captured, str):
                        local_names.add(captured)
                for nested_stmt in case.body:
                    collect_stmt(nested_stmt)

    for statement in body:
        collect_stmt(statement)
    local_names -= global_names
    return local_names, global_names


def is_summarizable_def(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> bool:
    """Whether a def's body effects can live in a function summary.

    Decorated functions are excluded: a decorator may call the body at
    definition time or replace the function with something whose effects
    the summary does not describe, so their body escapes stay pinned to
    the def cell exactly as before PR 8.
    """
    return not node.decorator_list


class EffectVisitor(ast.NodeVisitor):
    """Computes the :class:`CellEffects` of one parsed cell.

    When ``summaries`` is provided (a resolved per-cell
    :class:`~repro.analysis.summaries.SummaryView`), the visitor becomes
    interprocedural: a call ``f(x)`` to a summarized helper expands to the
    helper's global effects at the call site, and escapes found inside
    summarizable top-level def bodies are *deferred* — they resurface at
    call sites through the summary instead of escalating the def cell
    (where the body never ran).
    """

    def __init__(
        self,
        summaries: "Optional[SummaryView]" = None,
        stubs: Optional[CellResolver] = None,
    ) -> None:
        self.effects = CellEffects()
        self._summaries = summaries
        #: Per-cell stub resolver (library effect stubs, DESIGN.md §15);
        #: ``None`` disables stub consultation entirely.
        self._stubs = stubs
        self._escapes: List[Escape] = []
        self._deferred: List[Escape] = []
        self._scopes: List[_Scope] = []
        self._conditional_depth = 0
        #: >0 while visiting the body of a summarizable top-level def;
        #: name effects are skipped (they belong to the summary) and
        #: escapes are routed to the deferred list.
        self._defer_depth = 0
        #: Module names imported by this cell; attribute assignment on one
        #: of these is flagged as a module-patch escape.
        self._imported_modules: Set[str] = set()
        #: ids of Name nodes serving as the direct callee of a Call, and
        #: of sole-RHS Names of simple top-level alias assignments — loads
        #: exempt from the unsafe-summary aliasing check.
        self._callee_name_ids: Set[int] = set()
        self._alias_rhs_ids: Set[int] = set()

    # -- entry point -------------------------------------------------------

    def analyze(self, module: ast.Module) -> CellEffects:
        local_names, global_names = _collect_bindings(module.body)
        self._scopes = [_Scope(_SCOPE_MODULE, local_names, global_names)]
        for statement in module.body:
            self.visit(statement)
        self.effects.escapes = tuple(self._escapes)
        self.effects.deferred_escapes = tuple(self._deferred)
        return self.effects

    # -- scope and conditionality helpers ----------------------------------

    @contextmanager
    def _scope(self, kind: str, local_names: Set[str], global_names: Set[str]) -> Iterator[None]:
        self._scopes.append(_Scope(kind, local_names, global_names))
        try:
            yield
        finally:
            self._scopes.pop()

    @contextmanager
    def _conditional(self) -> Iterator[None]:
        self._conditional_depth += 1
        try:
            yield
        finally:
            self._conditional_depth -= 1

    @property
    def _definite(self) -> bool:
        return self._conditional_depth == 0

    def _resolves_global(self, name: str) -> bool:
        """True when a Load of ``name`` can reach the cell's globals."""
        for index in range(len(self._scopes) - 1, -1, -1):
            scope = self._scopes[index]
            if name in scope.global_names:
                return True
            if scope.kind == _SCOPE_CLASS and index != len(self._scopes) - 1:
                continue  # class bindings are invisible to nested scopes
            if name in scope.local_names:
                return scope.kind == _SCOPE_MODULE
        return True  # unbound anywhere -> global (or builtin) lookup

    def _binds_global(self, name: str, *, skip_comprehensions: bool = False) -> bool:
        """True when a Store/Del of ``name`` rebinds the cell's globals."""
        for index in range(len(self._scopes) - 1, -1, -1):
            scope = self._scopes[index]
            if skip_comprehensions and scope.kind == _SCOPE_COMPREHENSION:
                continue
            if name in scope.global_names:
                return True
            return scope.kind == _SCOPE_MODULE
        return True

    # -- effect recording --------------------------------------------------

    def _read(self, name: str) -> None:
        if self._defer_depth:
            return  # belongs to the enclosing def's summary
        if self._resolves_global(name):
            (self.effects.reads if self._definite
             else self.effects.conditional_reads).add(name)

    def _write(
        self,
        name: str,
        node: Optional[ast.AST] = None,
        *,
        skip_comprehensions: bool = False,
    ) -> None:
        if self._binds_global(name, skip_comprehensions=skip_comprehensions):
            if not self._defer_depth:
                (self.effects.writes if self._definite
                 else self.effects.conditional_writes).add(name)
            self._check_hidden_global_store(name, node, "assignment to")

    def _delete(self, name: str, node: Optional[ast.AST] = None) -> None:
        if self._binds_global(name):
            if not self._defer_depth:
                (self.effects.deletes if self._definite
                 else self.effects.conditional_deletes).add(name)
            self._check_hidden_global_store(name, node, "deletion of")

    def _check_hidden_global_store(
        self, name: str, node: Optional[ast.AST], action: str
    ) -> None:
        # A global-binding store issued from inside a nested scope compiles
        # to STORE_GLOBAL / DELETE_GLOBAL, which bypasses the patched
        # dict's __setitem__ / __delitem__ — the rebinding leaves no trace
        # in the access record, so it must be treated as an escape.
        if node is not None and self._scopes[-1].kind != _SCOPE_MODULE:
            self._escape(
                EscapeKind.HIDDEN_GLOBAL_STORE,
                node,
                f"{action} global {name!r} from a nested scope "
                "(compiles to STORE_GLOBAL, invisible to tracking)",
            )

    def _escape(self, kind: EscapeKind, node: ast.AST, detail: str) -> None:
        escape = Escape(kind=kind, span=Span.of(node), detail=detail)
        if self._defer_depth:
            self._deferred.append(escape)
        else:
            self._escapes.append(escape)

    # -- interprocedural expansion (summary mode) ---------------------------

    def _interprocedural_here(self) -> bool:
        """True when code at the current scope executes at cell time.

        Calls inside function/lambda bodies run (if ever) at call time —
        their effects belong to the enclosing function's summary, not to
        this cell — so expansion applies only outside such scopes.
        Comprehension and class-body scopes execute eagerly and qualify.
        """
        return self._summaries is not None and not any(
            scope.kind in (_SCOPE_FUNCTION, _SCOPE_LAMBDA)
            for scope in self._scopes
        )

    def _summary_for(self, name: str) -> "Optional[FunctionSummary]":
        if self._summaries is None or not self._resolves_global(name):
            return None
        return self._summaries.get(name)

    def _expand_call(self, node: ast.Call, summary: "FunctionSummary") -> None:
        """Fold a summarized callee's effects into this cell at the call.

        Everything lands in the *conditional* sets: body paths are
        branch-dependent, and summary-expanded accesses must never become
        definite (a definite access the runtime record lacks would
        escalate the cell — reads from called bodies *are* recorded by
        the patched namespace, but only on executed paths).
        """
        effects = self.effects
        effects.summary_expansions += 1
        effects.summary_reads |= summary.reads
        effects.conditional_reads |= summary.reads
        effects.summary_writes |= summary.writes
        effects.conditional_writes |= summary.writes
        effects.summary_deletes |= summary.deletes
        effects.conditional_deletes |= summary.deletes
        effects.summary_mutations |= summary.global_mutations
        effects.conditional_reads |= summary.global_mutations
        for escape in summary.escapes:
            if (
                escape.kind is EscapeKind.HIDDEN_GLOBAL_STORE
                and not summary.calls_unknown
            ):
                # Compensated: the store targets are all in the summary's
                # transitive write/delete sets (the same fixpoint produced
                # both), which the session folds into the runtime record —
                # targeted detection covers them without check-all
                # escalation. Only an unknown callee, whose stores the
                # fixpoint cannot bound, forces the escape through.
                continue
            self._escape(
                escape.kind,
                node,
                f"call to {summary.name}() reaches: {escape.detail}",
            )
        # Map call arguments onto parameters the body may mutate, and
        # surface callback effects for parameters the body may invoke.
        self._expand_call_args(node, summary)

    def _expand_call_args(
        self, node: ast.Call, summary: "FunctionSummary"
    ) -> None:
        params: Tuple[str, ...] = summary.params
        kwonly: Tuple[str, ...] = summary.kwonly
        vararg = summary.vararg
        kwarg = summary.kwarg
        mutated_params = summary.mutated_params
        calls_params = summary.calls_params
        has_star = any(isinstance(arg, ast.Starred) for arg in node.args) or any(
            keyword.arg is None for keyword in node.keywords
        )

        pairs: List[Tuple[Optional[str], ast.expr]] = []
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                pairs.append((None, arg.value))
            elif position < len(params):
                pairs.append((params[position], arg))
            else:
                pairs.append((vararg, arg))
        for keyword in node.keywords:
            if keyword.arg is None:
                pairs.append((None, keyword.value))
            elif keyword.arg in params or keyword.arg in kwonly:
                pairs.append((keyword.arg, keyword.value))
            else:
                pairs.append((kwarg, keyword.value))

        for param, expression in pairs:
            mutates = (
                param in mutated_params
                if (param is not None and not has_star)
                else bool(mutated_params)
            )
            if mutates:
                for arg_name in self._global_names_in(expression):
                    self.effects.summary_mutations.add(arg_name)
            invokes = (
                param in calls_params
                if (param is not None and not has_star)
                else bool(calls_params)
            )
            if invokes and isinstance(expression, ast.Name):
                callback = self._summary_for(expression.id)
                if callback is not None and callback is not summary:
                    self._expand_call(node, callback)

    def _global_names_in(self, expression: ast.expr) -> List[str]:
        names: List[str] = []
        for child in ast.walk(expression):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if self._resolves_global(child.id) and not hasattr(
                    builtins, child.id
                ):
                    names.append(child.id)
        return sorted(set(names))

    def _check_summary_alias(self, node: ast.Name) -> None:
        """Fold a helper loaded in non-call position into this cell.

        ``cb = helper`` feeding a tracked alias assignment is exempt (the
        summary table follows simple aliases); any other non-callee load
        — passed as a callback to ``map``/``sorted``, stored in a
        structure — may lead to an invocation the analysis cannot see,
        possibly *within this very cell*. The helper's full summary folds
        in conservatively: its reads/writes/mutations become the cell's
        (conditional) effects and its deferred escapes surface here —
        the closure that keeps def-site deferral sound.
        """
        if id(node) in self._callee_name_ids:
            return  # direct callees escalate in visit_Call when stale
        if not self._interprocedural_here():
            return
        summary = self._summary_for(node.id)
        if summary is None:
            if self._resolves_global(node.id) and self._summaries.is_invalidated(
                node.id
            ):
                # Applies even to a tracked ``alias = helper`` RHS: the
                # table cannot follow an alias of a *dead* summary, so
                # any load of the name may lead to an invocation with
                # unknowable effects.
                self._escape(
                    EscapeKind.STALE_SUMMARY_CALL,
                    node,
                    f"{node.id} used after its function summary was "
                    f"invalidated; effects unknown",
                )
            return
        if id(node) in self._alias_rhs_ids:
            return  # tracked alias of a live summary — the table follows it
        effects = self.effects
        effects.summary_expansions += 1
        effects.summary_reads |= summary.reads
        effects.conditional_reads |= summary.reads
        effects.summary_writes |= summary.writes
        effects.conditional_writes |= summary.writes
        effects.summary_deletes |= summary.deletes
        effects.conditional_deletes |= summary.deletes
        effects.summary_mutations |= summary.global_mutations
        effects.conditional_reads |= summary.global_mutations
        for escape in summary.escapes:
            if (
                escape.kind is EscapeKind.HIDDEN_GLOBAL_STORE
                and not summary.calls_unknown
            ):
                continue  # compensated via the folded write sets, as above
            self._escape(
                escape.kind,
                node,
                f"{node.id} aliased outside a direct call; its body "
                f"reaches: {escape.detail}",
            )

    # -- names, assignments, deletions -------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._read(node.id)
            self._check_name_escape(node)
            if self._summaries is not None:
                self._check_summary_alias(node)
        elif isinstance(node.ctx, ast.Store):
            self._write(node.id, node)
        elif isinstance(node.ctx, ast.Del):
            self._delete(node.id, node)

    def _check_name_escape(self, node: ast.Name) -> None:
        name = node.id
        if name in EXEC_EVAL_NAMES:
            self._escape(EscapeKind.EXEC_EVAL, node, f"use of {name!r}")
        elif name in NAMESPACE_NAMES:
            self._escape(
                EscapeKind.NAMESPACE_INTROSPECTION, node, f"use of {name}()"
            )
        elif name in REFLECTION_NAMES:
            self._escape(EscapeKind.NAME_REFLECTION, node, f"use of {name!r}")
        elif name in DYNAMIC_IMPORT_NAMES:
            self._escape(EscapeKind.DYNAMIC_IMPORT, node, f"use of {name!r}")

    def visit_Assign(self, node: ast.Assign) -> None:
        if (
            self._summaries is not None
            and isinstance(node.value, ast.Name)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and self._scopes[-1].kind == _SCOPE_MODULE
            and self._definite
        ):
            # ``alias = helper`` at top level: the summary table tracks
            # simple aliases, so this load is not an escape-laundering
            # position for the helper's deferred escapes.
            self._alias_rhs_ids.add(id(node.value))
        self.visit(node.value)
        for target in node.targets:
            self._visit_target(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.visit(node.annotation)
        if node.value is not None:
            self.visit(node.value)
            self._visit_target(node.target)
        # A bare ``x: int`` annotates without binding; no write results.

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if isinstance(node.target, ast.Name):
            self._read(node.target.id)
            self._write(node.target.id, node.target)
        else:
            self._visit_target(node.target)

    def _visit_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self._write(target.id, target)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._visit_target(element)
        elif isinstance(target, ast.Starred):
            self._visit_target(target.value)
        else:
            # Attribute / Subscript stores mutate through a read of the
            # root object; the patched namespace observes that read.
            # (visit_Attribute flags module-patch escapes on Store.)
            self.visit(target)

    def _check_module_patch(self, target: ast.Attribute) -> None:
        root: ast.expr = target
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in self._imported_modules:
            self._escape(
                EscapeKind.MODULE_PATCH,
                target,
                f"assignment to attribute of module {root.id!r}",
            )

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._delete(target.id, target)
            else:
                self.visit(target)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self.visit(node.value)
        if isinstance(node.target, ast.Name):
            # Walrus targets bind in the nearest non-comprehension scope.
            self._write(node.target.id, node, skip_comprehensions=True)

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            self._write(bound, node)
            self._imported_modules.add(bound)
            if alias.name.split(".")[0] == "importlib":
                self._escape(
                    EscapeKind.DYNAMIC_IMPORT, node, "import of importlib"
                )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name == "*":
                self.effects.opaque_writes = True
                self._escape(
                    EscapeKind.STAR_IMPORT,
                    node,
                    f"from {node.module or '.'} import *",
                )
            else:
                self._write(alias.asname or alias.name, node)
        if node.module and node.module.split(".")[0] == "importlib":
            self._escape(EscapeKind.DYNAMIC_IMPORT, node, "import from importlib")

    # -- calls and attributes ----------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name):
            self._callee_name_ids.add(id(node.func))
            if self._interprocedural_here():
                summary = self._summary_for(node.func.id)
                if summary is not None:
                    self._expand_call(node, summary)
                elif self._apply_stub_call(node):
                    pass  # the stub bounds the call; nothing stays opaque
                elif self._resolves_global(node.func.id) and not hasattr(
                    builtins, node.func.id
                ):
                    # Conservative top: a global, non-builtin callee with
                    # no summary (undefined here, rebound, or defined in a
                    # form the extractor does not model). Counted so the
                    # telemetry can report how much of the notebook stays
                    # opaque to interprocedural analysis.
                    self.effects.summary_unknown_calls += 1
                    if self._summaries is not None and self._summaries.is_invalidated(
                        node.func.id
                    ):
                        # Once-summarized, now dropped: the callee is user
                        # code whose current effects nothing bounds, and a
                        # hidden STORE_GLOBAL inside it would bypass both
                        # the record and the (deferred) escape machinery.
                        self._escape(
                            EscapeKind.STALE_SUMMARY_CALL,
                            node,
                            f"call to {node.func.id}() after its function "
                            f"summary was invalidated; effects unknown",
                        )
            else:
                self._apply_stub_call(node)
        elif isinstance(node.func, ast.Attribute):
            self._apply_stub_call(node)
        self.generic_visit(node)

    # -- library effect stubs (DESIGN.md §15) -------------------------------

    def _stub_here(self) -> bool:
        """Stubs resolve only for code that runs at cell time, against the
        cell-level type bindings; function/lambda bodies are handled by
        the summary extractor with its own local-name gating."""
        return self._stubs is not None and not any(
            scope.kind in (_SCOPE_FUNCTION, _SCOPE_LAMBDA)
            for scope in self._scopes
        )

    def _apply_stub_call(self, node: ast.Call) -> bool:
        """Try to bound a call through the stub registry.

        Returns True when a stub covered the call (its declared effects
        are folded in); on a *library-shaped* call no stub covers, bumps
        the ``stub_unknown_calls`` counter (KSH502's feed) and returns
        False so conservative handling proceeds.
        """
        if not self._stub_here():
            return False
        assert self._stubs is not None
        resolved = self._stubs.resolve_call(node)
        if resolved is None:
            if self._stubs.unknown_library_call(node) is not None:
                self.effects.stub_unknown_calls += 1
            return False
        self._fold_stub(node, resolved)
        return True

    def _fold_stub(self, node: ast.Call, resolved: ResolvedCall) -> None:
        effects = self.effects
        effects.stub_expansions += 1
        stub = resolved.stub
        receiver = resolved.receiver
        if receiver is not None and self._resolves_global(receiver):
            if stub_call_mutates(stub, node):
                effects.stub_mutations.add(receiver)
            elif (
                resolved.receiver_type is not None
                and resolved.receiver_type.kind == INSTANCE
                and stub.is_pure
            ):
                # A declared-pure call on a proven instance: remembered as
                # a mismatch witness for the runtime cross-check — if this
                # receiver's object graph changes and nothing else in the
                # cell explains it, the stub lied (DESIGN.md §15.3).
                effects.stub_pure_receivers.add(receiver)
        for position in stub.mutates_args:
            if position < len(node.args):
                for name in self._global_names_in(node.args[position]):
                    effects.stub_mutations.add(name)
        for written in stub.writes_globals:
            effects.stub_writes.add(written)
            effects.conditional_writes.add(written)
        if stub.escape is not None:
            self._escape(
                EscapeKind(stub.escape),
                node,
                f"stub {resolved.qualname} declares escape",
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in FRAME_ATTRS:
            self._escape(
                EscapeKind.FRAME_INTROSPECTION, node, f"access to .{node.attr}"
            )
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self._check_module_patch(node)
        self.generic_visit(node)

    # -- conditional control flow ------------------------------------------

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        with self._conditional():
            for statement in node.body:
                self.visit(statement)
            for statement in node.orelse:
                self.visit(statement)

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)  # evaluated at least once
        with self._conditional():
            for statement in node.body:
                self.visit(statement)
            for statement in node.orelse:
                self.visit(statement)

    def _visit_for(self, node: "ast.For | ast.AsyncFor") -> None:
        self.visit(node.iter)
        with self._conditional():  # zero iterations possible
            self._visit_target(node.target)
            for statement in node.body:
                self.visit(statement)
            for statement in node.orelse:
                self.visit(statement)

    def visit_For(self, node: ast.For) -> None:
        self._visit_for(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_for(node)

    def visit_Try(self, node: ast.Try) -> None:
        # The body may be cut short by the very exception the handler
        # catches, and a successful run executes at most some handlers —
        # everything but ``finally`` is conditional.
        with self._conditional():
            for statement in node.body:
                self.visit(statement)
            for handler in node.handlers:
                self.visit(handler)
            for statement in node.orelse:
                self.visit(statement)
        for statement in node.finalbody:
            self.visit(statement)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is not None:
            self.visit(node.type)
        if node.name:
            # ``except E as e`` binds then unbinds ``e`` on handler exit.
            self._write(node.name, node)
            self._delete(node.name, node)
        for statement in node.body:
            self.visit(statement)

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        self.visit(node.values[0])
        with self._conditional():  # short-circuit may skip the tail
            for value in node.values[1:]:
                self.visit(value)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        self.visit(node.test)
        with self._conditional():
            self.visit(node.body)
            self.visit(node.orelse)

    def visit_Compare(self, node: ast.Compare) -> None:
        self.visit(node.left)
        self.visit(node.comparators[0])
        with self._conditional():  # chained comparisons short-circuit
            for comparator in node.comparators[1:]:
                self.visit(comparator)

    def visit_Assert(self, node: ast.Assert) -> None:
        self.visit(node.test)
        if node.msg is not None:
            with self._conditional():
                self.visit(node.msg)

    # -- nested scopes -----------------------------------------------------

    def _visit_function(self, node: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        self._write(node.name, node)
        for decorator in node.decorator_list:
            self.visit(decorator)
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
            self.visit(default)
        for annotation_owner in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            if annotation_owner.annotation is not None:
                self.visit(annotation_owner.annotation)
        if node.returns is not None:
            self.visit(node.returns)
        params = [
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
        ]
        local_names, global_names = _collect_bindings(node.body, params)
        # Under summary analysis, the body of a summarizable *top-level*
        # def contributes nothing to the cell that defines it: the body
        # does not run at definition time, and its effects resurface at
        # call sites through the function's summary. Escapes found inside
        # are deferred (kept separately for telemetry and lint).
        defer = (
            self._summaries is not None
            and self._scopes[-1].kind == _SCOPE_MODULE
            and self._definite
            and is_summarizable_def(node)
        )
        if defer:
            self._defer_depth += 1
        try:
            with self._scope(_SCOPE_FUNCTION, local_names, global_names):
                with self._conditional():  # the body runs only if called
                    for statement in node.body:
                        self.visit(statement)
        finally:
            if defer:
                self._defer_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
            self.visit(default)
        params = [
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
        ]
        local_names, _ = _collect_bindings([ast.Expr(value=node.body)], params)
        with self._scope(_SCOPE_LAMBDA, local_names, set()):
            with self._conditional():
                self.visit(node.body)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._write(node.name, node)
        for decorator in node.decorator_list:
            self.visit(decorator)
        for base in node.bases:
            self.visit(base)
        for keyword in node.keywords:
            self.visit(keyword.value)
        local_names, global_names = _collect_bindings(node.body)
        with self._scope(_SCOPE_CLASS, local_names, global_names):
            # A class body executes exactly once, at definition time.
            for statement in node.body:
                self.visit(statement)

    def _visit_comprehension(
        self, generators: Sequence[ast.comprehension], *elements: ast.expr
    ) -> None:
        # The outermost iterable is evaluated eagerly in the enclosing
        # scope; everything else runs lazily in the comprehension scope
        # and only if that iterable is non-empty.
        self.visit(generators[0].iter)
        local_names: Set[str] = set()
        for generator in generators:
            targets, _ = _collect_bindings(
                [ast.Assign(targets=[generator.target], value=ast.Constant(value=None))]
            )
            local_names |= targets
        with self._scope(_SCOPE_COMPREHENSION, local_names, set()):
            with self._conditional():
                for index, generator in enumerate(generators):
                    if index > 0:
                        self.visit(generator.iter)
                    for condition in generator.ifs:
                        self.visit(condition)
                for element in elements:
                    self.visit(element)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node.generators, node.elt)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node.generators, node.elt)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node.generators, node.elt)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node.generators, node.key, node.value)

    # -- match statements (3.10+) ------------------------------------------

    def visit_Match(self, node: ast.AST) -> None:
        subject = getattr(node, "subject", None)
        if isinstance(subject, ast.expr):
            self.visit(subject)
        with self._conditional():
            for case in getattr(node, "cases", []):
                for pattern_node in ast.walk(case.pattern):
                    captured = getattr(pattern_node, "name", None)
                    if isinstance(captured, str):
                        self._write(captured, pattern_node)
                if case.guard is not None:
                    self.visit(case.guard)
                for statement in case.body:
                    self.visit(statement)

    # ``global`` / ``nonlocal`` are handled during binding collection.

    def visit_Global(self, node: ast.Global) -> None:
        pass

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        pass


def parse_cell(source: str) -> Optional[ast.Module]:
    """Parse cell source, returning ``None`` on syntax errors."""
    try:
        return parse(source)
    except SyntaxError:
        return None


def analyze_cell(
    source: str,
    summaries: "Optional[SummaryView]" = None,
    stubs: Optional[StubContext] = None,
) -> CellEffects:
    """Compute the static effect summary of one cell.

    With ``summaries`` (a resolved
    :class:`~repro.analysis.summaries.SummaryView` for this cell's
    position in the notebook) the analysis is interprocedural: calls to
    summarized helpers expand to their effects and summarizable def
    bodies contribute nothing at the def site. Without it the behavior
    is exactly the PR 3 intraprocedural analysis.

    With ``stubs`` (a :class:`~repro.analysis.typetrack.StubContext`
    carrying the library-stub registry and the notebook's type bindings)
    library calls resolved through a stub fold their declared effects in
    instead of staying opaque (DESIGN.md §15).

    Never raises: a cell that fails to parse yields a
    :class:`CellEffects` with ``syntax_error`` set and empty name sets
    (such a cell cannot execute either).
    """
    try:
        module = parse(source)
    except SyntaxError as exc:
        return CellEffects(syntax_error=str(exc))
    resolver = stubs.resolver(module) if stubs is not None else None
    return EffectVisitor(summaries, resolver).analyze(module)


def function_params(
    node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda",
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Optional[str], Optional[str]]:
    """(positional params, keyword-only params, vararg, kwarg) of a def."""
    args = node.args
    positional = tuple(a.arg for a in list(args.posonlyargs) + list(args.args))
    kwonly = tuple(a.arg for a in args.kwonlyargs)
    vararg = args.vararg.arg if args.vararg else None
    kwarg = args.kwarg.arg if args.kwarg else None
    return positional, kwonly, vararg, kwarg


def analyze_function_body(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> CellEffects:
    """Intraprocedural effect analysis of one function body.

    Runs the ordinary :class:`EffectVisitor` over the body with a
    function scope (parameters and local bindings honoured, ``global``
    declarations honoured) pre-pushed, so a read of a local is not a
    global read and a ``global``-declared store is a global write *and* a
    hidden-store escape — exactly the facts a
    :class:`~repro.analysis.summaries.RawSummary` needs. Nested defs and
    lambdas are visited in place, conservatively folding their effects
    into the enclosing function's (a nested closure may run whenever the
    enclosing function does).
    """
    positional, kwonly, vararg, kwarg = function_params(node)
    params = list(positional) + list(kwonly)
    if vararg is not None:
        params.append(vararg)
    if kwarg is not None:
        params.append(kwarg)
    local_names, global_names = _collect_bindings(node.body, params)
    visitor = EffectVisitor()
    visitor._scopes = [
        _Scope(_SCOPE_MODULE, set(), set()),
        _Scope(_SCOPE_FUNCTION, local_names, global_names),
    ]
    for statement in node.body:
        visitor.visit(statement)
    visitor.effects.escapes = tuple(visitor._escapes)
    return visitor.effects
