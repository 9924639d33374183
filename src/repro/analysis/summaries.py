"""Interprocedural function-effect summaries (DESIGN.md §14).

PR 3's :class:`~repro.analysis.visitor.EffectVisitor` stops at call
boundaries: a def's body is analyzed only to find escapes, and
``visit_Call`` learns nothing, so a notebook that factors work into
helper functions degrades to runtime CrossValidator escalation and
conservatively widened replay plans. This module closes that gap with a
classic bottom-up summary analysis over the notebook's call graph:

* **Extraction** — each summarizable function (a top-level undecorated
  ``def``/``async def``, a top-level ``name = lambda …`` assignment, or
  an undecorated method of a top-level class) yields a
  :class:`RawSummary`: the intraprocedural facts of its body (global
  reads/writes/deletes via :func:`analyze_function_body`, in-place
  parameter/global mutations via the dataflow layer's mutation capture,
  return-aliasing of parameters and globals, escapes, and its direct
  call sites).

* **Resolution** — :func:`resolve_summaries` closes the raw facts over
  direct calls by fixpoint: every function starts from its own facts
  (bottom) and repeatedly absorbs the current facts of its callees —
  recursion and mutual recursion converge because the lattice is finite
  unions. Higher-order flow is conservative: a parameter used in call
  position absorbs the summary of any summarized function passed as that
  argument, and a summarized function *loaded* outside a direct call
  (aliased, stored, passed along) contributes its full effects to the
  loader, because it may be invoked through any later alias.

* **Versioning** — :class:`NotebookSummaries` keys every summary by the
  cell that bound it. A later cell that rebinds the name (including via
  a helper-mediated hidden store) *invalidates* the summary — calls
  after the rebind fall back to the conservative top (no expansion, the
  ``summary_unknown_calls`` counter) — and an opaque cell (``exec``,
  star import, ``globals()``…) invalidates everything, because it can
  rebind any name without the analysis seeing it.

* **One step per cell** — :meth:`NotebookSummaries.analyze` before the
  cell runs, :meth:`NotebookSummaries.observe` after, with whether it
  raised; the table threads its stub context, and a :class:`StubFold`
  is the state with summaries off. A session steps its live state from
  the kernel hooks, a fold steps a copy over a chain, so they agree.

* **Prefix memo** — the table is an append-only log indexed by cell
  position, so the table after the first ``k`` cells of a fold is a
  truncating copy (:meth:`NotebookSummaries.fork`). A :class:`PrefixMemo`
  keeps folded states by prefix of sources and outcomes, and
  :meth:`PrefixMemo.fold` resumes from the deepest prefix it already
  holds. It is the one fold of a chain: a checkout's resync
  (:meth:`NotebookSummaries.from_sources`, or
  :meth:`StubFold.from_sources` with summaries off), the replay engine
  and file-mode dataflow all run it. A state keeps the steps it took,
  so a state its owner stepped itself — a session's live state — enters
  the memo through :meth:`PrefixMemo.adopt` as the fold of those steps.

Soundness contract with the CrossValidator (DESIGN.md §14): deferring a
def-site escape is safe only if every path by which the body's hidden
effects can later run re-surfaces the escape. Direct calls do (call
expansion), simple aliases do (the table follows ``alias = helper``),
and every *other* load of an escape-carrying helper conservatively
surfaces the escapes at the loading cell — so the set of escalated
cells never loses a cell that actually needed escalation, it only moves
the escalation from the def cell (where nothing ran) to the cells where
the body can run.

Everything here is deterministic: extraction walks the AST in source
order, resolution iterates names sorted, and all serialized output uses
sorted lists — byte-stable across runs and interpreters.
"""

from __future__ import annotations

import ast
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Generic,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.analysis.effects import CellEffects, Escape, EscapeKind, Span
from repro.analysis.typetrack import (
    CellResolver,
    StubContext,
    stub_call_mutates,
    stub_is_pure_at,
)
from repro.analysis.visitor import (
    _collect_bindings,
    analyze_cell,
    analyze_function_body,
    function_params,
    is_summarizable_def,
)
from repro.parsing import parse

if TYPE_CHECKING:  # pragma: no cover - dataflow imports this module lazily
    from repro.analysis.dataflow import CellNode

__all__ = [
    "CallArg",
    "CallSite",
    "FoldState",
    "FoldStep",
    "FunctionSummary",
    "InvalidationRecord",
    "NotebookSummaries",
    "PrefixMemo",
    "RawSummary",
    "StubFold",
    "SummaryView",
    "extract_cell_summaries",
    "is_opaque_cell",
    "prefix_keys",
    "resolve_summaries",
]

#: Escape kinds that make a whole cell opaque to the summary table: after
#: one of these runs, any binding may have changed behind the analysis'
#: back, so every live summary is invalidated. ``HIDDEN_GLOBAL_STORE``
#: and ``MODULE_PATCH`` name the state they touch and are handled by the
#: per-name rebind rule instead.
_OPAQUE_ESCAPE_KINDS = frozenset(
    {
        EscapeKind.EXEC_EVAL,
        EscapeKind.NAMESPACE_INTROSPECTION,
        EscapeKind.DYNAMIC_IMPORT,
        EscapeKind.STAR_IMPORT,
        EscapeKind.NAME_REFLECTION,
        EscapeKind.FRAME_INTROSPECTION,
    }
)


def is_opaque_cell(effects: CellEffects) -> bool:
    """True when a cell may have rebound any name behind the analysis'
    back: a star import's opaque writes, or an escape of one of the
    :data:`_OPAQUE_ESCAPE_KINDS`.

    The one opacity rule for every driver that has a cell's effects: an
    opaque cell wipes the summary table and the stub type environment
    alike.
    """
    return effects.opaque_writes or any(
        escape.kind in _OPAQUE_ESCAPE_KINDS for escape in effects.escapes
    )

#: Fixpoint rounds are bounded by the call-graph diameter; this cap is a
#: defensive backstop far above any real notebook's.
_MAX_FIXPOINT_ROUNDS = 64

#: Entries each of a table's two analysis caches keeps. A fold hits them
#: from one cell to the next (the same source extracted for the view and
#: again for the observation; an unchanged live set resolved again), so
#: a small window does; the cap keeps a long-lived session flat.
CACHE_ENTRIES = 128

_K = TypeVar("_K")
_V = TypeVar("_V")


class _LRU(Generic[_K, _V]):
    """A mapping that keeps its :data:`CACHE_ENTRIES` most recently used
    entries."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[_K, _V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: _K) -> Optional[_V]:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: _K, value: _V) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > CACHE_ENTRIES:
            self._entries.popitem(last=False)


# ---------------------------------------------------------------------------
# Raw (intraprocedural) summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallArg:
    """One argument of a recorded call site, as the extractor saw it."""

    #: Positional index, or -1 for a keyword argument.
    position: int
    #: Keyword name, or None for a positional argument.
    keyword: Optional[str]
    #: The bare-``Name`` argument id when the argument is exactly a name.
    base: Optional[str]
    #: Whether ``base`` is a parameter of the *enclosing* function.
    base_is_param: bool
    #: Global-resolving names appearing anywhere in the argument
    #: expression (sorted; excludes locals, parameters, and builtins).
    global_names: Tuple[str, ...]
    #: Enclosing-function parameters appearing in the expression.
    param_names: Tuple[str, ...]


@dataclass(frozen=True)
class CallSite:
    """A direct ``callee(...)`` call recorded inside a function body."""

    callee: str
    span: Span
    args: Tuple[CallArg, ...]
    #: ``*args`` / ``**kwargs`` splat present — argument-to-parameter
    #: mapping degrades to "any parameter".
    has_star: bool


@dataclass(frozen=True)
class RawSummary:
    """Intraprocedural facts of one function body, pre-fixpoint."""

    name: str
    qualname: str
    cell_index: int
    span: Span
    params: Tuple[str, ...]
    kwonly: Tuple[str, ...]
    vararg: Optional[str]
    kwarg: Optional[str]
    reads: FrozenSet[str]
    writes: FrozenSet[str]
    deletes: FrozenSet[str]
    mutated_params: FrozenSet[str]
    global_mutations: FrozenSet[str]
    returns_params: FrozenSet[str]
    returns_globals: FrozenSet[str]
    escapes: Tuple[Escape, ...]
    calls: Tuple[CallSite, ...]
    calls_params: FrozenSet[str]
    #: Global non-builtin names loaded outside a direct-callee position —
    #: if such a name carries a summary, its effects fold in (the body
    #: may invoke it through an alias the analysis cannot follow).
    aliased_names: FrozenSet[str]
    calls_unknown: bool


@dataclass(frozen=True)
class FunctionSummary:
    """A :class:`RawSummary` closed over direct calls by fixpoint."""

    name: str
    qualname: str
    cell_index: int
    span: Span
    params: Tuple[str, ...]
    kwonly: Tuple[str, ...]
    vararg: Optional[str]
    kwarg: Optional[str]
    reads: FrozenSet[str]
    writes: FrozenSet[str]
    deletes: FrozenSet[str]
    mutated_params: FrozenSet[str]
    global_mutations: FrozenSet[str]
    returns_params: FrozenSet[str]
    returns_globals: FrozenSet[str]
    escapes: Tuple[Escape, ...]
    calls_params: FrozenSet[str]
    #: Summarized functions whose effects were folded into this one.
    callees: Tuple[str, ...]
    #: The body (or a transitive callee) performs calls the analysis
    #: could not resolve — the effect sets are a best effort, not a bound.
    calls_unknown: bool

    @property
    def is_tracking_safe(self) -> bool:
        """No escapes: calls are fully describable by the name sets."""
        return not self.escapes

    def to_dict(self) -> Dict[str, Any]:
        """JSON-stable rendering (sorted keys and lists)."""
        return {
            "name": self.qualname,
            "cell": self.cell_index,
            "line": self.span.line,
            "params": list(self.params)
            + list(self.kwonly)
            + ([f"*{self.vararg}"] if self.vararg else [])
            + ([f"**{self.kwarg}"] if self.kwarg else []),
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "deletes": sorted(self.deletes),
            "mutates_params": sorted(self.mutated_params),
            "mutates_globals": sorted(self.global_mutations),
            "returns_aliases": sorted(
                [f"param:{name}" for name in self.returns_params]
                + [f"global:{name}" for name in self.returns_globals]
            ),
            "escapes": [
                {
                    "kind": escape.kind.value,
                    "line": escape.span.line,
                    "col": escape.span.col,
                    "detail": escape.detail,
                }
                for escape in self.escapes
            ],
            "calls_params": sorted(self.calls_params),
            "callees": list(self.callees),
            "calls_unknown": self.calls_unknown,
            "tracking_safe": self.is_tracking_safe,
        }


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _nested_local_names(body: Sequence[ast.stmt]) -> Set[str]:
    """Local binding sets of every nested function scope in a body.

    Used to keep nested-scope locals out of the enclosing function's
    global-mutation set; a name local to *any* scope in the subtree is
    not treated as a global mutation target. (A nested local shadowing a
    mutated global of the same name is thereby missed — a plan-tightness
    limitation only; runtime co-variable detection still observes the
    actual state change.)
    """
    locals_seen: Set[str] = set()
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                positional, kwonly, vararg, kwarg = function_params(node)
                params = list(positional) + list(kwonly)
                if vararg:
                    params.append(vararg)
                if kwarg:
                    params.append(kwarg)
                nested_locals, _ = _collect_bindings(node.body, params)
                locals_seen |= nested_locals
                locals_seen |= set(params)
            elif isinstance(node, ast.Lambda):
                positional, kwonly, vararg, kwarg = function_params(node)
                locals_seen |= set(positional) | set(kwonly)
                if vararg:
                    locals_seen.add(vararg)
                if kwarg:
                    locals_seen.add(kwarg)
    return locals_seen


def _return_alias_names(body: Sequence[ast.stmt]) -> List[str]:
    """Bare names a function's return value may alias.

    Handles ``return x``, ``return (x, y)``, ``return x if c else y``
    and nested combinations; anything computed (``return x + 1``,
    ``return f(x)``) builds a new object or is out of scope for the
    alias model. Returns inside nested defs belong to the nested
    function and are skipped.
    """
    names: List[str] = []

    def collect(expression: ast.expr) -> None:
        if isinstance(expression, ast.Name):
            names.append(expression.id)
        elif isinstance(expression, (ast.Tuple, ast.List)):
            for element in expression.elts:
                collect(element)
        elif isinstance(expression, ast.Starred):
            collect(expression.value)
        elif isinstance(expression, ast.IfExp):
            collect(expression.body)
            collect(expression.orelse)

    def walk(statements: Sequence[ast.stmt]) -> None:
        for statement in statements:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(statement, ast.Return) and statement.value is not None:
                collect(statement.value)
            for attr in ("body", "orelse", "finalbody"):
                nested = getattr(statement, attr, None)
                if isinstance(nested, list):
                    walk([s for s in nested if isinstance(s, ast.stmt)])
            for handler in getattr(statement, "handlers", []) or []:
                if isinstance(handler, ast.ExceptHandler):
                    walk(handler.body)

    walk(body)
    return names


def _is_builtin(name: str) -> bool:
    import builtins

    return hasattr(builtins, name)


def _extract_raw(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
    *,
    qualname: str,
    cell_index: int,
    resolver: Optional[CellResolver] = None,
) -> RawSummary:
    """Intraprocedural facts of one def (no call resolution yet).

    ``resolver`` (the stub layer's per-cell type resolver, DESIGN.md §15)
    bounds library calls the body performs: a stub-resolved pure call
    contributes nothing, a mutating one contributes its declared receiver
    / argument mutations and global writes. Resolution is gated on the
    receiver expression touching *no* function-local name — body locals
    shadow the cell-level bindings the resolver knows about. Attribute
    calls on global receivers that nothing resolves set ``calls_unknown``:
    such a method may do anything, including hidden global stores, so
    pretending otherwise would silently weaken the caller's bound.
    """
    from repro.analysis.dataflow import in_place_mutation_targets

    body_effects = analyze_function_body(node)
    positional, kwonly, vararg, kwarg = function_params(node)
    all_params: Set[str] = set(positional) | set(kwonly)
    if vararg:
        all_params.add(vararg)
    if kwarg:
        all_params.add(kwarg)
    local_names, global_names = _collect_bindings(node.body, sorted(all_params))
    invisible = local_names | all_params | _nested_local_names(node.body)
    invisible -= global_names

    def _names_in(expression: ast.expr) -> Tuple[Set[str], Set[str]]:
        found_globals: Set[str] = set()
        found_params: Set[str] = set()
        for child in ast.walk(expression):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id in all_params:
                    found_params.add(child.id)
                elif child.id not in invisible and not _is_builtin(child.id):
                    found_globals.add(child.id)
        return found_globals, found_params

    def _receiver_is_local(expression: ast.expr) -> bool:
        """Any name feeding the receiver expression that is local to the
        body makes cell-level type resolution unsound for this call."""
        return any(
            isinstance(child, ast.Name)
            and isinstance(child.ctx, ast.Load)
            and child.id in invisible
            for child in ast.walk(expression)
        )

    def _body_method_effect(call: ast.Call) -> Optional[bool]:
        assert isinstance(call.func, ast.Attribute)
        if resolver is None or _receiver_is_local(call.func.value):
            return None
        return resolver.method_effect(call)

    body_module = ast.Module(body=list(node.body), type_ignores=[])
    mutated = in_place_mutation_targets(
        body_module, method_effect=_body_method_effect
    )
    stub_mutated_params: Set[str] = set()
    stub_global_mutations: Set[str] = set()
    stub_writes: Set[str] = set()

    return_names = _return_alias_names(node.body)
    returns_params = frozenset(n for n in return_names if n in all_params)
    returns_globals = frozenset(
        n for n in return_names if n not in invisible and n not in all_params
    )

    calls: List[CallSite] = []
    calls_params: Set[str] = set()
    calls_unknown = False
    callee_ids: Set[int] = set()
    for walk_node in ast.walk(body_module):
        if not isinstance(walk_node, ast.Call):
            continue
        func = walk_node.func

        if isinstance(func, ast.Attribute):
            root: ast.expr = func.value
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(
                root,
                (ast.Constant, ast.List, ast.Dict, ast.Set, ast.Tuple,
                 ast.JoinedStr, ast.ListComp, ast.SetComp, ast.DictComp,
                 ast.GeneratorExp),
            ):
                continue  # method on a fresh literal: no global reachable
            base = root.id if isinstance(root, ast.Name) else None
            if base is not None and (base in invisible or _is_builtin(base)):
                # Local/parameter receivers: the mutation walk already
                # records them in ``mutated`` (-> mutated_params).
                continue
            if resolver is not None and not _receiver_is_local(func.value):
                resolved = resolver.resolve_call(walk_node)
                if resolved is not None and resolved.stub.escape is None:
                    stub = resolved.stub
                    # Receiver mutation is captured by the mutation walk
                    # through ``_body_method_effect``; map the declared
                    # argument mutations and global writes here.
                    for position in stub.mutates_args:
                        if position < len(walk_node.args):
                            arg_globals, arg_params = _names_in(
                                walk_node.args[position]
                            )
                            stub_global_mutations |= arg_globals
                            stub_mutated_params |= arg_params
                    stub_writes |= set(stub.writes_globals)
                    continue
            calls_unknown = True
            continue

        if not isinstance(func, ast.Name):
            continue
        callee_ids.add(id(func))
        if func.id in all_params:
            calls_params.add(func.id)
            continue
        if func.id in invisible:
            calls_unknown = True  # a local callable the analysis can't see
            continue
        if _is_builtin(func.id):
            continue
        if resolver is not None:
            resolved = resolver.resolve_call(walk_node)
            if resolved is not None and resolved.stub.escape is None:
                stub = resolved.stub
                if stub_is_pure_at(stub, walk_node):
                    continue
                if not stub_call_mutates(stub, walk_node):
                    # Mutation confined to declared argument positions
                    # and global writes — expressible, so fold it in.
                    for position in stub.mutates_args:
                        if position < len(walk_node.args):
                            arg_globals, arg_params = _names_in(
                                walk_node.args[position]
                            )
                            stub_global_mutations |= arg_globals
                            stub_mutated_params |= arg_params
                    stub_writes |= set(stub.writes_globals)
                    continue
                # A mutating plain call (RNG draws, ``seed`` …) advances
                # library state the summary cannot name — fall through to
                # the conservative unresolved-call handling.
        calls.append(
            _record_call_site(walk_node, func.id, all_params, invisible)
        )

    mutated_params = frozenset(
        (set(name for name in mutated if name in all_params))
        | stub_mutated_params
    )
    global_mutations = frozenset(
        (
            set(
                name
                for name in mutated
                if name not in invisible and not _is_builtin(name)
            )
        )
        | stub_global_mutations
    )

    aliased: Set[str] = set()
    for walk_node in ast.walk(body_module):
        if (
            isinstance(walk_node, ast.Name)
            and isinstance(walk_node.ctx, ast.Load)
            and id(walk_node) not in callee_ids
            and walk_node.id not in invisible
            and walk_node.id not in all_params
            and not _is_builtin(walk_node.id)
        ):
            aliased.add(walk_node.id)

    return RawSummary(
        name=qualname.rsplit(".", 1)[-1],
        qualname=qualname,
        cell_index=cell_index,
        span=Span.of(node),
        params=positional,
        kwonly=kwonly,
        vararg=vararg,
        kwarg=kwarg,
        reads=body_effects.all_reads,
        writes=frozenset(body_effects.all_writes | stub_writes),
        deletes=body_effects.all_deletes,
        mutated_params=mutated_params,
        global_mutations=global_mutations,
        returns_params=returns_params,
        returns_globals=returns_globals,
        escapes=body_effects.escapes,
        calls=tuple(calls),
        calls_params=frozenset(calls_params),
        aliased_names=frozenset(aliased),
        calls_unknown=calls_unknown,
    )


def _record_call_site(
    call: ast.Call,
    callee: str,
    params: Set[str],
    invisible: Set[str],
) -> CallSite:
    def names_in(expression: ast.expr) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        global_names: Set[str] = set()
        param_names: Set[str] = set()
        for child in ast.walk(expression):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id in params:
                    param_names.add(child.id)
                elif child.id not in invisible and not _is_builtin(child.id):
                    global_names.add(child.id)
        return tuple(sorted(global_names)), tuple(sorted(param_names))

    args: List[CallArg] = []
    has_star = False
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            has_star = True
            arg = arg.value
        base = arg.id if isinstance(arg, ast.Name) else None
        global_names, param_names = names_in(arg)
        args.append(
            CallArg(
                position=position,
                keyword=None,
                base=base,
                base_is_param=base in params if base else False,
                global_names=global_names,
                param_names=param_names,
            )
        )
    for keyword in call.keywords:
        if keyword.arg is None:
            has_star = True
        base = keyword.value.id if isinstance(keyword.value, ast.Name) else None
        global_names, param_names = names_in(keyword.value)
        args.append(
            CallArg(
                position=-1,
                keyword=keyword.arg,
                base=base,
                base_is_param=base in params if base else False,
                global_names=global_names,
                param_names=param_names,
            )
        )
    return CallSite(
        callee=callee, span=Span.of(call), args=tuple(args), has_star=has_star
    )


def _lambda_raw(
    name: str,
    node: ast.Lambda,
    *,
    cell_index: int,
    resolver: Optional[CellResolver] = None,
) -> RawSummary:
    """Raw summary of a top-level ``name = lambda ...`` assignment."""
    synthetic = ast.FunctionDef(
        name=name,
        args=node.args,
        body=[ast.Return(value=node.body)],
        decorator_list=[],
        returns=None,
        type_comment=None,
    )
    ast.copy_location(synthetic, node)
    ast.fix_missing_locations(synthetic)
    return _extract_raw(
        synthetic, qualname=name, cell_index=cell_index, resolver=resolver
    )


def extract_cell_summaries(
    module: ast.Module,
    cell_index: int,
    resolver: Optional[CellResolver] = None,
) -> Dict[str, RawSummary]:
    """Raw summaries of every summarizable function a cell defines.

    Covers directly-top-level undecorated defs, top-level
    ``name = lambda …`` assignments, and undecorated methods of
    top-level undecorated classes (keyed ``Class.method``; methods are
    reported and linted but never expanded at call sites — attribute
    calls are not resolved). Conditionally-defined functions (inside
    ``if``/``for``/``try``) are *not* summarized: their binding is not
    definite, so their def-site behavior stays exactly intraprocedural.
    """
    raws: Dict[str, RawSummary] = {}
    for statement in module.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if is_summarizable_def(statement):
                raws[statement.name] = _extract_raw(
                    statement,
                    qualname=statement.name,
                    cell_index=cell_index,
                    resolver=resolver,
                )
        elif isinstance(statement, ast.Assign):
            if (
                len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)
                and isinstance(statement.value, ast.Lambda)
            ):
                target = statement.targets[0].id
                raws[target] = _lambda_raw(
                    target,
                    statement.value,
                    cell_index=cell_index,
                    resolver=resolver,
                )
        elif isinstance(statement, ast.ClassDef):
            if statement.decorator_list:
                continue
            for member in statement.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and is_summarizable_def(member):
                    qualname = f"{statement.name}.{member.name}"
                    raws[qualname] = _extract_raw(
                        member,
                        qualname=qualname,
                        cell_index=cell_index,
                        resolver=resolver,
                    )
    return raws


def _alias_assignments(module: ast.Module) -> List[Tuple[str, str]]:
    """Top-level definite ``target = source`` name-to-name assignments."""
    aliases: List[Tuple[str, str]] = []
    for statement in module.body:
        if (
            isinstance(statement, ast.Assign)
            and len(statement.targets) == 1
            and isinstance(statement.targets[0], ast.Name)
            and isinstance(statement.value, ast.Name)
        ):
            aliases.append((statement.targets[0].id, statement.value.id))
    return aliases


# ---------------------------------------------------------------------------
# Fixpoint resolution
# ---------------------------------------------------------------------------


@dataclass
class _Accum:
    """Mutable per-function accumulator during the fixpoint."""

    raw: RawSummary
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    deletes: Set[str] = field(default_factory=set)
    mutated_params: Set[str] = field(default_factory=set)
    global_mutations: Set[str] = field(default_factory=set)
    escapes: Dict[Tuple[str, int, int, str], Escape] = field(default_factory=dict)
    callees: Set[str] = field(default_factory=set)
    calls_unknown: bool = False

    def size(self) -> int:
        return (
            len(self.reads)
            + len(self.writes)
            + len(self.deletes)
            + len(self.mutated_params)
            + len(self.global_mutations)
            + len(self.escapes)
            + len(self.callees)
            + int(self.calls_unknown)
        )


def _add_escapes(accum: _Accum, escapes: Sequence[Escape]) -> None:
    for escape in escapes:
        key = (
            escape.kind.value,
            escape.span.line,
            escape.span.col,
            escape.detail,
        )
        if key not in accum.escapes:
            accum.escapes[key] = escape


def _fold_callee(accum: _Accum, site: CallSite, callee: _Accum) -> None:
    """Absorb a callee's current facts into the caller at one call site."""
    accum.reads |= callee.reads
    accum.writes |= callee.writes
    accum.deletes |= callee.deletes
    accum.global_mutations |= callee.global_mutations
    accum.calls_unknown = accum.calls_unknown or callee.calls_unknown
    accum.callees.add(callee.raw.qualname)
    _add_escapes(accum, list(callee.escapes.values()))

    raw = callee.raw
    for arg in site.args:
        if site.has_star:
            mutates = bool(callee.mutated_params)
        elif arg.keyword is not None:
            mutates = arg.keyword in callee.mutated_params or (
                raw.kwarg is not None
                and arg.keyword not in raw.params
                and arg.keyword not in raw.kwonly
                and raw.kwarg in callee.mutated_params
            )
        else:
            if arg.position < len(raw.params):
                mutates = raw.params[arg.position] in callee.mutated_params
            else:
                mutates = (
                    raw.vararg is not None
                    and raw.vararg in callee.mutated_params
                )
        if mutates:
            accum.global_mutations.update(arg.global_names)
            accum.mutated_params.update(arg.param_names)


def resolve_summaries(
    raws: Mapping[str, RawSummary]
) -> Dict[str, FunctionSummary]:
    """Close a set of raw summaries over direct calls by fixpoint.

    ``raws`` maps every binding visible at one point of the notebook to
    its raw summary. Each function starts from its own intraprocedural
    facts and monotonically absorbs callee facts until nothing grows;
    recursion and mutual recursion converge because every set is drawn
    from the finite universe of names in the program.
    """
    accums: Dict[str, _Accum] = {}
    for name in sorted(raws):
        raw = raws[name]
        accum = _Accum(raw=raw)
        accum.reads |= raw.reads
        accum.writes |= raw.writes
        accum.deletes |= raw.deletes
        accum.mutated_params |= raw.mutated_params
        accum.global_mutations |= raw.global_mutations
        accum.calls_unknown = raw.calls_unknown
        _add_escapes(accum, raw.escapes)
        accums[name] = accum

    for _round in range(_MAX_FIXPOINT_ROUNDS):
        changed = False
        for name in sorted(accums):
            accum = accums[name]
            before = accum.size()
            for site in accum.raw.calls:
                callee = accums.get(site.callee)
                if callee is None:
                    accum.calls_unknown = True
                    continue
                _fold_callee(accum, site, callee)
                # A summarized function passed where the callee invokes a
                # parameter contributes its effects as a callback.
                if callee.raw.calls_params or site.has_star:
                    for arg in site.args:
                        if arg.base is None or arg.base_is_param:
                            continue
                        callback = accums.get(arg.base)
                        if callback is not None and callback is not accum:
                            _fold_callee(accum, site, callback)
                            accum.reads |= callback.reads
            # A summarized function loaded outside a direct call may be
            # invoked through an alias the analysis cannot follow.
            for aliased in sorted(accum.raw.aliased_names):
                other = accums.get(aliased)
                if other is not None and other is not accum:
                    accum.reads |= other.reads
                    accum.writes |= other.writes
                    accum.deletes |= other.deletes
                    accum.global_mutations |= other.global_mutations
                    accum.calls_unknown = (
                        accum.calls_unknown or other.calls_unknown
                    )
                    accum.callees.add(other.raw.qualname)
                    _add_escapes(accum, list(other.escapes.values()))
            if accum.size() != before:
                changed = True
        if not changed:
            break

    resolved: Dict[str, FunctionSummary] = {}
    for name in sorted(accums):
        accum = accums[name]
        raw = accum.raw
        resolved[name] = FunctionSummary(
            name=raw.name,
            qualname=raw.qualname,
            cell_index=raw.cell_index,
            span=raw.span,
            params=raw.params,
            kwonly=raw.kwonly,
            vararg=raw.vararg,
            kwarg=raw.kwarg,
            reads=frozenset(accum.reads),
            writes=frozenset(accum.writes),
            deletes=frozenset(accum.deletes),
            mutated_params=frozenset(accum.mutated_params),
            global_mutations=frozenset(accum.global_mutations),
            returns_params=raw.returns_params,
            returns_globals=raw.returns_globals,
            escapes=tuple(accum.escapes.values()),
            calls_params=raw.calls_params,
            callees=tuple(sorted(accum.callees - {raw.qualname})),
            calls_unknown=accum.calls_unknown,
        )
    return resolved


# ---------------------------------------------------------------------------
# The versioned notebook-level table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvalidationRecord:
    """One summary dropped from the table, and why."""

    cell_index: int
    name: str
    reason: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell": self.cell_index,
            "name": self.name,
            "reason": self.reason,
        }


class SummaryView:
    """The resolved summaries visible to one cell of the notebook."""

    def __init__(
        self,
        index: int,
        functions: Dict[str, FunctionSummary],
        invalidated: FrozenSet[str] = frozenset(),
    ) -> None:
        self.index = index
        self._functions = functions
        self._invalidated = invalidated

    def get(self, name: str) -> Optional[FunctionSummary]:
        return self._functions.get(name)

    def is_invalidated(self, name: str) -> bool:
        """True when ``name`` once had a summary the table has dropped.

        Calls to such a name are more dangerous than calls to a plain
        unknown global: the function demonstrably exists (or existed)
        in user code, its current effects are unknowable, and hidden
        stores it performs bypass runtime recording — the call site
        must fall back to conservative detection.
        """
        return name in self._invalidated

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def __len__(self) -> int:
        return len(self._functions)

    def functions(self) -> List[FunctionSummary]:
        """All visible summaries, sorted by (def cell, qualified name)."""
        return sorted(
            self._functions.values(),
            key=lambda fs: (fs.cell_index, fs.qualname),
        )


class FoldStep(NamedTuple):
    """One cell a state stepped past."""

    source: str
    #: False when the cell raised.
    executed: bool
    #: What :meth:`StubFold.analyze` gave the cell before it ran.
    effects: CellEffects


class StubFold:
    """The analysis state of a notebook with summaries off: its stub type
    environment alone, or nothing when stubs are off too.

    A cell is one step of the state: :meth:`analyze` before it runs,
    :meth:`observe` after, with whether it raised; :meth:`advance` is
    both, the step a fold takes. :class:`NotebookSummaries` extends the
    state with the summary table, and a :class:`PrefixMemo` folds either.
    """

    def __init__(self, stubs: Optional[StubContext] = None) -> None:
        #: The context library calls resolve against (DESIGN.md §15).
        self.stubs = stubs
        #: Every cell :meth:`observe` stepped past, in order.
        self.steps: List[FoldStep] = []

    @classmethod
    def from_sources(
        cls,
        sources: Sequence[str],
        executed: Optional[Sequence[bool]] = None,
        *,
        stubs: Optional[StubContext] = None,
        memo: Optional["PrefixMemo"] = None,
    ) -> "StubFold":
        """The state after ``sources`` ran in order, from the empty state.

        ``executed`` holds each source's outcome (False: the cell raised;
        default all True). With ``stubs`` the state threads a context
        over its registry, from the empty environment. The fold is
        :meth:`PrefixMemo.fold`: with a ``memo`` it resumes from the
        deepest prefix that memo already holds, without one it folds
        every source. The result is a copy the caller may advance.
        """
        start = cls(StubContext(stubs.registry) if stubs is not None else None)
        memo = memo if memo is not None else PrefixMemo()
        state = memo.fold(sources, start, executed)
        assert isinstance(state, cls)
        return state

    def fork(self, k: int) -> "StubFold":
        """An independent copy as of before cell ``k``."""
        copy = StubFold(self.stubs.fork(k) if self.stubs is not None else None)
        copy.steps = self.steps[:k]
        return copy

    def analyze(self, source: str) -> CellEffects:
        """Analyze ``source``, the next cell, intraprocedurally."""
        return analyze_cell(source, stubs=self.stubs)

    def observe(
        self, source: str, effects: CellEffects, executed: bool = True
    ) -> int:
        """Step past a cell :meth:`analyze` gave ``effects``, ``executed``
        False if it raised; returns how many summaries it invalidated."""
        if self.stubs is not None:
            self.stubs.observe_cell(
                source, executed=executed, opaque=is_opaque_cell(effects)
            )
        self.steps.append(FoldStep(source, executed, effects))
        return 0

    def advance(self, source: str, executed: bool = True) -> CellEffects:
        """:meth:`analyze` one cell, then :meth:`observe` it."""
        effects = self.analyze(source)
        self.observe(source, effects, executed)
        return effects


class NotebookSummaries(StubFold):
    """Versioned function-summary table over one cell execution history.

    Feed it cells in execution order, one :class:`StubFold` step each.
    :meth:`analyze` analyzes a cell through :meth:`view_for_cell` (earlier
    cells' live summaries plus the cell's own definitions, so same-cell
    def-then-call expands); :meth:`observe` commits its binding events —
    new summaries, rebind invalidations, opaque-cell wipes — to the table
    (:meth:`observe_cell`) and its stub context: a cell that raised
    invalidates but never registers.
    """

    def __init__(self, stubs: Optional[StubContext] = None) -> None:
        super().__init__(stubs)
        self._events: Dict[str, List[Tuple[int, Optional[RawSummary]]]] = {}
        self._invalidations: List[InvalidationRecord] = []
        self._next_index = 0
        self._extract_cache: _LRU[
            Tuple[str, Optional[str]], Dict[str, RawSummary]
        ] = _LRU()
        self._resolve_cache: _LRU[
            Tuple[Optional[str], Tuple[Tuple[str, int, str], ...]],
            Dict[str, FunctionSummary],
        ] = _LRU()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_sources(
        cls,
        sources: Sequence[str],
        executed: Optional[Sequence[bool]] = None,
        *,
        stubs: Optional[StubContext] = None,
        memo: Optional["PrefixMemo"] = None,
    ) -> "NotebookSummaries":
        """The table after ``sources`` ran in order
        (:meth:`StubFold.from_sources`)."""
        table = super().from_sources(sources, executed, stubs=stubs, memo=memo)
        assert isinstance(table, NotebookSummaries)
        return table

    def fork(self, k: int) -> "NotebookSummaries":
        """An independent copy of this table as of its first ``k`` cells.

        For a table driven by :meth:`advance`: every event is appended
        under the index of the cell that caused it, so the copy is a
        truncation and analyses nothing, and the stub context is rewound
        to the environment before cell ``k``
        (:meth:`~repro.analysis.typetrack.StubContext.fork`). The
        copy starts with empty caches: cached resolutions are keyed by
        cell index, which a copy that advances differently may reuse for
        other cells.
        """
        copy = NotebookSummaries(
            self.stubs.fork(k) if self.stubs is not None else None
        )
        copy.steps = self.steps[:k]
        for name, events in self._events.items():
            kept = [event for event in events if event[0] < k]
            if kept:
                copy._events[name] = kept
        copy._invalidations = [
            record for record in self._invalidations if record.cell_index < k
        ]
        copy._next_index = k
        return copy

    def _stub_token(self) -> Optional[str]:
        return self.stubs.fingerprint() if self.stubs is not None else None

    @property
    def next_index(self) -> int:
        return self._next_index

    @property
    def invalidations(self) -> Tuple[InvalidationRecord, ...]:
        return tuple(self._invalidations)

    # -- views ---------------------------------------------------------------

    def _live_raws(self, at_index: int) -> Dict[str, RawSummary]:
        live: Dict[str, RawSummary] = {}
        for name in self._events:
            latest: Optional[RawSummary] = None
            found = False
            for event_index, raw in self._events[name]:
                if event_index <= at_index:
                    latest = raw
                    found = True
                else:
                    break
            if found and latest is not None:
                live[name] = latest
        return live

    def _dead_names(self, at_index: int) -> Set[str]:
        """Names whose latest binding event ``<= at_index`` is an
        invalidation — once-summarized functions the table has dropped."""
        dead: Set[str] = set()
        for name, events in self._events.items():
            latest: Optional[RawSummary] = None
            found = False
            for event_index, raw in events:
                if event_index <= at_index:
                    latest = raw
                    found = True
                else:
                    break
            if found and latest is None:
                dead.add(name)
        return dead

    def _resolve(self, raws: Dict[str, RawSummary]) -> Dict[str, FunctionSummary]:
        # Within one history a raw summary is named by where it was
        # defined: its cell and qualified name. The qualname tells apart
        # an alias rebound to another function defined in the same cell.
        key = (
            self._stub_token(),
            tuple(
                sorted(
                    (name, raw.cell_index, raw.qualname)
                    for name, raw in raws.items()
                )
            ),
        )
        cached = self._resolve_cache.get(key)
        if cached is None:
            cached = resolve_summaries(raws)
            self._resolve_cache.put(key, cached)
        return cached

    def view_at(self, at_index: int) -> SummaryView:
        """Summaries from cells ``<= at_index`` still live at that point."""
        return SummaryView(
            at_index + 1,
            self._resolve(self._live_raws(at_index)),
            frozenset(self._dead_names(at_index)),
        )

    def view_as_run(self, cell_index: int, source: str) -> SummaryView:
        """The view the effect analyzer had when ``cell_index`` ran.

        Retrospective twin of :meth:`view_for_cell`: live summaries
        from strictly earlier cells, overlaid with the cell's own
        definitions. ``view_at(cell_index)`` is wrong for call-site
        rules — a cell whose call surfaces an opaque escape wipes the
        table *at its own index*, hiding the very summary the finding
        is about.
        """
        raws = self._live_raws(cell_index - 1)
        own = {
            name: replace(raw, cell_index=cell_index)
            for name, raw in self._extract(source).items()
        }
        raws.update(own)
        dead = self._dead_names(cell_index - 1) - set(own)
        return SummaryView(cell_index + 1, self._resolve(raws), frozenset(dead))

    def _extract(self, source: str) -> Dict[str, RawSummary]:
        key = (source, self._stub_token())
        cached = self._extract_cache.get(key)
        if cached is not None:
            return {
                name: replace(raw, cell_index=self._next_index)
                for name, raw in cached.items()
            }
        try:
            module = parse(source)
        except SyntaxError:
            return {}
        resolver = (
            self.stubs.resolver(module) if self.stubs is not None else None
        )
        raws = extract_cell_summaries(
            module, self._next_index, resolver=resolver
        )
        self._extract_cache.put(key, raws)
        return raws

    def view_for_cell(self, source: str) -> SummaryView:
        """The view to analyze ``source`` with, as the next cell.

        Live summaries from committed cells, overlaid with the cell's
        own definitions so a same-cell ``def f(): …`` / ``f()`` pair
        expands (calls textually before the def would too — such code
        raises ``NameError`` at runtime, so over-approximating is moot).
        """
        raws = self._live_raws(self._next_index - 1)
        own = self._extract(source)
        raws.update(own)
        # A name this cell re-defines is live again for its own analysis.
        dead = self._dead_names(self._next_index - 1) - set(own)
        return SummaryView(self._next_index, self._resolve(raws), frozenset(dead))

    # -- advancing -----------------------------------------------------------

    def _record(self, name: str, raw: Optional[RawSummary]) -> None:
        self._events.setdefault(name, []).append((self._next_index, raw))

    def _invalidate(self, name: str, reason: str) -> None:
        self._record(name, None)
        self._invalidations.append(
            InvalidationRecord(
                cell_index=self._next_index, name=name, reason=reason
            )
        )

    def observe_cell(
        self, source: str, effects: CellEffects, *, executed: bool = True
    ) -> None:
        """Commit one cell's binding events and advance the table.

        ``effects`` must be the (interprocedural) analysis of ``source``
        — its write sets drive rebind invalidation, including writes a
        called helper performs on the cell's behalf. ``executed=False``
        (the cell raised) applies invalidations — a partial execution
        may have rebound anything the cell could rebind — but registers
        no new summaries, since the defs may never have run.
        """
        try:
            module: Optional[ast.Module] = parse(source)
        except SyntaxError:
            module = None
        if module is None:
            self._next_index += 1
            return

        live_before = self._live_raws(self._next_index - 1)

        if is_opaque_cell(effects):
            kinds = sorted(
                {
                    escape.kind.value
                    for escape in effects.escapes
                    if escape.kind in _OPAQUE_ESCAPE_KINDS
                }
            ) or ["opaque-writes"]
            for name in sorted(live_before):
                self._invalidate(name, f"opaque cell ({', '.join(kinds)})")
            self._next_index += 1
            return

        raws = self._extract(source)
        aliases = _alias_assignments(module)
        alias_targets = {target for target, _ in aliases}
        redefined_classes = {
            name.split(".", 1)[0] for name in raws if "." in name
        }

        # Names this cell binds by something *other* than a registration
        # form (a summarizable def/class, a lambda assignment, or a
        # simple alias): plain assignments, loop targets, del,
        # helper-mediated hidden stores, … Any live summary of such a
        # name is stale after this cell.
        other_bound: Set[str] = set()
        for statement in module.body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and is_summarizable_def(statement):
                continue
            if isinstance(statement, ast.ClassDef) and not statement.decorator_list:
                continue
            if (
                isinstance(statement, ast.Assign)
                and len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)
                and isinstance(statement.value, (ast.Lambda, ast.Name))
            ):
                continue
            stmt_locals, stmt_globals = _collect_bindings([statement])
            other_bound |= stmt_locals | stmt_globals
        other_bound |= effects.summary_writes | effects.summary_deletes
        other_bound |= effects.deletes | effects.conditional_deletes

        if not executed:
            # The cell raised: anything it *could* have rebound may or
            # may not have been, and its defs may never have run — drop
            # every affected live summary, register nothing.
            touched = other_bound | set(raws) | alias_targets
            for name in sorted(live_before):
                class_prefix = name.split(".", 1)[0]
                if name in touched or class_prefix in touched or (
                    "." in name and class_prefix in redefined_classes
                ):
                    self._invalidate(name, "binding cell raised")
            self._next_index += 1
            return

        for name in sorted(live_before):
            class_prefix = name.split(".", 1)[0]
            if name in other_bound or (
                "." in name and class_prefix in other_bound
            ):
                self._invalidate(name, "rebound by a later cell")
            elif "." in name and class_prefix in redefined_classes:
                # The class is being redefined; stale methods drop, the
                # replacements register below at this same cell index.
                self._invalidate(name, "class redefined")

        for name in sorted(raws):
            if name in other_bound:
                # Defined *and* otherwise rebound in one cell: the final
                # binding is ambiguous, stay conservative.
                if name in live_before:
                    self._invalidate(name, "ambiguous rebind in def cell")
                continue
            self._record(name, raws[name])
        for target, origin in aliases:
            if target in raws or target in other_bound:
                continue  # def/lambda registration or ambiguity wins
            source_raw = raws.get(origin) or live_before.get(origin)
            if source_raw is not None:
                self._record(target, replace(source_raw, name=target))
            elif target in live_before:
                self._invalidate(target, "rebound by a later cell")

        self._next_index += 1

    def analyze(self, source: str) -> CellEffects:
        """Analyze ``source``, the next cell, interprocedurally."""
        return analyze_cell(source, self.view_for_cell(source), stubs=self.stubs)

    def observe(
        self, source: str, effects: CellEffects, executed: bool = True
    ) -> int:
        invalidated = len(self._invalidations)
        self.observe_cell(source, effects, executed=executed)
        super().observe(source, effects, executed)
        return len(self._invalidations) - invalidated

    # -- reporting -----------------------------------------------------------

    def to_report(self) -> Dict[str, Any]:
        """JSON-stable summary report (the ``repro summaries`` payload)."""
        final = self.view_at(self._next_index - 1)
        functions = [summary.to_dict() for summary in final.functions()]
        return {
            "cells": self._next_index,
            "functions": functions,
            "invalidations": [
                record.to_dict() for record in self._invalidations
            ],
            "stats": {
                "live": len(functions),
                "invalidated": len(self._invalidations),
                "tracking_safe": sum(
                    1 for f in functions if f["tracking_safe"]
                ),
            },
        }


#: An analysis state :meth:`PrefixMemo.fold` folds: a :class:`StubFold`,
#: or the :class:`NotebookSummaries` table that extends it.
FoldState = StubFold


def prefix_keys(
    sources: Sequence[str], executed: Optional[Sequence[bool]] = None
) -> List[Tuple[int, int]]:
    """``(k, fingerprint of the first k sources and outcomes)`` for
    k = 1..len; ``executed`` defaults to all True.

    The fingerprint is hash-chained, so a source edited in place, or a
    cell that raised where another run did not, changes every key from
    its position on."""
    outcomes = executed or [True] * len(sources)
    keys: List[Tuple[int, int]] = []
    fingerprint = 0
    for k, (source, ran) in enumerate(zip(sources, outcomes), 1):
        fingerprint = hash((fingerprint, source, ran))
        keys.append((k, fingerprint))
    return keys


class PrefixMemo:
    """Folded analysis states by source prefix (DESIGN.md §14).

    Each key of a folded chain — see :func:`prefix_keys`; it covers the
    sources and their outcomes — maps to a state that folded at least
    that prefix, with each cell's effects among its steps; ``fork`` cuts
    the state after the first ``k`` cells back out. A stored state is a
    copy no caller holds, and it is never advanced. A later fold or
    adoption re-points every key of its chain at its own state, so a
    state stays alive only while it holds the only fold of some prefix.
    One memo serves one configuration (summaries and stubs on or off).
    States folded under one stub registry do not serve a fold under
    another: a change of registry fingerprint empties the memo.
    """

    def __init__(self) -> None:
        self._tables: Dict[Tuple[int, int], FoldState] = {}
        #: Dataflow cell nodes built from this memo's folds, by prefix key
        #: (:func:`~repro.analysis.dataflow.chain_analysis`); emptied with
        #: the memo.
        self.nodes: Dict[Tuple[int, int], "CellNode"] = {}
        self._registry: Optional[str] = None
        #: Sources the latest fold took from a stored state, and analysed.
        self.reused = 0
        self.folded = 0

    def __len__(self) -> int:
        return len(self._tables)

    def _follow_registry(self, state: FoldState) -> None:
        """Empty the memo unless its states resolved library calls against
        the registry ``state``'s stub context holds now."""
        registry = state.stubs.registry if state.stubs is not None else None
        token = registry.fingerprint() if registry is not None else None
        if token != self._registry:
            self._tables.clear()
            self.nodes.clear()
            self._registry = token

    def _remember(self, keys: Sequence[Tuple[int, int]], state: FoldState) -> None:
        stored = state.fork(len(keys))
        for key in keys:
            self._tables[key] = stored

    def fold(
        self,
        sources: Sequence[str],
        start: FoldState,
        executed: Optional[Sequence[bool]] = None,
    ) -> FoldState:
        """The state after ``sources`` ran in order, with each source's
        step.

        ``executed`` holds each source's outcome (default all True).
        Forks the deepest prefix of ``sources`` the memo holds, or
        ``start`` (the state before any source; it is never advanced),
        advances the fork over the rest, and remembers the result under
        every key of the chain. States resolve library calls against the
        registry of ``start``'s stub context. The state equals a fold of
        every source from ``start`` either way, and is a copy the caller
        may advance.
        """
        self._follow_registry(start)
        outcomes = executed or [True] * len(sources)
        keys = prefix_keys(sources, outcomes)
        k = next((key[0] for key in reversed(keys) if key in self._tables), 0)
        state = (self._tables[keys[k - 1]] if k else start).fork(k)
        for source, ran in zip(sources[k:], outcomes[k:]):
            state.advance(source, ran)
        if k < len(sources):
            self._remember(keys, state)
        self.reused, self.folded = k, len(sources) - k
        return state

    def adopt(
        self,
        sources: Sequence[str],
        executed: Sequence[bool],
        state: FoldState,
    ) -> int:
        """Remember ``state``, which its owner stepped itself, as the fold
        of ``sources`` with their outcomes ``executed``; returns how many
        sources that memoized.

        The state must have analysed each cell in the memo's
        configuration, against the registry its stub context holds now;
        it is the caller that knows. The memo checks the rest: it adopts
        nothing unless the state stepped exactly these sources with these
        outcomes, and nothing when it already holds the whole chain.
        Otherwise it stores a copy without caches under every key of the
        chain, as :meth:`fold` does; ``state`` itself is left to its owner.
        """
        stepped = [(step.source, step.executed) for step in state.steps]
        if not sources or stepped != list(zip(sources, executed)):
            return 0
        self._follow_registry(state)
        keys = prefix_keys(sources, executed)
        if keys[-1] in self._tables:
            return 0
        self._remember(keys, state)
        return len(keys)
