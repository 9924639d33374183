"""Flow-insensitive local type tracking for stub resolution (DESIGN.md §15.2).

Effect stubs (:mod:`repro.analysis.stubs`) are keyed by fully-qualified
names, but cell code calls them through local bindings: ``import
repro.libsim.data_analysis as _simda``, ``df = _simda.SimDataFrame()``,
``df.drop_column("c0")``. This module proves those bindings, binding
receiver expressions to **abstract types**:

* ``Module(m)`` — the name is ``m``'s module object (from ``import``);
* ``Instance(T)`` — the name holds an instance of stubbed type ``T``
  (from a constructor call or a stubbed return type);
* ``Callable(q)`` — the name is the stubbed callable ``q`` itself
  (from ``from m import f``).

The lattice per name is ``unknown ⊐ one-type ⊐ (unused)``: a name either
has exactly one proven type or it has none. Tracking is deliberately
**flow-insensitive and conservative** — a name rebound within a cell to
anything the tracker cannot type, rebound to two different types, stored
from a nested scope, or bound by a construct the tracker does not model,
resolves to *unknown*, and stubs never fire on it. ``from m import *``
poisons the whole cell (:attr:`CellResolver.sound`): star imports bind a
statically unknowable set of names, so no binding in that cell is
provable (the satellite property test pins this).

Soundness is two-layered: the tracker only *under*-claims bindings (a
missed binding costs precision, never correctness), and even a wrong
stub fired on a correctly-typed receiver is caught at runtime by the
CrossValidator's stub-mismatch check — declared trust, verified deltas.

Per notebook, :class:`StubContext` binds a registry to the environment
carried across cells, with the same lifecycle as the summary table:
executed cells apply their exported bindings, a cell that raised drops
every name it binds, opaque cells (``exec`` / ``globals()`` / star
imports) wipe the environment, and per-cell snapshots let the lint
rules re-resolve cells as they ran. A driver that has a cell's effects
(the session's analysis state, every fold) decides opacity by the
summary table's own rule,
:func:`~repro.analysis.summaries.is_opaque_cell`; one without (``repro
stubs check``) scans the cell for ``exec``-like calls. A context forks
at any cell, so a :class:`~repro.analysis.summaries.PrefixMemo`
memoizes it inside the summary table or, with summaries off, alone
(:class:`~repro.analysis.summaries.StubFold`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.analysis.stubs import CallStub, StubRegistry, default_registry
from repro.parsing import parse

MODULE = "module"
INSTANCE = "instance"
CALLABLE = "callable"


@dataclass(frozen=True)
class AbstractType:
    """One point of the tracking lattice (below *unknown*)."""

    kind: str
    qualname: str

    def __str__(self) -> str:
        return f"{self.kind}:{self.qualname}"


def module_type(qualname: str) -> AbstractType:
    return AbstractType(MODULE, qualname)


def instance_type(qualname: str) -> AbstractType:
    return AbstractType(INSTANCE, qualname)


def callable_type(qualname: str) -> AbstractType:
    return AbstractType(CALLABLE, qualname)


@dataclass(frozen=True)
class ResolvedCall:
    """A call site resolved to a stub through proven bindings."""

    stub: CallStub
    #: Fully-qualified name the call resolved to.
    qualname: str
    #: Base plain name of the receiver expression (mutation target), or
    #: ``None`` when the receiver is not rooted at a name.
    receiver: Optional[str]
    receiver_type: Optional[AbstractType]


@dataclass(frozen=True)
class UnknownLibraryCall:
    """A library-shaped call no stub covers (KSH502 raw material)."""

    #: Qualified name of the uncovered callable, best effort.
    qualname: str
    #: Stub file that covers the module/type, if one exists to extend.
    stub_file: Optional[str]


def stub_call_mutates(stub: CallStub, call: ast.Call) -> bool:
    """Does this call site mutate its receiver, per the stub?

    ``mutates_if`` keywords (pandas ``inplace=True``) are decided from
    the literal keyword value; a non-literal value or a ``**kwargs``
    splat is conservatively mutating.
    """
    if stub.mutates_if is not None:
        keyword = next(
            (k for k in call.keywords if k.arg == stub.mutates_if.kwarg), None
        )
        if keyword is None:
            if any(k.arg is None for k in call.keywords):
                return True  # **kwargs may smuggle the flag in
            return stub.mutates_if.default or stub.effect == "mutates"
        if isinstance(keyword.value, ast.Constant) and isinstance(
            keyword.value.value, bool
        ):
            return keyword.value.value
        return True
    return stub.effect == "mutates"


def stub_is_pure_at(stub: CallStub, call: ast.Call) -> bool:
    """Whole-call purity at one site: nothing the call can reach —
    receiver, arguments, globals — is mutated, and no escape fires."""
    return (
        not stub_call_mutates(stub, call)
        and not stub.mutates_args
        and not stub.writes_globals
        and stub.escape is None
    )


def _base_name(node: ast.expr) -> Optional[str]:
    """The plain name a receiver expression is rooted at, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


#: One binding event: a pre-resolved type (imports) or the bound rhs
#: expression (assignments, resolved by inference), or ``None`` (poison).
_BindEvent = Union[AbstractType, ast.expr, None]


class CellResolver:
    """Binding proofs and stub resolution for one cell's AST.

    Construction scans the module: import statements and module-level
    simple assignments produce typed binding events; every *other* store
    of a name — nested scopes, tuple targets, loop/with targets, walrus,
    ``del``, def/class statements — poisons that name. The final per-name
    verdict is the flow-insensitive meet of the incoming environment and
    every binding event: one agreed type, or unknown.
    """

    def __init__(
        self,
        registry: StubRegistry,
        env: Mapping[str, AbstractType],
        module: ast.Module,
    ) -> None:
        self._registry = registry
        self._env = dict(env)
        #: False when a star import makes every binding unprovable.
        self.sound = not any(
            isinstance(node, ast.ImportFrom)
            and any(alias.name == "*" for alias in node.names)
            for node in ast.walk(module)
        )
        self._events: Dict[str, List[_BindEvent]] = {}
        self._accounted: Dict[str, int] = {}
        self._scan_statements(module.body)
        self._poison_unaccounted(module)
        self._use: Dict[str, Optional[AbstractType]] = {}
        self._finalize()

    # -- binding collection ------------------------------------------------

    def _event(self, name: str, event: _BindEvent, stores: int = 0) -> None:
        self._events.setdefault(name, []).append(event)
        if stores:
            self._accounted[name] = self._accounted.get(name, 0) + stores

    def _scan_statements(self, statements: List[ast.stmt]) -> None:
        for stmt in statements:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    if alias.asname is not None:
                        self._event(alias.asname, module_type(alias.name))
                    else:
                        top = alias.name.split(".", 1)[0]
                        self._event(top, module_type(top))
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name == "*":
                        continue  # the sound flag already covers the cell
                    bound = alias.asname or alias.name
                    if stmt.level or stmt.module is None:
                        self._event(bound, None)  # relative import: unknown
                        continue
                    self._event(bound, self._from_import_type(stmt.module, alias.name))
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._event(target.id, stmt.value, stores=1)
                    else:
                        self._poison_target(target)
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                    self._event(stmt.target.id, stmt.value, stores=1)
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name):
                    self._event(stmt.target.id, None, stores=1)
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._event(target.id, None, stores=1)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self._event(stmt.name, None)
            elif isinstance(stmt, ast.If):
                self._scan_statements(stmt.body)
                self._scan_statements(stmt.orelse)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_statements(stmt.body)
                self._scan_statements(stmt.orelse)
            elif isinstance(stmt, ast.While):
                self._scan_statements(stmt.body)
                self._scan_statements(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._scan_statements(stmt.body)
            elif isinstance(stmt, ast.Try):
                self._scan_statements(stmt.body)
                for handler in stmt.handlers:
                    if handler.name is not None:
                        self._event(handler.name, None)
                    self._scan_statements(handler.body)
                self._scan_statements(stmt.orelse)
                self._scan_statements(stmt.finalbody)

    def _poison_target(self, target: ast.expr) -> None:
        """Tuple/list/starred unpack targets: bound, but untyped."""
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                self._event(node.id, None, stores=1)

    def _poison_unaccounted(self, module: ast.Module) -> None:
        """Any store the scan did not model poisons the name.

        This sweep is the conservativeness backstop: walrus targets,
        comprehension targets, loop/with variables, and nested-scope
        stores (including ``global``-declared ones) all reach here, so a
        name the tracker did not explicitly type can never keep a stale
        environment binding.
        """
        counts: Dict[str, int] = {}
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                counts[node.id] = counts.get(node.id, 0) + 1
        for name, count in counts.items():
            if count > self._accounted.get(name, 0):
                self._events.setdefault(name, []).append(None)

    def _from_import_type(self, module: str, name: str) -> Optional[AbstractType]:
        qualname = f"{module}.{name}"
        stubs = self._registry.module(module)
        if stubs is not None and (name in stubs.functions or name in stubs.types):
            return callable_type(qualname)
        if self._registry.has_module_prefix(qualname):
            return module_type(qualname)
        return None

    # -- verdicts ----------------------------------------------------------

    def _finalize(self) -> None:
        use: Dict[str, Optional[AbstractType]] = dict(self._env)
        for _ in range(4):
            changed = False
            for name, events in self._events.items():
                candidate = self._meet_events(events, use)
                if name in self._env:
                    final = (
                        candidate
                        if candidate is not None and self._env[name] == candidate
                        else None
                    )
                else:
                    final = candidate
                if use.get(name) != final:
                    use[name] = final
                    changed = True
            if not changed:
                break
        self._use = use

    def _meet_events(
        self,
        events: List[_BindEvent],
        use: Dict[str, Optional[AbstractType]],
    ) -> Optional[AbstractType]:
        seen: Optional[AbstractType] = None
        for event in events:
            if event is None:
                return None
            if isinstance(event, AbstractType):
                inferred: Optional[AbstractType] = event
            else:
                inferred = self._infer(event, use)
            if inferred is None:
                return None
            if seen is None:
                seen = inferred
            elif seen != inferred:
                return None
        return seen

    def _infer(
        self, expr: ast.expr, use: Dict[str, Optional[AbstractType]]
    ) -> Optional[AbstractType]:
        if isinstance(expr, ast.Name):
            return use.get(expr.id)
        if isinstance(expr, ast.Attribute):
            value = self._infer(expr.value, use)
            if value is None:
                return None
            if value.kind == MODULE:
                submodule = f"{value.qualname}.{expr.attr}"
                stubs = self._registry.module(value.qualname)
                if stubs is not None:
                    attr_type = stubs.attributes.get(expr.attr)
                    if attr_type is not None:
                        return instance_type(attr_type)
                    if expr.attr in stubs.functions or expr.attr in stubs.types:
                        return callable_type(submodule)
                if self._registry.has_module_prefix(submodule):
                    return module_type(submodule)
            return None
        if isinstance(expr, ast.Call):
            resolved = self._resolve_with(expr, use)
            if resolved is None:
                return None
            if resolved.stub.returns_receiver:
                if isinstance(resolved.stub, CallStub) and isinstance(
                    expr.func, ast.Attribute
                ):
                    return self._infer(expr.func.value, use)
                return None
            if resolved.stub.returns is not None:
                return instance_type(resolved.stub.returns)
            return None
        return None

    # -- resolution --------------------------------------------------------

    def bindings(self) -> Dict[str, Optional[AbstractType]]:
        """Final per-name verdicts (``None`` = unknown) for this cell."""
        return dict(self._use)

    def exports(self) -> Dict[str, Optional[AbstractType]]:
        """Environment delta this cell applies when it executes: every
        name it binds, mapped to its proven type or ``None``."""
        return {name: self._use.get(name) for name in self._events}

    def type_of(self, name: str) -> Optional[AbstractType]:
        return self._use.get(name)

    def infer_expr(self, expr: ast.expr) -> Optional[AbstractType]:
        if not self.sound:
            return None
        return self._infer(expr, self._use)

    def resolve_call(self, call: ast.Call) -> Optional[ResolvedCall]:
        """Resolve one call site to a stub, or ``None``.

        Never resolves inside an unsound (star-imported) cell, and never
        resolves through a binding the scan could not prove — the two
        invariants the satellite property test exercises.
        """
        if not self.sound:
            return None
        return self._resolve_with(call, self._use)

    def _resolve_with(
        self, call: ast.Call, use: Dict[str, Optional[AbstractType]]
    ) -> Optional[ResolvedCall]:
        func = call.func
        if isinstance(func, ast.Name):
            bound = use.get(func.id)
            if bound is None or bound.kind != CALLABLE:
                return None
            stub = self._registry.callable(bound.qualname)
            if stub is None:
                return None
            return ResolvedCall(
                stub=stub, qualname=bound.qualname, receiver=None, receiver_type=None
            )
        if not isinstance(func, ast.Attribute):
            return None
        receiver_type = self._infer(func.value, use)
        if receiver_type is None:
            return None
        receiver = _base_name(func.value)
        if receiver_type.kind == MODULE:
            stub = self._registry.function(receiver_type.qualname, func.attr)
            if stub is None:
                stub = self._registry.constructor(
                    f"{receiver_type.qualname}.{func.attr}"
                )
            if stub is None:
                return None
            return ResolvedCall(
                stub=stub,
                qualname=f"{receiver_type.qualname}.{func.attr}",
                receiver=receiver,
                receiver_type=receiver_type,
            )
        if receiver_type.kind == INSTANCE:
            stub = self._registry.method(receiver_type.qualname, func.attr)
            if stub is None:
                return None
            return ResolvedCall(
                stub=stub,
                qualname=f"{receiver_type.qualname}.{func.attr}",
                receiver=receiver,
                receiver_type=receiver_type,
            )
        return None

    def method_effect(self, call: ast.Call) -> Optional[bool]:
        """Three-valued mutation oracle for the dataflow layer: ``True``
        (mutates its receiver), ``False`` (provably pure), ``None``
        (no stub proof — fall back to heuristics)."""
        resolved = self.resolve_call(call)
        if resolved is None:
            return None
        if stub_call_mutates(resolved.stub, call):
            return True
        # A pure verdict must cover the *whole* call: a call mutating its
        # arguments or globals is not safe to drop from the mutator set.
        if self._stub_is_pure_at(resolved.stub, call):
            return False
        return None

    def _stub_is_pure_at(self, stub: CallStub, call: ast.Call) -> bool:
        return stub_is_pure_at(stub, call)

    def unknown_library_call(self, call: ast.Call) -> Optional[UnknownLibraryCall]:
        """Classify an *unresolved* call as library-shaped, if it is.

        A call is library-shaped when its receiver provably is a module
        object or an instance of a stubbed type, yet no stub entry covers
        the member — exactly the situation KSH502's fix-it points at.
        """
        if not self.sound or not isinstance(call.func, ast.Attribute):
            return None
        receiver_type = self._infer(call.func.value, self._use)
        if receiver_type is None:
            return None
        qualname = f"{receiver_type.qualname}.{call.func.attr}"
        if receiver_type.kind == MODULE:
            stubs = self._registry.module(receiver_type.qualname)
            return UnknownLibraryCall(
                qualname=qualname,
                stub_file=stubs.source if stubs is not None else None,
            )
        if receiver_type.kind == INSTANCE:
            module_name = receiver_type.qualname.rpartition(".")[0]
            stubs = self._registry.module(module_name)
            return UnknownLibraryCall(
                qualname=qualname,
                stub_file=stubs.source if stubs is not None else None,
            )
        return None


_OPAQUE_CALLEES = frozenset(
    {"exec", "eval", "globals", "locals", "vars", "__import__"}
)


def _module_is_opaque(module: ast.Module) -> bool:
    """Light-weight opacity check for drivers without full effects."""
    for node in ast.walk(module):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _OPAQUE_CALLEES
        ):
            return True
    return False


class StubContext:
    """A stub registry bound to one notebook's abstract-type environment.

    Mirrors the :class:`~repro.analysis.summaries.NotebookSummaries`
    lifecycle: :meth:`observe_cell` after each cell applies the names it
    binds (opaque and star-import cells wipe everything — the namespace
    may have been arbitrarily rebound), and per-cell snapshots support
    retrospective ``as-run`` resolution for lint. It is the one handle
    the session's analysis state, the summary extractor and the chain
    fold resolve library calls through.
    """

    def __init__(self, registry: Optional[StubRegistry] = None) -> None:
        self.registry = registry if registry is not None else default_registry()
        self._env: Dict[str, AbstractType] = {}
        #: Environment *before* each observed cell, by cell index.
        self._snapshots: List[Dict[str, AbstractType]] = []

    # -- resolution --------------------------------------------------------

    def current(self) -> Dict[str, AbstractType]:
        return dict(self._env)

    def env_at(self, index: int) -> Dict[str, AbstractType]:
        if 0 <= index < len(self._snapshots):
            return dict(self._snapshots[index])
        return dict(self._env)

    def resolver(self, module: ast.Module) -> CellResolver:
        return CellResolver(self.registry, self._env, module)

    def resolver_as_run(self, index: int, module: ast.Module) -> CellResolver:
        return CellResolver(self.registry, self.env_at(index), module)

    # -- lifecycle ---------------------------------------------------------

    def observe_cell(
        self,
        source: str,
        *,
        executed: bool = True,
        opaque: Optional[bool] = None,
    ) -> None:
        """Advance the environment past one cell.

        ``opaque`` should be
        :func:`~repro.analysis.summaries.is_opaque_cell` of the cell's
        effects when the caller has analyzed it; left ``None``, a
        light-weight scan decides. A cell that raised (``executed`` is
        False) may have rebound any name it binds before it stopped, so
        it drops every one of them and applies none.
        """
        self._snapshots.append(dict(self._env))
        try:
            module = parse(source)
        except SyntaxError:
            return  # the cell cannot have executed either
        resolver = CellResolver(self.registry, self._env, module)
        if opaque is None:
            opaque = _module_is_opaque(module)
        if opaque or not resolver.sound:
            self._env = {}
            return
        for name, bound in resolver.exports().items():
            if bound is None or not executed:
                self._env.pop(name, None)
            else:
                self._env[name] = bound

    def fork(self, k: int) -> "StubContext":
        """An independent copy as of before cell ``k``, over the same
        registry.

        Cell ``i`` appends the snapshot before it, so the copy keeps the
        first ``k`` snapshots and resumes from the ``k``-th. Snapshots are
        never mutated once taken, so the copy shares them.
        """
        context = StubContext(self.registry)
        context._snapshots = self._snapshots[:k]
        current = self._snapshots[k] if k < len(self._snapshots) else self._env
        context._env = dict(current)
        return context

    def fingerprint(self) -> str:
        parts = sorted(
            f"{name}={bound.kind}:{bound.qualname}"
            for name, bound in self._env.items()
        )
        import hashlib

        env = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:12]
        return f"{self.registry.fingerprint()}:{env}"
