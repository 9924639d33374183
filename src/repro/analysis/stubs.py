"""Declarative library effect stubs (DESIGN.md §15).

The interprocedural summary layer (§14) stops at the user-code boundary:
a call into a module the AST pass cannot see collapses to the
conservative top (``calls_unknown``), so one ``df.merge(...)`` or
``model.fit(X)`` widens dataflow edges and escalates analysis on
library-heavy notebooks — exactly the workloads the paper's sessions are
dominated by.

This module is the effect-analysis analogue of type stubs: small,
versioned, declarative files stating what a third-party callable *may*
do, keyed by fully-qualified name:

* **purity** — ``"pure"`` calls touch neither the receiver nor the user
  namespace; ``"mutates"`` calls mutate the receiver in place;
* **parameter-position mutation** (``mutates_args``) — e.g.
  ``random.shuffle(x)`` mutates argument 0;
* **conditional mutation** (``mutates_if``) — pandas-style
  ``inplace=True`` keywords flip a call from constructing to mutating;
* **global / attribute writes** (``writes_globals``) and an optional
  **escape class** for calls that defeat tracking outright;
* **return typing** (``returns`` / ``returns_receiver``) feeding the
  local type tracker (:mod:`repro.analysis.typetrack`) so chained
  receivers keep resolving.

Stubs are *declared trust, not blind trust*: the
:class:`~repro.analysis.crossval.CrossValidator` keeps the runtime
oracle as a safety net — a stub whose declared write-set
under-approximates the observed runtime delta escalates the cell and
emits a ``stub_mismatch`` event (DESIGN.md §15.3), so a wrong stub is
detected, never silently believed.

File format (JSON always; TOML when the interpreter ships ``tomllib``)::

    {
      "stub_format": 1,
      "module": "repro.libsim.data_analysis",
      "module_version": null,
      "functions": {"read_frame": {"effect": "pure", "returns": "SimDataFrame"}},
      "types": {
        "SimDataFrame": {
          "constructor": {"effect": "pure"},
          "methods": {
            "drop_column": {"effect": "pure", "returns": "SimDataFrame"},
            "mean_of": {"effect": "pure"}
          }
        }
      },
      "attributes": {"environ": "Environ"}
    }

A file may instead carry ``"modules": [...]`` with several such objects.
Unqualified ``returns`` names resolve within the declaring module;
dotted names are fully qualified. The registry ships defaults covering
the :mod:`repro.libsim` personalities plus a small real-library starter
set; users extend it with their own files (``StubRegistry.add_file``,
``repro stubs`` CLI).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: The stub format version this loader understands.
STUB_FORMAT_VERSION = 1

#: Directory of the stub files shipped with the package.
STUBDATA_DIR = Path(__file__).resolve().parent / "stubdata"

_EFFECTS = ("pure", "mutates")


class StubError(ValueError):
    """A stub file (or mapping) violates the format contract."""


@dataclass(frozen=True)
class MutatesIf:
    """Keyword-conditional mutation (``inplace=True`` style)."""

    #: Keyword name whose truthiness selects mutating behaviour.
    kwarg: str
    #: Behaviour when the keyword is absent (pandas defaults to False).
    default: bool = False


@dataclass(frozen=True)
class CallStub:
    """Effect model of one fully-qualified callable."""

    #: Fully-qualified name (``module.func`` or ``module.Type.method``).
    qualname: str
    #: ``"pure"`` or ``"mutates"`` (receiver mutation for methods).
    effect: str = "pure"
    #: Fully-qualified abstract type of the return value, if tracked.
    returns: Optional[str] = None
    #: The call returns its receiver (sklearn ``fit`` chaining).
    returns_receiver: bool = False
    #: The returned object aliases *into* the receiver's object graph
    #: (matplotlib ``axis_at`` style): mutations through the result are
    #: mutations of the receiver.
    returns_alias: bool = False
    #: Positional argument indices mutated in place.
    mutates_args: Tuple[int, ...] = ()
    #: Keyword-conditional mutation; overrides :attr:`effect` when set.
    mutates_if: Optional[MutatesIf] = None
    #: Module/user globals the call may write.
    writes_globals: Tuple[str, ...] = ()
    #: :class:`~repro.analysis.effects.EscapeKind` value for calls that
    #: defeat namespace tracking entirely, or ``None``.
    escape: Optional[str] = None

    @property
    def is_pure(self) -> bool:
        """No effect on the receiver, arguments, or namespace at all."""
        return (
            self.effect == "pure"
            and self.mutates_if is None
            and not self.mutates_args
            and not self.writes_globals
            and self.escape is None
        )

    def fingerprint_key(self) -> Tuple[Any, ...]:
        return (
            self.qualname,
            self.effect,
            self.returns,
            self.returns_receiver,
            self.returns_alias,
            self.mutates_args,
            (self.mutates_if.kwarg, self.mutates_if.default)
            if self.mutates_if
            else None,
            self.writes_globals,
            self.escape,
        )


@dataclass(frozen=True)
class TypeStub:
    """Effect models of one library type's constructor and methods."""

    qualname: str
    constructor: Optional[CallStub] = None
    methods: Mapping[str, CallStub] = field(default_factory=dict)


@dataclass(frozen=True)
class ModuleStubs:
    """Every stub declared for one importable module."""

    module: str
    version: Optional[str] = None
    stub_format: int = STUB_FORMAT_VERSION
    functions: Mapping[str, CallStub] = field(default_factory=dict)
    types: Mapping[str, TypeStub] = field(default_factory=dict)
    #: Module attribute name → fully-qualified abstract type
    #: (``os.environ`` → ``os.Environ``).
    attributes: Mapping[str, str] = field(default_factory=dict)
    #: When set, any call on this module not otherwise listed gets this
    #: effect (``math`` is all-pure); use sparingly.
    default_effect: Optional[str] = None
    #: Path the stub was loaded from (``None`` for programmatic stubs);
    #: surfaced by the KSH502 fix-it.
    source: Optional[str] = None


def _require_str(value: Any, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise StubError(f"{what} must be a non-empty string, got {value!r}")
    return value


def _parse_call(qualname: str, data: Any, module: str) -> CallStub:
    if not isinstance(data, dict):
        raise StubError(f"stub for {qualname} must be an object, got {data!r}")
    known = {
        "effect",
        "returns",
        "returns_receiver",
        "returns_alias",
        "mutates_args",
        "mutates_if",
        "writes_globals",
        "escape",
    }
    unknown = set(data) - known
    if unknown:
        raise StubError(f"stub for {qualname}: unknown keys {sorted(unknown)}")
    effect = data.get("effect", "pure")
    if effect not in _EFFECTS:
        raise StubError(
            f"stub for {qualname}: effect must be one of {_EFFECTS}, got {effect!r}"
        )
    mutates_if_raw = data.get("mutates_if")
    mutates_if: Optional[MutatesIf] = None
    if mutates_if_raw is not None:
        if not isinstance(mutates_if_raw, dict) or "kwarg" not in mutates_if_raw:
            raise StubError(f"stub for {qualname}: mutates_if needs a 'kwarg' key")
        mutates_if = MutatesIf(
            kwarg=_require_str(mutates_if_raw["kwarg"], f"{qualname}.mutates_if.kwarg"),
            default=bool(mutates_if_raw.get("default", False)),
        )
    mutates_args_raw = data.get("mutates_args", ())
    if not isinstance(mutates_args_raw, (list, tuple)) or not all(
        isinstance(i, int) and i >= 0 for i in mutates_args_raw
    ):
        raise StubError(
            f"stub for {qualname}: mutates_args must be non-negative positions"
        )
    writes_raw = data.get("writes_globals", ())
    if not isinstance(writes_raw, (list, tuple)):
        raise StubError(f"stub for {qualname}: writes_globals must be a list")
    returns = data.get("returns")
    returns_fq: Optional[str] = None
    if returns:
        returns_fq = _require_str(returns, f"{qualname}.returns")
        if "." not in returns_fq:
            returns_fq = f"{module}.{returns_fq}"
    return CallStub(
        qualname=qualname,
        effect=effect,
        returns=returns_fq,
        returns_receiver=bool(data.get("returns_receiver", False)),
        returns_alias=bool(data.get("returns_alias", False)),
        mutates_args=tuple(int(i) for i in mutates_args_raw),
        mutates_if=mutates_if,
        writes_globals=tuple(
            _require_str(w, f"{qualname}.writes_globals") for w in writes_raw
        ),
        escape=_require_str(data["escape"], f"{qualname}.escape")
        if data.get("escape")
        else None,
    )


def _parse_module(data: Any, source: Optional[str]) -> ModuleStubs:
    if not isinstance(data, dict):
        raise StubError(f"module stub must be an object, got {data!r}")
    module = _require_str(data.get("module"), "module")
    fmt = data.get("stub_format", STUB_FORMAT_VERSION)
    if not isinstance(fmt, int) or fmt > STUB_FORMAT_VERSION:
        raise StubError(
            f"stubs for {module}: format {fmt!r} is newer than supported "
            f"version {STUB_FORMAT_VERSION}"
        )
    functions: Dict[str, CallStub] = {}
    for name, call in (data.get("functions") or {}).items():
        qual = f"{module}.{name}"
        functions[name] = _parse_call(qual, call, module)
    types: Dict[str, TypeStub] = {}
    for tname, tdata in (data.get("types") or {}).items():
        if not isinstance(tdata, dict):
            raise StubError(f"type stub {module}.{tname} must be an object")
        tqual = f"{module}.{tname}"
        ctor = tdata.get("constructor")
        methods = {
            mname: _parse_call(f"{tqual}.{mname}", mdata, module)
            for mname, mdata in (tdata.get("methods") or {}).items()
        }
        types[tname] = TypeStub(
            qualname=tqual,
            constructor=_parse_call(tqual, ctor, module) if ctor is not None else None,
            methods=methods,
        )
    attributes: Dict[str, str] = {}
    for aname, atype in (data.get("attributes") or {}).items():
        atype_fq = _require_str(atype, f"{module}.{aname} attribute type")
        if "." not in atype_fq:
            atype_fq = f"{module}.{atype_fq}"
        attributes[_require_str(aname, f"{module} attribute name")] = atype_fq
    default_effect = data.get("default_effect")
    if default_effect is not None and default_effect not in _EFFECTS:
        raise StubError(
            f"stubs for {module}: default_effect must be one of {_EFFECTS}"
        )
    version = data.get("module_version")
    return ModuleStubs(
        module=module,
        version=_require_str(version, f"{module}.module_version")
        if version is not None
        else None,
        stub_format=fmt,
        functions=functions,
        types=types,
        attributes=attributes,
        default_effect=default_effect,
        source=source,
    )


def parse_stub_mapping(data: Any, source: Optional[str] = None) -> List[ModuleStubs]:
    """Parse one loaded stub document (single- or multi-module form)."""
    if isinstance(data, dict) and "modules" in data:
        fmt = data.get("stub_format", STUB_FORMAT_VERSION)
        if not isinstance(fmt, int) or fmt > STUB_FORMAT_VERSION:
            raise StubError(
                f"stub file format {fmt!r} is newer than supported "
                f"version {STUB_FORMAT_VERSION}"
            )
        modules = data["modules"]
        if not isinstance(modules, list):
            raise StubError("'modules' must be a list of module stub objects")
        return [_parse_module(entry, source) for entry in modules]
    return [_parse_module(data, source)]


def load_stub_file(path: Path) -> List[ModuleStubs]:
    """Load a ``.json`` (or, where ``tomllib`` exists, ``.toml``) stub file."""
    path = Path(path)
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # Python < 3.11
            raise StubError(
                f"{path}: TOML stubs need Python 3.11+ (tomllib); "
                "use the JSON form instead"
            ) from exc
        with open(path, "rb") as handle:
            data: Any = tomllib.load(handle)
    else:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise StubError(f"{path}: invalid JSON: {exc}") from exc
    return parse_stub_mapping(data, source=str(path))


class StubRegistry:
    """Effect stubs keyed by resolved import names.

    Lookups are by *fully-qualified* module / type / callable names as
    the type tracker resolves them from import statements — never by
    bare attribute spelling, so ``df.merge`` only resolves once ``df``'s
    binding is proven to be a stubbed type.
    """

    def __init__(self) -> None:
        self._modules: Dict[str, ModuleStubs] = {}
        #: Memoized :meth:`fingerprint`; :meth:`add`, the only writer of
        #: ``_modules``, drops it.
        self._fingerprint: Optional[str] = None

    # -- construction ------------------------------------------------------

    def add(self, stubs: ModuleStubs) -> None:
        """Register one module's stubs (replacing any previous entry)."""
        self._modules[stubs.module] = stubs
        self._fingerprint = None

    def add_mapping(self, data: Any, source: Optional[str] = None) -> None:
        for stubs in parse_stub_mapping(data, source):
            self.add(stubs)

    def add_file(self, path: Path) -> None:
        for stubs in load_stub_file(path):
            self.add(stubs)

    # -- lookups -----------------------------------------------------------

    def modules(self) -> List[ModuleStubs]:
        return [self._modules[name] for name in sorted(self._modules)]

    def module(self, name: str) -> Optional[ModuleStubs]:
        return self._modules.get(name)

    def has_module(self, name: str) -> bool:
        return name in self._modules

    def has_module_prefix(self, name: str) -> bool:
        """True when ``name`` is a registered module or a package prefix of
        one — lets ``import repro.libsim.data_analysis`` resolve attribute
        chains rooted at the top-level package binding."""
        if name in self._modules:
            return True
        prefix = name + "."
        return any(module.startswith(prefix) for module in self._modules)

    def type(self, qualname: str) -> Optional[TypeStub]:
        module, _, tname = qualname.rpartition(".")
        stubs = self._modules.get(module)
        if stubs is None:
            return None
        return stubs.types.get(tname)

    def function(self, module: str, name: str) -> Optional[CallStub]:
        """Stub for ``module.name`` as a plain function call."""
        stubs = self._modules.get(module)
        if stubs is None:
            return None
        call = stubs.functions.get(name)
        if call is not None:
            return call
        if stubs.default_effect is not None:
            return CallStub(
                qualname=f"{module}.{name}", effect=stubs.default_effect
            )
        return None

    def constructor(self, qualname: str) -> Optional[CallStub]:
        """Stub for calling type ``qualname``; defaults to a pure call
        returning an instance of the type."""
        tstub = self.type(qualname)
        if tstub is None:
            return None
        if tstub.constructor is not None:
            if tstub.constructor.returns is None:
                return CallStub(
                    qualname=tstub.constructor.qualname,
                    effect=tstub.constructor.effect,
                    returns=qualname,
                    returns_receiver=tstub.constructor.returns_receiver,
                    returns_alias=tstub.constructor.returns_alias,
                    mutates_args=tstub.constructor.mutates_args,
                    mutates_if=tstub.constructor.mutates_if,
                    writes_globals=tstub.constructor.writes_globals,
                    escape=tstub.constructor.escape,
                )
            return tstub.constructor
        return CallStub(qualname=qualname, effect="pure", returns=qualname)

    def method(self, type_qualname: str, name: str) -> Optional[CallStub]:
        tstub = self.type(type_qualname)
        if tstub is None:
            return None
        return tstub.methods.get(name)

    def callable(self, qualname: str) -> Optional[CallStub]:
        """Stub for a bare callable name: a module function or a type
        constructor (``from m import SimSeries; SimSeries(...)``)."""
        module, _, name = qualname.rpartition(".")
        if not module:
            return None
        call = self.function(module, name)
        if call is not None and name in (self._modules[module].functions or {}):
            return call
        ctor = self.constructor(qualname)
        if ctor is not None:
            return ctor
        return call

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable digest of every registered stub (cache keying)."""
        if self._fingerprint is None:
            self._fingerprint = self._digest()
        return self._fingerprint

    def _digest(self) -> str:
        import hashlib

        parts: List[str] = []
        for stubs in self.modules():
            parts.append(f"{stubs.module}|{stubs.version}|{stubs.default_effect}")
            for fname in sorted(stubs.functions):
                parts.append(repr(stubs.functions[fname].fingerprint_key()))
            for tname in sorted(stubs.types):
                tstub = stubs.types[tname]
                if tstub.constructor is not None:
                    parts.append(repr(tstub.constructor.fingerprint_key()))
                for mname in sorted(tstub.methods):
                    parts.append(repr(tstub.methods[mname].fingerprint_key()))
            for aname in sorted(stubs.attributes):
                parts.append(f"{stubs.module}.{aname}->{stubs.attributes[aname]}")
        digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
        return digest[:16]

    def version_mismatch(self, module_name: str) -> Optional[Tuple[str, str]]:
        """(declared, imported) versions when they provably disagree.

        Only fires when the stub pins a version *and* the module is
        importable *and* exposes ``__version__`` — shipped stubs leave
        the version null, so this is opt-in per user stub (KSH503).
        """
        stubs = self._modules.get(module_name)
        if stubs is None or stubs.version is None:
            return None
        import importlib
        import sys

        module = sys.modules.get(module_name)
        if module is None:
            try:
                module = importlib.import_module(module_name)
            except Exception:
                return None
        imported = getattr(module, "__version__", None)
        if imported is None or str(imported) == stubs.version:
            return None
        return (stubs.version, str(imported))


_DEFAULT_MODULES: Optional[Tuple[ModuleStubs, ...]] = None


def shipped_stub_files() -> List[Path]:
    return sorted(STUBDATA_DIR.glob("*.json"))


def _load_default_modules() -> Tuple[ModuleStubs, ...]:
    global _DEFAULT_MODULES
    if _DEFAULT_MODULES is None:
        loaded: List[ModuleStubs] = []
        for path in shipped_stub_files():
            loaded.extend(load_stub_file(path))
        _DEFAULT_MODULES = tuple(loaded)
    return _DEFAULT_MODULES


def default_registry(extra_files: Iterable[Path] = ()) -> StubRegistry:
    """A fresh registry preloaded with the shipped stubs.

    Each call returns an independent registry so user additions never
    leak between sessions; the shipped files themselves are parsed once
    per process.
    """
    registry = StubRegistry()
    for stubs in _load_default_modules():
        registry.add(stubs)
    for path in extra_files:
        registry.add_file(Path(path))
    return registry
