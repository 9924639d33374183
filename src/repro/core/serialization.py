"""Co-variable serialization (§6.1 of the paper).

Kishu serializes each co-variable independently — its payload is the dict
of member-name → object, pickled as one unit so intra-co-variable shared
references are preserved by the pickler's memo table. Because co-variables
have *no* inter-co-variable references (Definition 1), per-co-variable
pickling is exactly as correct as pickling the whole state.

The paper's implementation tries CloudPickle first and falls back to Dill
for objects CloudPickle fails on. Neither is available offline, so this
module reproduces the same *chain* design with:

* :class:`PrimaryPickler` — stdlib pickle (protocol 5). Fails on the same
  things stdlib pickle fails on: local/lambda functions, generators, objects
  whose reductions raise.
* :class:`FallbackPickler` — stdlib pickle extended with by-value function
  serialization (marshal'd code objects, reconstructed closures), the core
  capability Dill/CloudPickle add over pickle. It also honours the
  ``_requires_fallback_pickler`` marker that libsim classes use to model
  "CloudPickle fails, Dill succeeds" behaviour.

Objects that no pickler in the chain can handle (generators, hash objects,
classes marked ``_unserializable``) raise :class:`SerializationError`; the
checkpointing layer then skips the payload and relies on fallback
recomputation (§5.3).

A function rebuilt by value needs a globals dict: the caller passes it to
:meth:`SerializerChain.deserialize` as ``namespace`` (a checkout passes the
kernel namespace it installs into), and every function the payload
rebuilds binds it.
"""

from __future__ import annotations

import functools
import io
import marshal
import pickle
import types
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from repro.errors import DeserializationError, SerializationError

PICKLE_PROTOCOL = 5


def _rebuild_function(
    code_bytes: bytes,
    name: str,
    defaults: Optional[tuple],
    closure_values: Optional[tuple],
    qualname: str,
    *,
    namespace: Optional[Dict[str, Any]] = None,
) -> types.FunctionType:
    """Reconstruct a by-value-serialized function (fallback pickler),
    bound to ``namespace`` as its globals."""
    code = marshal.loads(code_bytes)
    closure = None
    if closure_values is not None:
        closure = tuple(types.CellType(value) for value in closure_values)
    if namespace is None:
        namespace = {"__builtins__": __builtins__}
    function = types.FunctionType(code, namespace, name, defaults, closure)
    function.__qualname__ = qualname
    return function


class _NamespaceUnpickler(pickle.Unpickler):
    """Stdlib unpickling that hands ``namespace`` to every
    :func:`_rebuild_function` call the payload makes."""

    def __init__(self, data: bytes, namespace: Optional[Dict[str, Any]]) -> None:
        super().__init__(io.BytesIO(data))
        self._namespace = namespace

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == "_rebuild_function":
            return functools.partial(_rebuild_function, namespace=self._namespace)
        return super().find_class(module, name)


class PrimaryPickler:
    """First pickler in the chain: strict stdlib pickle.

    Mirrors CloudPickle's position in the paper's chain: fast, covers the
    de-facto pickle protocol, declines anything exotic.
    """

    name = "primary"

    def dumps(self, obj: Any) -> bytes:
        buffer = io.BytesIO()
        _StrictPickler(buffer, PICKLE_PROTOCOL).dump(obj)
        return buffer.getvalue()

    def loads(self, data: bytes, namespace: Optional[Dict[str, Any]] = None) -> Any:
        # Strict payloads hold no by-value functions: nothing to bind.
        return pickle.loads(data)


def _import_module(name: str) -> types.ModuleType:
    import importlib

    return importlib.import_module(name)


def _module_reducer(module: types.ModuleType):
    """Modules pickle by reference (re-import on load), as CloudPickle and
    Dill do — stdlib pickle alone refuses them, but notebook namespaces
    are full of ``import numpy as np`` bindings."""
    return (_import_module, (module.__name__,))


class _StrictPickler(pickle.Pickler):
    """Stdlib pickling plus module-by-reference, except it refuses objects
    flagged as needing the fallback pickler (the libsim model of
    "CloudPickle fails on this")."""

    def reducer_override(self, obj: Any):
        if getattr(obj, "_requires_fallback_pickler", False):
            raise pickle.PicklingError(
                f"{type(obj).__qualname__} requires the fallback pickler"
            )
        if isinstance(obj, types.ModuleType):
            return _module_reducer(obj)
        return NotImplemented


class FallbackPickler:
    """Second pickler in the chain: adds by-value function support.

    Local functions, lambdas, and functions defined in notebook cells are
    not importable by name, so stdlib pickle rejects them. Like Dill, this
    pickler serializes their code objects (via ``marshal``) together with
    defaults and closure values. ``loads`` binds their globals to the
    ``namespace`` its caller passes (a fresh builtins-only dict without
    one).
    """

    name = "fallback"

    def dumps(self, obj: Any) -> bytes:
        buffer = io.BytesIO()
        _ByValuePickler(buffer, PICKLE_PROTOCOL).dump(obj)
        return buffer.getvalue()

    def loads(self, data: bytes, namespace: Optional[Dict[str, Any]] = None) -> Any:
        return _NamespaceUnpickler(data, namespace).load()


class _ByValuePickler(pickle.Pickler):
    def reducer_override(self, obj: Any):
        if isinstance(obj, types.ModuleType):
            return _module_reducer(obj)
        if isinstance(obj, types.FunctionType) and not _importable(obj):
            return self._reduce_function_by_value(obj)
        return NotImplemented

    @staticmethod
    def _reduce_function_by_value(func: types.FunctionType):
        closure_values = None
        if func.__closure__ is not None:
            closure_values = tuple(cell.cell_contents for cell in func.__closure__)
        return (
            _rebuild_function,
            (
                marshal.dumps(func.__code__),
                func.__name__,
                func.__defaults__,
                closure_values,
                func.__qualname__,
            ),
        )


def _importable(func: types.FunctionType) -> bool:
    """True if stdlib pickle could serialize ``func`` by reference."""
    module_name = getattr(func, "__module__", None)
    if module_name is None:
        return False
    import sys

    module = sys.modules.get(module_name)
    if module is None:
        return False
    target: Any = module
    for part in func.__qualname__.split("."):
        if part == "<locals>":
            return False
        target = getattr(target, part, None)
        if target is None:
            return False
    return target is func


class SerializerChain:
    """Ordered chain of picklers with per-payload selection (§6.1).

    ``serialize`` records which pickler succeeded so ``deserialize`` can use
    the matching loader — the paper's "mixing and matching serialization
    libraries for coverage".
    """

    def __init__(self, picklers: Optional[Sequence[Any]] = None) -> None:
        self.picklers = list(picklers) if picklers is not None else [
            PrimaryPickler(),
            FallbackPickler(),
        ]
        self._by_name = {pickler.name: pickler for pickler in self.picklers}

    def serialize(self, names: Set[str], payload: Dict[str, Any]) -> Tuple[bytes, str]:
        """Pickle a co-variable payload; returns (bytes, pickler name).

        Raises:
            SerializationError: if every pickler in the chain fails.
        """
        last_error: Optional[BaseException] = None
        for pickler in self.picklers:
            try:
                return pickler.dumps(payload), pickler.name
            except Exception as exc:  # picklers raise many exception types
                last_error = exc
        raise SerializationError(names, cause=last_error)

    def deserialize(
        self, data: bytes, pickler_name: str, namespace: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Load a payload; functions rebuilt by value bind ``namespace``."""
        pickler = self._by_name.get(pickler_name)
        if pickler is None:
            raise DeserializationError(f"unknown pickler {pickler_name!r}")
        try:
            return pickler.loads(data, namespace)
        except Exception as exc:
            raise DeserializationError(
                f"payload failed to load with pickler {pickler_name!r}: {exc!r}"
            ) from exc


class Blocklist:
    """Class names whose co-variables must be recomputed, never loaded.

    The paper's escape hatch (§6.2) for classes with *silent* serialization
    errors: their payloads round-trip without raising but are wrong, so the
    user lists them here to force fallback recomputation.
    """

    def __init__(self, class_names: Optional[Set[str]] = None) -> None:
        self._class_names: Set[str] = set(class_names or ())

    def add(self, class_name: str) -> None:
        self._class_names.add(class_name)

    def discard(self, class_name: str) -> None:
        self._class_names.discard(class_name)

    def blocks_any(self, type_names) -> bool:
        """True if any of the given type names is blocklisted."""
        return any(name in self._class_names for name in type_names)

    def __contains__(self, class_name: str) -> bool:
        return class_name in self._class_names

    def __len__(self) -> int:
        return len(self._class_names)

    @classmethod
    def from_file(cls, path) -> "Blocklist":
        """Load one class name per line; blank lines and ``#`` comments
        are ignored (the paper ships the blocklist as a user-editable file)."""
        names: Set[str] = set()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                stripped = line.strip()
                if stripped and not stripped.startswith("#"):
                    names.add(stripped)
        return cls(names)
