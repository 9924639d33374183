"""Reachability traversal of arbitrary Python objects.

This module answers one question for the VarGraph builder (§4.2 of the
paper): *given an object, what are its children and how should its node be
summarised?* Reachability is defined reference-wise, matching the paper's
§4.1 — subscripting (containers), class members (``__dict__`` /
``__slots__``), and, as a generic fallback, the object's pickle reduction
(§6.1: "object ``y`` is reachable from ``x`` if ``pickle(x)`` includes
``y``").

Three kinds of nodes come out of a visit:

* **primitive** — immutable leaf (int, str, ...). Carries its value.
  Primitives do not participate in co-variable connectivity: CPython interns
  small ints and strings, so id-sharing of immutables is not aliasing.
* **array** — array-like leaf summarised by a content digest (the paper's
  hash fast path, §6.2). Arrays of Python objects are composites instead.
* **composite** — traversed object with children.
* **opaque** — object that cannot be traversed into (e.g. generators, §4.2);
  conservatively assumed updated whenever accessed.
"""

from __future__ import annotations

import marshal
import re
import types
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.hashing import digest_array, digest_bytes

PRIMITIVE_TYPES = (type(None), bool, int, float, complex, str, bytes)

#: Types that can never be traversed into and have no stable value: their
#: presence makes the whole graph opaque (assumed updated on access).
OPAQUE_TYPES = (
    types.GeneratorType,
    types.CoroutineType,
    types.AsyncGeneratorType,
)


@dataclass(frozen=True)
class Visit:
    """Result of visiting one object during traversal.

    Attributes:
        kind: "primitive", "array", "composite", or "opaque".
        value: Primitive value or digest for leaf kinds; for a composite,
            state its children do not show (an object array's dtype and
            shape), else None.
        children: Child objects, in deterministic order, for composites.
    """

    kind: str
    value: Any = None
    children: Tuple[Any, ...] = ()


#: A handler takes an object and returns a Visit, or None to decline.
Handler = Callable[[Any], Optional[Visit]]


class TraversalPolicy:
    """Pluggable per-type traversal rules.

    The default policy implements the paper's behaviour for the Python data
    model; library-specific fast paths (e.g. hashing tensors instead of
    walking them) register themselves with :meth:`register`.

    Policies layer: a policy constructed with a ``parent`` consults its own
    handlers first and falls back to the parent chain. Builders walk with a
    private layer over the shared :data:`DEFAULT_POLICY`, so
    :meth:`register` on a builder's policy never leaks into other sessions
    (or test runs) sharing the process.
    """

    def __init__(self, parent: Optional["TraversalPolicy"] = None) -> None:
        self._handlers: List[Tuple[type, Handler]] = []
        self.parent = parent

    def register(self, type_: type, handler: Handler) -> None:
        """Register a handler consulted for instances of ``type_``.

        Handlers registered later win over earlier ones, so callers can
        override defaults. Layered handlers win over the parent chain's.
        """
        self._handlers.insert(0, (type_, handler))

    def layer(self) -> "TraversalPolicy":
        """A fresh policy that inherits this one's rules without sharing
        its mutable handler list."""
        return TraversalPolicy(parent=self)

    def visit(self, obj: Any) -> Visit:
        """Classify one object and enumerate its children."""
        visit = self._handled(obj)
        if visit is not None:
            return visit
        return self._default_visit(obj)

    def _handled(self, obj: Any) -> Optional[Visit]:
        for type_, handler in self._handlers:
            if isinstance(obj, type_):
                visit = handler(obj)
                if visit is not None:
                    return visit
        if self.parent is not None:
            return self.parent._handled(obj)
        return None

    # -- default rules -------------------------------------------------------

    def _default_visit(self, obj: Any) -> Visit:
        if isinstance(obj, PRIMITIVE_TYPES):
            return Visit(kind="primitive", value=obj)
        if isinstance(obj, OPAQUE_TYPES):
            return Visit(kind="opaque")
        if isinstance(obj, np.ndarray):
            if obj.dtype.hasobject:
                return _object_array_visit(obj)
            return Visit(kind="array", value=digest_array(obj))
        if isinstance(obj, (bytearray, memoryview)):
            return Visit(kind="array", value=digest_bytes(obj))
        if isinstance(obj, dict):
            return Visit(kind="composite", children=_dict_children(obj))
        if isinstance(obj, (list, tuple)):
            return Visit(kind="composite", children=tuple(obj))
        if isinstance(obj, (set, frozenset)):
            return Visit(kind="composite", children=_set_children(obj))
        if isinstance(obj, (type, types.ModuleType)):
            # Classes and modules are code, not session data: imported
            # modules are restored by re-import, and walking into a module's
            # globals would pull the entire library into every graph.
            return Visit(kind="primitive", value=_code_identity(obj))
        if isinstance(obj, (types.FunctionType, types.MethodType, types.BuiltinFunctionType)):
            return _function_visit(obj)
        if isinstance(obj, range):
            return Visit(kind="primitive", value=(obj.start, obj.stop, obj.step))
        return _instance_visit(obj)


def _object_array_visit(obj: np.ndarray) -> Visit:
    """Arrays holding Python objects are containers, not byte data.

    Their bytes are element pointers, so a digest would miss a change
    inside an element and keep the elements out of the array's
    co-variable. The elements are the children, in C order; dtype and
    shape are the value, so an in-place reshape shows. Records that mix
    objects with raw fields have neither: each element is a fresh
    ``np.void`` and their bytes hold pointers, so they are opaque.
    """
    if obj.dtype.names is not None:
        return Visit(kind="opaque")
    return Visit(kind="composite", value=(obj.dtype.str, obj.shape), children=tuple(obj.flat))


def _dict_children(obj: dict) -> Tuple[Any, ...]:
    children: List[Any] = []
    for key, value in obj.items():
        children.append(key)
        children.append(value)
    return tuple(children)


def _set_children(obj: Iterable[Any]) -> Tuple[Any, ...]:
    # Sets have no stable order; sort by a stable per-element key so graph
    # comparison does not flag a re-hash as a modification.
    return tuple(sorted(obj, key=_set_sort_key))


_HEX_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def _set_sort_key(element: Any) -> Tuple[str, str]:
    return (type(element).__qualname__, _stable_repr(element))


def _stable_repr(element: Any) -> str:
    """An address-free, process-stable ordering string for set elements.

    ``repr`` of a default-repr object embeds its memory address, which
    differs across processes (and across equal runs), so raw ``repr`` makes
    set-child ordering — and hence graph digests — nondeterministic.
    Primitives and their immutable containers have value-determined reprs;
    everything else has hex addresses masked out. Two distinct elements
    with identical masked reprs tie, which only perturbs their relative
    order, never the set's membership digest.
    """
    if isinstance(element, PRIMITIVE_TYPES):
        return repr(element)
    if isinstance(element, tuple):
        return "(" + ",".join(_stable_repr(item) for item in element) + ")"
    if isinstance(element, frozenset):
        return "{" + ",".join(sorted(_stable_repr(item) for item in element)) + "}"
    return _HEX_ADDRESS.sub("0x", repr(element))


def _code_identity(obj: Any) -> str:
    module = getattr(obj, "__module__", "")
    name = getattr(obj, "__qualname__", getattr(obj, "__name__", repr(obj)))
    return f"{module}.{name}"


def _function_visit(obj: Any) -> Visit:
    """Functions: identity is their code; closures are reachable children.

    A closure cell can alias mutable session state, so closure contents
    participate in connectivity; default values likewise.
    """
    children: List[Any] = []
    closure = getattr(obj, "__closure__", None)
    if closure:
        children.extend(cell.cell_contents for cell in closure)
    defaults = getattr(obj, "__defaults__", None)
    if defaults:
        children.extend(defaults)
    bound_self = getattr(obj, "__self__", None)
    if bound_self is not None and not isinstance(bound_self, types.ModuleType):
        children.append(bound_self)
    if not children:
        identity = (_code_identity(obj), _code_digest(getattr(obj, "__code__", None)))
        return Visit(kind="primitive", value=identity)
    return Visit(kind="composite", children=tuple(children))


def _code_digest(code: Optional[types.CodeType]) -> int:
    """Content digest of a code object — process-stable function identity.

    ``id(code)`` (the former identity) is a memory address: it differs
    across processes for identical code and made function-node digests
    depend on allocation order. Marshal serializes the full code object
    (bytecode, constants, nested code) deterministically for a given
    interpreter version, so redefining an *identical* function is no longer
    reported as a modification while any body change still is. The source
    file name is blanked first, in nested code too: where the code was
    loaded from is not its content, and it would make the digest (and
    ``bytes_hashed``) depend on the path length.
    """
    if code is None:
        return 0
    try:
        return digest_bytes(marshal.dumps(_without_filename(code)))
    except ValueError:
        return digest_bytes(code.co_code)


def _without_filename(code: types.CodeType) -> types.CodeType:
    consts = tuple(
        _without_filename(const) if isinstance(const, types.CodeType) else const
        for const in code.co_consts
    )
    return code.replace(co_filename="", co_consts=consts)


def _instance_visit(obj: Any) -> Visit:
    """Generic instances: attributes via ``__dict__`` / ``__slots__``,
    falling back to the pickle reduction, else opaque."""
    children: List[Any] = []
    instance_dict = getattr(obj, "__dict__", None)
    if isinstance(instance_dict, dict):
        children.extend(_dict_children(instance_dict))
    for slot_value in _slot_values(obj):
        children.append(slot_value)
    if children:
        return Visit(kind="composite", children=tuple(children))
    reduction_visit = _reduce_visit(obj)
    if reduction_visit is not None:
        return reduction_visit
    return Visit(kind="opaque")


def _slot_values(obj: Any) -> List[Any]:
    values: List[Any] = []
    for klass in type(obj).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for slot in slots:
            if slot in ("__dict__", "__weakref__"):
                continue
            try:
                values.append(getattr(obj, slot))
            except AttributeError:
                continue
    return values


def _reduce_visit(obj: Any) -> Optional[Visit]:
    """Traverse an object through its pickle reduction (§6.1).

    The reduction's constructor arguments and state are exactly the objects
    a checkpoint would persist, so they are the reachable children.
    """
    try:
        reduction = obj.__reduce_ex__(2)
    except Exception:
        return None
    if isinstance(reduction, str):
        return Visit(kind="primitive", value=reduction)
    if not isinstance(reduction, tuple) or len(reduction) < 2:
        return None
    children: List[Any] = []
    args = reduction[1]
    if isinstance(args, tuple):
        children.extend(args)
    if len(reduction) > 2 and reduction[2] is not None:
        children.append(reduction[2])
    return Visit(kind="composite", children=tuple(children))


#: Shared default policy instance. Library fast paths (e.g. libsim tensors)
#: register on this at import time.
DEFAULT_POLICY = TraversalPolicy()
