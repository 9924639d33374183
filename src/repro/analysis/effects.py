"""The cell effect model — what a cell *may* do to the session state.

Kishu's runtime tracking (the patched namespace, §4.3) observes the
accesses a cell actually performs. This module defines the static
counterpart: a :class:`CellEffects` value describing, from the cell's AST
alone, the sets of global names the cell reads, writes, and deletes —
split into *definite* effects (performed by every successful execution)
and *conditional* ones (guarded by branches, loops, exception handlers,
short-circuit operators, or function bodies that may never be called).

The two halves of the model serve the two consumers:

* the **write sets** (definite ∪ conditional) over-approximate every name
  a cell can rebind, which is what the lint engine and the ahead-of-time
  pruning rules need (a sound superset);
* the **definite access set** under-approximates what a successful
  execution must touch, which is what the runtime cross-validator checks
  the :class:`~repro.kernel.namespace.AccessRecord` against (Lemma 1
  says the record must contain every performed access — so a definite
  static access missing from the record is evidence of a tracking blind
  spot).

Escape hatches that defeat namespace tracking entirely — ``exec``,
``globals()``, star imports, frame introspection, … — cannot be folded
into name sets; they are reported as :class:`Escape` values with precise
source spans and a kind drawn from the :class:`EscapeKind` taxonomy.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Set, Tuple


@dataclass(frozen=True)
class Span:
    """A source location range (1-based line, 0-based column, inclusive
    start / exclusive end), matching the ``ast`` position attributes."""

    line: int
    col: int
    end_line: int
    end_col: int

    @classmethod
    def of(cls, node: ast.AST) -> "Span":
        line = int(getattr(node, "lineno", 1))
        col = int(getattr(node, "col_offset", 0))
        end_line = int(getattr(node, "end_lineno", None) or line)
        end_col_raw = getattr(node, "end_col_offset", None)
        end_col = int(end_col_raw) if end_col_raw is not None else col
        return cls(line=line, col=col, end_line=end_line, end_col=end_col)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class EscapeKind(enum.Enum):
    """Taxonomy of constructs that defeat patched-namespace tracking.

    Each kind names a distinct mechanism by which cell code can read or
    mutate session state without the mutation being attributable to a
    recorded variable-name access (DESIGN.md §8).
    """

    #: ``exec`` / ``eval`` / ``compile`` — runs code the AST cannot see.
    EXEC_EVAL = "exec-eval"
    #: ``globals()`` / ``locals()`` / ``vars()`` — hands cell code the raw
    #: namespace mapping; iteration over it bypasses ``__getitem__``.
    NAMESPACE_INTROSPECTION = "namespace-introspection"
    #: ``importlib`` / ``__import__`` — modules loaded under computed names.
    DYNAMIC_IMPORT = "dynamic-import"
    #: ``from m import *`` — binds a statically unknowable set of names.
    STAR_IMPORT = "star-import"
    #: ``setattr`` / ``delattr`` — attribute mutation under computed names.
    NAME_REFLECTION = "name-reflection"
    #: ``sys._getframe`` / ``inspect.currentframe`` / ``f_globals`` /
    #: ``__globals__`` — reaches the namespace through frame objects.
    FRAME_INTROSPECTION = "frame-introspection"
    #: Assignment to an attribute of a module imported in the same cell —
    #: module state is process-global and outside the checkpointed pool.
    MODULE_PATCH = "module-patch"
    #: A store (or delete) of a module global issued from a nested scope —
    #: a ``global``-declared assignment inside a function, or a walrus
    #: target inside a comprehension. These compile to ``STORE_GLOBAL`` /
    #: ``DELETE_GLOBAL``, which CPython does **not** route through the
    #: patched dict subclass, so the rebinding is invisible to tracking
    #: (reads are safe: ``LOAD_GLOBAL`` honours ``__getitem__``).
    HIDDEN_GLOBAL_STORE = "hidden-global-store"
    #: A call to a name whose function summary the notebook table has
    #: invalidated (rebound by a later cell, wiped by an opaque cell, or
    #: bound by a cell that raised). Unlike a never-summarized global, the
    #: callee demonstrably comes from user code — it may perform hidden
    #: global stores the runtime record cannot see, and no current summary
    #: bounds its effects, so the call site must escalate.
    STALE_SUMMARY_CALL = "stale-summary-call"


@dataclass(frozen=True)
class Escape:
    """One occurrence of a tracking escape hatch in a cell."""

    kind: EscapeKind
    span: Span
    detail: str

    def __str__(self) -> str:
        return f"{self.span} {self.kind.value}: {self.detail}"


@dataclass
class CellEffects:
    """Static read/write/delete/escape summary of one cell.

    The *definite* sets (``reads`` / ``writes`` / ``deletes``) contain
    global names touched by straight-line module-level code that every
    non-raising execution performs. The *conditional* sets contain names
    whose access is guarded — branch arms, loop bodies, ``try`` bodies and
    handlers, short-circuit tails, comprehension elements, and the bodies
    of functions or lambdas defined (but not necessarily called) by the
    cell.
    """

    reads: Set[str] = field(default_factory=set)
    conditional_reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    conditional_writes: Set[str] = field(default_factory=set)
    deletes: Set[str] = field(default_factory=set)
    conditional_deletes: Set[str] = field(default_factory=set)
    escapes: Tuple[Escape, ...] = ()
    #: A ``from m import *`` (or similar) binds names the AST cannot
    #: enumerate; the write sets are incomplete when this is set.
    opaque_writes: bool = False
    #: Parse failure message; all other fields are empty when set (the
    #: cell also cannot have executed).
    syntax_error: Optional[str] = None

    # -- interprocedural summary expansion (DESIGN.md §14) -----------------
    #: Global names read / written / deleted on behalf of helper functions
    #: the cell calls, expanded from their :class:`FunctionSummary`. These
    #: are *also* folded into the conditional sets above (downstream
    #: consumers need no special casing); the split-out copies let the
    #: dataflow layer treat summary reads as call-time-eager and let
    #: reporting attribute effects to helpers.
    summary_reads: Set[str] = field(default_factory=set)
    summary_writes: Set[str] = field(default_factory=set)
    summary_deletes: Set[str] = field(default_factory=set)
    #: Names whose object graphs a called helper may mutate in place
    #: (globals mutated by the body, or global arguments bound to
    #: parameters the body mutates).
    summary_mutations: Set[str] = field(default_factory=set)
    #: Escapes found inside summarizable function bodies at the def site.
    #: Under summary analysis they are *deferred* — the body does not run
    #: at definition time — and resurface at every call site via the
    #: function's summary. Kept for telemetry and the KSH40x lint rules.
    deferred_escapes: Tuple[Escape, ...] = ()
    #: Number of call sites expanded through a function summary.
    summary_expansions: int = 0
    #: Calls to global, non-builtin names with no available summary
    #: (undefined, rebound, or never summarizable) — the conservative top.
    summary_unknown_calls: int = 0

    # -- library effect stubs (DESIGN.md §15) ------------------------------
    #: Names whose object graphs a stubbed library call mutates in place
    #: (mutating method receivers, ``mutates_args`` argument positions).
    stub_mutations: Set[str] = field(default_factory=set)
    #: Globals a stubbed call declares it may write (``writes_globals``).
    stub_writes: Set[str] = field(default_factory=set)
    #: Receivers of calls a stub declared *pure* — the cross-validator's
    #: stub-mismatch witnesses: a runtime delta on one of these that no
    #: static write explains means the stub lied (DESIGN.md §15.3).
    stub_pure_receivers: Set[str] = field(default_factory=set)
    #: Call sites resolved through a library effect stub.
    stub_expansions: int = 0
    #: Library-shaped calls (module or stubbed-type receiver) no stub
    #: entry covers — the KSH502 fix-it feed.
    stub_unknown_calls: int = 0

    # -- derived views -----------------------------------------------------

    @property
    def all_reads(self) -> FrozenSet[str]:
        return frozenset(self.reads | self.conditional_reads)

    @property
    def all_writes(self) -> FrozenSet[str]:
        """Sound over-approximation of every name the cell can rebind."""
        return frozenset(self.writes | self.conditional_writes)

    @property
    def all_deletes(self) -> FrozenSet[str]:
        return frozenset(self.deletes | self.conditional_deletes)

    @property
    def all_accessed(self) -> FrozenSet[str]:
        return self.all_reads | self.all_writes | self.all_deletes

    @property
    def definite_accesses(self) -> FrozenSet[str]:
        """Names every successful execution must have touched — the set
        the runtime access record is validated against."""
        return frozenset(self.reads | self.writes | self.deletes)

    @property
    def has_escapes(self) -> bool:
        return bool(self.escapes)

    @property
    def is_opaque(self) -> bool:
        """True when the name sets alone cannot bound the cell's effects."""
        return bool(self.escapes) or self.opaque_writes or self.syntax_error is not None

    def escapes_of(self, kind: EscapeKind) -> Tuple[Escape, ...]:
        return tuple(escape for escape in self.escapes if escape.kind is kind)
