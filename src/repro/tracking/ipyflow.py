"""IPyFlow-style hybrid static/live tracker simulator (§7.1, §7.6).

IPyFlow combines AST analysis with live symbol resolution to obtain
sub-variable granularity lineage for reactive execution. The cost shape
the paper measures — and this simulator reproduces — is that resolution
happens *during* cell runtime, per executed statement: loops re-resolve
their symbols on every iteration (the paper's §2.4 "repeated resolutions
in looping control flows"), so tracking overhead scales with dynamic
statement count, not with state size.

Mechanics: before each cell the source is parsed and a line-number →
symbol-names table is built (the static half); a ``sys.settrace`` line
tracer then resolves each executed line's symbols against the namespace
(the live half). Tracer time is accumulated as the tracking overhead.
Cells exceeding ``max_events_per_cell`` trace events are declared failed,
modelling the paper's "IPyFlow hangs indefinitely on StoreSales cell 27".
"""

from __future__ import annotations

import ast
import sys
import time
from typing import Dict, List, Optional, Set

from repro.kernel.cells import Cell, CellResult
from repro.kernel.kernel import NotebookKernel
from repro.kernel.namespace import AccessRecord
from repro.parsing import parse
from repro.tracking.base import Tracker, TrackingCost

_dispatch_overhead_cache: List[float] = []


def _calibrate_dispatch_overhead(iterations: int = 200_000) -> float:
    """Per-line-event cost of interpreter trace dispatch, measured once.

    ``sys.settrace`` makes the interpreter call into the tracer for every
    executed line; that trampoline is the dominant cost of live
    instrumentation and must be attributed to the tracker even though it
    happens outside the handler body. Calibrated by timing a tight loop
    with and without a no-op local tracer.
    """
    if _dispatch_overhead_cache:
        return _dispatch_overhead_cache[0]

    def workload() -> int:
        total = 0
        for i in range(iterations):
            total += i
        return total

    started = time.perf_counter()
    workload()
    bare = time.perf_counter() - started

    def noop_tracer(frame, event, arg):
        return noop_tracer

    previous = sys.gettrace()
    sys.settrace(noop_tracer)
    try:
        started = time.perf_counter()
        workload()
        traced = time.perf_counter() - started
    finally:
        sys.settrace(previous)

    # ~2 line events per loop iteration.
    per_event = max((traced - bare) / (2 * iterations), 1e-8)
    _dispatch_overhead_cache.append(per_event)
    return per_event


class _SymbolCollector(ast.NodeVisitor):
    """Collects, per line, the names and attribute/subscript symbols used."""

    def __init__(self) -> None:
        self.symbols_by_line: Dict[int, Set[str]] = {}

    def _add(self, lineno: int, symbol: str) -> None:
        self.symbols_by_line.setdefault(lineno, set()).add(symbol)

    def visit_Name(self, node: ast.Name) -> None:
        self._add(node.lineno, node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        base = node.value
        if isinstance(base, ast.Name):
            # Sub-variable symbol like ``obj.attr`` — IPyFlow's granularity.
            self._add(node.lineno, f"{base.id}.{node.attr}")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        base = node.value
        if isinstance(base, ast.Name):
            self._add(node.lineno, f"{base.id}[]")
        self.generic_visit(node)


class IPyFlowTracker(Tracker):
    """Hybrid static/live symbol-resolution tracker."""

    name = "IPyFlow"

    def __init__(
        self, kernel: NotebookKernel, *, max_events_per_cell: int = 200_000
    ) -> None:
        super().__init__(kernel)
        self.max_events_per_cell = max_events_per_cell
        self._symbols_by_line: Dict[int, Set[str]] = {}
        self._tracer_seconds = 0.0
        self._static_seconds = 0.0
        self._event_count = 0
        self._total_events = 0
        self._cell_failed = False
        self._resolved_symbols: Set[str] = set()
        self._previous_trace = None
        self._dispatch_overhead = _calibrate_dispatch_overhead()

    # -- lifecycle ----------------------------------------------------------

    def before_cell(self, cell: Cell) -> None:
        started = time.perf_counter()
        self._symbols_by_line = {}
        self._event_count = 0
        self._total_events = 0
        self._tracer_seconds = 0.0
        self._cell_failed = False
        self._resolved_symbols = set()
        try:
            collector = _SymbolCollector()
            collector.visit(parse(cell.source))
            self._symbols_by_line = collector.symbols_by_line
        except SyntaxError:
            pass
        self._static_seconds = time.perf_counter() - started
        self._previous_trace = sys.gettrace()
        sys.settrace(self._trace)

    def after_cell(self, result: CellResult, record: Optional[AccessRecord]) -> None:
        sys.settrace(self._previous_trace)
        failed = self._cell_failed
        if failed:
            self.failed = True
            self.failure_reason = (
                f"cell {len(self.costs) + 1}: live resolution exceeded "
                f"{self.max_events_per_cell} events (complex control flow)"
            )
        # Total tracking cost: static analysis + handler work + the
        # interpreter's per-event trace dispatch (calibrated).
        dispatch_seconds = self._total_events * self._dispatch_overhead
        self.costs.append(
            TrackingCost(
                cell_index=len(self.costs),
                seconds=self._static_seconds + self._tracer_seconds + dispatch_seconds,
                cell_duration=result.duration,
                failed=failed,
                failure_reason=self.failure_reason if failed else "",
            )
        )

    # -- the live half ---------------------------------------------------------

    def _trace(self, frame, event, arg):
        # Instrumentation applies interpreter-wide during the cell: every
        # Python frame executed — including library internals driven by a
        # model fit — is observed. Symbol *resolution* only happens for
        # cell-source lines, but the observation cost is paid everywhere;
        # this is why hybrid tracking overhead scales with a cell's dynamic
        # statement count (§2.4, Fig 17).
        return self._trace_line

    def _trace_line(self, frame, event, arg):
        if event != "line":
            return self._trace_line
        started = time.perf_counter()
        self._total_events += 1
        if frame.f_code.co_filename == "<cell>":
            # Cell-source statements: live symbol resolution, and the
            # complexity bound that models IPyFlow hanging on cells with
            # pathological control flow (StoreSales cell 27).
            self._event_count += 1
            if self._event_count > self.max_events_per_cell:
                self._cell_failed = True
            symbols = self._symbols_by_line.get(frame.f_lineno)
            if symbols:
                namespace = self.kernel.user_ns
                for symbol in symbols:
                    # Resolve the symbol's base object right now — the
                    # "live" resolution that distinguishes hybrid tracking
                    # from static analysis, repeated per execution.
                    base = symbol.split(".", 1)[0].split("[", 1)[0]
                    value = namespace.peek(base)
                    if value is not None:
                        self._resolved_symbols.add(symbol)
        self._tracer_seconds += time.perf_counter() - started
        return self._trace_line
