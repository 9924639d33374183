"""In-process notebook kernel simulator.

This is the substrate standing in for the Jupyter/IPython kernel. It
reproduces the three surfaces Kishu integrates with (§6.1 of the paper):

* ``pre_run_cell`` / ``post_run_cell`` event hooks,
* the user namespace (``user_ns``), here a
  :class:`~repro.kernel.namespace.PatchedNamespace`,
* sequential cell execution with Jupyter-style execution counts and
  ``Out[n]`` values.

Cells execute via ``exec`` against the patched namespace, so all of Kishu's
access tracking, checkpointing, and in-place checkout exercise exactly the
code paths they would against a real kernel.
"""

from __future__ import annotations

import ast
import io
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, TextIO, Union

from repro.errors import KernelError
from repro.kernel.cells import Cell, CellResult
from repro.kernel.events import (
    POST_RUN_CELL,
    PRE_RUN_CELL,
    ExecutionInfo,
    HookRegistry,
)
from repro.kernel.namespace import PatchedNamespace
from repro.obs import NO_OBSERVER, Observer
from repro.parsing import parse


class _ThreadStdout:
    """A ``sys.stdout`` that sends each write from a thread running a
    cell to that cell's buffer, and every other write to ``replaced``."""

    def __init__(self, replaced: TextIO, buffers: Dict[int, io.StringIO]) -> None:
        self.replaced = replaced
        self._buffers = buffers

    def _target(self) -> TextIO:
        return self._buffers.get(threading.get_ident(), self.replaced)

    def write(self, text: str) -> int:
        return self._target().write(text)

    def flush(self) -> None:
        self._target().flush()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target(), name)


class _StdoutCapture:
    """Per-thread capture of ``sys.stdout``.

    ``contextlib.redirect_stdout`` swaps the process-wide stream, so
    kernels running cells on concurrent threads would capture each
    other's output. Instead, a :class:`_ThreadStdout` stands in for the
    stream while any cell runs, counted under a lock, and the stream it
    replaced is put back when the last one ends.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buffers: Dict[int, io.StringIO] = {}
        self._running = 0
        self._proxy: Optional[_ThreadStdout] = None

    @contextmanager
    def __call__(self, buffer: io.StringIO) -> Iterator[None]:
        thread = threading.get_ident()
        with self._lock:
            if self._running == 0:
                self._proxy = _ThreadStdout(sys.stdout, self._buffers)
                sys.stdout = self._proxy
            self._running += 1
            # A cell that runs a cell of another kernel nests a capture.
            outer = self._buffers.get(thread)
            self._buffers[thread] = buffer
        try:
            yield
        finally:
            with self._lock:
                if outer is None:
                    del self._buffers[thread]
                else:
                    self._buffers[thread] = outer
                self._running -= 1
                if self._running == 0 and self._proxy is not None:
                    if sys.stdout is self._proxy:
                        sys.stdout = self._proxy.replaced
                    self._proxy = None


_capture_stdout = _StdoutCapture()


class NotebookKernel:
    """A stateful, single-threaded notebook kernel.

    Example:
        >>> kernel = NotebookKernel()
        >>> kernel.run_cell("x = 1 + 1").ok
        True
        >>> kernel.run_cell("x").value
        2
    """

    def __init__(self, seed_namespace: Optional[Dict[str, Any]] = None) -> None:
        self.user_ns = PatchedNamespace(seed_namespace)
        self.user_ns.plant("__name__", "__main__")
        self.user_ns.plant("__builtins__", __builtins__)
        self.events = HookRegistry()
        self.execution_count = 0
        self.history: List[CellResult] = []
        #: Pre-execution cell analyzer (the static-analysis hook). When
        #: set, :meth:`run_cell` calls it with the cell source *before*
        #: ``pre_run_cell`` fires and ships the result to hooks via
        #: :attr:`~repro.kernel.events.ExecutionInfo.analysis`. Kishu
        #: installs :func:`repro.analysis.analyze_cell` here on attach.
        self.cell_analyzer: Optional[Callable[[str], Any]] = None
        #: Observability sink (DESIGN.md §11). The attached session
        #: rebinds this to its live observer; the disabled default keeps
        #: un-observed kernels overhead-free. The ``cell`` span opened in
        #: :meth:`run_cell` is the root under which the session's whole
        #: commit span tree nests (hooks fire inside it).
        self.observer: Observer = NO_OBSERVER

    # -- execution ----------------------------------------------------------

    def run_cell(self, cell: Union[str, Cell], *, raise_on_error: bool = True) -> CellResult:
        """Execute one cell and return its result.

        The last statement of the cell, if an expression, is evaluated and
        returned as ``result.value`` (Jupyter's ``Out[n]`` behaviour). Hooks
        fire around the body; their time is not billed to ``duration``.
        """
        if isinstance(cell, str):
            cell = Cell(source=cell)
        self.execution_count += 1
        with self.observer.span(
            "cell", execution_count=self.execution_count
        ) as cell_span:
            analysis: Optional[Any] = None
            if self.cell_analyzer is not None:
                with self.observer.span("cell.analyze"):
                    try:
                        analysis = self.cell_analyzer(cell.source)
                    except Exception:
                        analysis = None  # analysis must never break execution
            info = ExecutionInfo(
                cell=cell, execution_count=self.execution_count, analysis=analysis
            )
            self.events.trigger(PRE_RUN_CELL, info)

            with self.observer.span("cell.exec"):
                result = self._execute_body(cell)
            cell_span.set("ok", result.error is None)
            self.history.append(result)

            self.events.trigger(POST_RUN_CELL, result)
        if raise_on_error and result.error is not None:
            raise KernelError(
                f"cell execution {result.execution_count} failed: {result.error!r}",
                cell_source=cell.source,
                cause=result.error,
            ) from result.error
        return result

    def run_cells(self, cells, *, raise_on_error: bool = True) -> List[CellResult]:
        """Execute a sequence of cells in order."""
        return [self.run_cell(cell, raise_on_error=raise_on_error) for cell in cells]

    def _execute_body(self, cell: Cell) -> CellResult:
        result = CellResult(cell=cell, execution_count=self.execution_count)
        try:
            module = parse(cell.source)
        except SyntaxError as exc:
            result.error = exc
            return result

        # Split a trailing expression so its value can be captured, like
        # IPython's interactivity="last_expr".
        trailing_expr = None
        body = module.body
        if body and isinstance(body[-1], ast.Expr):
            trailing_expr = ast.Expression(body[-1].value)
            ast.fix_missing_locations(trailing_expr)
            body = body[:-1]
        exec_module = ast.Module(body=body, type_ignores=[])
        ast.fix_missing_locations(exec_module)

        stdout = io.StringIO()
        started = time.perf_counter()
        try:
            with _capture_stdout(stdout):
                exec(compile(exec_module, "<cell>", "exec"), self.user_ns)
                if trailing_expr is not None:
                    result.value = eval(  # noqa: S307 - cell code is the workload
                        compile(trailing_expr, "<cell>", "eval"), self.user_ns
                    )
        except BaseException as exc:  # cell code may raise anything
            result.error = exc
        finally:
            result.duration = time.perf_counter() - started
            result.stdout = stdout.getvalue()
        return result

    # -- convenience --------------------------------------------------------

    def get(self, name: str, default: Any = None) -> Any:
        """Read a user variable without recording an access."""
        return self.user_ns.peek(name, default)

    def user_variables(self) -> Dict[str, Any]:
        return self.user_ns.user_items()

    @property
    def total_runtime(self) -> float:
        """Sum of cell body durations over the session."""
        return sum(result.duration for result in self.history)
