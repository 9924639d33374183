"""Tests for the notebook kernel substrate."""

from __future__ import annotations

import sys
import threading
from typing import List

import pytest

from repro.errors import KernelError
from repro.kernel import (
    Cell,
    ExecutionInfo,
    NotebookKernel,
    POST_RUN_CELL,
    PRE_RUN_CELL,
)


class TestRunCell:
    def test_assignment_updates_namespace(self, kernel):
        kernel.run_cell("x = 41 + 1")
        assert kernel.get("x") == 42

    def test_trailing_expression_is_out_value(self, kernel):
        kernel.run_cell("x = 10")
        result = kernel.run_cell("x * 2")
        assert result.value == 20

    def test_no_trailing_expression_gives_none_value(self, kernel):
        result = kernel.run_cell("y = 5")
        assert result.value is None

    def test_stdout_is_captured(self, kernel):
        result = kernel.run_cell("print('hello')")
        assert result.stdout == "hello\n"

    def test_nested_kernel_output_stays_with_its_cell(self, kernel):
        kernel.user_ns["inner"] = NotebookKernel()
        result = kernel.run_cell(
            "print('a')\nout = inner.run_cell(\"print('b')\").stdout\nprint('c')"
        )
        assert result.stdout == "a\nc\n"
        assert kernel.get("out") == "b\n"

    def test_execution_count_increments(self, kernel):
        first = kernel.run_cell("a = 1")
        second = kernel.run_cell("b = 2")
        assert (first.execution_count, second.execution_count) == (1, 2)

    def test_duration_positive(self, kernel):
        result = kernel.run_cell("sum(range(1000))")
        assert result.duration > 0

    def test_error_raises_kernel_error(self, kernel):
        with pytest.raises(KernelError) as excinfo:
            kernel.run_cell("1 / 0")
        assert isinstance(excinfo.value.cause, ZeroDivisionError)

    def test_error_suppressed_when_requested(self, kernel):
        result = kernel.run_cell("undefined_name", raise_on_error=False)
        assert not result.ok
        assert isinstance(result.error, NameError)

    def test_syntax_error_is_reported_not_raised_internally(self, kernel):
        result = kernel.run_cell("def broken(:", raise_on_error=False)
        assert isinstance(result.error, SyntaxError)

    def test_state_persists_across_cells(self, kernel):
        kernel.run_cell("items = []")
        kernel.run_cell("items.append(1)")
        kernel.run_cell("items.append(2)")
        assert kernel.get("items") == [1, 2]

    def test_functions_defined_in_cells_see_globals(self, kernel):
        kernel.run_cell("base = 10")
        kernel.run_cell("def add(x):\n    return base + x")
        result = kernel.run_cell("add(5)")
        assert result.value == 15

    def test_run_cells_executes_in_order(self, kernel):
        results = kernel.run_cells(["a = 1", "b = a + 1", "b"])
        assert results[-1].value == 2

    def test_imports_work_in_cells(self, kernel):
        result = kernel.run_cell("import math\nmath.floor(2.7)")
        assert result.value == 2


class TestHooks:
    def test_pre_run_receives_execution_info(self, kernel):
        seen = []
        kernel.events.register(PRE_RUN_CELL, seen.append)
        kernel.run_cell(Cell(source="x = 1", cell_id="c0"))
        assert len(seen) == 1
        assert isinstance(seen[0], ExecutionInfo)
        assert seen[0].cell.cell_id == "c0"

    def test_post_run_receives_result(self, kernel):
        seen = []
        kernel.events.register(POST_RUN_CELL, seen.append)
        kernel.run_cell("x = 7")
        assert seen[0].ok
        assert seen[0].execution_count == 1

    def test_hooks_fire_in_registration_order(self, kernel):
        order = []
        kernel.events.register(POST_RUN_CELL, lambda r: order.append("first"))
        kernel.events.register(POST_RUN_CELL, lambda r: order.append("second"))
        kernel.run_cell("pass")
        assert order == ["first", "second"]

    def test_unregister_stops_callbacks(self, kernel):
        seen = []
        kernel.events.register(POST_RUN_CELL, seen.append)
        kernel.events.unregister(POST_RUN_CELL, seen.append)
        kernel.run_cell("pass")
        assert seen == []

    def test_unknown_event_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.events.register("on_sneeze", lambda _: None)

    def test_post_run_fires_even_when_cell_fails(self, kernel):
        seen = []
        kernel.events.register(POST_RUN_CELL, seen.append)
        kernel.run_cell("boom()", raise_on_error=False)
        assert len(seen) == 1
        assert not seen[0].ok


class TestCellModel:
    def test_cell_tags(self):
        cell = Cell.make("x = 1", "c1", "deterministic", "model-train")
        assert cell.has_tag("deterministic")
        assert not cell.has_tag("undo-target")

    def test_total_runtime_accumulates(self, kernel):
        kernel.run_cell("a = 1")
        kernel.run_cell("b = 2")
        assert kernel.total_runtime == sum(r.duration for r in kernel.history)

    def test_seed_namespace(self):
        kernel = NotebookKernel(seed_namespace={"preset": 99})
        assert kernel.get("preset") == 99
        result = kernel.run_cell("preset + 1")
        assert result.value == 100


class TestConcurrentKernels:
    def test_each_cell_captures_only_its_own_output(self):
        """Kernels on concurrent threads each get their own cells' output,
        and ``sys.stdout`` is the object it was once every cell is done."""
        threads, cells = 4, 300
        wrong: List[str] = []
        errors: List[BaseException] = []
        stdout = sys.stdout

        def work(index: int) -> None:
            kernel = NotebookKernel()
            try:
                for i in range(cells):
                    line = f"t{index}-c{i}"
                    result = kernel.run_cell(f"print({line!r})")
                    if result.stdout != line + "\n":
                        wrong.append(f"{line}: {result.stdout!r}")
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert wrong == [], f"{len(wrong)} of {threads * cells} cells: {wrong[:3]}"
        assert sys.stdout is stdout
