"""Tests for rule-based read-only cell analysis (§6.2 extension)."""

from __future__ import annotations

import pytest

from repro.analysis import ReadOnlyCellAnalyzer
from repro.core.session import KishuSession
from repro.kernel.kernel import NotebookKernel


@pytest.fixture
def analyzer():
    return ReadOnlyCellAnalyzer()


class TestClassification:
    @pytest.mark.parametrize(
        "source",
        [
            "x",
            "y_train[:10]",                      # the paper's HW-LM case
            "df.head()",                         # the paper's §6.2 example
            "df.head(5)",
            "print(x)",
            "len(data)",
            "x + y * 2",
            "stats['mean']",
            "obj.attr.sub",
            "sorted(xs)[0]",
            "x > 0",
            "f'{x} rows'",
            "(a, b)",
            "",
        ],
    )
    def test_read_only_sources(self, analyzer, source):
        assert analyzer.is_read_only(source)

    @pytest.mark.parametrize(
        "source",
        [
            "df.drop('c')",                      # not in the pure list
            "import numpy",                      # import
            "custom_function(x)",                # unknown callable
            "x += 1",                            # augmented assignment
            "for i in xs:\n    print(i)",        # statements beyond Expr
            "print(xs.pop())",                   # impure argument
            "def f():\n    pass",
            "x[0] if flag else x.clear()",       # unhandled node -> reject
        ],
    )
    def test_rejected_sources(self, analyzer, source):
        assert not analyzer.is_read_only(source)

    def test_assignment_rejected(self, analyzer):
        assert not analyzer.is_read_only("x = 1")

    def test_delete_rejected(self, analyzer):
        assert not analyzer.is_read_only("del x")

    def test_unknown_method_rejected(self, analyzer):
        assert not analyzer.is_read_only("xs.append(1)")

    def test_syntax_error_rejected(self, analyzer):
        assert not analyzer.is_read_only("def broken(:")

    def test_custom_whitelists(self):
        analyzer = ReadOnlyCellAnalyzer(
            pure_builtins=frozenset({"show"}), pure_methods=frozenset()
        )
        assert analyzer.is_read_only("show(x)")
        assert not analyzer.is_read_only("print(x)")
        assert not analyzer.is_read_only("df.head()")


class TestSessionIntegration:
    def test_read_only_cells_skip_detection(self):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel, rule_analyzer=ReadOnlyCellAnalyzer())
        kernel.run_cell("data = list(range(1000))")
        kernel.run_cell("data[:10]")  # read-only print cell
        metric = session.metrics[-1]
        assert metric.detect_seconds == 0.0
        assert metric.updated_covariables == 0

    def test_mutating_cells_still_detected(self):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel, rule_analyzer=ReadOnlyCellAnalyzer())
        kernel.run_cell("data = [1]")
        kernel.run_cell("data.append(2)")
        metric = session.metrics[-1]
        assert metric.updated_covariables == 1

    def test_time_travel_unaffected_by_rule_skips(self):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel, rule_analyzer=ReadOnlyCellAnalyzer())
        kernel.run_cell("data = [1, 2]")
        target = session.head_id
        kernel.run_cell("data[:1]")        # skipped cell in between
        kernel.run_cell("data.clear()")
        session.checkout(target)
        assert kernel.get("data") == [1, 2]

    def test_overhead_reduction_on_print_cells(self):
        def run(with_rules: bool) -> float:
            kernel = NotebookKernel()
            session = KishuSession.init(
                kernel,
                rule_analyzer=ReadOnlyCellAnalyzer() if with_rules else None,
            )
            kernel.run_cell("text = ['word %d' % i for i in range(20000)]")
            for _ in range(5):
                kernel.run_cell("text[:10]")
            return sum(m.detect_seconds for m in session.metrics[1:])

        baseline = run(with_rules=False)
        with_rules = run(with_rules=True)
        assert with_rules < baseline / 3
