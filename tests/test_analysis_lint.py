"""Lint engine, rule registry, purity registry, reporters, and the
``%lint`` / ``repro lint`` surfaces (DESIGN.md §8)."""

from __future__ import annotations

import io
import json
import warnings

import pytest

from repro.analysis import (
    GLOBAL_PURITY,
    Finding,
    JsonReporter,
    LintEngine,
    LintRule,
    PurityRegistry,
    ReadOnlyCellAnalyzer,
    RuleRegistry,
    Severity,
    Span,
    TextReporter,
    worst_severity,
)
from repro.cli import KishuRepl, lint_main, main


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


class TestLintEngine:
    def test_clean_mutating_cell_has_no_findings(self):
        assert LintEngine().lint_source("x = 1\ny = x + 1") == []

    def test_syntax_error_ksh100(self):
        findings = LintEngine().lint_source("def broken(:")
        assert rule_ids(findings) == ["KSH100"]
        assert findings[0].severity is Severity.ERROR

    @pytest.mark.parametrize(
        "source, expected_id",
        [
            ("exec('x = 1')", "KSH101"),
            ("g = globals()", "KSH102"),
            ("import importlib", "KSH103"),
            ("from math import *", "KSH104"),
            ("setattr(o, n, v)", "KSH105"),
            ("ns = fn.__globals__", "KSH106"),
            ("import os\nos.sep = '/'", "KSH107"),
            ("zs = [(w := i) for i in rng]", "KSH108"),
        ],
    )
    def test_escape_rule_ids(self, source, expected_id):
        findings = LintEngine().lint_source(source)
        assert expected_id in rule_ids(findings)

    def test_builtin_shadow_ksh110(self):
        findings = LintEngine().lint_source("print = 'oops'")
        assert "KSH110" in rule_ids(findings)

    def test_read_only_info_ksh201(self):
        findings = LintEngine().lint_source("df.head()")
        assert rule_ids(findings) == ["KSH201"]
        assert findings[0].severity is Severity.INFO

    def test_findings_sorted_by_position(self):
        findings = LintEngine().lint_source(
            "a = eval('1')\nb = globals()\nc = eval('2')"
        )
        assert [finding.span.line for finding in findings] == [1, 2, 3]

    def test_label_threaded_through(self):
        findings = LintEngine().lint_source("exec('')", label="In[3]")
        assert findings[0].label == "In[3]"
        assert findings[0].format().startswith("In[3]:")

    def test_lint_cells_concatenates(self):
        findings = LintEngine().lint_cells(
            [("In[1]", "x = 1"), ("In[2]", "exec('')"), ("In[3]", "g = globals()")]
        )
        assert rule_ids(findings) == ["KSH101", "KSH102"]
        assert [finding.label for finding in findings] == ["In[2]", "In[3]"]


class TestSuppression:
    def test_line_level_disable(self):
        findings = LintEngine().lint_source(
            "x = 1\nexec('')  # kishu: disable=KSH101"
        )
        assert findings == []

    def test_line_level_disable_is_line_scoped(self):
        # Not on line 1 (that would be cell-wide): only line 2 is silenced.
        findings = LintEngine().lint_source(
            "x = 1\nexec('')  # kishu: disable=KSH101\nexec('again')"
        )
        assert rule_ids(findings) == ["KSH101"]
        assert findings[0].span.line == 3

    def test_cell_wide_disable_on_first_line(self):
        findings = LintEngine().lint_source(
            "# kishu: disable=KSH101\nexec('')\nexec('again')"
        )
        assert findings == []

    def test_disable_all(self):
        findings = LintEngine().lint_source(
            "g = globals()  # kishu: disable=all"
        )
        assert findings == []

    def test_unrelated_rule_still_fires(self):
        findings = LintEngine().lint_source(
            "g = globals()  # kishu: disable=KSH101"
        )
        assert rule_ids(findings) == ["KSH102"]


class TestRuleRegistry:
    def test_default_registry_contents(self):
        registry = RuleRegistry.default()
        for rule_id in ("KSH100", "KSH101", "KSH107", "KSH108", "KSH110", "KSH201"):
            assert rule_id in registry

    def test_unregister_silences_a_rule(self):
        registry = RuleRegistry.default()
        registry.unregister("KSH102")
        findings = LintEngine(registry).lint_source("g = globals()")
        assert "KSH102" not in rule_ids(findings)

    def test_user_defined_rule(self):
        class NoTodoRule(LintRule):
            rule_id = "KSH900"
            severity = Severity.INFO
            description = "flags TODO comments"

            def check(self, context):
                for index, line in enumerate(context.source.splitlines(), start=1):
                    if "TODO" in line:
                        yield self.finding(context, "todo found", Span(index, 0, index, 0))

        registry = RuleRegistry.default()
        registry.register(NoTodoRule())
        findings = LintEngine(registry).lint_source("x = 1  # TODO later")
        assert "KSH900" in rule_ids(findings)


class TestPurityRegistry:
    def test_registering_a_callable_extends_read_only(self):
        analyzer = ReadOnlyCellAnalyzer(purity=PurityRegistry())
        assert not analyzer.is_read_only("show(x)")
        analyzer.purity.register_callable("show")
        assert analyzer.is_read_only("show(x)")

    def test_registering_a_method_extends_read_only(self):
        analyzer = ReadOnlyCellAnalyzer(purity=PurityRegistry())
        assert not analyzer.is_read_only("df.plot()")
        analyzer.purity.register_method("plot")
        assert analyzer.is_read_only("df.plot()")

    def test_global_registry_reaches_default_analyzers(self):
        analyzer = ReadOnlyCellAnalyzer()
        GLOBAL_PURITY.register_callable("__test_only_pure__")
        try:
            assert analyzer.is_read_only("__test_only_pure__(x)")
        finally:
            GLOBAL_PURITY.unregister_callable("__test_only_pure__")
        assert not analyzer.is_read_only("__test_only_pure__(x)")

    def test_explicit_whitelists_stay_frozen(self):
        analyzer = ReadOnlyCellAnalyzer(
            pure_builtins=frozenset({"show"}), pure_methods=frozenset()
        )
        assert analyzer.is_read_only("show(x)")
        assert not analyzer.is_read_only("print(x)")  # not whitelisted here

    def test_unregister(self):
        registry = PurityRegistry()
        assert registry.is_pure_callable("print")
        registry.unregister_callable("print")
        assert not registry.is_pure_callable("print")


class TestPublicExport:
    def test_package_analyzer_is_the_analysis_class_and_never_warns(self):
        import repro
        import repro.core

        assert repro.ReadOnlyCellAnalyzer is ReadOnlyCellAnalyzer
        assert repro.core.ReadOnlyCellAnalyzer is ReadOnlyCellAnalyzer
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analyzer = repro.ReadOnlyCellAnalyzer()
        assert analyzer.is_read_only("print(x)")


class TestReporters:
    def make_findings(self):
        engine = LintEngine()
        return engine.lint_source("exec('')\ndf.head()", label="cell.py")

    def test_text_reporter(self):
        text = TextReporter().render(self.make_findings())
        assert "cell.py:1:0: warning KSH101" in text
        assert "finding(s)" in text

    def test_text_reporter_empty(self):
        assert TextReporter().render([]) == "no findings"

    def test_json_reporter(self):
        payload = json.loads(JsonReporter().render(self.make_findings()))
        rules = {entry["rule"] for entry in payload["findings"]}
        assert "KSH101" in rules
        assert payload["counts"]["warning"] == 1

    def test_worst_severity(self):
        assert worst_severity([]) is Severity.INFO
        findings = LintEngine().lint_source("def broken(:")
        assert worst_severity(findings) is Severity.ERROR


class TestCliSurfaces:
    def run_repl(self, *lines):
        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout = io.StringIO()
        KishuRepl(stdin=stdin, stdout=stdout).run()
        return stdout.getvalue()

    def test_percent_lint_over_history(self):
        output = self.run_repl("x = 1", "exec('y = 2')", "%lint", "%quit")
        assert "KSH101" in output
        assert "In[2]" in output

    def test_percent_lint_inline_snippet(self):
        output = self.run_repl("%lint g = globals()", "%quit")
        assert "KSH102" in output

    def test_percent_lint_no_cells(self):
        output = self.run_repl("%lint", "%quit")
        assert "no cells executed yet" in output

    def test_percent_telemetry_shows_analysis_counters(self):
        output = self.run_repl("x = 1", "exec('y = 2')", "%telemetry", "%quit")
        assert "escalations         1" in output
        assert "cells analyzed      2" in output

    def test_lint_main_clean_file(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\ny = x + 1\n")
        out = io.StringIO()
        assert lint_main([str(path)], stdout=out) == 0
        assert "no findings" in out.getvalue()

    def test_lint_main_warning_exit_codes(self, tmp_path):
        path = tmp_path / "escapes.py"
        path.write_text("exec('x = 1')\n")
        out = io.StringIO()
        assert lint_main([str(path)], stdout=out) == 0  # warnings pass by default
        assert lint_main(["--strict", str(path)], stdout=io.StringIO()) == 1

    def test_lint_main_error_exits_nonzero(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        assert lint_main([str(path)], stdout=io.StringIO()) == 1

    def test_lint_main_missing_file(self):
        assert lint_main(["/nonexistent/nowhere.py"], stdout=io.StringIO()) == 2

    def test_lint_main_json_format(self, tmp_path):
        path = tmp_path / "escapes.py"
        path.write_text("g = globals()\n")
        out = io.StringIO()
        lint_main(["--format", "json", str(path)], stdout=out)
        payload = json.loads(out.getvalue())
        assert payload["findings"][0]["rule"] == "KSH102"
        assert payload["findings"][0]["label"] == str(path)

    def test_main_dispatches_lint_subcommand(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert main(["lint", str(path)]) == 0
        assert "no findings" in capsys.readouterr().out
