"""Cross-validation of Lemma 1: escalation, the fallback decision, and
the end-to-end escape-hatch workload (DESIGN.md §8)."""

from __future__ import annotations

from repro.analysis import CrossValidator, analyze_cell
from repro.core.covariable import CoVariablePool
from repro.core.delta import DeltaDetector
from repro.core.session import KishuSession
from repro.core.vargraph import VarGraphBuilder
from repro.kernel.kernel import NotebookKernel
from repro.kernel.namespace import AccessRecord
from repro.telemetry import AnalysisStats


def record_of(gets=(), sets=(), deletes=()):
    record = AccessRecord()
    record.gets |= set(gets)
    record.sets |= set(sets)
    record.deletes |= set(deletes)
    return record


class TestCrossValidator:
    def test_clean_cell_confirmed(self):
        validator = CrossValidator()
        effects = analyze_cell("y = x + 1")
        outcome = validator.validate(effects, record_of(gets={"x"}, sets={"y"}))
        assert outcome.confirmed
        assert not outcome.escalate
        assert validator.stats.predictions_confirmed == 1
        assert validator.stats.escalations == 0

    def test_escape_escalates_even_with_complete_record(self):
        validator = CrossValidator()
        effects = analyze_cell("g = globals()")
        outcome = validator.validate(effects, record_of(sets={"g"}))
        assert outcome.escalate
        assert any(reason.startswith("escape:") for reason in outcome.reasons)
        assert validator.stats.escapes_found >= 1
        assert validator.stats.escalations == 1

    def test_under_reported_record_escalates(self):
        validator = CrossValidator()
        effects = analyze_cell("y = x + 1")
        # The runtime record is missing the definite read of ``x``.
        outcome = validator.validate(effects, record_of(sets={"y"}))
        assert outcome.escalate
        assert "x" in outcome.missing
        assert validator.stats.predictions_violated == 1

    def test_conditional_access_not_required(self):
        validator = CrossValidator()
        effects = analyze_cell("if flag:\n    y = x")
        # The branch was not taken: only ``flag`` was read at runtime.
        outcome = validator.validate(effects, record_of(gets={"flag"}))
        assert outcome.confirmed

    def test_syntax_error_cell_never_escalates(self):
        validator = CrossValidator()
        effects = analyze_cell("def broken(:")
        outcome = validator.validate(effects, AccessRecord())
        assert not outcome.escalate
        assert validator.stats.escalations == 0

    def test_star_import_opaque_writes_escalate(self):
        validator = CrossValidator()
        effects = analyze_cell("from math import *")
        outcome = validator.validate(effects, record_of(sets={"pi", "sin"}))
        assert outcome.escalate

    def test_shared_stats_instance(self):
        stats = AnalysisStats()
        validator = CrossValidator(stats)
        validator.validate(analyze_cell("x = 1"), record_of(sets={"x"}))
        assert stats.cells_analyzed == 1
        assert validator.stats is stats


class TestDetectorFallback:
    """Satellite: the three check-all triggers funnel through one method."""

    def make_detector(self, **kwargs):
        return DeltaDetector(CoVariablePool(VarGraphBuilder()), **kwargs)

    def test_needs_full_check_triggers(self):
        detector = self.make_detector()
        assert detector.needs_full_check(None)
        assert detector.needs_full_check(AccessRecord(), escalate=True)
        assert not detector.needs_full_check(AccessRecord())
        ablated = self.make_detector(check_all=True)
        assert ablated.needs_full_check(AccessRecord())

    def test_lost_record_checks_all_pool_members(self):
        """Regression: record=None must re-check every existing co-variable,
        not just names in the (empty) record."""
        detector = self.make_detector()
        namespace = {"a": [1], "b": [2], "c": [3]}
        detector.detect(record_of(sets=set(namespace)), dict(namespace))
        namespace["a"].append(99)  # mutate behind the detector's back
        delta = detector.detect(None, dict(namespace))
        assert delta.checked_names == {"a", "b", "c"}
        assert frozenset({"a"}) in delta.modified

    def test_escalation_checks_all_without_flipping_check_all(self):
        detector = self.make_detector()
        namespace = {"a": [1], "b": [2]}
        detector.detect(record_of(sets=set(namespace)), dict(namespace))
        namespace["b"].append(7)  # unrecorded mutation
        empty = AccessRecord()
        delta = detector.detect(empty, dict(namespace), escalate=True)
        assert delta.checked_names == {"a", "b"}
        assert frozenset({"b"}) in delta.modified
        assert not detector.check_all  # the switch itself is untouched

    def test_unescalated_empty_record_prunes_everything(self):
        detector = self.make_detector()
        namespace = {"a": [1], "b": [2]}
        detector.detect(record_of(sets=set(namespace)), dict(namespace))
        delta = detector.detect(AccessRecord(), dict(namespace))
        assert delta.checked_names == set()
        assert delta.is_empty


class TestSessionEscalation:
    """Acceptance criterion: a namespace-escape mutation cell is escalated
    (checkout after it restores the mutated state), clean cells keep the
    pruned detection path, and the telemetry counts exactly one escalation.
    """

    # ``globals().values()`` iterates the namespace without a single
    # __getitem__ call, so the mutation of ``xs`` leaves no trace in the
    # access record — the canonical Lemma 1 blind spot.
    BLIND_MUTATION = (
        "for v in list(globals().values()):\n"
        "    if isinstance(v, list) and v and v[0] == 1:\n"
        "        v.append(99)\n"
    )

    def run_workload(self):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel)
        kernel.run_cell("xs = [1, 2, 3]")
        kernel.run_cell("note = 'clean'")
        kernel.run_cell(self.BLIND_MUTATION)
        after_mutation = session.head_id
        kernel.run_cell("final = len(xs)")
        return kernel, session, after_mutation

    def test_escape_cell_escalates_and_checkpoints_the_mutation(self):
        kernel, session, after_mutation = self.run_workload()

        flags = [metric.escalated for metric in session.metrics]
        assert flags == [False, False, True, False]

        stats = session.analysis_stats
        assert stats.escalations == 1
        assert stats.escapes_found >= 1
        assert stats.predictions_violated == 0  # no false escalations
        assert stats.cells_analyzed == 4

        # Move away, then travel back to just after the mutation: the
        # escalated checkpoint must contain the silently mutated list.
        kernel.run_cell("xs = 'overwritten'")
        session.checkout(after_mutation)
        assert kernel.get("xs") == [1, 2, 3, 99]

    def test_clean_cells_stay_pruned(self):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel)
        kernel.run_cell("a = [1]")
        kernel.run_cell("b = [2]")
        kernel.run_cell("c = a[0] + b[0]")
        assert session.analysis_stats.escalations == 0
        assert session.analysis_stats.predictions_confirmed == 3
        # The last cell read a and b and wrote c; the pruned detector
        # never re-checked more than those names.
        assert session.metrics[-1].walk.graphs_built <= 3

    def test_exec_cell_escalates(self):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel)
        kernel.run_cell("x = 10")
        kernel.run_cell("exec('x = x + 1')")
        assert session.metrics[-1].escalated
        assert kernel.get("x") == 11

    def test_read_only_fast_path_skips_clean_cells_only(self):
        from repro.analysis import ReadOnlyCellAnalyzer

        kernel = NotebookKernel()
        session = KishuSession.init(kernel, rule_analyzer=ReadOnlyCellAnalyzer())
        kernel.run_cell("x = 1")
        kernel.run_cell("print(x)")
        assert session.analysis_stats.read_only_skips == 1
        # An escalated cell must never take the read-only shortcut, even
        # if the analyzer would consider its surface syntax read-only.
        kernel.run_cell("print(len(globals()))")
        assert session.metrics[-1].escalated
        assert session.analysis_stats.read_only_skips == 1

    def test_session_installs_and_removes_kernel_analyzer(self):
        kernel = NotebookKernel()
        assert kernel.cell_analyzer is None
        session = KishuSession.init(kernel)
        assert kernel.cell_analyzer is not None
        session.detach()
        assert kernel.cell_analyzer is None

    def test_write_only_walrus_comprehension_is_rescued(self):
        """A walrus target that is only written compiles to STORE_GLOBAL:
        the patched namespace records nothing for it, so without the
        HIDDEN_GLOBAL_STORE escape the checkpoint would silently miss the
        rebinding."""
        kernel = NotebookKernel()
        session = KishuSession.init(kernel)
        kernel.run_cell("m = 0")
        kernel.run_cell("acc = [(m := i * i) for i in range(3)]")
        after = session.head_id
        assert session.metrics[-1].escalated
        kernel.run_cell("m = -1")
        session.checkout(after)
        assert kernel.get("m") == 4  # the escalated checkpoint caught it

    def test_global_store_in_function_is_rescued(self):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel)
        kernel.run_cell("counter = 0")
        kernel.run_cell("def bump():\n    global counter\n    counter = 10\nbump()")
        after = session.head_id
        # The summary bounds the hidden store, so the cell is *not*
        # escalated to check-all — the write is instead folded into the
        # runtime record (summary-informed record completion) and the
        # checkpoint still catches the rebinding.
        assert not session.metrics[-1].escalated
        kernel.run_cell("counter = -1")
        session.checkout(after)
        assert kernel.get("counter") == 10

    def test_error_cell_escalates_conservatively(self):
        """A cell that raises mid-way may have skipped definite accesses;
        the validator treats the under-report as an escalation, which is
        safe (just slower), never wrong."""
        kernel = NotebookKernel()
        session = KishuSession.init(kernel)
        kernel.run_cell("ok = 1")
        kernel.run_cell("boom = undefined_name + ok", raise_on_error=False)
        # State is still consistent regardless of the escalation verdict.
        assert kernel.get("ok") == 1
        assert session.analysis_stats.cells_analyzed == 2
