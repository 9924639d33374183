"""Tests for cost-based Det-replay (the paper's §7.5.2 future work)."""

from __future__ import annotations

import pytest

from repro.baselines import CostBasedDetReplayMethod, CostBasedDetReplaySession
from repro.bench import run_notebook_with_method
from repro.kernel.cells import Cell
from repro.kernel.kernel import NotebookKernel
from repro.workloads.spec import NotebookSpec, make_cells


def session_with_budget(budget: float) -> tuple:
    kernel = NotebookKernel()
    session = CostBasedDetReplaySession(kernel, replay_budget_seconds=budget)
    session.attach()
    return kernel, session


SLOW_DET_CELL = (
    "from repro.workloads.compute import simulate_compute\n"
    "model = sorted(range(100))\n"
    "simulate_compute(0.08)"
)


class TestSkipDecision:
    def test_cheap_deterministic_cell_skipped(self):
        kernel, session = session_with_budget(budget=10.0)
        kernel.run_cell(Cell.make("model = sorted([2, 1])", "c0", "deterministic"))
        assert session.metrics[-1].bytes_written == 0
        assert session.skip_decisions[-1] is False

    def test_expensive_deterministic_cell_stored(self):
        kernel, session = session_with_budget(budget=0.01)
        kernel.run_cell(Cell.make(SLOW_DET_CELL, "c0", "deterministic"))
        assert session.metrics[-1].bytes_written > 0
        assert session.skip_decisions[-1] is True

    def test_nondeterministic_cells_always_stored(self):
        kernel, session = session_with_budget(budget=10.0)
        kernel.run_cell("plain = [1, 2]")
        assert session.metrics[-1].bytes_written > 0

    def test_replay_cost_accumulates_through_skipped_chain(self):
        # Two skipped cells in a chain: the second's replay cost includes
        # the first's, eventually exceeding the budget.
        kernel, session = session_with_budget(budget=0.1)
        chain_cell = (
            "from repro.workloads.compute import simulate_compute\n"
            "acc = sorted([3, 1])\n"
            "simulate_compute(0.06)"
        )
        kernel.run_cell(Cell.make(chain_cell, "c0", "deterministic"))
        assert session.skip_decisions[-1] is False  # 0.06 < 0.1: skipped
        dependent_cell = (
            "acc = sorted(acc + [0])\n"
            "simulate_compute(0.06)"
        )
        kernel.run_cell(Cell.make(dependent_cell, "c1", "deterministic"))
        # 0.06 + ancestor 0.06 > 0.1: stored despite being deterministic.
        assert session.skip_decisions[-1] is True


class TestCheckoutBehaviour:
    def test_skipped_cells_replay_correctly(self):
        kernel, session = session_with_budget(budget=10.0)
        kernel.run_cell(Cell.make("model = sorted([3, 1, 2])", "c0", "deterministic"))
        target = session.head_id
        kernel.run_cell("model = None")
        report = session.checkout(target)
        assert kernel.get("model") == [1, 2, 3]
        assert report.recomputed_keys

    def test_bounded_checkout_vs_plain_detreplay(self):
        """With a tight budget, checkout avoids the long replay chain that
        plain Det-replay would incur (the paper's Cluster 1050 s case)."""
        from repro.baselines import DetReplayMethod

        entries = [("from repro.workloads.compute import simulate_compute", ())]
        for i in range(4):
            entries.append(
                (
                    f"model_{i} = sorted(range({i + 2}))\n"
                    "simulate_compute(0.05)",
                    ("deterministic", "model-train"),
                )
            )
        entries.append(("done = 1", ()))
        spec = NotebookSpec(
            name="Fits", topic="t", library="l", final=True,
            hidden_states=0, out_of_order_cells=0, cells=make_cells(entries),
        )

        def overwrite_and_switch_back(run):
            """Overwrite every model, then check out the pre-overwrite
            state — forcing each model co-variable to be restored."""
            target_index = len(spec.cells) - 1
            run.method.run_cell("model_0 = model_1 = model_2 = model_3 = None")
            return run.method.checkout(target_index)

        plain = run_notebook_with_method(spec, DetReplayMethod)
        plain_undo = overwrite_and_switch_back(plain)

        def tight_budget_factory(kernel):
            return CostBasedDetReplayMethod(kernel, replay_budget_seconds=0.01)

        bounded = run_notebook_with_method(spec, tight_budget_factory)
        bounded_undo = overwrite_and_switch_back(bounded)

        assert not plain_undo.failed and not bounded_undo.failed
        assert bounded_undo.restored["model_0"] == [0, 1]
        # Plain det-replay replays every fit (~0.2 s); the cost-based
        # variant loads stored payloads instead.
        assert bounded_undo.seconds < plain_undo.seconds / 3
        # The flip side: the cost-based variant stored more.
        assert bounded.total_storage_bytes > plain.total_storage_bytes
