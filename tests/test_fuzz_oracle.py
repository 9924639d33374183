"""The differential oracle: canonical state and the three-way cross-check."""

import pytest

from repro.core.delta import DeltaDetector
from repro.core.session import KishuSession
from repro.fuzz.oracle import (
    Divergence,
    canonical_state,
    run_cells_oracle,
    run_fuzz_iteration,
)
from repro.fuzz.grammar import FuzzConfig, profile
from repro.kernel.kernel import NotebookKernel


def _state_after(*cells):
    kernel = NotebookKernel()
    for cell in cells:
        kernel.run_cell(cell, raise_on_error=False)
    return canonical_state(kernel)


class TestCanonicalState:
    def test_equal_states_encode_equal(self):
        cells = ("a = [1, {'k': 2}]", "b = a", "c = (a, 3)")
        assert _state_after(*cells) == _state_after(*cells)

    def test_aliasing_is_part_of_state(self):
        shared = _state_after("a = [1, 2]", "b = a")
        copied = _state_after("a = [1, 2]", "b = [1, 2]")
        assert shared != copied

    def test_dict_insertion_order_is_part_of_state(self):
        assert _state_after("d = {'x': 1, 'y': 2}") != _state_after(
            "d = {'y': 2, 'x': 1}"
        )

    def test_addresses_are_masked(self):
        # Functions and generators repr with a memory address; equal
        # programs in different kernels must still encode identically.
        cells = ("def f():\n    return 1", "g = (i for i in range(3))")
        assert _state_after(*cells) == _state_after(*cells)

    def test_numpy_content_is_hashed(self):
        same = ("import numpy as np", "a = np.arange(8, dtype=np.float64)")
        other = ("import numpy as np", "a = np.arange(8, dtype=np.float64) + 1")
        assert _state_after(*same) == _state_after(*same)
        assert _state_after(*same) != _state_after(*other)

    def test_libsim_handles_encode_their_state(self):
        make = (
            "import repro.libsim.data_analysis as _simda",
            "h = _simda.SimSeries(n=6, seed=3)",
        )
        differ = (
            "import repro.libsim.data_analysis as _simda",
            "h = _simda.SimSeries(n=6, seed=4)",
        )
        assert _state_after(*make) == _state_after(*make)
        assert _state_after(*make) != _state_after(*differ)


class TestOracleRun:
    def test_clean_program_passes(self):
        cells = ["a = [1, 2]", "b = a", "b.append(3)", "c = {'k': a}"]
        report = run_cells_oracle(cells, seed=5)
        assert report.ok, report.describe()
        assert report.checkouts == len(cells)
        assert report.commits_checked == len(cells)

    def test_branch_rounds_run(self):
        report = run_cells_oracle(
            ["a = [1]", "a.append(2)", "b = a"],
            seed=2,
            branch_cells=("a.append(99)", "c = [len(a)]"),
        )
        assert report.ok, report.describe()
        assert report.branch_rounds == 2

    def test_error_cells_are_deterministic_state(self):
        # Both runs see the identical NameError; no divergence.
        report = run_cells_oracle(["a = [1]", "b = missing_name", "c = a"], seed=0)
        assert report.ok, report.describe()

    def test_nondeterminism_is_caught(self):
        # A cell observing cross-kernel process state executes differently
        # in the tracked and cold runs — the oracle must flag it.
        cells = [
            "import repro as _r\n"
            "_r._fuzz_probe = getattr(_r, '_fuzz_probe', 0) + 1\n"
            "v = [_r._fuzz_probe]",
        ]
        try:
            report = run_cells_oracle(cells, seed=0)
        finally:
            import repro as _r

            if hasattr(_r, "_fuzz_probe"):
                del _r._fuzz_probe
        assert not report.ok
        assert any(d.kind == "nondeterminism" for d in report.divergences)

    def test_escape_program_passes_and_counts_escalations(self):
        cells = [
            "a = [1]",
            "globals()['e1'] = [2, 3]",
            "exec(\"e2 = [4]\")",
            "if isinstance(globals()['a'], list):\n    globals()['a'].append(5)",
        ]
        report = run_cells_oracle(cells, seed=1)
        assert report.ok, report.describe()

    def test_run_fuzz_iteration_roundtrip(self):
        program, report = run_fuzz_iteration(
            3, FuzzConfig(cells=8, branch_cells=1)
        )
        assert program.seed == 3
        assert len(program.cells) == 8
        assert report.ok, report.describe()

    @pytest.mark.parametrize("name", ["default", "escape-heavy", "libsim-heavy"])
    def test_profiles_pass_oracle(self, name):
        _, report = run_fuzz_iteration(11, profile(name, cells=10, branch_cells=2))
        assert report.ok, report.describe()


class TestBranchRechecks:
    CELLS = ["a = [1]", "a.append(2)", "b = [0]"]

    def test_every_branched_commit_is_checked_out_again(self):
        report = run_cells_oracle(
            self.CELLS, seed=2, branch_cells=("a.append(99)", "c = [len(a)]")
        )
        assert report.ok, report.describe()
        assert report.branch_rechecks == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_a_delta_stored_wrongly_after_a_checkout_is_caught(
        self, monkeypatch, seed
    ):
        # A session that never builds the co-variables a checkout left
        # pending, and whose detector takes a co-variable without a
        # "before" graph as unchanged, drops the branch cell's append
        # from its commit. The live state still matches the cold replay
        # of the branch; only checking the commit out again shows it.
        def changed(covariable, old_graphs):
            return any(
                name in old_graphs and graph.differs_from(old_graphs[name])
                for name, graph in covariable.graphs.items()
            )

        monkeypatch.setattr(KishuSession, "_build_pending", lambda *args: None)
        monkeypatch.setattr(DeltaDetector, "_graphs_changed", staticmethod(changed))
        report = run_cells_oracle(
            self.CELLS, seed=seed, branch_cells=("a.append(99)",)
        )
        assert [d.kind for d in report.divergences] == ["branch"]
        assert "re-checked-out" in report.divergences[0].detail


class TestDivergenceRendering:
    def test_describe_carries_seed_and_location(self):
        d = Divergence(
            kind="checkout", node_id="t4", cell_index=3, detail="boom", seed=9
        )
        text = d.describe()
        assert "[checkout]" in text
        assert "seed=9" in text
        assert "t4" in text and "cell 3" in text

    def test_report_describe_lists_divergences(self):
        report = run_cells_oracle(["a = [1]"], seed=0)
        assert report.describe().startswith("ok:")
