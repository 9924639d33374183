"""ddmin shrinking and the pinned-regression emitter."""

import subprocess
import sys
import pathlib
from types import SimpleNamespace

import repro.fuzz.shrink as shrink_module
from repro.fuzz.grammar import FuzzConfig, FuzzProgram
from repro.fuzz.shrink import emit_regression_test, shrink_cells, shrink_program


class TestShrinkCells:
    def test_minimizes_to_the_failing_pair(self):
        cells = [f"x{i} = {i}" for i in range(8)]

        def still_fails(candidate):
            return "x2 = 2" in candidate and "x6 = 6" in candidate

        result = shrink_cells(cells, still_fails)
        assert result == ["x2 = 2", "x6 = 6"]

    def test_single_culprit_minimizes_to_one(self):
        cells = [f"x{i} = {i}" for i in range(10)]
        result = shrink_cells(cells, lambda c: "x7 = 7" in c)
        assert result == ["x7 = 7"]

    def test_passing_input_is_returned_unchanged(self):
        cells = ["a = 1", "b = 2"]
        assert shrink_cells(cells, lambda c: False) == cells

    def test_predicate_never_sees_the_empty_program(self):
        seen = []

        def still_fails(candidate):
            seen.append(list(candidate))
            return "a = 1" in candidate

        shrink_cells(["a = 1", "b = 2"], still_fails)
        assert all(candidate for candidate in seen)

    def test_order_is_preserved(self):
        cells = ["a = 1", "b = 2", "c = 3", "d = 4"]

        def still_fails(candidate):
            return "b = 2" in candidate and "d = 4" in candidate

        assert shrink_cells(cells, still_fails) == ["b = 2", "d = 4"]

    def test_deterministic(self):
        cells = [f"x{i} = {i}" for i in range(12)]

        def predicate(candidate):
            return sum(1 for c in candidate if int(c.split()[-1]) % 3 == 0) >= 2

        assert shrink_cells(cells, predicate) == shrink_cells(cells, predicate)

    def test_attempt_budget_is_respected(self):
        calls = []

        def still_fails(candidate):
            calls.append(1)
            return True  # everything "fails": worst case for ddmin

        shrink_cells([f"x{i} = {i}" for i in range(30)], still_fails, max_attempts=10)
        # +1 for the initial does-it-fail-at-all check.
        assert len(calls) <= 11


class TestEmitRegressionTest:
    def test_emitted_file_is_a_runnable_pytest(self, tmp_path):
        path = tmp_path / "test_fuzz_seed_42.py"
        emit_regression_test(
            ["a = [1, 2]", "b = a"],
            seed=42,
            path=str(path),
            original_cells=20,
            origin="unit test",
        )
        content = path.read_text()
        assert "seed=42" in content
        assert "def test_fuzz_seed_42" in content
        assert "20 cell(s) -> 2" in content
        compile(content, str(path), "exec")  # syntactically sound
        env_path = str(pathlib.Path(__file__).parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", str(path)],
            capture_output=True,
            text=True,
            env={
                **__import__("os").environ,
                "PYTHONPATH": env_path,
            },
            cwd=str(tmp_path),
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "test_fuzz_seed_7.py"
        emit_regression_test(["a = 1"], seed=7, path=str(path))
        assert path.exists()

    def test_cells_roundtrip_through_repr(self, tmp_path):
        tricky = ["s = 'quote\\'s'\nt = \"double\"", "u = s + t"]
        path = tmp_path / "test_fuzz_seed_0.py"
        emit_regression_test(tricky, seed=0, path=str(path))
        namespace = {}
        exec(compile(path.read_text(), str(path), "exec"), namespace)
        assert namespace["CELLS"] == tricky


class TestBranchCells:
    def test_branch_round_divergence_shrinks_and_pins_its_branch_cells(
        self, tmp_path, monkeypatch
    ):
        """A divergence that only a branch round shows: the shrinker runs
        every candidate with the program's branch cells, and the emitted
        test hands them to the oracle."""
        branch = ("b1 = 1", "b2 = 2")
        marker = "hz = 'marker'"
        cells = tuple(f"x{i} = {i}" for i in range(6)) + (marker,) + ("y = 0", "z = 1")
        program = FuzzProgram(seed=4, config=FuzzConfig(), cells=cells, branch_cells=branch)

        def oracle(candidate, *, seed, branch_cells=()):
            diverged = marker in candidate and tuple(branch_cells) == branch
            return SimpleNamespace(
                ok=not diverged,
                divergences=[SimpleNamespace(kind="branch")] if diverged else [],
            )

        monkeypatch.setattr(shrink_module, "run_cells_oracle", oracle)
        minimized = shrink_program(program, kind="branch")
        assert minimized == [marker]

        path = tmp_path / "test_fuzz_seed_4.py"
        emit_regression_test(
            minimized, seed=program.seed, path=str(path), branch_cells=program.branch_cells
        )
        namespace: dict = {}
        exec(compile(path.read_text(), str(path), "exec"), namespace)
        assert namespace["BRANCH_CELLS"] == list(branch)
        calls = []

        def recording_oracle(cells, **kwargs):
            calls.append((cells, kwargs))
            return SimpleNamespace(ok=True)

        namespace["run_cells_oracle"] = recording_oracle
        namespace["test_fuzz_seed_4"]()
        assert calls == [([marker], {"seed": 4, "branch_cells": branch})]


class TestRegenerateLine:
    def test_regenerate_line_names_the_profile(self, tmp_path):
        """The emitted docstring's command regenerates the program the
        pinned cells came from, under the profile that generated it."""
        import re

        from repro.fuzz import ProgramGenerator, profile

        program = ProgramGenerator(profile("escape-heavy", cells=15)).generate(11)
        pinned = list(program.cells[1::4])
        path = tmp_path / "test_fuzz_seed_11.py"
        emit_regression_test(
            pinned,
            seed=program.seed,
            path=str(path),
            original_cells=len(program.cells),
            config=program.config,
            origin="repro fuzz --profile escape-heavy",
            profile="escape-heavy",
        )
        content = path.read_text()
        match = re.search(
            r"^    repro fuzz --profile (\S+) --seed (\d+) --cells (\d+)$",
            content,
            re.MULTILINE,
        )
        assert match is not None, content
        name, seed, cells = match.group(1), int(match.group(2)), int(match.group(3))
        assert name == "escape-heavy"
        regenerated = iter(ProgramGenerator(profile(name, cells=cells)).generate(seed).cells)
        namespace: dict = {}
        exec(compile(content, str(path), "exec"), namespace)
        assert namespace["CELLS"] == pinned
        assert all(cell in regenerated for cell in namespace["CELLS"])  # a subsequence

    def test_default_profile_when_none_is_given(self, tmp_path):
        path = tmp_path / "test_fuzz_seed_3.py"
        emit_regression_test(["a = 1"], seed=3, path=str(path), original_cells=9)
        assert "repro fuzz --profile default --seed 3 --cells 9" in path.read_text()
