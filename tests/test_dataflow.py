"""Tests for the inter-cell dataflow graph and replay planner (DESIGN.md §10)."""

from __future__ import annotations

import pytest

from repro.analysis.dataflow import (
    EdgeKind,
    NotebookDataflowGraph,
    ReplayPlanner,
    StoredVersion,
    ast_cost,
    is_builtin_name,
    make_cell_node,
    split_script_cells,
)


def graph_of(*sources: str) -> NotebookDataflowGraph:
    return NotebookDataflowGraph.from_sources(sources)


def stored_lookup(stored):
    """Payload lookup over ``{(name, index): (ref, anchor, value)}``."""

    def lookup(name, upto):
        if (name, upto) not in stored:
            return None
        ref, anchor, _ = stored[(name, upto)]
        return StoredVersion(frozenset({name}), ref, anchor)

    return lookup


def run_plan(plan, cells, stored):
    """Execute a replay plan, planting stored values for load steps."""
    values = {(name, ref): value for (name, _), (ref, _, value) in stored.items()}
    namespace: dict = {}
    for step in plan.steps:
        if step.kind == "load":
            for name in step.names:
                namespace[name] = list(values[(name, step.ref)])
        else:
            exec(cells[step.index], namespace)
    return namespace


class TestCellSplitting:
    def test_percent_markers_win(self):
        source = "a = 1\n# %% second\nb = a + 1\n# %%\nc = b\n"
        cells = split_script_cells(source)
        assert len(cells) == 3
        assert "a = 1" in cells[0]
        assert "b = a + 1" in cells[1]
        assert "c = b" in cells[2]

    def test_statement_fallback(self):
        cells = split_script_cells("x = 1\ny = x + 1\n")
        assert cells == ["x = 1", "y = x + 1"]

    def test_decorated_function_stays_one_cell(self):
        source = "import functools\n@functools.cache\ndef f(n):\n    return n\n"
        cells = split_script_cells(source)
        assert len(cells) == 2
        assert cells[1].startswith("@functools.cache")


class TestCellNode:
    def test_external_reads_exclude_cell_locals(self):
        cell = make_cell_node(0, "x = 1\ny = x + z")
        assert "z" in cell.external_reads
        assert "x" not in cell.external_reads

    def test_lazy_function_body_reads_are_not_external(self):
        cell = make_cell_node(0, "def f():\n    return seed + 1")
        assert "seed" not in cell.external_reads

    def test_comprehension_reads_are_external(self):
        # A genexp body runs lazily but the *free variables* it closes
        # over come from the defining frame; the collector must see them.
        cell = make_cell_node(0, "gen = (i * seed for i in range(3))")
        assert "seed" in cell.external_reads
        assert "i" not in cell.external_reads

    def test_mutation_targets(self):
        cell = make_cell_node(0, "xs.append(1)\nd['k'] = 2\narr[0] += 1")
        assert {"xs", "d", "arr"} <= set(cell.mutators)

    def test_pure_methods_are_not_mutators(self):
        cell = make_cell_node(0, "n = xs.count(3)")
        assert "xs" not in cell.mutators

    def test_syntax_error_cell_not_executed(self):
        cell = make_cell_node(0, "def broken(:")
        assert not cell.executed


class TestResolve:
    def test_latest_definite_writer_wins(self):
        graph = graph_of("x = 1", "x = 2", "y = x")
        resolution = graph.resolve("x", 1)
        assert resolution.definite == 1
        assert resolution.producers == (1,)

    def test_definite_delete_kills(self):
        graph = graph_of("x = 1", "del x")
        resolution = graph.resolve("x", 1)
        assert resolution.definite is None
        assert resolution.killed
        assert resolution.unresolved

    def test_write_after_delete_revives(self):
        graph = graph_of("x = 1", "del x", "x = 3")
        resolution = graph.resolve("x", 2)
        assert resolution.definite == 2
        assert not resolution.killed

    def test_conditional_write_widens(self):
        graph = graph_of("x = 1", "if flag:\n    x = 2")
        resolution = graph.resolve("x", 1)
        assert resolution.definite == 0
        assert resolution.conditional == (1,)

    def test_mutation_joins_producers(self):
        graph = graph_of("xs = [1]", "xs.append(2)")
        resolution = graph.resolve("xs", 1)
        assert resolution.definite == 0
        assert resolution.mutators == (1,)

    def test_bare_mutator_is_not_a_producer(self):
        # A method call on a name never bound in the history (e.g. a
        # function-local leaking through in_place_mutation_targets) must
        # not conjure a binding.
        graph = graph_of("def f():\n    acc = []\n    acc.append(1)")
        resolution = graph.resolve("acc", 0)
        assert resolution.unresolved

    def test_escape_cell_widens_every_name(self):
        graph = graph_of("x = 1", "exec('x = 2')", "y = x")
        assert graph.escape_cells == (1,)
        resolution = graph.resolve("x", 1)
        assert resolution.definite == 0
        assert resolution.escapes == (1,)

    def test_pre_notebook_state_resolves_nothing(self):
        graph = graph_of("x = 1")
        assert graph.resolve("x", -1).unresolved

    def test_contiguous_index_validation(self):
        with pytest.raises(ValueError):
            NotebookDataflowGraph([make_cell_node(1, "x = 1")])


class TestEdges:
    def test_definite_edge(self):
        graph = graph_of("x = 1", "y = x + 1")
        assert any(
            e.name == "x" and e.producer == 0 and e.reader == 1
            and e.kind is EdgeKind.DEFINITE
            for e in graph.edges
        )

    def test_conditional_and_mutation_edges(self):
        graph = graph_of(
            "xs = [1]",
            "if flag:\n    xs = [2]",
            "xs.append(3)",
            "n = len(xs)",
        )
        kinds = {
            (e.producer, e.kind) for e in graph.edges
            if e.name == "xs" and e.reader == 3
        }
        assert (0, EdgeKind.DEFINITE) in kinds
        assert (1, EdgeKind.CONDITIONAL) in kinds
        assert (2, EdgeKind.MUTATION) in kinds

    def test_escape_edge(self):
        graph = graph_of("x = 1", "exec('x = 2')", "y = x")
        assert any(
            e.name == "x" and e.kind is EdgeKind.ESCAPE and e.producer == 1
            for e in graph.edges
        )

    def test_live_names(self):
        graph = graph_of("x = 1", "y = 2", "del y")
        assert graph.live_names() == ["x"]
        assert graph.live_names(1) == ["x", "y"]


class TestReplayPlanner:
    def test_minimal_plan_skips_unrelated_cells(self):
        graph = graph_of(
            "a = 1",
            "unrelated = list(range(100))",
            "b = a + 1",
            "also_unrelated = 'x'",
        )
        plan = ReplayPlanner(graph).plan(["b"])
        replayed = {step.index for step in plan.replay_steps}
        assert replayed == {0, 2}
        assert plan.cells_skipped == 2
        assert plan.is_complete and plan.is_safe
        assert not plan.external_inputs

    def test_stored_version_shortcut(self):
        def lookup(name, upto):
            if name == "a":
                return StoredVersion(
                    names=frozenset({"a"}), ref="t1", index=0, size_bytes=8
                )
            return None

        graph = graph_of("a = expensive()", "b = a + 1")
        plan = ReplayPlanner(graph, payload_lookup=lookup).plan(["b"])
        assert [s.kind for s in plan.steps] == ["load", "replay"]
        assert plan.load_steps[0].ref == "t1"
        # The load cut the recursion: cell 0's own external read
        # (`expensive`) never became an input.
        assert "expensive" not in plan.external_inputs

    def test_load_sorts_after_replay_at_same_index(self):
        """A load anchored at a cell holds the state after that cell, so a
        plan that also replays the cell must replay it first; the other
        order applies the cell's in-place mutation twice."""
        cells = ("xs = [1, 2, 3]", "xs.append(5)", "xs.append(0)")
        stored = {("xs", 1): ("t2", 1, [1, 2, 3, 5])}
        plan = ReplayPlanner(
            graph_of(*cells), payload_lookup=stored_lookup(stored)
        ).plan(["xs"])
        assert [(step.kind, step.index) for step in plan.steps] == [
            ("replay", 0),
            ("replay", 1),
            ("load", 1),
            ("replay", 2),
        ]
        assert tuple(sorted(plan.steps, key=lambda s: s.sort_key)) == plan.steps
        assert run_plan(plan, cells, stored)["xs"] == [1, 2, 3, 5, 0]

    def test_later_load_does_not_cover_an_earlier_read(self):
        """``ys = list(xs)`` reads xs as of cell 1. The load of xs after
        cell 3 comes too late for it, so the plan must load (or replay)
        xs as of cell 1 instead of reading the stale xs of cell 0."""
        cells = (
            "xs = [1]; z = 5",
            "xs.append(2)",
            "ys = list(xs)",
            "xs.append(3)",
            "ys.append(len(xs) + z)",
        )
        stored = {
            ("xs", 1): ("t2", 1, [1, 2]),
            ("xs", 2): ("t2", 1, [1, 2]),
            ("xs", 3): ("t4", 3, [1, 2, 3]),
            ("xs", 4): ("t4", 3, [1, 2, 3]),
        }
        plan = ReplayPlanner(
            graph_of(*cells), payload_lookup=stored_lookup(stored)
        ).plan(["ys"])
        assert plan.is_complete and not plan.external_inputs
        assert run_plan(plan, cells, stored)["ys"] == [1, 2, 8]

    def test_unresolved_target_reported_missing(self):
        graph = graph_of("x = 1")
        plan = ReplayPlanner(graph).plan(["nope"])
        assert plan.missing == ("nope",)
        assert not plan.is_complete

    def test_external_inputs_surface_unproducible_reads(self):
        graph = graph_of("y = upstream + 1")
        plan = ReplayPlanner(graph).plan(["y"])
        assert "upstream" in plan.external_inputs

    def test_builtins_are_not_external_inputs(self):
        graph = graph_of("n = len([1, 2])", "m = n + 1")
        plan = ReplayPlanner(graph).plan(["m"])
        assert "len" not in plan.external_inputs
        assert is_builtin_name("len")
        assert not is_builtin_name("definitely_not_a_builtin")

    def test_lazy_read_resolved_at_target_index(self):
        # def-before-data: the function is defined before its data
        # exists; the lazy read must resolve at the *target* index, not
        # at producer-1 (where `data` does not exist yet).
        graph = graph_of(
            "def f():\n    return data[0]",
            "data = [7]",
            "out = f",
        )
        plan = ReplayPlanner(graph).plan(["out"])
        assert {step.index for step in plan.replay_steps} == {0, 1, 2}
        assert plan.is_complete
        assert "data" not in plan.external_inputs

    def test_plan_through_escaped_cell_is_flagged_unsafe(self):
        # Satellite regression: a plan that routes through an opaque
        # (escape) producer must be flagged replay-unsafe, not returned
        # as a silently minimal plan.
        graph = graph_of("exec('seed = [4]')", "gen = (i * seed[0] for i in range(2))")
        plan = ReplayPlanner(graph).plan(["gen"])
        assert not plan.is_safe
        assert plan.unsafe_reasons
        assert any("seed" in reason for reason in plan.unsafe_reasons)
        # The opaque producer is still *in* the plan (executing it is the
        # only chance of success) — the flag is the contract.
        assert 0 in {step.index for step in plan.replay_steps}

    def test_deleted_name_plan_is_incomplete(self):
        graph = graph_of("x = 1", "del x")
        plan = ReplayPlanner(graph).plan(["x"])
        assert "x" in plan.missing

    def test_costs_are_deterministic(self):
        cell = make_cell_node(0, "x = sum(range(10))")
        assert ast_cost(cell) == ast_cost(make_cell_node(0, "x = sum(range(10))"))
        assert ast_cost(cell) > 0

    def test_plan_dict_is_deterministic(self):
        sources = (
            "import math",
            "r = 2",
            "area = math.pi * r ** 2",
            "if area > 1:\n    r = 3",
        )
        dicts = [
            ReplayPlanner(graph_of(*sources)).plan(["area"]).to_dict()
            for _ in range(2)
        ]
        assert dicts[0] == dicts[1]

    def test_format_mentions_unsafe(self):
        graph = graph_of("exec('x = 1')", "y = x")
        text = ReplayPlanner(graph).plan(["y"]).format()
        assert "REPLAY-UNSAFE" in text
