"""One analysis state per session, stepped the way a fold steps it.

The kernel hooks analyse each cell before it runs and observe it after,
with whether it raised; every node records that outcome, and a checkout
replaces the state with the fold of the target's chain. These tests hold
the live state to a fresh fold of the head's chain after every cell and
every checkout, on programs whose cells raise, and pin the bugs a split
live path let through: a def that never ran registered by an undo/redo,
a global store reached through a call the analysis cannot resolve, and
stub types kept across a cell that raised.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

import pytest

from repro.analysis.summaries import FoldState, NotebookSummaries, StubFold
from repro.analysis.typetrack import StubContext
from repro.core.retry import RetryPolicy
from repro.core.session import KishuSession
from repro.core.storage import InMemoryCheckpointStore, SQLiteCheckpointStore
from repro.errors import StorageError
from repro.faults import FaultInjectingStore, FaultPlan, FaultRule
from repro.fuzz.grammar import ProgramGenerator, profile
from repro.kernel.kernel import NotebookKernel


def state_of(analysis: FoldState) -> List[Any]:
    """Everything an analysis state holds: the summary table's events,
    invalidations, position and report, and the stub environment with
    its per-cell snapshots."""
    parts: List[Any] = []
    if isinstance(analysis, NotebookSummaries):
        parts += [
            list(analysis._events.items()),
            analysis.invalidations,
            analysis.next_index,
            analysis.to_report(),
        ]
    if analysis.stubs is not None:
        parts += [
            analysis.stubs.current(),
            analysis.stubs._snapshots,
            analysis.stubs.fingerprint(),
        ]
    return parts


def fresh_fold(session: KishuSession) -> FoldState:
    """A cell-by-cell fold of the head's chain, with each node's
    outcome, from the empty state."""
    stubs = session.stubs
    blank = StubContext(stubs.registry) if stubs is not None else None
    state: FoldState = (
        NotebookSummaries(blank) if session.summaries is not None else StubFold(blank)
    )
    for node in session.loader.replay_engine.chain_to(session.head_id):
        state.advance(node.cell_source, node.executed)
    return state


def assert_invariant(session: KishuSession) -> None:
    assert state_of(session.analysis) == state_of(fresh_fold(session))


CONFIGS: Dict[str, Dict[str, bool]] = {
    "summaries": {},
    "stubs-only": {"use_summaries": False},
}

#: t2 raises before its ``def``: ``f`` keeps its hidden store.
UNDO_REDO = [
    "x = 0\ndef f():\n    global x\n    x = 5",
    "1/0\ndef f():\n    pass",
    "y = 1",
]


class TestCellOutcome:
    @pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
    def test_undo_redo_over_a_cell_that_raised(self, config):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel, **config)
        for cell in UNDO_REDO:
            kernel.run_cell(cell, raise_on_error=False)
        assert [session.graph.get(n).executed for n in ("t1", "t2", "t3")] == [
            True, False, True,
        ]
        before = state_of(session.analysis)
        session.checkout("t1")
        session.checkout("t3")
        assert state_of(session.analysis) == before
        kernel.run_cell("f()")  # t4: STORE_GLOBAL x = 5
        session.checkout("t3")
        assert kernel.get("x") == 0

    @pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
    def test_invariant_after_each_cell(self, config):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel, **config)
        for cell in UNDO_REDO + ["f()", "del y\n1/0"]:
            kernel.run_cell(cell, raise_on_error=False)
            assert_invariant(session)

    def test_a_memo_key_tells_the_outcome_apart(self):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel)
        kernel.run_cell("def f():\n    return 1")
        kernel.run_cell("1/0\ndef f():\n    return 2", raise_on_error=False)
        session.checkout("t1")
        # The same source, run cleanly, on a sibling branch: the fold of
        # this chain must not be served from the chain where it raised.
        kernel.run_cell("1 + 1\ndef f():\n    return 2")
        session.graph.get(session.head_id).cell_source = "1/0\ndef f():\n    return 2"
        session.checkout("t2")
        session.checkout("t3")
        assert_invariant(session)
        assert session.summaries.view_at(1).get("f").cell_index == 1


class TestInvariant:
    """After every live cell, including cells that raised, and after
    every checkout, the session's state equals a fresh fold of the
    head's chain."""

    @pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_over_programs_whose_cells_raise(self, config, seed):
        program = ProgramGenerator(
            profile("hazard-heavy", cells=16, branch_cells=4)
        ).generate(seed)
        session = KishuSession.init(NotebookKernel(), **config)
        nodes: List[str] = []
        raised = 0
        for cell in program.cells:
            result = session.kernel.run_cell(cell, raise_on_error=False)
            raised += result.error is not None
            nodes.append(session.head_id)
            assert_invariant(session)
        assert raised
        rng = random.Random(seed)
        branch = list(program.branch_cells)
        for round_ in range(12):
            session.checkout(rng.choice(nodes))
            assert_invariant(session)
            if branch and round_ % 3 == 1:
                session.kernel.run_cell(branch.pop(0), raise_on_error=False)
                nodes.append(session.head_id)
                assert_invariant(session)

    def test_after_a_carryover_commit(self):
        """A failed commit folds into the next one: a node of two cells,
        executed only if both ran. The session refolds its state from
        the new node's chain."""
        plan = FaultPlan(rules=(FaultRule("write_node", 1, "permanent"),))
        store = FaultInjectingStore(InMemoryCheckpointStore(), plan)
        retry = RetryPolicy(max_attempts=2, base_delay=0.0, sleep=lambda _s: None)
        kernel = NotebookKernel()
        session = KishuSession.init(kernel, store=store, retry=retry)
        kernel.run_cell(UNDO_REDO[0])
        with pytest.raises(StorageError):
            kernel.run_cell("def g():\n    return 1")  # node write fails
        kernel.run_cell("1/0\ndef f():\n    pass", raise_on_error=False)
        node = session.graph.head
        assert "def g" in node.cell_source and not node.executed
        assert_invariant(session)
        assert session.summaries.view_at(1).get("g") is None
        session.checkout("t1")
        session.checkout(node.node_id)
        assert_invariant(session)


class TestResume:
    def test_resumed_state_equals_the_live_one(self, tmp_path):
        path = str(tmp_path / "kishu.db")
        kernel = NotebookKernel()
        session = KishuSession.init(kernel, store=SQLiteCheckpointStore(path))
        for cell in UNDO_REDO:
            kernel.run_cell(cell, raise_on_error=False)
        live = state_of(session.analysis)
        session.detach()
        session.store.close()

        store = SQLiteCheckpointStore(path)
        resumed = KishuSession.resume(NotebookKernel(), store)
        assert not resumed.graph.get("t2").executed
        assert state_of(resumed.analysis) == live
        store.close()


#: A global store reached through a call no call-site analysis resolves;
#: the cell that defines the function escalates, too early to help.
HIDDEN_STORES = {
    "method": [
        "x = 0",
        "class C:\n    def bump(self):\n        global x\n        x = 5\nobj = C()",
        "obj.bump()",
    ],
    "list-element": [
        "x = 0",
        "def bump():\n    global x\n    x = 5\nh = [bump]",
        "h[0]()",
    ],
}


class TestBindingComparison:
    @pytest.mark.parametrize(
        "config",
        [{}, {"use_summaries": False}, {"use_summaries": False, "use_stubs": False}],
        ids=["default", "summaries-off", "both-off"],
    )
    @pytest.mark.parametrize("reach", sorted(HIDDEN_STORES))
    def test_store_through_an_unresolved_call_is_committed(self, config, reach):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel, **config)
        for cell in HIDDEN_STORES[reach]:
            kernel.run_cell(cell)
        assert session.metrics[-1].updated_covariables == 1
        session.checkout("t2")
        assert kernel.get("x") == 0
        session.checkout("t3")
        assert kernel.get("x") == 5

    def test_hidden_delete_is_committed(self):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel)
        kernel.run_cell("x = 0\ndef drop():\n    global x\n    del x\nh = [drop]")
        kernel.run_cell("h[0]()")
        assert "x" not in kernel.user_variables()
        session.checkout("t1")
        assert kernel.get("x") == 0
        session.checkout("t2")
        assert "x" not in kernel.user_variables()


class TestStubsAfterARaise:
    def test_cell_that_raised_drops_the_names_it_binds(self):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel)
        kernel.run_cell(
            "import repro.libsim.data_analysis as sim\n"
            "df = sim.SimDataFrame(n_rows=4, n_cols=2, seed=1)"
        )
        kernel.run_cell("df = [1]\n1/0", raise_on_error=False)
        # ``df`` is a list now: no stub may claim the call is pure.
        effects = session._analyze_cell("df.drop_column('c0')")
        assert effects.stub_pure_receivers == set()
        assert "df" not in session.stubs.current()
        assert "sim" in session.stubs.current()
