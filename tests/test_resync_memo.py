"""The checkout resync resumes from memoized prefixes and stays exact.

A checkout rebuilds the session's function-summary table and stub type
environment for the target's chain. ``NotebookSummaries.from_sources``
resumes that fold from the deepest prefix an earlier resync folded
(the session's ``PrefixMemo``) instead of re-analysing the whole chain.
These tests hold it to the fold it replaces: after every checkout the
session's table and stub environment equal those of a fresh fold,
driven cell by cell with ``advance``, of the target's chain — on fuzz
programs, across branches, after a node's source is edited in place,
and with summaries off. Each checkout first hands the live state to the
memo as the fold of the head's chain: the memo's states are held to
fresh folds too, and the hand-over must refuse a live state that may
not be that fold.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.analysis.stubs import STUBDATA_DIR, StubRegistry, default_registry
from repro.analysis.summaries import (
    CACHE_ENTRIES,
    FoldState,
    NotebookSummaries,
    PrefixMemo,
    StubFold,
    is_opaque_cell,
    prefix_keys,
)
from repro.analysis.typetrack import StubContext
from repro.analysis.visitor import analyze_cell
from repro.core.graph import ROOT_ID
from repro.core.retry import RetryPolicy
from repro.core.session import KishuSession
from repro.core.storage import InMemoryCheckpointStore
from repro.errors import StorageError
from repro.faults import FaultInjectingStore, FaultPlan, FaultRule
from repro.fuzz.grammar import ProgramGenerator, profile
from repro.kernel.kernel import NotebookKernel


def chain_sources(session: KishuSession, node_id: str) -> List[str]:
    return [
        session.graph.get(ancestor).cell_source
        for ancestor in reversed(session.graph.path_to_root(node_id))
        if ancestor != ROOT_ID
    ]


def table_state(table: NotebookSummaries) -> Tuple[Any, ...]:
    return (
        list(table._events.items()),
        table.invalidations,
        table.next_index,
        table.to_report(),
    )


def chain_outcomes(session: KishuSession, node_id: str) -> List[bool]:
    return [
        session.graph.get(ancestor).executed
        for ancestor in reversed(session.graph.path_to_root(node_id))
        if ancestor != ROOT_ID
    ]


def env_state(stubs: StubContext) -> Tuple[Any, ...]:
    return (
        list(stubs.current().items()),
        [list(snapshot.items()) for snapshot in stubs._snapshots],
        stubs.fingerprint(),
    )


def assert_matches_fresh_fold(session: KishuSession) -> None:
    """The session's analysis state equals a cell-by-cell fold of the
    head's chain, with each node's outcome, that starts from nothing."""
    sources = chain_sources(session, session.head_id)
    outcomes = chain_outcomes(session, session.head_id)
    registry = session.stubs.registry if session.stubs is not None else None
    if session.summaries is not None:
        stubs = StubContext(registry) if registry is not None else None
        fresh = NotebookSummaries(stubs)
        for source, executed in zip(sources, outcomes):
            fresh.advance(source, executed)
        assert table_state(session.summaries) == table_state(fresh)
    else:
        # Each cell as the live hooks drive it: analysed against the
        # environment before it, then observed with its effects.
        stubs = StubContext(registry)
        for source, executed in zip(sources, outcomes):
            effects = analyze_cell(source, stubs=stubs)
            stubs.observe_cell(
                source, executed=executed, opaque=is_opaque_cell(effects)
            )
    if session.stubs is not None:
        assert stubs is not None
        assert env_state(session.stubs) == env_state(stubs)


def fresh_fold(
    session: KishuSession, sources: List[str], outcomes: List[bool]
) -> FoldState:
    """A cell-by-cell ``advance`` fold in the session's configuration,
    under its stub registry, from nothing."""
    stubs = StubContext(session.stubs.registry) if session.stubs is not None else None
    state = NotebookSummaries(stubs) if session.summaries is not None else StubFold(stubs)
    for source, executed in zip(sources, outcomes):
        state.advance(source, executed)
    return state


def assert_memo_holds_fresh_folds(
    session: KishuSession, verified: Optional[Dict[int, FoldState]] = None
) -> None:
    """Every memo key names a prefix of its state's steps, and those
    steps — sources, outcomes and effects — are a fresh fold's.

    ``verified`` keeps the stored states already checked (a stored state
    never changes), so a long schedule checks each one once."""
    verified = verified if verified is not None else {}
    memo = session._resync_memo
    for key, state in memo._tables.items():
        steps = state.steps[: key[0]]
        sources = [step.source for step in steps]
        outcomes = [step.executed for step in steps]
        assert prefix_keys(sources, outcomes)[-1] == key
        if id(state) not in verified:
            sources = [step.source for step in state.steps]
            outcomes = [step.executed for step in state.steps]
            assert state.steps == fresh_fold(session, sources, outcomes).steps
            verified[id(state)] = state


def counter(session: KishuSession, name: str) -> int:
    return session.observer.metrics.counter(name).value


def run(session: KishuSession, cells: List[str]) -> List[str]:
    nodes = []
    for cell in cells:
        session.kernel.run_cell(cell, raise_on_error=False)
        nodes.append(session.head_id)
    return nodes


HELPER_CELLS = [
    "import repro.libsim.data_analysis as sim",
    "acc = []\ndef push(x):\n    acc.append(x)\n    return x",
    "frame = sim.SimDataFrame(n_rows=4, n_cols=2, seed=1)",
    "push(1)",
    "alias = push",
    "def wipe():\n    global acc\n    acc = []",
    "alias(2)",
    "m = frame.mean_of('c0')",
]


class TestFuzzPrograms:
    """Seeded checkout sequences over generated programs, with branches
    grown from checked-out nodes."""

    @pytest.mark.parametrize("name", ["func-heavy", "libsim-heavy", "hazard-heavy"])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_every_checkout_equals_a_fresh_fold(self, name, seed):
        program = ProgramGenerator(profile(name, cells=20, branch_cells=5)).generate(seed)
        session = KishuSession.init(NotebookKernel())
        nodes = run(session, list(program.cells))
        rng = random.Random(seed)
        branch = list(program.branch_cells)
        for round_ in range(15):
            session.checkout(rng.choice(nodes))
            assert_matches_fresh_fold(session)
            if branch and round_ % 3 == 1:
                nodes += run(session, [branch.pop(0)])
        assert counter(session, "checkout.resync.reused") > 0


CONFIGS: List[Dict[str, bool]] = [
    {"use_summaries": summaries, "use_stubs": stubs}
    for summaries in (True, False)
    for stubs in (True, False)
]


class TestHandOver:
    """Each checkout hands the live state to the memo as the fold of the
    head's chain. On the fuzz schedule above, in every configuration,
    the state after a checkout is a fresh fold's, steps included, and
    the memo holds nothing a fresh fold would not give."""

    @pytest.mark.parametrize(
        "config", CONFIGS, ids=["summaries+stubs", "summaries", "stubs", "neither"]
    )
    @pytest.mark.parametrize("name", ["func-heavy", "libsim-heavy", "hazard-heavy"])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_memo_and_state_equal_fresh_folds(self, config, name, seed):
        program = ProgramGenerator(profile(name, cells=20, branch_cells=5)).generate(seed)
        session = KishuSession.init(NotebookKernel(), **config)
        nodes = run(session, list(program.cells))
        rng = random.Random(seed)
        branch = list(program.branch_cells)
        verified: Dict[int, FoldState] = {}
        for round_ in range(15):
            session.checkout(rng.choice(nodes))
            assert_matches_fresh_fold(session)
            head = session.head_id
            fresh = fresh_fold(
                session, chain_sources(session, head), chain_outcomes(session, head)
            )
            assert session.analysis.steps == fresh.steps
            assert_memo_holds_fresh_folds(session, verified)
            if branch and round_ % 3 == 1:
                nodes += run(session, [branch.pop(0)])
        assert counter(session, "checkout.resync.handed_over") > 0


class TestHandOverRefusals:
    """Where the live state may not be the fold of the head's chain, the
    hand-over memoizes nothing, and the checkout folds as it would
    without one."""

    def checkout_refused(self, session: KishuSession, target: str) -> None:
        handed = counter(session, "checkout.resync.handed_over")
        session.checkout(target)
        assert counter(session, "checkout.resync.handed_over") == handed
        assert_matches_fresh_fold(session)
        assert_memo_holds_fresh_folds(session)

    def test_failed_store_write(self):
        # The fifth node write fails: that cell's delta waits as a
        # carryover, and the live state stepped a cell with no node.
        plan = FaultPlan(rules=(FaultRule("write_node", 4, "permanent"),))
        store = FaultInjectingStore(InMemoryCheckpointStore(), plan)
        retry = RetryPolicy(max_attempts=2, base_delay=0.0, sleep=lambda _s: None)
        session = KishuSession.init(NotebookKernel(), store=store, retry=retry)
        nodes = run(session, HELPER_CELLS[:4])
        with pytest.raises(StorageError):
            session.kernel.run_cell(HELPER_CELLS[4])
        assert session._carryover is not None
        self.checkout_refused(session, nodes[1])

    def test_attach_onto_a_stored_history(self):
        # ``resume`` onto a kernel that holds names first loads the
        # stored graph and attaches: attach commits the kernel's names as
        # a node under the stored head, and the live state steps that
        # node alone. Stopping there leaves the head's chain one node
        # longer than the stored one and the state one step long.
        store = InMemoryCheckpointStore()
        first = KishuSession.init(NotebookKernel(), store=store)
        nodes = run(first, HELPER_CELLS)
        first.detach()
        kernel = NotebookKernel()
        kernel.run_cell("z = 9")
        session = KishuSession(kernel, store=store)
        session.graph.load(store)
        session.attach()
        assert len(chain_sources(session, session.head_id)) == len(nodes) + 1
        assert len(session.analysis.steps) == 1
        self.checkout_refused(session, nodes[3])

    def test_stub_registry_changed_mid_session(self):
        registry = default_registry()
        session = KishuSession.init(NotebookKernel(), stub_registry=registry)
        nodes = run(session, HELPER_CELLS)
        # ``mean_of`` now mutates its frame: the live state analysed
        # ``m = frame.mean_of('c0')`` as a pure call.
        mapping = json.loads((STUBDATA_DIR / "libsim_data_analysis.json").read_text())
        mapping["types"]["SimDataFrame"]["methods"]["mean_of"] = {"effect": "mutates"}
        registry.add_mapping(mapping)
        self.checkout_refused(session, nodes[3])
        session.checkout(nodes[-1])
        assert_memo_holds_fresh_folds(session)
        assert "frame" in session.analysis.steps[-1].effects.stub_mutations

    def test_foreign_cell_analyzer(self):
        # The hooks take a foreign analyzer's effects: intraprocedural and
        # stub-blind, they are not what the session's analysis gives.
        kernel = NotebookKernel()
        kernel.cell_analyzer = analyze_cell
        session = KishuSession.init(kernel)
        nodes = run(session, HELPER_CELLS)
        self.checkout_refused(session, nodes[3])


class TestUndoAndBranchSwitch:
    def test_undo_redo_and_switches_between_live_tips_fold_nothing(self):
        """The Fig 15 and Fig 16 pattern: every checkout lands on a chain
        the session reached live, so none analyses a cell."""
        session = KishuSession.init(NotebookKernel())
        main = run(session, HELPER_CELLS)

        def folded_by(target: str) -> int:
            folded = counter(session, "checkout.resync.folded")
            session.checkout(target)
            assert_matches_fresh_fold(session)
            return counter(session, "checkout.resync.folded") - folded

        assert folded_by(main[-2]) == 0  # undo
        assert folded_by(main[-1]) == 0  # redo
        assert folded_by(main[3]) == 0
        side = run(session, ["def push(x):\n    return x", "alias = push", "push(3)"])
        assert folded_by(main[-1]) == 0  # switch to the other branch
        assert folded_by(side[-1]) == 0  # and back
        assert folded_by(main[-1]) == 0
        assert_memo_holds_fresh_folds(session)


class TestBranches:
    def test_sibling_branches_share_their_common_prefix(self):
        session = KishuSession.init(NotebookKernel())
        main = run(session, HELPER_CELLS)
        session.checkout(main[3])
        assert_matches_fresh_fold(session)
        side = run(session, ["def push(x):\n    return x", "alias = push", "push(3)"])
        for target in (main[-1], side[-1], main[5], side[0], main[-1]):
            session.checkout(target)
            assert_matches_fresh_fold(session)

    def test_undo_redo_along_the_live_chain_analyses_nothing(self):
        session = KishuSession.init(NotebookKernel())
        nodes = run(session, HELPER_CELLS)

        def resync(target: str) -> Tuple[int, int]:
            reused = counter(session, "checkout.resync.reused")
            folded = counter(session, "checkout.resync.folded")
            session.checkout(target)
            assert_matches_fresh_fold(session)
            return (
                counter(session, "checkout.resync.reused") - reused,
                counter(session, "checkout.resync.folded") - folded,
            )

        # The first undo leaves the live head: its chain is handed over.
        assert resync(nodes[3]) == (4, 0)
        assert resync(nodes[-1]) == (8, 0)  # redo
        assert resync(nodes[3]) == (4, 0)
        assert resync(nodes[-1]) == (8, 0)
        assert counter(session, "checkout.resync.handed_over") == len(nodes)

    def test_live_state_reaches_the_memo_only_at_a_checkout(self):
        session = KishuSession.init(NotebookKernel())
        nodes = run(session, HELPER_CELLS[:4])
        session.checkout(nodes[1])
        memo = session._resync_memo
        stored = set(map(id, memo._tables.values()))
        side = run(session, ["push(5)", "def push(x):\n    return x"])
        # Cells leave the memo untouched.
        assert set(map(id, memo._tables.values())) == stored
        assert session.summaries not in memo._tables.values()
        live = session.summaries
        before = table_state(live)
        handed = counter(session, "checkout.resync.handed_over")
        session.checkout(nodes[-1])
        # The checkout hands over the side branch's whole chain as a copy
        # of the live state that holds no caches, and no caller holds it.
        assert counter(session, "checkout.resync.handed_over") - handed == 4
        key = prefix_keys(chain_sources(session, side[-1]))[-1]
        copy = memo._tables[key]
        assert copy is not live and copy is not session.analysis
        assert len(copy._extract_cache) == len(copy._resolve_cache) == 0
        assert table_state(copy) == table_state(live) == before
        assert len(memo) <= len(session.graph)
        assert_matches_fresh_fold(session)


class TestEditedSource:
    def test_in_place_edit_cannot_serve_stale_state(self):
        session = KishuSession.init(NotebookKernel())
        nodes = run(session, HELPER_CELLS)
        session.checkout(nodes[2])
        session.checkout(nodes[-1])
        # Rewrite a folded cell: the def of ``push`` no longer mutates.
        session.graph.get(nodes[1]).cell_source = "acc = []\ndef push(x):\n    return x"
        session.checkout(nodes[-2])
        assert_matches_fresh_fold(session)
        push = session.summaries.view_at(session.summaries.next_index - 1).get("push")
        assert push is not None and "acc" not in push.global_mutations
        session.checkout(nodes[-1])
        assert_matches_fresh_fold(session)


class TestAttachNode:
    """A session attached to a kernel that already holds state commits a
    synthetic node for it; the live tables observe that node's source,
    so they equal the fold of their chain before any checkout."""

    @pytest.mark.parametrize("use_summaries", [True, False])
    def test_live_tables_equal_the_chain_fold(self, use_summaries):
        kernel = NotebookKernel()
        kernel.run_cell("a = 1")
        session = KishuSession.init(kernel, use_summaries=use_summaries)
        run(session, ["import numpy as np", "def f():\n    global a\n    a = 2", "b = 3"])
        assert len(chain_sources(session, session.head_id)) == 4
        assert_matches_fresh_fold(session)

    def test_reattach_over_a_pending_carryover(self):
        # The attach node's commit folds the failed cell's delta under it
        # and refolds the state from the combined node.
        plan = FaultPlan(rules=(FaultRule("write_node", 1, "permanent"),))
        store = FaultInjectingStore(InMemoryCheckpointStore(), plan)
        retry = RetryPolicy(max_attempts=2, base_delay=0.0, sleep=lambda _s: None)
        session = KishuSession.init(NotebookKernel(), store=store, retry=retry)
        run(session, ["def f():\n    return 1"])
        with pytest.raises(StorageError):
            session.kernel.run_cell("g = f")
        session.detach()
        session.attach()
        assert session._carryover is None
        assert_matches_fresh_fold(session)
        steps = [(step.source, step.executed) for step in session.analysis.steps]
        head = session.head_id
        assert steps == list(zip(chain_sources(session, head), chain_outcomes(session, head)))


class TestSummariesOff:
    def test_stub_env_equals_a_fresh_fold(self):
        session = KishuSession.init(NotebookKernel(), use_summaries=False)
        nodes = run(session, HELPER_CELLS)
        for target in (nodes[2], nodes[-1], nodes[0], nodes[5]):
            session.checkout(target)
            assert session.summaries is None
            assert_matches_fresh_fold(session)
        assert counter(session, "checkout.resync.reused") > 0


class TestFromSources:
    def test_memo_fold_equals_fold_without_memo(self):
        sources = HELPER_CELLS + ["wipe()", "push(9)"]
        memo = PrefixMemo()
        for cut in (3, len(sources), 5, 1, len(sources)):
            stubs = StubContext()
            table = NotebookSummaries.from_sources(sources[:cut], stubs=stubs, memo=memo)
            plain_stubs = StubContext()
            plain = NotebookSummaries.from_sources(sources[:cut], stubs=plain_stubs)
            assert table_state(table) == table_state(plain)
            assert env_state(table.stubs) == env_state(plain.stubs)

    def test_registry_change_empties_the_memo(self):
        registry = StubRegistry()
        memo = PrefixMemo()
        NotebookSummaries.from_sources(HELPER_CELLS, stubs=StubContext(registry), memo=memo)
        assert len(memo) == len(HELPER_CELLS)
        registry.add_mapping(
            {
                "stub_format": 1,
                "module": "repro.libsim.data_analysis",
                "functions": {"noop": {"effect": "pure"}},
            }
        )
        NotebookSummaries.from_sources(HELPER_CELLS, stubs=StubContext(registry), memo=memo)
        assert (memo.reused, memo.folded) == (0, len(HELPER_CELLS))

    def test_fork_leaves_the_original_untouched(self):
        table = NotebookSummaries.from_sources(HELPER_CELLS, stubs=StubContext())
        before = table_state(table)
        copy = table.fork(4)
        copy.advance("def push(x):\n    return x")
        copy.advance("push(1)")
        assert table_state(table) == before
        assert copy.next_index == 6


class TestCachesAreExact:
    def test_alias_moved_to_another_function_of_the_same_cell(self):
        # ``f`` and ``g`` share a def cell, so a key of (name, def cell)
        # alone cannot tell ``b = f`` from ``b = g``.
        cells = [
            "G = []\nH = []\ndef f():\n    G.append(1)\ndef g():\n    H.append(1)",
            "b = f",
            "x = 1",
            "b = g",
            "y = 2",
        ]
        table = NotebookSummaries.from_sources(cells)
        assert table.view_at(2).get("b").global_mutations == {"G"}
        assert table.view_at(4).get("b").global_mutations == {"H"}


class TestLongSession:
    def test_caches_and_memo_stay_bounded(self):
        """2,000 cells with an undo/redo every 20: both analysis caches
        stay at or under their cap, the memo holds at most one key per
        node, and the memoized tables hold no caches."""
        session = KishuSession.init(NotebookKernel())
        kernel = session.kernel
        rng = random.Random(7)
        kernel.run_cell("box = [0]")
        nodes: List[Optional[str]] = []
        for i in range(2000):
            # Every source is new (a cache entry each); the live helpers
            # and the namespace stay small, so a cell's cost does not
            # grow with i.
            if i % 4 == 0:
                cell = f"def f_{i % 8}(x):\n    box[0] = x\n    return x + {i}"
            elif i % 4 == 2:
                cell = f"v_{i % 40} = f_{(i - 2) % 8}({i})"
            else:
                cell = f"w_{i % 40} = {i}"
            kernel.run_cell(cell)
            nodes.append(session.head_id)
            if i % 20 == 19:
                session.checkout(nodes[i - rng.randint(1, 19)])
                session.checkout(nodes[i])
                assert len(session.summaries._extract_cache) <= CACHE_ENTRIES
                assert len(session.summaries._resolve_cache) <= CACHE_ENTRIES
        memo = session._resync_memo
        assert len(memo) <= len(session.graph)
        stored = {id(table): table for table in memo._tables.values()}
        assert len(stored) == 1
        for table in stored.values():
            assert len(table._extract_cache) == len(table._resolve_cache) == 0
        assert_matches_fresh_fold(session)
