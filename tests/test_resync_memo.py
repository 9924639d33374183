"""The checkout resync resumes from memoized prefixes and stays exact.

A checkout rebuilds the session's function-summary table and stub type
environment for the target's chain. ``NotebookSummaries.from_sources``
resumes that fold from the deepest prefix an earlier resync folded
(the session's ``PrefixMemo``) instead of re-analysing the whole chain.
These tests hold it to the fold it replaces: after every checkout the
session's table and stub environment equal those of a fresh fold,
driven cell by cell with ``advance``, of the target's chain — on fuzz
programs, across branches, after a node's source is edited in place,
and with summaries off.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Tuple

import pytest

from repro.analysis.stubs import StubRegistry
from repro.analysis.summaries import CACHE_ENTRIES, NotebookSummaries, PrefixMemo
from repro.analysis.typetrack import NotebookTypeEnv, StubContext
from repro.core.graph import ROOT_ID
from repro.core.session import KishuSession
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


def env_state(stubs: StubContext) -> Tuple[Any, ...]:
    env = stubs.env
    return (
        list(env.current().items()),
        [list(snapshot.items()) for snapshot in env._snapshots],
        stubs.fingerprint(),
    )


def assert_matches_fresh_fold(session: KishuSession) -> None:
    """The session's analysis state equals a cell-by-cell fold of the
    head's chain that starts from nothing."""
    sources = chain_sources(session, session.head_id)
    registry = session.stubs.registry if session.stubs is not None else None
    if session.summaries is not None:
        stubs = StubContext(registry) if registry is not None else None
        fresh = NotebookSummaries(stubs)
        for source in sources:
            fresh.advance(source)
        assert table_state(session.summaries) == table_state(fresh)
    else:
        stubs = StubContext(registry, NotebookTypeEnv.from_sources(sources, registry))
    if session.stubs is not None:
        assert stubs is not None
        assert env_state(session.stubs) == env_state(stubs)


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

    @pytest.mark.parametrize("name", ["func-heavy", "libsim-heavy"])
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

    def test_undo_redo_analyses_only_cells_since_the_folded_ancestor(self):
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

        assert resync(nodes[3]) == (0, 4)  # nothing folded yet
        assert resync(nodes[-1]) == (4, 4)  # redo: only the cells after it
        assert resync(nodes[3]) == (4, 0)  # undo: a prefix already folded
        assert resync(nodes[-1]) == (8, 0)

    def test_live_cells_never_reach_the_memo(self):
        session = KishuSession.init(NotebookKernel())
        nodes = run(session, HELPER_CELLS[:4])
        session.checkout(nodes[1])
        memo = session._resync_memo
        stored = set(map(id, memo._tables.values()))
        run(session, ["push(5)", "def push(x):\n    return x"])
        assert set(map(id, memo._tables.values())) == stored
        assert session.summaries not in memo._tables.values()
        session.checkout(nodes[-1])
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


class TestSummariesOff:
    def test_stub_env_equals_a_fresh_fold(self):
        session = KishuSession.init(NotebookKernel(), use_summaries=False)
        nodes = run(session, HELPER_CELLS)
        for target in (nodes[2], nodes[-1], nodes[0], nodes[5]):
            session.checkout(target)
            assert session.summaries is None
            assert_matches_fresh_fold(session)
        assert counter(session, "checkout.resync.reused") == 0


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
            assert env_state(stubs) == env_state(plain_stubs)

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
