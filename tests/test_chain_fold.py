"""One fold of a chain's analysis state, shared by every consumer.

The session's checkout resync, the replay engine and file-mode dataflow
all fold a chain's sources through ``PrefixMemo.fold``, in the session's
configuration, with one opacity rule (``is_opaque_cell``). These tests
pin what that buys: an opaque cell wipes the stub environment live and
in the fold alike, a replaying checkout analyses each chain cell once,
every configuration keeps the checkout oracle and the engine's cells
equal to file-mode dataflow, and the engine's analysis keeps the session
free of reference cycles.
"""

from __future__ import annotations

import gc
import weakref
from typing import Dict, List

import pytest

from repro.analysis.dataflow import NotebookDataflowGraph
from repro.baselines.kishu_method import DetReplaySession
from repro.core.session import KishuSession
from repro.fuzz.grammar import ProgramGenerator, profile
from repro.fuzz.oracle import run_cells_oracle
from repro.kernel.cells import Cell
from repro.kernel.kernel import NotebookKernel


def counter(session: KishuSession, name: str) -> int:
    return session.observer.metrics.counter(name).value


def run(session: KishuSession, cells: List[str]) -> List[str]:
    nodes = []
    for cell in cells:
        session.kernel.run_cell(cell, raise_on_error=False)
        nodes.append(session.head_id)
    return nodes


class TestOpaqueCells:
    def test_exec_cell_wipes_the_live_stub_environment(self):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel)
        kernel.run_cell(
            "import repro.libsim.data_analysis as sim\n"
            "df = sim.SimDataFrame(n_rows=4, n_cols=2, seed=1)"
        )
        kernel.run_cell("exec('df = [1]')")
        # ``df`` is a list now: no stub may claim the call is pure.
        effects = session._analyze_cell("df.drop_column('c0')")
        assert effects.stub_pure_receivers == set()
        assert session.stubs.current() == {}

    def test_summaries_off_undo_redo_keeps_the_stub_environment(self):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel, use_summaries=False)
        run(session, ["import numpy as np", "exec('y = 1')", "z = 2"])
        live = session.stubs.current()
        session.checkout("t1")
        session.checkout("t3")
        assert session.stubs.current() == live


class TestReplayFoldsOnce:
    def test_replaying_checkout_folds_its_chain_once(self):
        kernel = NotebookKernel()
        session = DetReplaySession.init(kernel)
        kernel.run_cell(Cell.make("xs = [0]", "c0", "deterministic"))
        for i in range(1, 12):
            kernel.run_cell(Cell.make(f"xs.append({i})", f"c{i}", "deterministic"))
        tip = session.head_id
        folded = counter(session, "checkout.resync.folded")
        for target, expected in (("t3", [0, 1, 2]), (tip, list(range(12)))):
            report = session.checkout(target)
            # No payload was stored: the engine replayed the chain, and
            # the resync found every cell of it already folded.
            assert report.recomputed_keys
            assert kernel.user_ns["xs"] == expected
            assert counter(session, "checkout.resync.folded") == folded
        assert session.plan_stats.plans_executed == 2


CONFIGS: List[Dict[str, bool]] = [
    {"use_summaries": summaries, "use_stubs": stubs}
    for summaries in (True, False)
    for stubs in (True, False)
]


class TestConfigurations:
    @pytest.mark.parametrize(
        "config",
        CONFIGS,
        ids=["summaries+stubs", "summaries", "stubs", "neither"],
    )
    @pytest.mark.parametrize("name", ["func-heavy", "libsim-heavy", "escape-heavy"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_oracle_and_engine_cells(self, config, name, seed):
        program = ProgramGenerator(profile(name, cells=12, branch_cells=3)).generate(seed)
        report = run_cells_oracle(
            list(program.cells),
            seed=seed,
            branch_cells=program.branch_cells,
            session_kwargs=config,
        )
        assert report.ok, report.describe()

        session = KishuSession.init(NotebookKernel(), **config)
        nodes = run(session, list(program.cells))
        # A resync folds part of the chain first, so the engine builds
        # its cells partly from effects another fold analysed.
        session.checkout(nodes[len(nodes) // 2])
        session.checkout(nodes[-1])
        engine = session.loader.replay_engine
        chain = engine.chain_to(nodes[-1])
        ours = engine._cell_nodes(chain)
        sources = [node.cell_source for node in chain]
        theirs = NotebookDataflowGraph.from_sources(sources, **config).cells
        assert [(c.effects, c.external_reads, c.mutators) for c in ours] == [
            (c.effects, c.external_reads, c.mutators) for c in theirs
        ]


class TestNoReferenceCycle:
    def test_detached_session_is_freed_without_the_collector(self):
        gc.collect()
        gc.disable()
        try:
            kernel = NotebookKernel()
            session = KishuSession.init(kernel)
            nodes = run(session, ["xs = [1]", "ys = xs + [2]", "xs.append(3)"])
            session.checkout(nodes[0])
            session.checkout(nodes[-1])
            session.detach()
            ref = weakref.ref(session)
            del session
            assert ref() is None
        finally:
            gc.enable()
