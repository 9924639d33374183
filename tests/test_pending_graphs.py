"""Pending co-variables: a checkout builds no VarGraph (DESIGN.md §7).

A checkout leaves every co-variable it loaded from its payload pending.
The pre-run hook builds the pending co-variables a cell may touch, and
the detector stores again a pending co-variable that a cell touched
without any prediction. Each test pairs the lazy session with an *eager*
twin, which builds every pending co-variable right after the checkout,
as the checkout resync itself did before: both must commit the same
nodes.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.covariable import CoVarKey, covar_key
from repro.core.session import KishuSession
from repro.core.storage import InMemoryCheckpointStore
from repro.kernel.kernel import NotebookKernel

#: Three co-variables; a checkout of ``TARGET`` loads ``a`` and ``b``
#: (changed later) and keeps ``c`` (identical).
HISTORY = [
    "a = [1, 2]",
    "b = {'k': [3]}",
    "c = [0]",
    "a.append(3)",
    "b['k'].append(4)",
]
TARGET = 3  # the node of "c = [0]"


def keys(*groups) -> set:
    return {covar_key(group) for group in groups}


def counter(session: KishuSession, name: str) -> int:
    return session.observer.metrics.counter(name).value


def graphs_built(session: KishuSession) -> int:
    return session.pool.builder.telemetry.graphs_built


def build_eagerly(session: KishuSession) -> None:
    session.pool.build_pending(
        set(session.pool.pending), session.kernel.user_ns.user_items()
    )


def checked_out(history=HISTORY, target=TARGET, *, eager=False) -> KishuSession:
    """A session that ran ``history`` and checked out its ``target``-th node."""
    kernel = NotebookKernel()
    session = KishuSession.init(kernel)
    for cell in history:
        kernel.run_cell(cell)
    session.checkout(f"t{target}")
    if eager:
        build_eagerly(session)
    return session


def committed(session: KishuSession) -> List[Tuple[CoVarKey, bytes]]:
    """The head node's updated keys with their payload bytes."""
    node = session.graph.head
    return sorted(
        (
            (key, session.store.read_payload(node.node_id, key).data)
            for key in node.updated
        ),
        key=lambda item: sorted(item[0]),
    )


def run_both(cell: str, history=HISTORY, target=TARGET):
    """Run ``cell`` after the checkout on a lazy session and its eager twin."""
    lazy = checked_out(history, target)
    eager = checked_out(history, target, eager=True)
    lazy.kernel.run_cell(cell)
    eager.kernel.run_cell(cell)
    assert committed(lazy) == committed(eager)
    assert lazy.pool.keys() == eager.pool.keys()
    return lazy


class TestCheckout:
    def test_payload_checkout_builds_nothing(self):
        kernel = NotebookKernel()
        session = KishuSession.init(kernel)
        for cell in HISTORY:
            kernel.run_cell(cell)
        before = graphs_built(session)
        report = session.checkout(f"t{TARGET}")
        assert graphs_built(session) == before
        assert set(report.loaded_keys) == keys({"a"}, {"b"})
        assert session.pool.pending == keys({"a"}, {"b"})
        assert session.pool.keys() == keys({"a"}, {"b"}, {"c"})
        assert counter(session, "checkout.pool.pending") == 2

    def test_checkouts_in_a_row_keep_untouched_keys_pending(self):
        session = checked_out()
        session.checkout("t5")  # reloads b alone; a is the same version
        session.checkout(f"t{TARGET}")
        assert session.pool.pending == keys({"a"}, {"b"})

    def test_a_replay_leaves_nothing_pending(self):
        # The generator has no payload, so the checkout replays its cell,
        # and a replayed value may alias anything the replay loaded.
        history = [
            "a = [1, 2]",
            "gen = (x * 2 for x in a)",
            "a.append(3)",
            "del gen",
        ]
        session = checked_out(history, target=2)
        report = session.checkout_reports[-1]
        assert report.recomputed_keys and report.loaded_keys
        assert not session.pool.pending
        assert counter(session, "checkout.pool.pending") == 0
        assert list(session.kernel.get("gen")) == [2, 4]


class TestPreRunBuild:
    def test_a_cell_builds_only_the_keys_it_may_touch(self):
        lazy = run_both("a.append(len(a))")
        assert lazy.pool.pending == keys({"b"})
        assert counter(lazy, "pool.pending.built") == 1
        assert counter(lazy, "pool.pending.unbuilt") == 0
        assert [key for key, _ in committed(lazy)] == [covar_key({"a"})]

    def test_the_build_is_a_span_before_the_cell_runs(self):
        lazy = checked_out()
        lazy.kernel.run_cell("a.append(4)")
        cell = lazy.observer.tracer.roots[-1]
        assert cell.name == "cell"
        pending = cell.find("cell.pending")
        assert pending is not None and pending.attrs["keys"] == 1
        assert cell.find("cell.exec").find("cell.pending") is None

    def test_a_cell_that_touches_no_pending_key_builds_nothing(self):
        lazy = run_both("c.append(1)")
        assert lazy.pool.pending == keys({"a"}, {"b"})
        assert counter(lazy, "pool.pending.built") == 0

    def test_an_unchanged_read_stores_nothing(self):
        lazy = run_both("total = sum(a)")
        assert [key for key, _ in committed(lazy)] == [covar_key({"total"})]

    def test_a_rebind_of_a_pending_name(self):
        run_both("b = 7")

    def test_a_delete_of_a_pending_name(self):
        lazy = run_both("del b")
        assert covar_key({"b"}) in lazy.graph.head.deleted

    def test_a_helper_mutating_a_pending_global(self):
        history = ["a = [1]", "def grow(n):\n    a.append(n)", "a.append(2)"]
        lazy = run_both("grow(5)", history, target=2)
        assert counter(lazy, "pool.pending.unbuilt") == 0
        assert lazy.kernel.get("a") == [1, 5]

    def test_escape_cells_build_every_pending_key_first(self):
        for cell in ("exec('z = [1]')", "globals()['z'] = [1]"):
            lazy = run_both(cell)
            assert not lazy.pool.pending
            assert counter(lazy, "pool.pending.built") == 2
            # Escalated detection checks every key, against built graphs:
            # nothing but the new name is stored.
            assert [key for key, _ in committed(lazy)] == [covar_key({"z"})]

    def test_a_syntax_error_builds_every_pending_key(self):
        lazy = checked_out()
        lazy.kernel.run_cell("a = (", raise_on_error=False)
        assert not lazy.pool.pending


class TestAliasingMerges:
    def test_binding_a_pending_object_merges_it(self):
        lazy = run_both("d = a")
        assert lazy.pool.key_of("d") == covar_key({"a", "d"})
        assert lazy.pool.key_of("a") == covar_key({"a", "d"})

    def test_appending_into_a_pending_list_merges_both(self):
        lazy = run_both("b['k'].append(a)")
        assert lazy.pool.key_of("a") == covar_key({"a", "b"})
        assert not lazy.pool.pending

    def test_a_merge_into_a_kept_covariable(self):
        lazy = run_both("c.append(a)")
        assert lazy.pool.key_of("c") == covar_key({"a", "c"})
        assert lazy.pool.pending == keys({"b"})


class TestUnpredictedAccess:
    """Calls no analysis resolves reach a pending list without naming it:
    the detector meets it without a graph and stores it again."""

    HISTORY = [
        "xs = [1]",
        "def grow(n):\n    xs.append(n)",
        "h = [grow]",
        "import types\nns = types.SimpleNamespace(bump=grow)",
        "xs.append(2)",
    ]

    def test_mutations_through_unresolved_calls_are_stored(self):
        session = checked_out(self.HISTORY, target=4)
        assert session.pool.pending == keys({"xs"})
        session.kernel.run_cell("h[0](5)")
        through_list = session.head_id
        assert counter(session, "pool.pending.unbuilt") == 1
        assert covar_key({"xs"}) in session.graph.head.updated

        session.checkout("t4")
        assert session.pool.pending == keys({"xs"})
        session.kernel.run_cell("ns.bump(6)")
        through_namespace = session.head_id
        assert counter(session, "pool.pending.unbuilt") == 2
        assert covar_key({"xs"}) in session.graph.head.updated

        session.checkout("t1")
        session.checkout(through_list)
        assert session.kernel.get("xs") == [1, 5]
        session.checkout(through_namespace)
        assert session.kernel.get("xs") == [1, 6]

    def test_an_eager_session_commits_the_same_node(self):
        run_both("h[0](5)", self.HISTORY, target=4)
        run_both("ns.bump(6)", self.HISTORY, target=4)


class TestResume:
    def stores(self):
        store = InMemoryCheckpointStore()
        kernel = NotebookKernel()
        KishuSession.init(kernel, store=store)
        for cell in HISTORY:
            kernel.run_cell(cell)
        return store

    def test_resume_leaves_every_loaded_key_pending(self):
        session = KishuSession.resume(NotebookKernel(), self.stores())
        report = session.checkout_reports[-1]
        assert session.pool.pending == set(report.loaded_keys)
        assert session.pool.pending == keys({"a"}, {"b"}, {"c"})

    def test_the_next_cell_commits_what_an_eager_session_commits(self):
        lazy = KishuSession.resume(NotebookKernel(), self.stores())
        eager = KishuSession.resume(NotebookKernel(), self.stores())
        build_eagerly(eager)
        for session in (lazy, eager):
            session.kernel.run_cell("b['k'].append(len(a))")
        assert committed(lazy) == committed(eager)
        assert lazy.pool.pending == keys({"c"})
