"""One namespace per checkout: replays run in the namespace the checkout
installs into, and every function a checkout loads or re-creates binds it
(DESIGN.md §10, §14)."""

from __future__ import annotations

import ast
import contextlib
import pathlib
import sys
import threading

import pytest

import repro.core.replay as replay_module
import repro.core.restore as restore_module
from repro.baselines.kishu_method import DetReplaySession
from repro.core.session import KishuSession
from repro.errors import RestorationError
from repro.kernel.kernel import Cell, NotebookKernel

CORE = pathlib.Path(replay_module.__file__).parent

CLASS_HOLDER = (
    "class Hz:\n"
    "    def bump(self, n):\n"
    "        global w\n"
    "        w = [n, n + 1]\n"
    "        return n % 7"
)


def _session(*, legacy: bool = False):
    kernel = NotebookKernel()
    session = KishuSession.init(kernel)
    if legacy:
        session.loader.restorer.replay_engine = None
    return kernel, session


def test_replayed_call_of_a_loaded_function_mutates_the_restored_state():
    # A loaded `push` has the session namespace as its globals; the replay
    # of `push(4)` must append to the `xs` the checkout installs, not to
    # the pre-checkout one.
    kernel = NotebookKernel()
    session = DetReplaySession.init(kernel)
    kernel.run_cell("xs = [1]")
    kernel.run_cell("def push(x):\n    xs.append(x)")
    kernel.run_cell("xs.append(3)")
    t3 = session.head_id
    kernel.run_cell(Cell.make("push(4)", "c", "deterministic"))
    t4 = session.head_id
    session.checkout(t3)
    assert kernel.get("xs") == [1, 3]
    session.checkout(t4)
    assert kernel.get("xs") == [1, 3, 4]
    assert kernel.get("push").__globals__ is kernel.user_ns


@pytest.mark.parametrize("legacy", [False, True], ids=["engine", "legacy"])
def test_replayed_class_methods_store_into_the_session(legacy):
    # An unpicklable notebook class and its instance are replayed; the
    # method's `global w` must land in the session, not in a dead dict.
    kernel, session = _session(legacy=legacy)
    kernel.run_cell(CLASS_HOLDER)
    kernel.run_cell("hz = Hz()")
    t2 = session.head_id
    kernel.run_cell("del hz, Hz")
    report = session.checkout(t2)
    assert report.recomputed_keys
    hz = kernel.get("hz")
    assert type(hz).__module__ == "__main__"
    assert type(hz).bump.__globals__ is kernel.user_ns
    kernel.run_cell("hz.bump(25)")
    assert kernel.get("w") == [25, 26]


def test_failed_replay_leaves_every_binding_in_place(tmp_path):
    # The replay calls a loaded function that rebinds `keep` through
    # `global` and then raises: the file it reads is gone. Both the engine
    # and the legacy recursion fail, and the checkout must leave the live
    # bindings exactly as they were.
    rows = tmp_path / "rows.txt"
    rows.write_text("a b c")
    kernel, session = _session()
    kernel.run_cell("keep = [1, 2]")
    kernel.run_cell(
        "def load():\n"
        "    global keep\n"
        "    keep = 'clobbered'\n"
        f"    return (word for word in open({str(rows)!r}).read().split())"
    )
    kernel.run_cell("rows = load()")
    target = session.head_id
    kernel.run_cell("del rows\nkeep = [3]")
    rows.unlink()
    before = kernel.user_ns.user_items()
    with pytest.raises(RestorationError):
        session.checkout(target)
    after = kernel.user_ns.user_items()
    assert after.keys() == before.keys()
    assert all(after[name] is before[name] for name in before)
    assert kernel.get("keep") == [3]


@pytest.mark.parametrize("legacy", [False, True], ids=["engine", "legacy"])
def test_replay_scopes_never_nest(monkeypatch, legacy):
    # The Fig 11 chain recurses through two tombstoned generators; every
    # replay materializes its inputs before its scope opens.
    depth = [0]
    deepest = [0]
    real_scope = replay_module.replay_scope

    @contextlib.contextmanager
    def counting_scope(namespace):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            with real_scope(namespace):
                yield
        finally:
            depth[0] -= 1

    monkeypatch.setattr(replay_module, "replay_scope", counting_scope)
    monkeypatch.setattr(restore_module, "replay_scope", counting_scope)
    kernel, session = _session(legacy=legacy)
    kernel.run_cell("gmm = (i for i in range(10))")
    kernel.run_cell("gmm = (i * 2 for i in gmm)")
    kernel.run_cell("plot = (i + 1 for i in gmm)")
    target = session.head_id
    kernel.run_cell("del plot\ndel gmm")
    session.checkout(target)
    assert list(kernel.get("plot")) == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]
    assert deepest[0] == 1


def test_concurrent_checkouts_bind_each_sessions_own_namespace():
    # Four sessions restore 32 by-value closures each, on four threads at
    # once; every restored function must read its own session's `tag`.
    # The sessions are built on this thread: the threads only check out.
    sessions = []
    for index in range(4):
        kernel, session = _session()
        kernel.run_cell(f"tag = 'S{index}'")
        kernel.run_cell("fs = [(lambda k: lambda: (tag, k))(k) for k in range(32)]")
        with_fs = session.head_id
        kernel.run_cell("fs = None")
        sessions.append((kernel, session, with_fs, session.head_id))
    foreign = []
    errors = []

    def worker(kernel, session, with_fs, without_fs):
        try:
            for _ in range(200):
                session.checkout(with_fs)
                if any(f.__globals__ is not kernel.user_ns for f in kernel.get("fs")):
                    foreign.append(kernel.get("tag"))
                session.checkout(without_fs)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=entry) for entry in sessions]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert foreign == []
    for index, (kernel, session, with_fs, _) in enumerate(sessions):
        session.checkout(with_fs)
        assert kernel.get("fs")[5]() == (f"S{index}", 5)


def test_cell_code_is_executed_only_by_the_replay_executor():
    sites = []
    for path in sorted(CORE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "exec"
            ):
                sites.append((path.name, node.lineno))
    assert [name for name, _ in sites] == ["replay.py"]
    tree = ast.parse(pathlib.Path(replay_module.__file__).read_text(encoding="utf-8"))
    executor = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "exec_node"
    )
    assert executor.lineno <= sites[0][1] <= executor.end_lineno
