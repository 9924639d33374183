"""Tests for the patched namespace (access tracking, §4.3)."""

from __future__ import annotations

import pytest

from repro.kernel.namespace import (
    PatchedNamespace,
    filter_user_names,
    is_user_variable,
)


class TestRecordingWindows:
    def test_get_set_delete_recorded(self):
        ns = PatchedNamespace({"x": 1, "y": 2})
        ns.begin_recording()
        exec("z = x\ndel y", ns)
        record = ns.end_recording()
        assert "x" in record.gets
        assert "z" in record.sets
        assert "y" in record.deletes
        assert record.accessed >= {"x", "y", "z"}

    def test_access_inside_function_bodies_is_recorded(self):
        ns = PatchedNamespace({"data": [1, 2]})
        exec("def f():\n    return data", ns)
        ns.begin_recording()
        exec("out = f()", ns)
        record = ns.end_recording()
        assert "data" in record.gets  # LOAD_GLOBAL goes through __getitem__

    def test_no_recording_outside_window(self):
        ns = PatchedNamespace({"x": 1})
        exec("y = x", ns)  # no window open: must not raise, not tracked
        ns.begin_recording()
        record = ns.end_recording()
        assert record.accessed == set()

    def test_double_begin_rejected(self):
        ns = PatchedNamespace()
        ns.begin_recording()
        with pytest.raises(RuntimeError):
            ns.begin_recording()

    def test_end_without_begin_rejected(self):
        ns = PatchedNamespace()
        with pytest.raises(RuntimeError):
            ns.end_recording()

    def test_dunder_names_not_recorded(self):
        ns = PatchedNamespace()
        ns.begin_recording()
        exec("x = 1", ns)  # machinery touches __builtins__ etc.
        record = ns.end_recording()
        assert all(not n.startswith("__") for n in record.accessed)


class TestUntrackedAccess:
    def test_peek_does_not_record(self):
        ns = PatchedNamespace({"x": 5})
        ns.begin_recording()
        assert ns.peek("x") == 5
        assert ns.peek("missing", "default") == "default"
        record = ns.end_recording()
        assert record.accessed == set()

    def test_plant_and_uproot_do_not_record(self):
        ns = PatchedNamespace()
        ns.begin_recording()
        ns.plant("a", 1)
        ns.uproot("a")
        ns.uproot("never-existed")  # no error
        record = ns.end_recording()
        assert record.accessed == set()

    def test_user_names_excludes_infrastructure(self):
        ns = PatchedNamespace({"x": 1})
        ns.plant("__builtins__", {})
        ns.plant("__name__", "__main__")
        assert ns.user_names() == {"x"}

    def test_user_items_snapshot(self):
        ns = PatchedNamespace({"a": 1, "b": 2})
        items = ns.user_items()
        assert items == {"a": 1, "b": 2}

    def test_replace_user_state(self):
        ns = PatchedNamespace({"old": 1})
        ns.plant("__name__", "__main__")
        ns.replace_user_state({"new": 2})
        assert ns.user_names() == {"new"}
        assert ns.peek("__name__") == "__main__"


class TestNameFilters:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("x", True),
            ("_private", True),
            ("__dunder__", False),
            ("__builtins__", False),
            ("__name__", False),
            ("df_2", True),
        ],
    )
    def test_is_user_variable(self, name, expected):
        assert is_user_variable(name) is expected

    def test_filter_user_names(self):
        names = {"x", "__doc__", "_tmp", "__builtins__"}
        assert filter_user_names(names) == {"x", "_tmp"}
