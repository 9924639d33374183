"""Tests for object traversal rules (reachability, §4.1)."""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.core.objectwalk import DEFAULT_POLICY, TraversalPolicy, Visit, _code_digest
from repro.core.vargraph import VarGraphBuilder


@pytest.fixture
def policy():
    return TraversalPolicy()


class TestLeafKinds:
    @pytest.mark.parametrize(
        "value", [None, True, 3, 2.5, 1 + 2j, "text", b"bytes"]
    )
    def test_primitives(self, policy, value):
        visit = policy.visit(value)
        assert visit.kind == "primitive"
        assert visit.value == value

    def test_ndarray_digested(self, policy):
        visit = policy.visit(np.arange(5))
        assert visit.kind == "array"
        assert isinstance(visit.value, int)

    def test_bytearray_digested(self, policy):
        assert policy.visit(bytearray(b"xy")).kind == "array"

    def test_memoryview_digested(self, policy):
        assert policy.visit(memoryview(b"xy")).kind == "array"

    def test_range_is_primitive(self, policy):
        visit = policy.visit(range(2, 20, 3))
        assert visit.kind == "primitive"
        assert visit.value == (2, 20, 3)

    def test_module_is_primitive(self, policy):
        visit = policy.visit(np)
        assert visit.kind == "primitive"
        assert "numpy" in str(visit.value)

    def test_class_is_primitive(self, policy):
        visit = policy.visit(dict)
        assert visit.kind == "primitive"


class TestCompositeKinds:
    def test_dict_children_include_keys_and_values(self, policy):
        visit = policy.visit({"k": 1})
        assert visit.kind == "composite"
        assert visit.children == ("k", 1)

    def test_object_array_elements_in_c_order(self, policy):
        items = [[1], "s", {"k": 2}, None]
        grid = np.empty((2, 2), dtype=object)
        grid[0, 0], grid[0, 1], grid[1, 0], grid[1, 1] = items
        visit = policy.visit(grid.T)
        assert visit.kind == "composite"
        assert visit.value == ("|O", (2, 2))
        assert [id(child) for child in visit.children] == [
            id(items[0]), id(items[2]), id(items[1]), id(items[3])
        ]

    def test_list_and_tuple(self, policy):
        assert policy.visit([1, 2]).children == (1, 2)
        assert policy.visit((1, 2)).children == (1, 2)

    def test_set_children_sorted_for_stability(self, policy):
        first = policy.visit({"b", "a", "c"}).children
        second = policy.visit({"c", "a", "b"}).children
        assert first == second

    def test_instance_dict(self, policy):
        class Box:
            def __init__(self):
                self.content = [1]

        visit = policy.visit(Box())
        assert visit.kind == "composite"
        assert "content" in visit.children

    def test_reduce_fallback_for_dictless_instances(self, policy):
        class Reduced:
            __slots__ = ()

            def __reduce__(self):
                return (Reduced, ("arg",))

        visit = policy.visit(Reduced())
        assert visit.kind == "composite"
        assert "arg" in visit.children


class TestOpaqueKinds:
    def test_generator(self, policy):
        assert policy.visit((i for i in range(2))).kind == "opaque"

    def test_records_holding_objects(self, policy):
        records = np.zeros(2, dtype=[("tag", "O"), ("n", "<i4")])
        assert policy.visit(records).kind == "opaque"

    def test_object_without_state_or_reduction(self, policy):
        class Stateless:
            __slots__ = ()

            def __reduce_ex__(self, protocol):
                raise TypeError("nope")

            def __reduce__(self):
                raise TypeError("nope")

        assert policy.visit(Stateless()).kind == "opaque"


class TestFunctions:
    def test_plain_function_is_leaf(self, policy):
        def f():
            return 1

        visit = policy.visit(f)
        assert visit.kind == "primitive"

    def test_closure_contents_are_children(self, policy):
        state = [1, 2]

        def make():
            def f():
                return state

            return f

        visit = policy.visit(make())
        assert visit.kind == "composite"
        assert state in visit.children

    def test_defaults_are_children(self, policy):
        default = [3]
        namespace = {"default": default}
        exec("def f(x=default):\n    return x", namespace)
        visit = policy.visit(namespace["f"])
        assert default in visit.children

    def test_bound_method_self_is_child(self, policy):
        class Owner:
            def method(self):
                return 1

        owner = Owner()
        visit = policy.visit(owner.method)
        assert owner in visit.children

    def test_code_digest_ignores_the_source_path(self):
        """One source loaded from paths of different lengths has one
        digest, and walking it hashes the same number of bytes, nested
        code included."""
        source = (
            "def f(xs):\n"
            "    def g(y):\n"
            "        return [z * 2 for z in y]\n"
            "    return g(xs)\n"
        )
        seen = []
        for filename in ("a.py", "/a/much/longer/path/to/the/same/module.py"):
            namespace = {}
            exec(compile(source, filename, "exec"), namespace)
            function = namespace["f"]
            builder = VarGraphBuilder()
            builder.build("f", function)
            seen.append((_code_digest(function.__code__), builder.telemetry.bytes_hashed))
        assert seen[0] == seen[1]
        assert seen[0][1] > 0


class TestRegistration:
    def test_later_registration_wins(self, policy):
        policy.register(list, lambda obj: Visit(kind="primitive", value="first"))
        policy.register(list, lambda obj: Visit(kind="primitive", value="second"))
        assert policy.visit([1]).value == "second"

    def test_default_policy_is_shared_instance(self):
        assert DEFAULT_POLICY is DEFAULT_POLICY
        assert DEFAULT_POLICY.visit(1).kind == "primitive"
