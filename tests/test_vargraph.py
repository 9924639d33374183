"""Tests for VarGraph construction, comparison, and intersection (§4.2)."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.objectwalk import TraversalPolicy, Visit
from repro.core.vargraph import VarGraph, VarGraphBuilder, graphs_equal


@pytest.fixture
def builder():
    return VarGraphBuilder()


class TestConstruction:
    def test_primitive_is_single_node(self, builder):
        graph = builder.build("x", 42)
        assert len(graph) == 1
        assert graph.nodes[0].kind == "primitive"
        assert graph.nodes[0].value == 42
        assert graph.id_set == frozenset()

    def test_list_children(self, builder):
        graph = builder.build("ls", [1, "a", 2.5])
        assert graph.nodes[0].kind == "composite"
        assert len(graph.nodes[0].children) == 3

    def test_shared_object_visited_once(self, builder):
        shared = [1, 2]
        graph = builder.build("x", [shared, shared])
        composite_nodes = [n for n in graph.nodes if n.kind == "composite"]
        # outer list + inner list, not inner twice
        assert len(composite_nodes) == 2
        outer = graph.nodes[0]
        assert outer.children[0] == outer.children[1]

    def test_cycle_terminates(self, builder):
        loop = []
        loop.append(loop)
        graph = builder.build("loop", loop)
        assert len(graph) == 1
        assert graph.nodes[0].children == (0,)

    def test_instance_dict_traversed(self, builder):
        class Thing:
            def __init__(self):
                self.payload = [1, 2]

        graph = builder.build("t", Thing())
        kinds = [node.kind for node in graph.nodes]
        assert "composite" in kinds
        values = [node.value for node in graph.nodes if node.kind == "primitive"]
        assert set(values) >= {1, 2, "payload"}

    def test_slots_traversed(self, builder):
        class Slotted:
            __slots__ = ("a", "b")

            def __init__(self):
                self.a = [1]
                self.b = "text"

        graph = builder.build("s", Slotted())
        primitive_values = {
            node.value for node in graph.nodes if node.kind == "primitive"
        }
        assert "text" in primitive_values

    def test_generator_is_opaque(self, builder):
        graph = builder.build("g", (i for i in range(3)))
        assert graph.opaque

    def test_ndarray_is_digest_leaf(self, builder):
        graph = builder.build("arr", np.arange(10))
        assert len(graph) == 1
        assert graph.nodes[0].kind == "array"
        assert graph.nodes[0].value is not None

    def test_truncation_marks_opaque(self):
        builder = VarGraphBuilder(max_nodes=5)
        graph = builder.build("big", list(range(100)))
        assert graph.truncated
        assert graph.opaque

    def test_module_is_leaf(self, builder):
        graph = builder.build("np", np)
        assert len(graph) == 1
        assert graph.nodes[0].kind == "primitive"

    def test_build_many(self, builder):
        graphs = builder.build_many({"a": 1, "b": [2]})
        assert set(graphs) == {"a", "b"}


class TestComparison:
    def test_identical_objects_equal(self, builder):
        data = {"k": [1, 2, 3]}
        first = builder.build("d", data)
        second = builder.build("d", data)
        assert graphs_equal(first, second)
        assert not first.differs_from(second)

    def test_inplace_mutation_detected(self, builder):
        data = [1, 2, 3]
        before = builder.build("ls", data)
        data.append(4)
        after = builder.build("ls", data)
        assert before.differs_from(after)

    def test_primitive_value_change_detected(self, builder):
        data = {"key": 1}
        before = builder.build("d", data)
        data["key"] = 2
        after = builder.build("d", data)
        assert before.differs_from(after)

    def test_reassignment_to_new_object_detected(self, builder):
        # Keep both lists alive so the second cannot recycle the first's
        # address (in a live namespace the old binding survives the walk).
        old, new = [1, 2], [1, 2]  # equal value, different address
        before = builder.build("x", old)
        after = builder.build("x", new)
        assert before.differs_from(after)

    def test_type_change_same_value_detected(self, builder):
        before = builder.build("x", 1)
        after = builder.build("x", True)  # 1 == True but types differ
        assert before.nodes[0].type_name != after.nodes[0].type_name

    def test_array_content_change_detected(self, builder):
        arr = np.zeros(16)
        before = builder.build("arr", arr)
        arr[3] = 1.0
        after = builder.build("arr", arr)
        assert before.differs_from(after)

    def test_array_slice_update_detected(self, builder):
        # The paper's §4.3 remark: numpy memory-based updates still happen
        # through references, and the content digest catches them.
        arr = np.zeros((4, 4))
        before = builder.build("arr", arr)
        arr[0, 1] += 1
        after = builder.build("arr", arr)
        assert before.differs_from(after)

    def test_edge_rewire_detected(self, builder):
        inner_a, inner_b = [1], [2]
        data = {"slot": inner_a, "other": inner_b}
        before = builder.build("d", data)
        data["slot"] = inner_b  # edge change only: same nodes, new shape
        after = builder.build("d", data)
        assert before.differs_from(after)

    def test_opaque_always_differs(self, builder):
        gen = (i for i in range(3))
        first = builder.build("g", gen)
        second = builder.build("g", gen)
        assert first.differs_from(second)

    def test_set_iteration_order_does_not_false_positive(self, builder):
        data = {"c", "a", "b"}
        first = builder.build("s", data)
        second = builder.build("s", data)
        assert not first.differs_from(second)


class TestIntersection:
    def test_shared_mutable_intersects(self, builder):
        shared = [1, 2]
        left = builder.build("x", {"ref": shared})
        right = builder.build("y", [shared])
        assert left.shares_objects_with(right)

    def test_disjoint_objects_do_not_intersect(self, builder):
        xs, ys = [1, 2], [1, 2]  # both alive: genuinely distinct addresses
        left = builder.build("x", xs)
        right = builder.build("y", ys)
        assert not left.shares_objects_with(right)

    def test_shared_primitives_do_not_join(self, builder):
        # Interned small ints/strings are shared by CPython but immutable:
        # they must not merge co-variables.
        xs, ys = [1, "a"], [1, "a"]
        left = builder.build("x", xs)
        right = builder.build("y", ys)
        assert not left.shares_objects_with(right)


class TestCustomPolicy:
    def test_registered_handler_wins(self):
        class Custom:
            pass

        policy = TraversalPolicy()
        policy.register(Custom, lambda obj: Visit(kind="primitive", value="custom"))
        builder = VarGraphBuilder(policy=policy)
        graph = builder.build("c", Custom())
        assert graph.nodes[0].value == "custom"

    def test_handler_can_decline(self):
        policy = TraversalPolicy()
        policy.register(list, lambda obj: None)  # decline -> default rules
        builder = VarGraphBuilder(policy=policy)
        graph = builder.build("ls", [1])
        assert graph.nodes[0].kind == "composite"


class TestProcessStableFingerprints:
    """Graph fingerprints must agree across interpreter processes.

    Builtin ``hash()`` of strings/bytes is salted by ``PYTHONHASHSEED``,
    and ``repr()`` of default objects embeds memory addresses; either in
    the digest path makes equal states fingerprint differently across
    processes.
    """

    SCRIPT = textwrap.dedent(
        """
        import numpy as np
        from repro.core.vargraph import VarGraphBuilder

        def helper(x):
            return x + 1

        class Thing:
            def __init__(self):
                self.tag = "t"
                self.box = frozenset({"a", ("b", 3)})

        state = {
            "text": "altogether elsewhere",
            "blob": b"\\x00\\x01",
            "nested": {"k": [1, 2.5, ("s", None)], "set": {"p", "q"}},
            "arr": np.arange(12, dtype=np.float64),
            "fn": helper,
            "obj": Thing(),
        }
        builder = VarGraphBuilder()
        for name in sorted(state):
            print(name, builder.build(name, state[name]).fingerprint)
        """
    )

    def _fingerprints(self, hash_seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(pathlib.Path(__file__).parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return result.stdout

    def test_fingerprints_identical_across_hash_seeds(self):
        first = self._fingerprints("0")
        second = self._fingerprints("424242")
        assert first == second
        assert len(first.splitlines()) == 6
