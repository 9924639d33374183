"""Tests for the pickler chain, by-value functions, and blocklist (§6.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serialization import (
    Blocklist,
    FallbackPickler,
    PrimaryPickler,
    SerializerChain,
)
from repro.errors import DeserializationError, SerializationError


@pytest.fixture
def chain():
    return SerializerChain()


class TestPrimaryPickler:
    def test_roundtrip_plain_data(self):
        pickler = PrimaryPickler()
        payload = {"a": [1, 2], "b": np.arange(4)}
        out = pickler.loads(pickler.dumps(payload))
        assert out["a"] == [1, 2]
        assert np.array_equal(out["b"], np.arange(4))

    def test_module_pickles_by_reference(self):
        pickler = PrimaryPickler()
        out = pickler.loads(pickler.dumps({"np": np}))
        assert out["np"] is np

    def test_refuses_fallback_marked_objects(self):
        class NeedsFallback:
            _requires_fallback_pickler = True

        pickler = PrimaryPickler()
        with pytest.raises(Exception):
            pickler.dumps(NeedsFallback())


class TestFallbackPickler:
    def test_handles_fallback_marked_objects(self):
        from repro.libsim.deep_learning import SimMixedPrecisionScaler

        # requires-fallback libsim class round-trips via the fallback.
        scaler = SimMixedPrecisionScaler()
        pickler = FallbackPickler()
        restored = pickler.loads(pickler.dumps(scaler))
        assert restored.scale == scaler.scale

    def test_lambda_by_value(self):
        pickler = FallbackPickler()
        func = eval("lambda x: x * 3")
        restored = pickler.loads(pickler.dumps(func))
        assert restored(4) == 12

    def test_closure_by_value(self):
        def outer(n):
            def inner(x):
                return x + n

            return inner

        pickler = FallbackPickler()
        restored = pickler.loads(pickler.dumps(outer(10)))
        assert restored(5) == 15

    def test_defaults_preserved(self):
        namespace = {}
        exec("def f(x, y=7):\n    return x + y", namespace)
        pickler = FallbackPickler()
        restored = pickler.loads(pickler.dumps(namespace["f"]))
        assert restored(1) == 8

    def test_rebuilt_function_binds_active_globals(self):
        cell_ns = {"__builtins__": __builtins__}
        exec("base = 100\ndef f():\n    return base + 1", cell_ns)
        pickler = FallbackPickler()
        blob = pickler.dumps(cell_ns["f"])
        target = {"__builtins__": __builtins__, "base": 200}
        restored = pickler.loads(blob, target)
        assert restored() == 201

    def test_importable_function_stays_by_reference(self):
        import os.path

        pickler = FallbackPickler()
        restored = pickler.loads(pickler.dumps(os.path.join))
        assert restored is os.path.join


class TestChain:
    def test_primary_preferred(self, chain):
        _, name = chain.serialize({"x"}, {"x": [1]})
        assert name == "primary"

    def test_falls_back_for_cell_functions(self, chain):
        ns = {}
        exec("def g(a):\n    return a * 2", ns)
        blob, name = chain.serialize({"g"}, {"g": ns["g"]})
        assert name == "fallback"
        restored = chain.deserialize(blob, name)
        assert restored["g"](3) == 6

    def test_raises_when_all_fail(self, chain):
        gen = (i for i in range(3))
        with pytest.raises(SerializationError) as excinfo:
            chain.serialize({"gen"}, {"gen": gen})
        assert "gen" in str(excinfo.value)

    def test_deserialize_unknown_pickler(self, chain):
        with pytest.raises(DeserializationError):
            chain.deserialize(b"anything", "no-such-pickler")

    def test_deserialize_corrupt_payload(self, chain):
        blob, name = chain.serialize({"x"}, {"x": 1})
        with pytest.raises(DeserializationError):
            chain.deserialize(blob[:-3] + b"!!!", name)

    def test_shared_references_preserved_within_payload(self, chain):
        shared = [1, 2]
        blob, name = chain.serialize({"a", "b"}, {"a": shared, "b": {"r": shared}})
        out = chain.deserialize(blob, name)
        assert out["b"]["r"] is out["a"]


class TestBlocklist:
    def test_membership(self):
        blocklist = Blocklist({"SimCrossValidator"})
        assert "SimCrossValidator" in blocklist
        assert blocklist.blocks_any({"int", "SimCrossValidator"})
        assert not blocklist.blocks_any({"int", "list"})

    def test_add_discard(self):
        blocklist = Blocklist()
        blocklist.add("Bad")
        assert len(blocklist) == 1
        blocklist.discard("Bad")
        assert len(blocklist) == 0

    def test_from_file(self, tmp_path):
        path = tmp_path / "blocklist.txt"
        path.write_text("# silent picklers\nSimTopicModel\n\nSimQueryPlan\n")
        blocklist = Blocklist.from_file(path)
        assert "SimTopicModel" in blocklist
        assert "SimQueryPlan" in blocklist
        assert len(blocklist) == 2
