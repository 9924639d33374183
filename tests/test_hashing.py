"""Tests for the array fast-path digests (§6.2)."""

from __future__ import annotations

import array
import tracemalloc

import numpy as np
import pytest

from repro import telemetry
from repro.core.hashing import combine, digest_array, digest_bytes, fnv1a64


class TestFnv:
    def test_deterministic(self):
        assert fnv1a64(b"hello") == fnv1a64(b"hello")

    def test_different_inputs_differ(self):
        assert fnv1a64(b"hello") != fnv1a64(b"hellp")

    def test_empty_input(self):
        assert isinstance(fnv1a64(b""), int)

    def test_large_buffer_folded(self):
        big = bytes(1_000_000)
        assert fnv1a64(big) == fnv1a64(bytes(1_000_000))
        tweaked = bytearray(big)
        tweaked[500_000] = 1
        assert fnv1a64(big) != fnv1a64(bytes(tweaked))

    def test_accepts_memoryview(self):
        data = bytearray(b"abc")
        assert fnv1a64(memoryview(data)) == fnv1a64(b"abc")


class TestDigestBytes:
    @pytest.mark.parametrize(
        "buffer",
        [
            bytearray(b"kishu" * 40),
            memoryview(array.array("i", range(50))),
            memoryview(bytearray(range(200)))[::3],
            memoryview(np.zeros((0, 3))),
        ],
        ids=["bytearray", "multi-byte-format", "strided", "zero-shape"],
    )
    def test_buffers_digest_like_their_bytes(self, buffer):
        assert digest_bytes(buffer) == digest_bytes(bytes(buffer))


class TestDigestArray:
    def test_content_sensitivity(self):
        a = np.arange(100, dtype=np.float64)
        b = a.copy()
        assert digest_array(a) == digest_array(b)
        b[50] += 1
        assert digest_array(a) != digest_array(b)

    def test_dtype_sensitivity(self):
        ints = np.zeros(8, dtype=np.int64)
        floats = np.zeros(8, dtype=np.float64)
        assert digest_array(ints) != digest_array(floats)

    def test_shape_sensitivity(self):
        flat = np.zeros(12)
        grid = np.zeros((3, 4))
        assert digest_array(flat) != digest_array(grid)

    def test_noncontiguous_input(self):
        base = np.arange(20)
        strided = base[::2]
        assert digest_array(strided) == digest_array(np.ascontiguousarray(strided))


#: One array per dtype family and layout the digest path must cover; the
#: uint8 sizes put header plus data at 64 and 65 bytes, either side of the
#: fold into SHA-256.
DIGEST_CASES = {
    "float64": np.linspace(0.0, 1.0, 9),
    "int8": np.arange(-4, 5, dtype=np.int8),
    "bool": np.array([True, False, True]),
    "complex128": np.arange(4) * (1 + 2j),
    "float16": np.arange(6, dtype=np.float16),
    "datetime64": np.array(["2024-01-01", "2025-06-30"], dtype="datetime64[D]"),
    "timedelta64": np.arange(3).astype("timedelta64[s]"),
    "unicode": np.array(["ab", "c"]),
    "bytes": np.array([b"x", b"yz"]),
    "structured": np.array([(1, 2.5), (3, 4.5)], dtype=[("a", "<i4"), ("b", "<f8")]),
    "big-endian": np.arange(5, dtype=">f8"),
    "zero-size": np.zeros((0, 3)),
    "zero-d": np.array(3.5),
    "fortran": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
    "strided": np.arange(40)[::3],
    "at-fold": np.arange(55, dtype=np.uint8),
    "past-fold": np.arange(56, dtype=np.uint8),
    "large": np.arange(100_000, dtype=np.float64),
}


@pytest.mark.parametrize("a", list(DIGEST_CASES.values()), ids=list(DIGEST_CASES))
def test_digest_array_equals_digest_of_header_and_bytes(a):
    buffer = f"{a.dtype.str}:{a.shape}".encode() + np.ascontiguousarray(a).tobytes()
    sink = telemetry.WalkTelemetry()
    previous = telemetry.activate(sink)
    try:
        digest = digest_array(a)
    finally:
        telemetry.deactivate(previous)
    assert digest == digest_bytes(buffer)
    assert sink.bytes_hashed == len(buffer)


def test_digest_array_does_not_copy_a_contiguous_array():
    big = np.ones(1 << 20)  # 8 MiB
    tracemalloc.start()
    try:
        digest_array(big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestCombine:
    def test_order_sensitive(self):
        assert combine(1, 2) != combine(2, 1)

    def test_deterministic(self):
        assert combine(7, 8, 9) == combine(7, 8, 9)

    def test_arity_sensitive(self):
        assert combine(1) != combine(1, 0)
