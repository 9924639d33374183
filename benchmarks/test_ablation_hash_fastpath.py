"""Ablation: the array hash fast path (§6.2).

Kishu digests array-likes (XXH64 in the paper, SHA-256 folded to 64 bits
with FNV-1a here) instead of traversing their elements. This ablation
disables the fast path — arrays are traversed element-wise like ordinary
containers — and measures delta-detection cost on an array-heavy state.
The design point: the fast path turns O(elements) graph construction into
O(bytes) hashing.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import format_table
from repro.core.covariable import CoVariablePool
from repro.core.delta import DeltaDetector
from repro.core.objectwalk import TraversalPolicy, Visit
from repro.core.vargraph import VarGraphBuilder
from repro.kernel.namespace import PatchedNamespace

N_ARRAYS = 6
ARRAY_ELEMENTS = 20_000


def element_wise_array_policy() -> TraversalPolicy:
    """Ablated policy: arrays traversed as tuples of Python floats."""
    policy = TraversalPolicy()
    policy.register(
        np.ndarray,
        lambda arr: Visit(kind="composite", children=tuple(arr.ravel().tolist())),
    )
    return policy


def build_state() -> PatchedNamespace:
    ns = PatchedNamespace()
    for i in range(N_ARRAYS):
        ns.plant(f"arr_{i}", np.random.default_rng(i).random(ARRAY_ELEMENTS))
    return ns


def measure(policy: TraversalPolicy = None) -> float:
    ns = build_state()
    builder = VarGraphBuilder(policy=policy) if policy else VarGraphBuilder()
    pool = CoVariablePool.from_namespace(ns.user_items(), builder)
    detector = DeltaDetector(pool)
    ns.begin_recording()
    exec("arr_0[0] += 1.0\narr_1[0] += 1.0", ns)
    record = ns.end_recording()
    started = time.perf_counter()
    delta = detector.detect(record, ns.user_items())
    elapsed = time.perf_counter() - started
    assert len(delta.modified) == 2  # both updates detected either way
    return elapsed


def test_ablation_array_hash_fastpath(benchmark):
    with_fastpath = measure()
    without_fastpath = measure(element_wise_array_policy())

    print()
    print(
        format_table(
            ["Variant", "Delta detection (2 arrays touched)"],
            [
                ("hash fast path (Kishu)", f"{with_fastpath * 1e3:.2f}ms"),
                ("element-wise traversal (ablated)", f"{without_fastpath * 1e3:.2f}ms"),
            ],
            title=f"Ablation: array digests vs element traversal "
            f"({N_ARRAYS} x {ARRAY_ELEMENTS}-element arrays)",
        )
    )

    # The fast path must win by a wide margin on array-heavy states.
    assert with_fastpath * 5 < without_fastpath, (
        f"{with_fastpath:.4f}s vs {without_fastpath:.4f}s"
    )

    benchmark.pedantic(measure, rounds=1, iterations=1)
