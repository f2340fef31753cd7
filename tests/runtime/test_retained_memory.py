"""Long-lived objects keep running totals, not per-call histories.

A server calls the same runtime, network executor and streaming engine
for as long as it runs, so memory they keep per call grows without
bound.  Each check runs warm calls under ``tracemalloc`` and bounds
what stays allocated afterwards, per call.
"""

import gc
import itertools
import tracemalloc

import pytest

from repro.data.random_tensors import random_coo
from repro.machine.specs import DESKTOP
from repro.network.executor import NetworkExecutor
from repro.runtime import ContractionRuntime
from repro.streaming import DeltaBatch, IncrementalEngine

#: Bytes a warm call may leave behind (a per-call record costs ~10x).
MAX_BYTES_PER_CALL = 64


def retained_per_call(call, n: int, *, warmup: int = 200) -> float:
    """Bytes still allocated after ``n`` calls of ``call``, per call.

    Tracing starts before the warm-up, so bounded caches that churn
    (fresh intermediates replacing old ones) are traced at both ends of
    the measured window and only growth counts.
    """
    tracemalloc.start()
    try:
        for _ in range(warmup):
            call()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(n):
            call()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / n


@pytest.fixture
def pair():
    left = random_coo((24, 20), nnz=60, seed=1)
    right = random_coo((20, 16), nnz=50, seed=2)
    return left, right, [(1, 0)]


class TestRetainedMemory:
    def test_runtime_contract(self, pair):
        left, right, pairs = pair
        runtime = ContractionRuntime(machine=DESKTOP)
        per_call = retained_per_call(
            lambda: runtime.contract(left, right, pairs), 2000
        )
        assert per_call < MAX_BYTES_PER_CALL
        assert runtime.metrics()["calls"] == 2200

    def test_network_contract(self, pair):
        left, right, _ = pair
        third = random_coo((16, 12), nnz=40, seed=3)
        executor = NetworkExecutor(DESKTOP)
        per_call = retained_per_call(
            lambda: executor.contract("ij,jk,kl->il", left, right, third),
            500,
        )
        assert per_call < MAX_BYTES_PER_CALL
        assert executor.metrics()["network_plan_hits"] == 699

    def test_engine_apply_delta(self, pair):
        left, right, pairs = pair
        engine = IncrementalEngine(DESKTOP, log_maxlen=4)
        engine.register("s", left, right, pairs, tile_size=8)
        coord = tuple(int(c) for c in left.coords[:, 0])
        deltas = itertools.cycle([
            DeltaBatch.from_ops([("update", coord, value)], left.shape)
            for value in (1.5, 2.5)
        ])
        per_call = retained_per_call(
            lambda: engine.apply_delta("s", next(deltas)), 300
        )
        assert per_call < MAX_BYTES_PER_CALL
        assert engine.metrics()["deltas_applied"] == 500
