"""Spans: self times, layer attribution, and the traced path's outputs."""

import threading
import time

import repro
from repro.core import tiled_co
from repro.core.plan import ContractionSpec

from e2ebench import inputs
from e2ebench.spans import MIN_COVERAGE, Tracer, layer_metrics, per_op
from e2ebench.workloads import digest


def test_self_times_partition_the_root():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    def middle():
        tracer.call("choose_plan", leaf)
        time.sleep(0.005)

    tracer.call("op", lambda: (tracer.call("tiled_co_contract", middle), leaf()))
    (op,) = per_op(tracer.spans).values()
    assert abs(sum(op["layers"].values()) - op["op_s"]) < 1e-9
    assert op["layers"]["plan"] >= 0.01
    assert 0.004 < op["layers"]["kernel"] < op["layers"]["plan"]
    assert op["layers"]["op"] >= 0.01


def test_install_and_uninstall_restore_the_program():
    originals = (
        tiled_co.tiled_co_contract, tiled_co.build_tiled_tables,
        ContractionSpec.__dict__["linearize_left"],
    )
    with Tracer():
        assert tiled_co.tiled_co_contract is not originals[0]
    assert (
        tiled_co.tiled_co_contract, tiled_co.build_tiled_tables,
        ContractionSpec.__dict__["linearize_left"],
    ) == originals


def test_traced_cold_op_is_bit_identical_and_covered():
    op = inputs.cold_pair(2, 0)
    plain = repro.contract(op.left, op.right, op.pairs)
    with Tracer() as tracer:
        traced = tracer.call("op", repro.contract, op.left, op.right, op.pairs)
    assert digest(traced) == digest(plain)
    ops = per_op(tracer.spans)
    assert len(ops) == 1
    (one,) = ops.values()
    assert one["calls"]["build_tiled_tables"] == 2
    assert one["layers"]["delinearize"] > 0  # output canonicalization
    assert layer_metrics(ops)["coverage"] >= MIN_COVERAGE


def test_paused_threads_record_nothing():
    op = inputs.cold_pair(2, 1)
    with Tracer() as tracer:
        with tracer.paused():
            repro.contract(op.left, op.right, op.pairs)
    assert tracer.spans == []


def test_worker_spans_are_adopted_by_the_op_they_served():
    tracer = Tracer()

    def served():
        worker = threading.Thread(
            target=lambda: tracer.call("tiled_co_contract", time.sleep, 0.01))
        worker.start()
        worker.join()

    tracer.call("op", served)
    ops = per_op(tracer.spans)
    assert len(ops) == 1
    (op,) = ops.values()
    assert op["layers"]["kernel"] >= 0.01
    assert op["layers"]["op"] < op["op_s"] - 0.009
