"""Streaming through the serve layer: requests, affinity, invalidation.

The in-process :class:`ContractionService` tests cover the request
protocol and metrics; one small spawned fleet covers the router's
``invalidate_stream`` broadcast (every shard must release a stream's
state, because respawns and ring rebalances can leave orphaned copies
on shards that no longer own the stream).
"""

import numpy as np
import pytest

from repro.data.random_tensors import random_coo
from repro.errors import ConfigError
from repro.machine.specs import DESKTOP
from repro.serve import (
    STREAM,
    ContractionService,
    Request,
    ServiceConfig,
    ShardedConfig,
    ShardRouter,
    merge_metrics_json,
)
from repro.streaming import DeltaBatch

SHAPE_L, SHAPE_R = (128, 12), (12, 24)
PAIRS = [(1, 0)]


def operands(seed=0):
    return (
        random_coo(SHAPE_L, nnz=300, seed=seed),
        random_coo(SHAPE_R, nnz=100, seed=seed + 1),
    )


def small_delta():
    return DeltaBatch.from_ops(
        [("insert", (3, 3), 1.0), ("delete", (0, 0), 0.0)], SHAPE_L
    )


class TestStreamRequest:
    def test_constructor_validation(self):
        left, right = operands()
        with pytest.raises(ConfigError):
            Request.stream("s", "upsert")
        with pytest.raises(ConfigError):
            Request.stream("", "query")
        with pytest.raises(ConfigError):
            Request.stream("s", "register", left=left)  # right/pairs missing
        with pytest.raises(ConfigError):
            Request.stream("s", "delta")  # no payload
        with pytest.raises(ConfigError):
            Request.stream("s", "delta", delta=small_delta(), side="top")

    def test_affinity_is_stream_name(self):
        a = Request.stream("s", "query")
        b = Request.stream("s", "delta", delta=small_delta())
        c = Request.stream("other", "query")
        assert a.kind == STREAM
        assert a.affinity_key(DESKTOP) == b.affinity_key(DESKTOP)
        assert a.affinity_key(DESKTOP) != c.affinity_key(DESKTOP)

    def test_name_defaults_to_stream_name(self):
        assert Request.stream("s", "query").name == "s"
        assert Request.stream("s", "query", name="q7").name == "q7"


class TestServiceStreamConfig:
    @pytest.mark.parametrize("knobs, message", [
        ({"stream_log_maxlen": 0}, "log_maxlen must be >= 1"),
        ({"stream_staleness_threshold": 0.0}, "staleness_threshold must be in"),
        ({"stream_staleness_threshold": 1.5}, "staleness_threshold must be in"),
    ])
    def test_engine_refusals_refuse_construction(self, knobs, message):
        # The engine is built lazily on the first stream request; a knob
        # it would refuse must fail the config up front instead.
        with pytest.raises(ConfigError, match=message):
            ServiceConfig(**knobs)


class TestServiceStream:
    @pytest.fixture()
    def service(self):
        config = ServiceConfig(queue_capacity=16, policy="reject", n_workers=1)
        with ContractionService(machine=DESKTOP, config=config) as svc:
            yield svc

    def test_register_delta_query_invalidate(self, service):
        left, right = operands()
        reg = service.submit(
            Request.stream("s", "register", left=left, right=right, pairs=PAIRS)
        ).result(30.0)
        assert reg.status == "ok"

        delta = small_delta()
        dresp = service.submit(
            Request.stream("s", "delta", delta=delta)
        ).result(30.0)
        assert dresp.status == "ok"
        assert dresp.plan_source in ("incremental", "full")

        qresp = service.submit(Request.stream("s", "query")).result(30.0)
        assert qresp.status == "ok"
        assert np.array_equal(qresp.result.coords, dresp.result.coords)
        assert np.array_equal(qresp.result.values, dresp.result.values)

        iresp = service.submit(Request.stream("s", "invalidate")).result(30.0)
        assert iresp.status == "ok"
        assert iresp.plan_source == "invalidated:5"

    def test_delta_output_matches_mutated_contract(self, service):
        left, right = operands(seed=9)
        service.submit(
            Request.stream("s", "register", left=left, right=right, pairs=PAIRS)
        ).result(30.0)
        delta = small_delta()
        out = service.submit(
            Request.stream("s", "delta", delta=delta)
        ).result(30.0).result
        direct = service.submit(
            Request.pairwise(delta.apply(left), right, PAIRS)
        ).result(30.0).result
        np.testing.assert_allclose(out.to_dense(), direct.to_dense(),
                                   rtol=1e-12)

    def test_invalidate_stream_is_idempotent_and_queue_bypassing(self, service):
        assert service.invalidate_stream("ghost") == 0
        left, right = operands(seed=4)
        service.submit(
            Request.stream("s", "register", left=left, right=right, pairs=PAIRS)
        ).result(30.0)
        assert service.invalidate_stream("s") == 5
        assert service.invalidate_stream("s") == 0

    def test_metrics_include_streaming_section(self, service):
        left, right = operands(seed=2)
        service.submit(
            Request.stream("s", "register", left=left, right=right, pairs=PAIRS)
        ).result(30.0)
        service.submit(
            Request.stream("s", "delta", delta=small_delta())
        ).result(30.0)
        payload = service.metrics_json()
        streaming = payload["streaming"]
        assert streaming["streams"] == ["s"]
        assert streaming["deltas_applied"] == 1

    def test_streaming_sections_merge_associatively(self, service):
        left, right = operands(seed=3)
        service.submit(
            Request.stream("a", "register", left=left, right=right, pairs=PAIRS)
        ).result(30.0)
        payload = service.metrics_json()
        other = {
            "streaming": {
                "streams": ["b"],
                "deltas_applied": 3,
                "incremental": 2,
                "full": 1,
                "incremental_seconds": 0.5,
                "full_seconds": 0.25,
                "mean_modeled_fraction": 0.1,
                "tracker": {"tensors": 2, "artifacts": 5, "stale": 0,
                            "bumps": 3, "invalidations": 1},
            }
        }
        merged = merge_metrics_json([payload, other])
        assert merged["streaming"]["streams"] == ["a", "b"]
        assert merged["streaming"]["deltas_applied"] == 3
        assert merged["streaming"]["tracker"]["artifacts"] == 10


class TestRouterStream:
    def test_invalidate_fans_out_to_every_shard(self):
        left, right = operands(seed=6)
        service = ServiceConfig(queue_capacity=16, policy="reject", n_workers=1)
        config = ShardedConfig(n_shards=2, service=service)
        with ShardRouter(machine=DESKTOP, config=config) as router:
            reg = router.submit(
                Request.stream(
                    "s", "register", left=left, right=right, pairs=PAIRS
                )
            ).result(60.0)
            assert reg.status == "ok"

            # Affinity: every op on the stream lands on the same shard.
            key = Request.stream("s", "query").affinity_key(DESKTOP)
            owner = router.ring.route(key)
            q = router.submit(Request.stream("s", "query")).result(60.0)
            assert q.status == "ok"

            released = router.invalidate_stream("s")
            assert set(released) == {0, 1}
            # Exactly the owner shard held the stream's five artifacts.
            assert released[owner] == 5
            assert sum(released.values()) == 5

            # After the broadcast, a query finds no registered stream.
            gone = router.submit(Request.stream("s", "query")).result(60.0)
            assert gone.status == "failed"
