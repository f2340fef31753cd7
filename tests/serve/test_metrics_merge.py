"""Cross-process metrics snapshot merging (router aggregation)."""

import pytest

from repro.serve import (
    LatencyHistogram,
    Response,
    ServiceMetrics,
    merge_histogram_json,
    merge_metrics_json,
)


def sample_metrics(latencies, statuses) -> ServiceMetrics:
    metrics = ServiceMetrics()
    for seconds, status in zip(latencies, statuses):
        metrics.note_submitted()
        metrics.observe(Response(
            name="r", status=status,
            timings={"queue_wait": seconds / 4, "execute": seconds,
                     "total": seconds * 1.25},
        ))
    return metrics


def snapshot(latencies, statuses, *, hits=0, misses=0, high_water=0) -> dict:
    """A ``metrics_json``-shaped document like one shard would export."""
    doc = sample_metrics(latencies, statuses).to_json()
    doc["queue"] = {
        "capacity": 16, "policy": "reject", "depth": 0,
        "high_water": high_water, "admitted": len(latencies),
        "rejected": 0, "evicted": 0,
    }
    total = hits + misses
    doc["runtime"] = {
        "calls": total,
        "plan_cache_hits": hits,
        "plan_cache_misses": misses,
        "plan_hit_rate": hits / total if total else 0.0,
        "table_reuse_hits": hits,
        "table_builds": misses,
        "table_reuse_rate": hits / total if total else 0.0,
        "measured_seconds": sum(latencies),
        "seconds_saved": 0.1 * len(latencies),
        "estimated_speedup": 1.0,
    }
    doc["machine"] = "desktop-i7-11700F"
    return doc


def assert_docs_close(a, b, path=""):
    """Recursive equality with float tolerance (fold-order noise)."""
    assert type(a) is type(b) or (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ), f"type mismatch at {path}: {a!r} vs {b!r}"
    if isinstance(a, dict):
        assert set(a) == set(b), f"keys differ at {path}"
        for key in a:
            assert_docs_close(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), f"length differs at {path}"
        for i, (va, vb) in enumerate(zip(a, b)):
            assert_docs_close(va, vb, f"{path}[{i}]")
    elif isinstance(a, float) or isinstance(b, float):
        assert a == pytest.approx(b), f"value differs at {path}"
    else:
        assert a == b, f"value differs at {path}"


SNAPSHOTS = [
    snapshot([0.001, 0.002, 0.004], ["ok", "ok", "degraded"],
             hits=4, misses=2, high_water=3),
    snapshot([0.010, 0.080], ["ok", "shed"], hits=9, misses=1, high_water=7),
    snapshot([0.0005], ["failed"], hits=0, misses=1, high_water=1),
]


class TestHistogramMerge:
    def test_matches_live_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for s in (0.001, 0.004, 0.2):
            a.record(s)
        for s in (0.002, 0.5):
            b.record(s)
        json_merge = merge_histogram_json(a.to_json(), b.to_json())
        a.merge(b)
        assert_docs_close(json_merge, a.to_json())

    def test_empty_side_is_identity(self):
        hist = LatencyHistogram()
        for s in (0.003, 0.009):
            hist.record(s)
        doc = hist.to_json()
        assert_docs_close(merge_histogram_json(doc, {}), doc)
        assert_docs_close(merge_histogram_json({}, doc), doc)


class TestMetricsMerge:
    def test_counts_sum_and_peaks_max(self):
        merged = merge_metrics_json(SNAPSHOTS)
        assert merged["completed"] == 6
        assert merged["statuses"]["ok"] == 3
        assert merged["statuses"]["failed"] == 1
        assert merged["queue"]["high_water"] == 7
        assert merged["queue"]["admitted"] == 6
        assert merged["latency"]["execute"]["count"] == 6

    def test_derived_rates_recomputed_not_averaged(self):
        merged = merge_metrics_json(SNAPSHOTS)
        # 13 hits / 17 calls; any averaging of per-shard rates (0.67,
        # 0.9, 0.0) gives a different number.
        assert merged["runtime"]["plan_hit_rate"] == pytest.approx(13 / 17)
        measured = merged["runtime"]["measured_seconds"]
        saved = merged["runtime"]["seconds_saved"]
        assert merged["runtime"]["estimated_speedup"] == pytest.approx(
            (measured + saved) / measured
        )

    def test_merge_is_associative(self):
        a, b, c = SNAPSHOTS
        left = merge_metrics_json([merge_metrics_json([a, b]), c])
        right = merge_metrics_json([a, merge_metrics_json([b, c])])
        flat = merge_metrics_json([a, b, c])
        assert_docs_close(left, right)
        assert_docs_close(left, flat)

    def test_merge_is_order_independent(self):
        a, b, c = SNAPSHOTS
        assert_docs_close(
            merge_metrics_json([a, b, c]), merge_metrics_json([c, a, b])
        )

    def test_single_snapshot_equals_empty_peer_merge(self):
        solo = merge_metrics_json([SNAPSHOTS[0]])
        assert solo["completed"] == 3
        assert solo["runtime"]["plan_hit_rate"] == pytest.approx(4 / 6)

    def test_empty_input(self):
        assert merge_metrics_json([]) == {}

    def test_cse_hit_rate_recomputed(self):
        def shard(hits, misses):
            return {"network": {
                "cse_hits": hits, "cse_misses": misses,
                "cse_hit_rate": hits / (hits + misses),
            }}

        merged = merge_metrics_json([shard(1, 1), shard(1, 1)])
        assert merged["network"]["cse_hit_rate"] == pytest.approx(0.5)
        merged = merge_metrics_json([shard(3, 1), shard(0, 4)])
        assert merged["network"]["cse_hit_rate"] == pytest.approx(3 / 8)

    def test_mean_modeled_fraction_weighted_by_deltas(self):
        def shard(deltas, mean):
            return {"streaming": {
                "streams": [], "deltas_applied": deltas,
                "mean_modeled_fraction": mean, "tracker": {},
            }}

        a, b = shard(3, 0.1), shard(1, 0.5)
        merged = merge_metrics_json([a, b])
        assert merged["streaming"]["mean_modeled_fraction"] == pytest.approx(
            (3 * 0.1 + 1 * 0.5) / 4
        )
        solo = merge_metrics_json([a])
        with_empty_peer = merge_metrics_json([a, shard(0, 0.0)])
        assert_docs_close(solo, with_empty_peer)

    def test_disagreeing_labels_become_mixed(self):
        a = dict(SNAPSHOTS[0])
        b = dict(SNAPSHOTS[1])
        b["machine"] = "server-epyc"
        merged = merge_metrics_json([a, b])
        assert merged["machine"] == "mixed"
        same = merge_metrics_json([a, dict(SNAPSHOTS[1])])
        assert same["machine"] == "desktop-i7-11700F"
