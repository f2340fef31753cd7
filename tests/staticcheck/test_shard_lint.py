"""Unit tests for the sharded-serving findings (FSTC304/FSTC305)."""

from repro.autotune import TunerConfig
from repro.machine.specs import DESKTOP
from repro.serve import ServiceConfig, ShardedConfig
from repro.staticcheck import lint_ring_balance


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestShardConfigLint:
    def test_oversubscription_flagged(self):
        config = ShardedConfig(
            n_shards=4, service=ServiceConfig(n_workers=2)
        )
        out = config.diagnostics(DESKTOP, cpu_count=4)
        assert codes(out) == ["FSTC304"]
        assert out[0].severity == "warning"
        assert out[0].data == {"n_shards": 4, "n_workers": 2, "cpus": 4}

    def test_fitting_fleet_is_clean(self):
        config = ShardedConfig(
            n_shards=4, service=ServiceConfig(n_workers=2)
        )
        assert config.diagnostics(DESKTOP, cpu_count=8) == []

    def test_single_shard_never_flagged(self):
        # One shard is the unsharded regime; FSTC303 owns that story.
        config = ShardedConfig(
            n_shards=1, service=ServiceConfig(n_workers=16)
        )
        assert "FSTC304" not in codes(config.diagnostics(DESKTOP, cpu_count=1))

    def test_service_findings_are_included(self):
        config = ShardedConfig(
            n_shards=2, service=ServiceConfig(queue_capacity=0)
        )
        assert codes(config.diagnostics(DESKTOP, cpu_count=8)) == ["FSTC301"]

    def test_cache_dir_supplies_the_autotune_state(self, tmp_path):
        service = ServiceConfig(autotune=TunerConfig(state_path=None))
        bare = ShardedConfig(n_shards=2, service=service)
        assert codes(bare.diagnostics(DESKTOP, cpu_count=8)) == ["FSTC602"]
        cached = ShardedConfig(
            n_shards=2, service=service, cache_dir=str(tmp_path)
        )
        assert cached.diagnostics(DESKTOP, cpu_count=8) == []


class TestRingBalanceLint:
    def test_balanced_declared_set_is_clean(self):
        keys = [f"sig{i}" for i in range(64)]
        assert lint_ring_balance(2, keys) == []

    def test_empty_shard_flagged(self):
        # One vnode per shard makes starvation likely for a small set.
        keys = [f"sig{i}" for i in range(6)]
        found = []
        for replicas in (1, 2):
            found.extend(lint_ring_balance(4, keys, replicas=replicas))
        assert "FSTC305" in codes(found)

    def test_single_shard_or_no_keys_is_clean(self):
        assert lint_ring_balance(1, ["sig0", "sig1"]) == []
        assert lint_ring_balance(4, []) == []

    def test_tiny_signature_sets_not_judged_for_skew(self):
        # With fewer than 2 keys/shard a "pathological" share is just
        # pigeonholing; only emptiness may be reported.
        out = lint_ring_balance(3, ["a", "b", "c"])
        assert all(
            "own" not in d.message or "none" in d.message for d in out
        )

    def test_findings_carry_the_share_map(self):
        keys = [f"sig{i}" for i in range(8)]
        for diag in lint_ring_balance(4, keys, replicas=1):
            shares = diag.data["shares"]
            assert set(shares) == {"0", "1", "2", "3"}
            assert sum(shares.values()) == 1.0
