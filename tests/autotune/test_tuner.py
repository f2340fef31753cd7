"""OnlineTuner: eligibility, promotion, rollback, warm start, no pollution."""

import numpy as np
import pytest

from repro.autotune import CHAMPION_ARM, OnlineTuner, TunerConfig
from repro.autotune.candidates import pairwise_candidates
from repro.data.random_tensors import random_coo
from repro.errors import ConfigError
from repro.machine.specs import DESKTOP
from repro.runtime import ContractionRuntime
from repro.runtime.signature import signature_for


def operands(seed=0, shape_l=(40, 36), shape_r=(36, 44), nnz=300):
    left = random_coo(shape_l, nnz=nnz, seed=seed)
    right = random_coo(shape_r, nnz=nnz, seed=seed + 1)
    return left, right


def make_tuner(runtime=None, **overrides):
    config = TunerConfig(**{
        "explore_rate": 0.5, "min_trials": 2, "promote_margin": 0.05,
        "rollback_margin": 0.25,
        "default_eligible": True, **overrides,
    })
    tuner = OnlineTuner(DESKTOP, config)
    if runtime is not None:
        tuner.attach(runtime)
    return tuner


def promote(tuner, sig, arm_id, *, champ_s=10e-3, chall_s=1e-3, rounds=3):
    """Feed synthetic skew until the challenger is promoted."""
    for _ in range(rounds):
        tuner.observe_pairwise(sig, CHAMPION_ARM, champ_s)
        tuner.observe_pairwise(sig, arm_id, chall_s)
    return tuner.state.champion(sig.key)


class TestConfig:
    def test_ranges_validated(self):
        with pytest.raises(ConfigError):
            TunerConfig(explore_rate=2.0)


class TestEligibility:
    def test_default_ineligible_never_routes(self):
        tuner = make_tuner(default_eligible=False)
        left, right = operands()
        sig = signature_for(left, right, [(1, 0)], DESKTOP)
        assert all(tuner.route_pairwise(sig) is None for _ in range(50))

    def test_serving_bracket_controls_exploration(self):
        tuner = make_tuner(default_eligible=False, explore_rate=1.0)
        left, right = operands()
        sig = signature_for(left, right, [(1, 0)], DESKTOP)
        with tuner.serving(eligible=True):
            picks = [tuner.route_pairwise(sig) for _ in range(50)]
        assert any(p is not None for p in picks)
        with tuner.serving(eligible=False):
            assert all(
                tuner.route_pairwise(sig) is None for _ in range(20)
            )

    def test_bracket_restores_on_exit(self):
        tuner = make_tuner(default_eligible=False)
        with tuner.serving(eligible=True):
            pass
        assert not tuner._eligible()


class TestPromotionAndRollback:
    def test_promotion_installs_plan_and_keeps_prev(self):
        runtime = ContractionRuntime(machine=DESKTOP)
        tuner = make_tuner(runtime)
        left, right = operands()
        runtime.contract(left, right, [(1, 0)])  # caches the model plan
        sig = signature_for(left, right, [(1, 0)], DESKTOP)
        arms = pairwise_candidates(sig, DESKTOP)
        plan_arm = next(
            a for a in arms if a.accumulator != "auto" or a.tile_size
        )
        record = promote(tuner, sig, plan_arm.arm_id)
        assert record is not None and record.arm_id == plan_arm.arm_id
        assert record.plan is not None
        assert record.prev_plan is not None  # pre-promotion snapshot
        installed = runtime.plan_cache.peek_key(sig.key)
        assert installed.accumulator == record.plan["accumulator"]
        assert installed.tile_l == record.plan["tile_l"]

    def test_rollback_restores_prev_plan_and_cools_arm(self):
        runtime = ContractionRuntime(machine=DESKTOP)
        tuner = make_tuner(runtime)
        left, right = operands()
        runtime.contract(left, right, [(1, 0)])
        sig = signature_for(left, right, [(1, 0)], DESKTOP)
        arm_id = pairwise_candidates(sig, DESKTOP)[0].arm_id
        record = promote(tuner, sig, arm_id)
        prev = dict(record.prev_plan)
        for _ in range(8):  # regressed champion-path samples
            tuner.observe_pairwise(sig, None, 100e-3)
        assert tuner.state.champion(sig.key) is None
        assert tuner.rollbacks == 1
        restored = runtime.plan_cache.peek_key(sig.key)
        assert restored.tile_l == prev["tile_l"]
        assert restored.accumulator == prev["accumulator"]
        assert tuner.policy.in_cooldown(sig.key, arm_id)
        events = [e.event for e in tuner.state.history]
        assert events == ["promote", "rollback"]

    def test_no_oscillation_after_rollback(self):
        tuner = make_tuner()
        left, right = operands()
        sig = signature_for(left, right, [(1, 0)], DESKTOP)
        arm_id = pairwise_candidates(sig, DESKTOP)[0].arm_id
        promote(tuner, sig, arm_id)
        for _ in range(8):
            tuner.observe_pairwise(sig, None, 100e-3)
        # More champion samples must not instantly re-promote the
        # cooled arm off its still-shiny lifetime mean.
        for _ in range(4):
            tuner.observe_pairwise(sig, CHAMPION_ARM, 10e-3)
        assert tuner.state.champion(sig.key) is None
        assert tuner.promotions == 1

    def test_backend_promotion_skips_plan_install(self):
        tuner = make_tuner(backend_arms=True)
        left, right = operands()
        sig = signature_for(left, right, [(1, 0)], DESKTOP)
        backend_arms = [
            a for a in pairwise_candidates(sig, DESKTOP)
            if a.backend is not None
        ]
        if not backend_arms:
            pytest.skip("no alternate kernel backends detected")
        record = promote(tuner, sig, backend_arms[0].arm_id)
        assert record is not None and record.plan is None
        assert tuner.preferred_backend(sig) == backend_arms[0].backend


class TestWarmStart:
    def test_attach_replays_champions_and_weights(self, tmp_path):
        path = tmp_path / "state.json"
        runtime = ContractionRuntime(machine=DESKTOP)
        tuner = make_tuner(runtime, state_path=str(path))
        left, right = operands()
        runtime.contract(left, right, [(1, 0)])
        sig = signature_for(left, right, [(1, 0)], DESKTOP)
        arms = pairwise_candidates(sig, DESKTOP)
        plan_arm = next(
            a for a in arms if a.accumulator != "auto" or a.tile_size
        )
        record = promote(tuner, sig, plan_arm.arm_id)
        assert record is not None
        tuner.flush()

        runtime2 = ContractionRuntime(machine=DESKTOP)
        tuner2 = OnlineTuner(DESKTOP, TunerConfig(
            state_path=str(path), default_eligible=False,
        )).attach(runtime2)
        replayed = runtime2.plan_cache.peek_key(sig.key)
        assert replayed is not None
        assert replayed.tile_l == record.plan["tile_l"]
        assert tuner2.state.champion(sig.key).arm_id == plan_arm.arm_id


class TestRuntimeIntegration:
    def test_exploration_never_pollutes_champion_entry(self):
        runtime = ContractionRuntime(machine=DESKTOP)
        make_tuner(runtime, explore_rate=1.0)
        left, right = operands()
        reference = runtime.contract(left, right, [(1, 0)]).to_dense()
        sig = signature_for(left, right, [(1, 0)], DESKTOP)
        champion_before = runtime.plan_cache.peek_key(sig.key)
        max_diff = 0.0
        for _ in range(30):
            out = runtime.contract(left, right, [(1, 0)])
            max_diff = max(
                max_diff, float(np.abs(out.to_dense() - reference).max())
            )
        tuner = runtime.tuner
        assert tuner.metrics()["explorations"] > 0
        # Explored calls re-key (accumulator/tile overrides land in the
        # signature), so the champion's entry holds the champion's plan
        # unless an explicit promotion replaced it.
        champion_after = runtime.plan_cache.peek_key(sig.key)
        if tuner.state.champion(sig.key) is None:
            assert champion_after == champion_before
        scale = max(1.0, float(np.abs(reference).max()))
        assert max_diff <= 1e-8 * scale

    def test_override_calls_are_not_championable(self):
        runtime = ContractionRuntime(machine=DESKTOP)
        tuner = make_tuner(runtime, explore_rate=1.0)
        left, right = operands()
        for _ in range(10):
            runtime.contract(left, right, [(1, 0)], accumulator="sparse")
            runtime.contract(left, right, [(1, 0)], tile_size=16)
        assert tuner.metrics()["eligible_calls"] == 0
        assert tuner.metrics()["samples"] == 0

    def test_metrics_are_flat_counters(self):
        tuner = make_tuner()
        metrics = tuner.metrics()
        assert set(metrics) == {
            "eligible_calls", "explorations", "promotions", "rollbacks",
            "signatures", "samples", "champions",
        }
        assert all(isinstance(v, int) for v in metrics.values())
