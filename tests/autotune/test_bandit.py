"""Bandit policy: budget, fair hearing, margin gate, rollback, cooldown."""

import pytest

from repro.autotune.bandit import BanditPolicy
from repro.autotune.measurements import ArmStats
from repro.autotune.tuner import TunerConfig
from repro.errors import ConfigError


def arm(count, mean, recent=None):
    s = ArmStats(count=count, mean=mean)
    s.recent = list(recent if recent is not None else [mean] * min(count, 4))
    return s


class TestConfig:
    def test_rate_range_enforced(self):
        with pytest.raises(ConfigError):
            TunerConfig(explore_rate=1.5)
        with pytest.raises(ConfigError):
            TunerConfig(explore_rate=-0.1)

    def test_trials_and_margins_enforced(self):
        with pytest.raises(ConfigError):
            TunerConfig(min_trials=0)
        with pytest.raises(ConfigError):
            TunerConfig(promote_margin=-0.1)
        with pytest.raises(ConfigError):
            TunerConfig(cooldown=-1)


class TestExplorationBudget:
    def test_realized_rate_tracks_budget(self):
        policy = BanditPolicy(TunerConfig(explore_rate=0.10, seed=3))
        stats = {"a": arm(5, 1.0), "b": arm(5, 2.0)}
        explored = sum(
            policy.pick("s", ["a", "b"], stats) is not None
            for _ in range(2000)
        )
        # The token ledger caps at the budget; the coin halves nothing
        # (it only de-phases), so the realized rate sits near 10%.
        assert 0.06 <= explored / 2000 <= 0.10

    def test_zero_rate_never_explores(self):
        policy = BanditPolicy(TunerConfig(explore_rate=0.0))
        stats = {"a": arm(5, 1.0)}
        assert all(
            policy.pick("s", ["a"], stats) is None for _ in range(100)
        )

    def test_no_challengers_no_exploration(self):
        policy = BanditPolicy(TunerConfig(explore_rate=1.0))
        assert policy.pick("s", [], {}) is None

    def test_fair_hearing_before_best_mean(self):
        # Arm "b" is below the trials floor -> it must be tried before
        # the established best-mean arm "a".
        policy = BanditPolicy(TunerConfig(explore_rate=1.0, min_trials=3))
        stats = {"a": arm(10, 0.5), "b": arm(1, 0.1)}
        picks = {
            policy.pick("s", ["a", "b"], stats)
            for _ in range(50)
        } - {None}
        assert picks == {"b"}

    def test_best_mean_after_floor(self):
        policy = BanditPolicy(TunerConfig(explore_rate=1.0, min_trials=2))
        stats = {"a": arm(5, 0.5), "b": arm(5, 0.2)}
        picks = {
            policy.pick("s", ["a", "b"], stats) for _ in range(50)
        } - {None}
        assert picks == {"b"}


class TestPromotion:
    def test_needs_champion_trials(self):
        policy = BanditPolicy(TunerConfig(min_trials=3))
        stats = {"model": arm(1, 1.0), "ch": arm(5, 0.1)}
        assert not policy.promotion("s", "model", ["ch"], stats).promote

    def test_needs_challenger_trials(self):
        policy = BanditPolicy(TunerConfig(min_trials=3))
        stats = {"model": arm(5, 1.0), "ch": arm(2, 0.1)}
        assert not policy.promotion("s", "model", ["ch"], stats).promote

    def test_margin_gate(self):
        policy = BanditPolicy(TunerConfig(min_trials=2, promote_margin=0.10))
        stats = {"model": arm(5, 1.0), "ch": arm(5, 0.95)}
        assert not policy.promotion("s", "model", ["ch"], stats).promote
        stats["ch"] = arm(5, 0.80)
        decision = policy.promotion("s", "model", ["ch"], stats)
        assert decision.promote and decision.arm_id == "ch"
        assert decision.improvement == pytest.approx(0.20)

    def test_best_challenger_wins(self):
        policy = BanditPolicy(TunerConfig(min_trials=2, promote_margin=0.10))
        stats = {"model": arm(5, 1.0), "a": arm(5, 0.6), "b": arm(5, 0.4)}
        assert policy.promotion("s", "model", ["a", "b"], stats).arm_id == "b"

    def test_cooldown_blocks_repromotion(self):
        # A demoted arm's lifetime mean still looks great; the cooldown
        # must keep it out of promotion or promote/rollback oscillates.
        policy = BanditPolicy(TunerConfig(min_trials=2, promote_margin=0.10,
                                          cooldown=16))
        stats = {"model": arm(5, 1.0), "ch": arm(8, 0.3)}
        policy.note_cooldown("s", "ch")
        assert not policy.promotion("s", "model", ["ch"], stats).promote
        assert policy.in_cooldown("s", "ch")
        # A different signature's identical arm id is unaffected.
        assert policy.promotion("other", "model", ["ch"], stats).promote


class TestRollback:
    def test_regression_detected_in_trailing_window(self):
        policy = BanditPolicy(TunerConfig(min_trials=2, rollback_margin=0.25))
        promoted = arm(20, 0.5, recent=[2.0, 2.0, 2.0])
        assert policy.should_rollback(promoted, baseline_mean=1.0)

    def test_healthy_promotion_not_rolled_back(self):
        policy = BanditPolicy(TunerConfig(min_trials=2, rollback_margin=0.25))
        promoted = arm(20, 0.5, recent=[0.5, 0.6, 0.5])
        assert not policy.should_rollback(promoted, baseline_mean=1.0)

    def test_needs_recent_samples(self):
        policy = BanditPolicy(TunerConfig(min_trials=3, rollback_margin=0.25))
        promoted = arm(20, 0.5, recent=[9.0])
        assert not policy.should_rollback(promoted, baseline_mean=1.0)

    def test_no_stats_or_baseline_is_noop(self):
        policy = BanditPolicy(TunerConfig())
        assert not policy.should_rollback(None, baseline_mean=1.0)
        assert not policy.should_rollback(arm(5, 2.0), baseline_mean=0.0)
