"""Online autotuning: bandit plan exploration under live traffic.

The runtime replays whatever plan the model first chose for a problem
signature.  The autotuner spends a small budget of eligible live
traffic on challenger plans (alternate accumulator, tile size, backend,
or network path optimizer), accumulates the wall-clock outcomes per
problem signature, and promotes a challenger into the plan cache only
once it beats the champion by a configured margin — with automatic
rollback and persistent learned state so restarts and shard workers
warm-start instead of relearning.

Layering::

    measurements  bounded per-(signature, arm) moments; associative merge
    candidates    arm enumeration (what *can* be explored per problem)
    bandit        budgeted epsilon-greedy pick / promotion / rollback
    state         versioned JSON persistence (store, champions, history)
    tuner         the orchestrator wired into runtime + serve

See ``docs/autotune.md`` for the serving-side guardrails.
"""

from repro.autotune.bandit import BanditPolicy, PromotionDecision
from repro.autotune.candidates import (
    CHAMPION_ARM,
    Candidate,
    network_candidates,
    pairwise_candidates,
    rank_network_optimizers,
)
from repro.autotune.measurements import ArmStats, MeasurementStore
from repro.autotune.state import AutotuneState, ChampionRecord, PromotionEvent
from repro.autotune.tuner import OnlineTuner, TunerConfig

__all__ = [
    "ArmStats",
    "AutotuneState",
    "BanditPolicy",
    "CHAMPION_ARM",
    "Candidate",
    "ChampionRecord",
    "MeasurementStore",
    "OnlineTuner",
    "PromotionDecision",
    "PromotionEvent",
    "TunerConfig",
    "network_candidates",
    "pairwise_candidates",
    "rank_network_optimizers",
]
