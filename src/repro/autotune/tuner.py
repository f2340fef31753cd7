"""The online tuner: closes the measure → learn → promote loop in-process.

:class:`OnlineTuner` sits between the serving layer and the adaptive
runtime.  Per call it makes one cheap decision — *replay the champion,
or spend exploration budget on a challenger* — and per measurement it
advances two slower loops:

1. **bandit** (:mod:`repro.autotune.bandit`): wall-clock outcomes
   accumulate per (signature, arm) in the bounded
   :class:`~repro.autotune.measurements.MeasurementStore`;
2. **promotion**: a challenger that beats the champion by the margin
   over enough trials is installed into the
   :class:`~repro.runtime.plan_cache.PlanCache` (pairwise) or the
   preferred-optimizer table (network), with the displaced decision
   retained for automatic rollback.

Exploration never runs on deadline-carrying, degraded, or high-load
traffic: the serving layer brackets each request in
:meth:`OnlineTuner.serving` and the tuner refuses to explore outside an
eligible bracket (direct runtime users opt in via
``default_eligible``).  Explored executions are numerically identical
to champion executions — every arm varies *how* the contraction runs
(tile, accumulator, backend, path), never what it computes; the
differential suite fuzzes exactly this.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass

from repro.autotune.bandit import BanditConfig, BanditPolicy
from repro.autotune.candidates import (
    CHAMPION_ARM,
    Candidate,
    network_candidates,
    pairwise_candidates,
)
from repro.autotune.measurements import MeasurementStore
from repro.autotune.state import AutotuneState, ChampionRecord, PromotionEvent
from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec
from repro.machine.specs import MachineSpec
from repro.runtime.plan_cache import CachedPlan
from repro.runtime.signature import ProblemSignature

__all__ = ["TunerConfig", "OnlineTuner"]


@dataclass(frozen=True)
class TunerConfig:
    """Tunables of one :class:`OnlineTuner`.

    ``explore_rate`` is the fraction of *eligible* calls that may run a
    challenger; ``state_path`` enables persistence (unset, every
    restart relearns from scratch — ``FSTC602`` warns about exactly
    this); ``default_eligible`` is the exploration eligibility assumed
    when no serving bracket is active (the serve layer always
    brackets; direct runtime/bench users choose).
    """

    explore_rate: float = 0.05
    min_trials: int = 3
    promote_margin: float = 0.10
    rollback_margin: float = 0.25
    cooldown: int = 32
    max_signatures: int = 256
    max_arms: int = 16
    state_path: str | None = None
    backend_arms: bool = True
    default_eligible: bool = False
    seed: int = 0

    def __post_init__(self):
        self.bandit_config()  # range checks shared with the bandit

    def bandit_config(self) -> BanditConfig:
        return BanditConfig(
            explore_rate=self.explore_rate,
            min_trials=self.min_trials,
            promote_margin=self.promote_margin,
            rollback_margin=self.rollback_margin,
            cooldown=self.cooldown,
            seed=self.seed,
        )


class _Eligibility(threading.local):
    """Per-worker-thread serving bracket (set by the service)."""

    def __init__(self):
        self.active = False
        self.eligible = False


class OnlineTuner:
    """Per-signature bandit exploration with persistent learning."""

    def __init__(
        self,
        machine: MachineSpec,
        config: TunerConfig | None = None,
    ):
        self.machine = machine
        self.config = config if config is not None else TunerConfig()
        self.state = AutotuneState(
            machine.name,
            path=self.config.state_path,
            store=MeasurementStore(
                max_signatures=self.config.max_signatures,
                max_arms=self.config.max_arms,
            ),
        )
        self.policy = BanditPolicy(self.config.bandit_config())
        self._runtime = None
        self._lock = threading.RLock()
        self._context = _Eligibility()
        # arm enumerations, cached per signature key (bounded).
        self._pairwise_arms: dict[str, list[Candidate]] = {}
        self._network_arms: dict[str, list[Candidate]] = {}
        self.promotions = 0
        self.rollbacks = 0

    # -- wiring ---------------------------------------------------------

    def attach(self, runtime) -> "OnlineTuner":
        """Bind to a runtime: hook `contract()`, warm-start learning.

        Replays every persisted pairwise promotion into the plan cache,
        so the first request after a restart already runs the learned
        decisions.
        """
        self._runtime = runtime
        runtime.tuner = self
        for sig_key, record in list(self.state.champions.items()):
            if record.plan is not None:
                runtime.plan_cache.put_key(
                    sig_key, CachedPlan(**record.plan)
                )
        return self

    @property
    def runtime(self):
        return self._runtime

    def serving(self, *, eligible: bool) -> "_ServingBracket":
        """Context manager marking the current thread's request as
        eligible (or not) for exploration."""
        return _ServingBracket(self._context, eligible)

    def _eligible(self) -> bool:
        if self._context.active:
            return self._context.eligible
        return self.config.default_eligible

    # -- pairwise -------------------------------------------------------

    def _pairwise_candidates(self, signature: ProblemSignature) -> list[Candidate]:
        key = signature.key
        with self._lock:
            arms = self._pairwise_arms.get(key)
            if arms is None:
                arms = pairwise_candidates(
                    signature, self.machine,
                    backends=self.config.backend_arms,
                )
                if len(self._pairwise_arms) >= self.config.max_signatures:
                    self._pairwise_arms.pop(next(iter(self._pairwise_arms)))
                self._pairwise_arms[key] = arms
            return arms

    def route_pairwise(self, signature: ProblemSignature) -> Candidate | None:
        """The challenger to run instead of the champion, or ``None``.

        Called by :meth:`ContractionRuntime.contract` for default
        (championable) calls only; the returned candidate's overrides
        re-key the call so the explored plan never displaces the
        champion's cache entry.
        """
        if not self._eligible():
            return None
        arms = self._pairwise_candidates(signature)
        if not arms:
            return None
        key = signature.key
        with self._lock:
            chosen = self.policy.pick(
                key, [a.arm_id for a in arms], self.state.store.arms(key)
            )
        if chosen is None:
            return None
        return next(a for a in arms if a.arm_id == chosen)

    def preferred_backend(self, signature: ProblemSignature) -> str | None:
        """The promoted backend for champion calls on this signature."""
        record = self.state.champion(signature.key)
        if record is None:
            return None
        return record.candidate.backend

    def observe_pairwise(
        self,
        signature: ProblemSignature,
        arm_id: str | None,
        seconds: float,
    ) -> None:
        """Record one measured execution and advance the slow loops.

        ``arm_id`` is ``None`` for a champion (default-path) call —
        resolved to the currently-promoted arm so post-promotion
        behavior accrues to the arm that must defend the slot.
        """
        key = signature.key
        record = self.state.champion(key)
        if arm_id is None:
            arm_id = record.arm_id if record is not None else CHAMPION_ARM
        self.state.store.observe(key, arm_id, seconds)
        if record is not None:
            self._maybe_rollback(key, record, kind="pairwise")
        else:
            self._maybe_promote_pairwise(signature)

    def _maybe_promote_pairwise(self, signature: ProblemSignature) -> None:
        key = signature.key
        arms = self._pairwise_candidates(signature)
        with self._lock:
            decision = self.policy.promotion(
                key, CHAMPION_ARM, [a.arm_id for a in arms],
                self.state.store.arms(key),
            )
            if not decision.promote:
                return
            candidate = next(a for a in arms if a.arm_id == decision.arm_id)
            plan_doc = prev_doc = None
            if candidate.accumulator != "auto" or candidate.tile_size is not None:
                plan_doc, prev_doc = self._install_pairwise_plan(
                    signature, candidate
                )
            self.state.set_champion(key, ChampionRecord(
                arm_id=candidate.arm_id,
                candidate=candidate,
                baseline_mean=decision.champion_mean,
                plan=plan_doc,
                prev_plan=prev_doc,
            ))
            self.promotions += 1
            self.state.record_event(PromotionEvent(
                event="promote", sig_key=key, arm_id=candidate.arm_id,
                reason=decision.reason,
                challenger_mean=decision.challenger_mean,
                champion_mean=decision.champion_mean,
                timestamp=time.time(),
            ))

    def _install_pairwise_plan(
        self, signature: ProblemSignature, candidate: Candidate
    ) -> tuple[dict | None, dict | None]:
        """Put the challenger's Algorithm 7 decision under the champion
        key; returns ``(new_plan_doc, previous_plan_doc)``."""
        spec = ContractionSpec(
            signature.left_shape, signature.right_shape,
            list(signature.pairs),
        )
        plan = choose_plan(
            spec, signature.nnz_l, signature.nnz_r, self.machine,
            accumulator=candidate.accumulator,
            tile_size=candidate.tile_size,
        )
        cached = CachedPlan.from_plan(plan)
        prev = None
        if self._runtime is not None:
            old = self._runtime.plan_cache.peek_key(signature.key)
            prev = None if old is None else asdict(old)
            self._runtime.plan_cache.put_key(signature.key, cached)
        return asdict(cached), prev

    # -- network --------------------------------------------------------

    def _network_candidates(self, sig_key: str, network, champion: str):
        with self._lock:
            arms = self._network_arms.get(sig_key)
            if arms is None:
                arms = network_candidates(
                    network, self.machine, champion_optimizer=champion,
                )
                if len(self._network_arms) >= self.config.max_signatures:
                    self._network_arms.pop(next(iter(self._network_arms)))
                self._network_arms[sig_key] = arms
            return arms

    def route_network(
        self, sig_key: str, network, champion_optimizer: str
    ) -> Candidate | None:
        """The optimizer challenger to run for a network call, if any."""
        if not self._eligible():
            return None
        arms = self._network_candidates(sig_key, network, champion_optimizer)
        if not arms:
            return None
        with self._lock:
            chosen = self.policy.pick(
                sig_key, [a.arm_id for a in arms],
                self.state.store.arms(sig_key),
            )
        if chosen is None:
            return None
        return next(a for a in arms if a.arm_id == chosen)

    def preferred_network_optimizer(self, sig_key: str) -> str | None:
        record = self.state.champion(sig_key)
        if record is None or record.candidate.kind != "network":
            return None
        return record.candidate.optimizer

    def observe_network(
        self, sig_key: str, arm_id: str | None, seconds: float
    ) -> None:
        record = self.state.champion(sig_key)
        if arm_id is None:
            arm_id = record.arm_id if record is not None else CHAMPION_ARM
        self.state.store.observe(sig_key, arm_id, seconds)
        if record is not None:
            self._maybe_rollback(sig_key, record, kind="network")
        else:
            self._maybe_promote_network(sig_key)

    def _maybe_promote_network(self, sig_key: str) -> None:
        with self._lock:
            arms = self._network_arms.get(sig_key)
            if not arms:
                return
            decision = self.policy.promotion(
                sig_key, CHAMPION_ARM, [a.arm_id for a in arms],
                self.state.store.arms(sig_key),
            )
            if not decision.promote:
                return
            candidate = next(a for a in arms if a.arm_id == decision.arm_id)
            self.state.set_champion(sig_key, ChampionRecord(
                arm_id=candidate.arm_id,
                candidate=candidate,
                baseline_mean=decision.champion_mean,
            ))
            self.promotions += 1
            self.state.record_event(PromotionEvent(
                event="promote", sig_key=sig_key, arm_id=candidate.arm_id,
                reason=decision.reason,
                challenger_mean=decision.challenger_mean,
                champion_mean=decision.champion_mean,
                timestamp=time.time(),
            ))

    # -- shared slow loops ----------------------------------------------

    def _maybe_rollback(
        self, sig_key: str, record: ChampionRecord, *, kind: str
    ) -> None:
        stats = self.state.store.stats_for(sig_key, record.arm_id)
        if not self.policy.should_rollback(stats, record.baseline_mean):
            return
        with self._lock:
            current = self.state.champion(sig_key)
            if current is None or current.arm_id != record.arm_id:
                return  # someone else already rolled back / re-promoted
            self.state.clear_champion(sig_key)
            if (
                kind == "pairwise"
                and self._runtime is not None
                and record.prev_plan is not None
            ):
                self._runtime.plan_cache.put_key(
                    sig_key, CachedPlan(**record.prev_plan)
                )
            self.policy.note_cooldown(sig_key, record.arm_id)
            self.rollbacks += 1
            self.state.record_event(PromotionEvent(
                event="rollback", sig_key=sig_key, arm_id=record.arm_id,
                reason=(
                    f"recent mean {stats.recent_mean:.3e}s regressed past "
                    f"the pre-promotion champion "
                    f"{record.baseline_mean:.3e}s + "
                    f"{self.config.rollback_margin:.0%}"
                ),
                challenger_mean=stats.recent_mean,
                champion_mean=record.baseline_mean,
                timestamp=time.time(),
            ))

    # -- persistence / metrics ------------------------------------------

    def flush(self) -> str | None:
        """Persist the learned state (no-op without a ``state_path``)."""
        return self.state.flush()

    def metrics(self) -> dict:
        """Associative counters (mergeable across shards like the SLO
        metrics: every value is a count that sums)."""
        policy = self.policy.stats()
        store = self.state.store.summary()
        return {
            "eligible_calls": policy["eligible_calls"],
            "explorations": policy["explorations"],
            "promotions": self.promotions,
            "rollbacks": self.rollbacks,
            "signatures": store["signatures"],
            "samples": store["samples"],
            "champions": len(self.state.champions),
        }


class _ServingBracket:
    """Context manager flipping one thread's eligibility flag."""

    def __init__(self, context: _Eligibility, eligible: bool):
        self._context = context
        self._eligible = bool(eligible)
        self._saved: tuple[bool, bool] | None = None

    def __enter__(self):
        self._saved = (self._context.active, self._context.eligible)
        self._context.active = True
        self._context.eligible = self._eligible
        return self

    def __exit__(self, *exc):
        active, eligible = self._saved
        self._context.active = active
        self._context.eligible = eligible

