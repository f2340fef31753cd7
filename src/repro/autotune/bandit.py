"""Bandit policy: budgeted exploration, margin-gated promotion, rollback.

The explorer is an epsilon-greedy multi-armed bandit per signature with
three production guardrails layered on top of the textbook policy:

* **budgeted exploration** — at most ``explore_rate`` of *eligible*
  calls explore, enforced by a global token ledger rather than
  per-call coin flips alone, so a burst of eligible traffic cannot
  transiently explore far above the budget;
* **margin-gated promotion** — a challenger becomes champion only
  after ``min_trials`` measurements with a mean at least
  ``promote_margin`` below the champion's mean (both sides must have
  enough trials; ties and noise never flip the champion);
* **automatic rollback** — a promoted challenger that regresses (its
  trailing-window mean exceeds the pre-promotion champion mean by
  ``rollback_margin``) is demoted, the old decision restored, and the
  offending arm frozen out for ``cooldown`` subsequent samples.

Within the exploration budget, arm selection is optimistic: arms with
fewer than ``min_trials`` samples are tried round-robin first (every
arm earns a fair hearing), after which the bandit spends its remaining
budget on the best-mean challenger — "occasionally execute the
second-best candidate", with *second-best* defined by measurement once
measurements exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.autotune.measurements import ArmStats

if TYPE_CHECKING:
    from repro.autotune.tuner import TunerConfig

__all__ = ["BanditPolicy", "PromotionDecision"]


@dataclass
class PromotionDecision:
    """Why (or why not) a challenger may replace the champion now."""

    promote: bool
    arm_id: str = ""
    reason: str = ""
    challenger_mean: float = 0.0
    champion_mean: float = 0.0

    @property
    def improvement(self) -> float:
        """Fractional win over the champion (positive = faster)."""
        if self.champion_mean <= 0:
            return 0.0
        return 1.0 - self.challenger_mean / self.champion_mean


class BanditPolicy:
    """Stateless-ish arm selection over a measurement snapshot.

    The policy owns only the exploration ledger, its RNG, and the
    per-arm cooldown counters; all measured knowledge lives in the
    :class:`~repro.autotune.measurements.MeasurementStore` snapshot the
    caller passes in, which is what makes shard-merged stores usable
    directly.  Its knobs are the guardrail fields of a
    :class:`~repro.autotune.tuner.TunerConfig` (``explore_rate``,
    ``min_trials``, ``promote_margin``, ``rollback_margin``,
    ``cooldown``, ``seed``), range-checked at that config's
    construction.
    """

    def __init__(self, config: TunerConfig):
        self.config = config
        self._rng = np.random.default_rng(self.config.seed)
        # Exploration ledger: eligible calls accrue fractional tokens,
        # each exploration spends one whole token.
        self._tokens = 0.0
        self._cooldowns: dict[tuple[str, str], int] = {}
        self.explorations = 0
        self.eligible_calls = 0

    # -- exploration ----------------------------------------------------

    def note_cooldown(self, sig_key: str, arm_id: str) -> None:
        """Freeze one arm out of exploration for ``cooldown`` picks."""
        if self.config.cooldown > 0:
            self._cooldowns[(sig_key, arm_id)] = self.config.cooldown

    def _cooled(self, sig_key: str, arm_id: str) -> bool:
        key = (sig_key, arm_id)
        left = self._cooldowns.get(key, 0)
        if left <= 0:
            return False
        left -= 1
        if left <= 0:
            self._cooldowns.pop(key, None)
        else:
            self._cooldowns[key] = left
        return True

    def in_cooldown(self, sig_key: str, arm_id: str) -> bool:
        """Read-only cooldown check (no decrement) — promotion gate."""
        return self._cooldowns.get((sig_key, arm_id), 0) > 0

    def pick(
        self,
        sig_key: str,
        challenger_ids: list[str],
        stats: dict[str, ArmStats],
    ) -> str | None:
        """The arm to explore on this call, or ``None`` to stay champion.

        Call only for *eligible* traffic (low load, no deadline, not
        degraded) — the policy then applies the rate budget on top.
        """
        self.eligible_calls += 1
        self._tokens = min(
            self._tokens + self.config.explore_rate,
            max(1.0, 4 * self.config.explore_rate),
        )
        if not challenger_ids or self._tokens < 1.0:
            return None
        if self._rng.random() >= 0.5:
            # The ledger alone enforces the budget; the coin only
            # de-phases exploration from workload periodicity (without
            # it every 1/rate-th call would explore, in lockstep).
            return None
        open_arms = [
            a for a in challenger_ids if not self._cooled(sig_key, a)
        ]
        if not open_arms:
            return None
        # Fair hearing first: the least-tried arm below the trials floor.
        under = [
            a for a in open_arms
            if (stats.get(a).count if a in stats else 0)
            < self.config.min_trials
        ]
        if under:
            chosen = min(
                under, key=lambda a: stats[a].count if a in stats else 0
            )
        else:
            chosen = min(open_arms, key=lambda a: stats[a].mean)
        self._tokens -= 1.0
        self.explorations += 1
        return chosen

    # -- promotion / rollback -------------------------------------------

    def promotion(
        self,
        sig_key: str,
        champion_id: str,
        challenger_ids: list[str],
        stats: dict[str, ArmStats],
    ) -> PromotionDecision:
        """Whether any challenger has earned the champion's slot.

        Arms in rollback cooldown are ineligible: a freshly-demoted
        arm's *lifetime* mean still looks great (its regression is only
        in the trailing window), so without this gate rollback would
        oscillate promote/rollback until the lifetime mean caught up.
        """
        cfg = self.config
        champ = stats.get(champion_id)
        if champ is None or champ.count < cfg.min_trials:
            return PromotionDecision(
                False, reason="champion has too few measurements"
            )
        best_id, best = None, None
        for arm_id in challenger_ids:
            s = stats.get(arm_id)
            if s is None or s.count < cfg.min_trials:
                continue
            if self.in_cooldown(sig_key, arm_id):
                continue
            if best is None or s.mean < best.mean:
                best_id, best = arm_id, s
        if best is None:
            return PromotionDecision(
                False, reason="no challenger has enough measurements"
            )
        threshold = champ.mean * (1.0 - cfg.promote_margin)
        if best.mean >= threshold:
            return PromotionDecision(
                False, arm_id=best_id,
                reason=(
                    f"best challenger mean {best.mean:.3e}s does not beat "
                    f"the champion {champ.mean:.3e}s by the "
                    f"{cfg.promote_margin:.0%} margin"
                ),
                challenger_mean=best.mean, champion_mean=champ.mean,
            )
        return PromotionDecision(
            True, arm_id=best_id,
            reason=(
                f"challenger mean {best.mean:.3e}s beats champion "
                f"{champ.mean:.3e}s by more than {cfg.promote_margin:.0%} "
                f"over {best.count} trials"
            ),
            challenger_mean=best.mean, champion_mean=champ.mean,
        )

    def should_rollback(
        self, promoted: ArmStats | None, baseline_mean: float
    ) -> bool:
        """Whether a promoted arm's recent behavior demands rollback.

        ``baseline_mean`` is the pre-promotion champion mean recorded in
        the promotion event; the trailing window, not lifetime history,
        is judged — a regression must show up in *current* behavior.
        """
        if promoted is None or baseline_mean <= 0:
            return False
        if len(promoted.recent) < min(self.config.min_trials, 2):
            return False
        limit = baseline_mean * (1.0 + self.config.rollback_margin)
        return promoted.recent_mean > limit

    def stats(self) -> dict:
        return {
            "eligible_calls": self.eligible_calls,
            "explorations": self.explorations,
            "cooldowns_active": len(self._cooldowns),
        }
