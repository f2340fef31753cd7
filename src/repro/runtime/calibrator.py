"""Cost-model calibration from measured contractions.

The analytic model (`repro.machine.cost_model`) converts data-access
counts into time through hard-coded per-event costs — assumptions about
a machine nobody measured.  The calibrator measures how far off they
are: each run a caller feeds it contributes one ``(access counts,
measured kernel seconds)`` sample, and :meth:`CostCalibrator.fit`
refits the :class:`~repro.machine.cost_model.CostWeights` so predictions
converge toward the observed host instead of the DESKTOP/SERVER specs.
It is a standalone fitter: ``repro batch`` feeds it and prints the fit,
while planning (Algorithm 7) keeps the machine's fixed parameters.

The fit is evaluated by :meth:`CostCalibrator.relative_errors`: the
predicted-vs-measured error under the calibrated weights must shrink
against the uncalibrated baseline (asserted by the runtime tests, not
just logged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analysis.counters import Counters
from repro.core.plan import Plan
from repro.core.tiled_co import ContractionStats
from repro.machine.cost_model import (
    DEFAULT_WEIGHTS,
    AccessCostModel,
    CostWeights,
    ProblemShape,
    fit_cost_weights,
)
from repro.machine.specs import MachineSpec

__all__ = ["CostSample", "CostCalibrator", "MAX_SAMPLES"]

#: How many of the most recent usable samples :meth:`CostCalibrator.observe`
#: keeps: a long-lived runtime would otherwise pay a growing list and an
#: ever larger refit on its warm calls.
MAX_SAMPLES = 256


@dataclass(frozen=True)
class CostSample:
    """One measured kernel execution, reduced to model terms."""

    queries: float
    data_volume: float
    accum_updates: float
    workspace_fits: bool
    seconds: float

    @property
    def features(self) -> tuple[float, float, float, bool]:
        return (self.queries, self.data_volume, self.accum_updates,
                self.workspace_fits)

    @property
    def usable(self) -> bool:
        """Finite, positive-time, non-empty — fit-worthy.

        A ``nan`` from a broken clock or an ``inf`` from a counter
        overflow must never reach the least squares: one such row turns
        every fitted weight into ``nan``/``inf`` and the *calibrated*
        model then misprices every plan until restart.
        """
        return (
            math.isfinite(self.seconds) and self.seconds > 0
            and math.isfinite(self.queries)
            and math.isfinite(self.data_volume)
            and math.isfinite(self.accum_updates)
            and (self.queries > 0 or self.data_volume > 0
                 or self.accum_updates > 0)
        )


@dataclass
class CostCalibrator:
    """Accumulates measured runs and refits the cost-model constants.

    Parameters
    ----------
    machine:
        The spec whose assumptions are being calibrated (used for the
        workspace-fits classification of each sample).
    base:
        Starting weights; defaults to the model's hard-coded constants.
    refit_every:
        Automatic refit cadence: after every N observed usable samples
        the calibrated weights are recomputed over the last
        :data:`MAX_SAMPLES`.  ``fit()`` can always be called explicitly.
    """

    machine: MachineSpec
    base: CostWeights = DEFAULT_WEIGHTS
    refit_every: int = 8
    samples: list[CostSample] = field(default_factory=list)
    weights: CostWeights | None = None
    observed: int = field(default=0, init=False, repr=False)

    def observe(
        self,
        plan: Plan,
        stats: ContractionStats,
        counters: Counters,
        *,
        seconds: float | None = None,
    ) -> CostSample:
        """Record one executed contraction.

        ``counters`` must cover exactly this run (the runtime hands each
        call a private tally).  ``seconds`` defaults to the measured
        kernel phase (co-iteration + accumulation + drain), the part the
        access-cost model actually describes.
        """
        measured = stats.kernel_seconds if seconds is None else float(seconds)
        ws_cells = float(plan.tile_l) * plan.tile_r
        fits = ws_cells * self.machine.word_bytes <= self.machine.l3_bytes_per_core
        sample = CostSample(
            queries=float(counters.hash_queries),
            data_volume=float(counters.data_volume),
            accum_updates=float(counters.accum_updates),
            workspace_fits=fits,
            seconds=measured,
        )
        if sample.usable:
            self.samples.append(sample)
            del self.samples[:-MAX_SAMPLES]
            self.observed += 1
            if self.refit_every and self.observed % self.refit_every == 0:
                self.fit()
        return sample

    def fit(self) -> CostWeights:
        """Refit weights from all recorded samples (see module doc).

        Non-usable samples (non-finite timings or counters, appended to
        ``samples`` directly rather than through :meth:`observe`) are
        skipped, never fitted — a corrupt row must not poison the
        weights every later prediction uses.
        """
        usable = [s for s in self.samples if s.usable]
        if not usable:
            raise ValueError("no usable samples recorded; nothing to fit")
        self.weights = fit_cost_weights(
            [s.features for s in usable],
            [s.seconds for s in usable],
            base=self.base,
        )
        return self.weights

    @property
    def calibrated(self) -> CostWeights:
        """Best current weights: fitted if available, else the base."""
        return self.weights if self.weights is not None else self.base

    # -- evaluation -----------------------------------------------------

    def _predicted(self, sample: CostSample, weights: CostWeights) -> float:
        return weights.seconds(
            sample.queries, sample.data_volume, sample.accum_updates,
            workspace_fits=sample.workspace_fits,
        )

    def relative_errors(self, weights: CostWeights | None = None) -> list[float]:
        """Per-sample ``|predicted - measured| / measured`` under ``weights``
        (default: the calibrated weights)."""
        weights = weights if weights is not None else self.calibrated
        return [
            abs(self._predicted(s, weights) - s.seconds) / s.seconds
            for s in self.samples
            if s.usable
        ]

    def mean_relative_error(self, weights: CostWeights | None = None) -> float:
        errors = self.relative_errors(weights)
        return sum(errors) / len(errors) if errors else 0.0

    def improvement(self) -> tuple[float, float]:
        """``(uncalibrated_error, calibrated_error)`` over the samples."""
        return (
            self.mean_relative_error(self.base),
            self.mean_relative_error(self.calibrated),
        )

    def model_for(self, shape: ProblemShape) -> AccessCostModel:
        """An :class:`AccessCostModel` carrying the calibrated weights."""
        return AccessCostModel(shape, self.machine, weights=self.calibrated)
