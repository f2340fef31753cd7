"""Calibration tests: predictions must tighten toward measurements."""

import numpy as np
import pytest

from repro.analysis.counters import Counters
from repro.machine.cost_model import (
    DEFAULT_WEIGHTS,
    AccessCostModel,
    CostWeights,
    ProblemShape,
    fit_cost_weights,
)
from repro.machine.specs import DESKTOP
from repro.runtime import ContractionRuntime
from repro.runtime.calibrator import MAX_SAMPLES, CostCalibrator, CostSample


class TestCostWeights:
    def test_defaults_match_class_constants(self):
        w = DEFAULT_WEIGHTS
        assert w.query_cost == AccessCostModel.QUERY_COST
        assert w.element_cost == AccessCostModel.ELEMENT_COST
        assert w.update_hit_cost == AccessCostModel.UPDATE_HIT_COST
        assert w.update_miss_cost == AccessCostModel.UPDATE_MISS_COST

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostWeights(query_cost=-1.0)

    def test_scaled(self):
        w = DEFAULT_WEIGHTS.scaled(2.0)
        assert w.query_cost == 2 * DEFAULT_WEIGHTS.query_cost
        assert w.ghz == DEFAULT_WEIGHTS.ghz

    def test_model_uses_injected_weights(self):
        shape = ProblemShape(L=100, R=100, C=50, nnz_L=500, nnz_R=500)
        base = AccessCostModel(shape, DESKTOP)
        doubled = AccessCostModel(shape, DESKTOP,
                                  weights=DEFAULT_WEIGHTS.scaled(2.0))
        est = base.co()
        t1 = base.estimated_seconds(est, 1000.0)
        t2 = doubled.estimated_seconds(est, 1000.0)
        assert t2 == pytest.approx(2 * t1)


class TestFit:
    def test_scale_fit_recovers_known_factor(self):
        # Synthetic machine exactly 5x slower than the base assumptions.
        rng = np.random.default_rng(7)
        samples, seconds = [], []
        for _ in range(3):
            q, v, u = rng.uniform(1e3, 1e6, size=3)
            samples.append((q, v, u, True))
            seconds.append(5.0 * DEFAULT_WEIGHTS.seconds(
                q, v, u, workspace_fits=True))
        fitted = fit_cost_weights(samples, seconds)
        assert fitted.query_cost == pytest.approx(
            5.0 * DEFAULT_WEIGHTS.query_cost, rel=1e-9)

    def test_full_fit_recovers_weights(self):
        truth = CostWeights(query_cost=45.0, element_cost=2.0,
                            update_hit_cost=3.0, update_miss_cost=90.0)
        rng = np.random.default_rng(11)
        samples, seconds = [], []
        for k in range(12):
            q, v, u = rng.uniform(1e3, 1e6, size=3)
            fits = bool(k % 2)
            samples.append((q, v, u, fits))
            seconds.append(truth.seconds(q, v, u, workspace_fits=fits))
        fitted = fit_cost_weights(samples, seconds)
        assert fitted.query_cost == pytest.approx(truth.query_cost, rel=1e-6)
        assert fitted.element_cost == pytest.approx(truth.element_cost, rel=1e-6)
        assert fitted.update_hit_cost == pytest.approx(
            truth.update_hit_cost, rel=1e-6)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_cost_weights([], [])


class TestCalibratorAcceptance:
    def test_one_pass_on_registry_case_shrinks_error(self):
        """Acceptance criterion: after one calibration pass on a registry
        case, predicted-vs-measured error shrinks vs the uncalibrated
        DESKTOP spec."""
        from repro.data.registry import get_case

        left, right, pairs = get_case("uber_123").load()
        runtime = ContractionRuntime(machine=DESKTOP)
        calibrator = CostCalibrator(machine=DESKTOP)
        for _ in range(3):
            call = Counters()
            _, stats = runtime.contract(
                left, right, pairs, counters=call, return_stats=True
            )
            calibrator.observe(stats.plan, stats, call)
        assert calibrator.samples, "instrumented runs must produce samples"
        calibrator.fit()
        uncalibrated, calibrated = calibrator.improvement()
        assert calibrated < uncalibrated
        # The scale fit must land predictions within the measured order
        # of magnitude (the uncalibrated constants are off by >10x on
        # this pure-Python host).
        assert calibrated < 1.0

    def test_refit_every_auto_fits(self):
        sample = CostSample(1e4, 1e5, 1e5, True, 0.01)
        cal = CostCalibrator(machine=DESKTOP, refit_every=2)
        assert cal.weights is None
        for plan_stats in range(2):
            cal.samples.append(sample)
        # observe() drives the cadence; emulate it through fit directly.
        cal.fit()
        assert cal.weights is not None
        assert cal.calibrated is cal.weights

    def test_model_for_carries_calibration(self):
        cal = CostCalibrator(machine=DESKTOP)
        cal.samples.append(CostSample(1e4, 1e5, 1e5, True, 0.5))
        cal.fit()
        shape = ProblemShape(L=100, R=100, C=50, nnz_L=500, nnz_R=500)
        model = cal.model_for(shape)
        assert model.weights == cal.calibrated
        assert model.weights != DEFAULT_WEIGHTS


class TestSampleHygiene:
    """Corrupt measurements must never reach (or poison) the fit."""

    def _observe(self, cal, seconds):
        from types import SimpleNamespace

        plan = SimpleNamespace(tile_l=32, tile_r=32)
        stats = SimpleNamespace(kernel_seconds=seconds)
        counters = SimpleNamespace(
            hash_queries=1e4, data_volume=1e5, accum_updates=1e5)
        return cal.observe(plan, stats, counters)

    @pytest.mark.parametrize(
        "seconds", [float("nan"), float("inf"), -float("inf"), 0.0, -0.5])
    def test_observe_rejects_bad_timings(self, seconds):
        cal = CostCalibrator(machine=DESKTOP)
        sample = self._observe(cal, seconds)
        assert not sample.usable
        assert cal.samples == []

    def test_observe_rejects_nonfinite_counters(self):
        from types import SimpleNamespace

        cal = CostCalibrator(machine=DESKTOP)
        plan = SimpleNamespace(tile_l=32, tile_r=32)
        stats = SimpleNamespace(kernel_seconds=0.01)
        counters = SimpleNamespace(
            hash_queries=float("inf"), data_volume=1e5, accum_updates=1e5)
        cal.observe(plan, stats, counters)
        assert cal.samples == []

    def test_all_zero_features_not_usable(self):
        assert not CostSample(0.0, 0.0, 0.0, True, 0.01).usable

    def test_fit_skips_directly_appended_corrupt_samples(self):
        cal = CostCalibrator(machine=DESKTOP)
        cal.samples.append(CostSample(1e4, 1e5, 1e5, True, 0.01))
        cal.samples.append(CostSample(1e4, 1e5, 1e5, True, float("nan")))
        cal.samples.append(
            CostSample(float("inf"), 1e5, 1e5, True, 0.01))
        fitted = cal.fit()
        assert all(np.isfinite([
            fitted.query_cost, fitted.element_cost,
            fitted.update_hit_cost, fitted.update_miss_cost,
        ]))
        # relative_errors must skip the corrupt rows too.
        assert len(cal.relative_errors()) == 1

    def test_fit_with_no_usable_samples_raises(self):
        cal = CostCalibrator(machine=DESKTOP)
        with pytest.raises(ValueError):
            cal.fit()
        cal.samples.append(CostSample(1e4, 1e5, 1e5, True, float("nan")))
        with pytest.raises(ValueError):
            cal.fit()
        assert cal.weights is None
        assert cal.calibrated is cal.base

    def test_window_caps_samples_and_keeps_refit_cadence(self):
        cal = CostCalibrator(machine=DESKTOP, refit_every=8)
        refits = []
        fit = cal.fit
        cal.fit = lambda: refits.append(cal.observed) or fit()
        total = MAX_SAMPLES + 3 * 8
        for k in range(total):
            self._observe(cal, 1e-3 * (1 + k % 5))
            self._observe(cal, float("nan"))  # never counts toward a refit
        assert len(cal.samples) == MAX_SAMPLES
        assert cal.samples[-1].seconds == pytest.approx(1e-3 * (1 + (total - 1) % 5))
        assert refits == list(range(8, total + 1, 8))
        assert cal.weights is not None


class TestDegenerateFits:
    """Zero, one, and rank-deficient sample sets must stay well-posed."""

    def test_single_sample_scale_fit(self):
        sample = (1e4, 1e5, 1e5, True)
        truth = 3.0 * DEFAULT_WEIGHTS.seconds(*sample[:3],
                                              workspace_fits=True)
        fitted = fit_cost_weights([sample], [truth])
        assert fitted.query_cost == pytest.approx(
            3.0 * DEFAULT_WEIGHTS.query_cost)

    def test_identical_samples_fall_back_to_scale(self):
        # >= 4 samples but a rank-1 design matrix: the full refit must
        # decline and return the (well-posed) scale fit.
        sample = (1e4, 1e5, 1e5, True)
        t = 2.0 * DEFAULT_WEIGHTS.seconds(*sample[:3], workspace_fits=True)
        fitted = fit_cost_weights([sample] * 6, [t] * 6)
        assert fitted.query_cost == pytest.approx(
            2.0 * DEFAULT_WEIGHTS.query_cost)
        assert fitted.element_cost == pytest.approx(
            2.0 * DEFAULT_WEIGHTS.element_cost)

    def test_zero_feature_rows_yield_base_weights(self):
        fitted = fit_cost_weights([(0.0, 0.0, 0.0, True)], [0.01])
        assert fitted.query_cost == DEFAULT_WEIGHTS.query_cost

    def test_nonfinite_measurement_cannot_blow_up_alpha(self):
        fitted = fit_cost_weights(
            [(1e4, 1e5, 1e5, True)], [float("nan")])
        assert np.isfinite(fitted.query_cost)
        assert fitted.query_cost == DEFAULT_WEIGHTS.query_cost
