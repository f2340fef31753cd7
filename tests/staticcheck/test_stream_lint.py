"""Unit tests for the FSTC7xx streaming lints."""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigError
from repro.machine.specs import DESKTOP
from repro.serve import ServiceConfig
from repro.staticcheck import audit_code_registry, lint_dependency_tracker
from repro.staticcheck.diagnostics import CODES
from repro.streaming import DependencyTracker, IncrementalEngine


def codes(findings):
    return sorted(d.code for d in findings)


def config(**knobs) -> ServiceConfig:
    return ServiceConfig(**knobs)


class TestTrackerLint:
    def test_clean_tracker_has_no_findings(self):
        tracker = DependencyTracker()
        tracker.register("out", "output", {"a": None})
        assert lint_dependency_tracker(tracker) == []

    def test_stale_registered_artifact_is_fstc701(self):
        tracker = DependencyTracker()
        tracker.register("out", "output", {"a": None})
        tracker.bump("a")
        findings = lint_dependency_tracker(tracker, location="unit test")
        assert codes(findings) == ["FSTC701"]
        assert CODES["FSTC701"][0] == "error"
        assert "unit test" in findings[0].location

    def test_refresh_clears_fstc701(self):
        tracker = DependencyTracker()
        tracker.register("out", "output", {"a": None})
        tracker.bump("a")
        tracker.refresh("out")
        assert lint_dependency_tracker(tracker) == []

    def test_depless_artifact_is_fstc702(self):
        # The real tracker refuses empty deps at register time, so the
        # lint targets duck-typed stand-ins (hand-rolled trackers).
        orphan = SimpleNamespace(
            artifact_id="x", kind="output", deps={}, fresh=True
        )
        fake = SimpleNamespace(artifacts=lambda: [orphan])
        findings = lint_dependency_tracker(fake)
        assert codes(findings) == ["FSTC702"]
        assert CODES["FSTC702"][0] == "error"

    def test_engine_tracker_lints_clean_end_to_end(self):
        from repro.data.random_tensors import random_coo

        engine = IncrementalEngine()
        engine.register(
            "s",
            random_coo((64, 8), nnz=60, seed=0),
            random_coo((8, 8), nnz=20, seed=1),
            [(1, 0)],
        )
        assert lint_dependency_tracker(engine.tracker) == []


class TestConfigLint:
    """FSTC703/FSTC704 are findings of ``ServiceConfig.diagnostics``;
    knobs outside the engine's range never get that far (the config
    refuses them, with the engine's message)."""

    def test_sane_config_is_clean(self):
        assert config(
            stream_staleness_threshold=0.35, stream_log_maxlen=256
        ).diagnostics(DESKTOP) == []

    def test_absent_knobs_are_clean(self):
        # Knobs left unset take the service defaults.
        assert config().diagnostics(DESKTOP) == []

    def test_oversized_threshold_is_fstc703(self):
        findings = config(stream_staleness_threshold=0.9).diagnostics(DESKTOP)
        assert codes(findings) == ["FSTC703"]
        assert CODES["FSTC703"][0] == "warning"

    def test_unbounded_log_is_fstc704(self):
        findings = config(stream_log_maxlen=10_000_000).diagnostics(DESKTOP)
        assert codes(findings) == ["FSTC704"]
        assert CODES["FSTC704"][0] == "warning"
        with pytest.raises(ConfigError, match="log_maxlen must be >= 1"):
            config(stream_log_maxlen=0)

    def test_engine_defaults_lint_clean(self):
        engine = IncrementalEngine()
        assert config(
            stream_staleness_threshold=engine.staleness_threshold,
            stream_log_maxlen=engine.log_maxlen,
        ).diagnostics(DESKTOP) == []


class TestRegistry:
    def test_fstc7xx_codes_are_documented(self):
        # docs/staticcheck.md must describe every registered code with
        # its severity (the FSTC105 self-audit).
        assert audit_code_registry() == []

    def test_fstc7xx_codes_registered(self):
        for code in ("FSTC701", "FSTC702", "FSTC703", "FSTC704"):
            assert code in CODES
