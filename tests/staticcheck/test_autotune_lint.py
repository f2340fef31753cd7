"""Unit tests for the FSTC6xx findings of ``TunerConfig.diagnostics``."""

import pytest

from repro.autotune import TunerConfig
from repro.machine.specs import DESKTOP
from repro.serve import ServiceConfig
from repro.staticcheck import has_errors
from repro.staticcheck.diagnostics import CODES


def config(**overrides) -> TunerConfig:
    base = dict(
        explore_rate=0.1, min_trials=3, promote_margin=0.05,
        state_path="/tmp/state.json",
    )
    base.update(overrides)
    return TunerConfig(**base)


def codes(findings):
    return [f.code for f in findings]


class TestRegistry:
    def test_codes_are_registered(self):
        assert CODES["FSTC601"][0] == "error"
        assert CODES["FSTC602"][0] == "warning"
        assert CODES["FSTC603"][0] == "error"
        assert CODES["FSTC604"][0] == "warning"


class TestExploreRate:
    def test_clean_config_has_no_findings(self):
        assert config().diagnostics() == []

    @pytest.mark.parametrize("rate", [0.0])
    def test_non_positive_rate_is_an_error(self, rate):
        # Negative rates never get this far: TunerConfig refuses them.
        findings = config(explore_rate=rate).diagnostics()
        assert codes(findings) == ["FSTC601"]
        assert has_errors(findings)
        assert "never explore" in findings[0].message

    def test_excessive_rate_is_an_error(self):
        findings = config(explore_rate=0.75).diagnostics()
        assert codes(findings) == ["FSTC601"]
        assert "workload" in findings[0].message

    def test_half_rate_is_the_boundary(self):
        assert config(explore_rate=0.5).diagnostics() == []


class TestPersistenceAndGates:
    def test_unpersisted_state_warns(self):
        findings = config(state_path=None).diagnostics()
        assert codes(findings) == ["FSTC602"]
        assert not has_errors(findings)

    def test_zero_margin_is_an_error(self):
        findings = config(promote_margin=0.0).diagnostics()
        assert codes(findings) == ["FSTC603"]
        assert has_errors(findings)

    def test_low_trials_floor_warns(self):
        findings = config(min_trials=1).diagnostics()
        assert codes(findings) == ["FSTC604"]
        assert not has_errors(findings)

    def test_everything_wrong_fires_everything(self):
        findings = config(
            explore_rate=0.9, state_path=None,
            promote_margin=0.0, min_trials=1,
        ).diagnostics()
        assert codes(findings) == [
            "FSTC601", "FSTC602", "FSTC603", "FSTC604",
        ]


class TestDuckTyping:
    """How the tuner's findings reach the service config that nests it
    (the class keeps its name from when the lint read stand-ins)."""

    def test_disabled_tuner_lints_clean(self):
        # autotune=None is "off": a disabled tuner has no unsafe knobs.
        findings = ServiceConfig(autotune=None).diagnostics(DESKTOP)
        assert not [d for d in findings if d.code.startswith("FSTC6")]

    def test_real_tuner_config_lints_clean(self, tmp_path):
        cfg = TunerConfig(state_path=str(tmp_path / "s.json"))
        assert cfg.diagnostics() == []
        assert ServiceConfig(autotune=cfg).diagnostics(DESKTOP) == []

    def test_location_is_threaded_through(self):
        findings = config(state_path=None).diagnostics(
            location="service config"
        )
        assert findings[0].location == "service config"
        nested = ServiceConfig(autotune=config(state_path=None))
        assert codes(nested.diagnostics(DESKTOP)) == ["FSTC602"]
        assert nested.diagnostics(DESKTOP)[0].location == "service config"
