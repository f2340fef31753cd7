"""Service-level autotuning: config gates, exploration under traffic,
persisted state across a service restart."""

import json

import numpy as np
import pytest

from repro import contract
from repro.autotune import TunerConfig
from repro.data.random_tensors import random_coo
from repro.errors import ConfigError
from repro.machine.specs import DESKTOP
from repro.serve import ContractionService, Request, ServiceConfig


@pytest.fixture
def operands():
    a = random_coo((40, 32), nnz=220, seed=21)
    b = random_coo((32, 28), nnz=180, seed=22)
    return a, b


def tuned_config(tmp_path, **overrides):
    knobs = dict(
        explore_rate=0.5, min_trials=2, promote_margin=0.05,
        state_path=str(tmp_path / "autotune.json"),
    )
    knobs.update(overrides)
    return ServiceConfig(
        queue_capacity=16, n_workers=1, autotune=TunerConfig(**knobs)
    )


class TestConfigGates:
    def test_unsafe_explore_rate_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="FSTC601"):
            ContractionService(
                machine=DESKTOP,
                config=tuned_config(tmp_path, explore_rate=0.9),
            )

    def test_zero_promote_margin_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="FSTC603"):
            ContractionService(
                machine=DESKTOP,
                config=tuned_config(tmp_path, promote_margin=0.0),
            )

    def test_unpersisted_state_is_a_kept_warning(self, tmp_path):
        service = ContractionService(
            machine=DESKTOP,
            config=tuned_config(tmp_path, state_path=None),
        )
        codes = [d.code for d in service.config_diagnostics]
        assert "FSTC602" in codes
        service.stop(drain=False)

    def test_disabled_autotune_builds_no_tuner(self):
        service = ContractionService(
            machine=DESKTOP,
            config=ServiceConfig(queue_capacity=8, n_workers=1),
        )
        assert service.tuner is None
        assert "autotune" not in service.metrics_json()
        service.stop(drain=False)


class TestExplorationUnderTraffic:
    def test_explored_results_stay_correct(self, tmp_path, operands):
        a, b = operands
        expected = contract(a, b, [(1, 0)])
        with ContractionService(
            machine=DESKTOP, config=tuned_config(tmp_path)
        ) as service:
            for _ in range(20):
                response = service.call(
                    Request.pairwise(a, b, [(1, 0)]), timeout=30.0
                )
                assert response.status == "ok"
                np.testing.assert_array_equal(
                    response.result.coords, expected.coords
                )
                np.testing.assert_allclose(
                    response.result.to_dense(), expected.to_dense(),
                    rtol=1e-8, atol=1e-10,
                )
            metrics = service.metrics_json()
        assert metrics["autotune"]["eligible_calls"] > 0

    def test_deadline_requests_never_explored(self, tmp_path, operands):
        a, b = operands
        with ContractionService(
            machine=DESKTOP,
            config=tuned_config(tmp_path, explore_rate=0.5),
        ) as service:
            for _ in range(10):
                service.call(
                    Request.pairwise(a, b, [(1, 0)], deadline_s=30.0),
                    timeout=30.0,
                )
            metrics = service.metrics_json()
        assert metrics["autotune"]["eligible_calls"] == 0
        assert metrics["autotune"]["explorations"] == 0


class TestPersistenceAcrossRestart:
    def test_stop_flushes_and_next_service_warm_starts(
        self, tmp_path, operands
    ):
        a, b = operands
        path = tmp_path / "autotune.json"
        config = tuned_config(tmp_path)
        with ContractionService(machine=DESKTOP, config=config) as service:
            for _ in range(16):
                service.call(Request.pairwise(a, b, [(1, 0)]), timeout=30.0)
            samples = service.tuner.metrics()["samples"]
        assert samples > 0
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["machine"] == DESKTOP.name

        second = ContractionService(machine=DESKTOP, config=config)
        try:
            assert second.tuner.state.loaded_from == str(path)
            assert second.tuner.metrics()["samples"] == samples
        finally:
            second.stop(drain=False)
