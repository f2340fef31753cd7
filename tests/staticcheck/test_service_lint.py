"""Unit tests for the FSTC3xx service findings and the cost floor."""

from types import SimpleNamespace

import pytest

from repro.data.random_tensors import random_coo
from repro.machine.specs import DESKTOP
from repro.serve import ServiceConfig
from repro.staticcheck import cost_floor_seconds, lint_request_deadline
from repro.staticcheck.diagnostics import CODES


def config(**overrides) -> ServiceConfig:
    base = dict(queue_capacity=16, n_workers=2, max_batch=8)
    base.update(overrides)
    return ServiceConfig(**base)


@pytest.fixture
def pairwise_request():
    a = random_coo((40, 30), nnz=200, seed=1)
    b = random_coo((30, 20), nnz=150, seed=2)
    return SimpleNamespace(
        kind="pairwise", name="r", left=a, right=b, pairs=((1, 0),),
        deadline_s=None,
    )


@pytest.fixture
def network_request():
    a = random_coo((20, 16), nnz=80, seed=3)
    b = random_coo((16, 12), nnz=60, seed=4)
    return SimpleNamespace(
        kind="network", name="n", subscripts="ij,jk->ik", operands=(a, b),
        deadline_s=None,
    )


class TestRegistry:
    def test_codes_are_registered(self):
        assert CODES["FSTC301"][0] == "error"
        assert CODES["FSTC302"][0] == "warning"
        assert CODES["FSTC303"][0] == "warning"


class TestConfigLint:
    def test_clean_config_has_no_findings(self):
        assert config().diagnostics(DESKTOP) == []

    @pytest.mark.parametrize("capacity", [None, 0, -1])
    def test_unbounded_queue_is_an_error(self, capacity):
        findings = config(queue_capacity=capacity).diagnostics(DESKTOP)
        assert [d.code for d in findings] == ["FSTC301"]
        assert findings[0].severity == "error"

    def test_zero_workers_is_an_error(self):
        findings = config(n_workers=0).diagnostics(DESKTOP)
        assert [d.code for d in findings] == ["FSTC301"]

    def test_zero_batch_is_an_error(self):
        findings = config(max_batch=0).diagnostics(DESKTOP)
        assert [d.code for d in findings] == ["FSTC301"]

    def test_oversubscribed_pool_warns(self):
        findings = config(n_workers=DESKTOP.n_cores + 1).diagnostics(DESKTOP)
        assert [d.code for d in findings] == ["FSTC303"]
        assert findings[0].severity == "warning"

    def test_location_is_threaded_through(self):
        findings = config(queue_capacity=0).diagnostics(
            DESKTOP, location="svc A"
        )
        assert findings[0].location == "svc A"


class TestCostFloor:
    def test_pairwise_floor_is_positive(self, pairwise_request):
        assert cost_floor_seconds(pairwise_request, DESKTOP) > 0

    def test_network_floor_is_positive(self, network_request):
        assert cost_floor_seconds(network_request, DESKTOP) > 0

    def test_unpriceable_request_floors_at_zero(self):
        broken = SimpleNamespace(kind="pairwise", left=None, right=None,
                                 pairs=())
        assert cost_floor_seconds(broken, DESKTOP) == 0.0


class TestDeadlineLint:
    def test_impossible_deadline_warns(self, pairwise_request):
        pairwise_request.deadline_s = 1e-12
        findings = lint_request_deadline(pairwise_request, DESKTOP)
        assert [d.code for d in findings] == ["FSTC302"]
        assert findings[0].severity == "warning"
        assert "floor" in findings[0].message

    def test_network_deadline_checked_too(self, network_request):
        network_request.deadline_s = 1e-12
        findings = lint_request_deadline(network_request, DESKTOP)
        assert [d.code for d in findings] == ["FSTC302"]

    def test_generous_deadline_is_clean(self, pairwise_request):
        pairwise_request.deadline_s = 3600.0
        assert lint_request_deadline(pairwise_request, DESKTOP) == []

    def test_no_deadline_is_clean(self, pairwise_request):
        assert lint_request_deadline(pairwise_request, DESKTOP) == []


class TestDocsAudit:
    def test_catalogue_documents_the_service_codes(self):
        from repro.staticcheck import audit_code_registry

        assert audit_code_registry() == []
