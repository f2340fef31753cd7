"""The request cost floor and its deadline lint (``FSTC302``).

A **deadline below the model-predicted cost floor** can never be met —
the request will burn a worker slot and then time out anyway
(``FSTC302``, warning).  The configuration findings of the same family
(``FSTC301``/``FSTC303``) live on
:meth:`repro.serve.ServiceConfig.diagnostics`.

The cost floor is the same Section 5.1/5.3 arithmetic Algorithm 7 runs
on: :func:`cost_floor_seconds` prices a pairwise request through
:class:`~repro.machine.cost_model.AccessCostModel` at the predicted
tiling, and a network request through the cheap left-to-right path's
modeled total.  It is a *floor* in the model's units — an optimistic
single-pass estimate — so a deadline under it is structurally hopeless,
while a deadline above it may still be missed under load.

These functions take duck-typed request objects (anything with the
right attributes), so :mod:`repro.staticcheck` stays import-free of
:mod:`repro.serve` and the lint can run on plain stand-ins in tests.
"""

from __future__ import annotations

from repro.core.plan import ContractionSpec
from repro.machine.cost_model import AccessCostModel, ProblemShape
from repro.machine.specs import MachineSpec
from repro.staticcheck.diagnostics import Diagnostic, make_diagnostic

__all__ = ["cost_floor_seconds", "lint_request_deadline"]


def _pairwise_floor(
    left_shape, right_shape, pairs, nnz_l: int, nnz_r: int,
    machine: MachineSpec,
) -> float:
    """Modeled seconds for one pairwise contraction at the planned tiling."""
    from repro.staticcheck.expr_lint import predict_plan

    spec = ContractionSpec(tuple(left_shape), tuple(right_shape), list(pairs))
    L, R, C = max(1, spec.L), max(1, spec.R), max(1, spec.C)
    prediction = predict_plan(L, R, C, nnz_l, nnz_r, machine)
    shape = ProblemShape(L, R, C, max(0, nnz_l), max(0, nnz_r))
    model = AccessCostModel(shape, machine)
    estimate = model.tiled_co(prediction.tile_l, prediction.tile_r)
    # Each retrieved payload element feeds one multiply-accumulate, so
    # the data volume doubles as the update count (Section 3.4's proxy).
    return model.estimated_seconds(estimate, estimate.data_volume)


def _network_floor(subscripts: str, operands, machine: MachineSpec) -> float:
    """Modeled seconds of the cheap left-to-right network path."""
    from repro.network.ir import TensorNetwork
    from repro.network.optimize import build_plan

    network = TensorNetwork.parse(subscripts, operands)
    plan = build_plan(network, machine, "left")
    return float(plan.est_total_cost)


def cost_floor_seconds(request, machine: MachineSpec) -> float:
    """Optimistic modeled execution seconds for one service request.

    ``request`` is duck-typed (:class:`repro.serve.Request` or any
    stand-in): ``kind == "pairwise"`` uses ``left``/``right``/``pairs``,
    anything else uses ``subscripts``/``operands``.  Returns 0.0 when
    the model cannot price the request (the caller then has no floor to
    enforce, which is the safe direction for a *floor*).
    """
    try:
        if request.kind == "pairwise":
            return _pairwise_floor(
                request.left.shape, request.right.shape, request.pairs,
                request.left.nnz, request.right.nnz, machine,
            )
        return _network_floor(request.subscripts, request.operands, machine)
    except Exception:  # noqa: BLE001 - unpriceable requests have no floor
        return 0.0


def lint_request_deadline(
    request, machine: MachineSpec, *, location: str = ""
) -> list[Diagnostic]:
    """``FSTC302`` when a request's deadline sits below its cost floor."""
    deadline = getattr(request, "deadline_s", None)
    if deadline is None:
        return []
    floor = cost_floor_seconds(request, machine)
    if floor > 0 and deadline < floor:
        return [make_diagnostic(
            "FSTC302",
            f"deadline {deadline:.3g}s is below the model-predicted cost "
            f"floor {floor:.3g}s on {machine.name}; the request cannot "
            "finish in budget even unloaded",
            hint="raise the deadline above the floor or shrink the problem",
            location=location or f"request {getattr(request, 'name', '')!r}",
        )]
    return []
