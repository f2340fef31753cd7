"""Adaptive contraction runtime (serving layer).

Wraps the one-shot :func:`repro.core.contraction.contract` pipeline
with the pieces a repeated-traffic workload needs:

* :class:`PlanCache` — LRU cache of Algorithm 7 decisions keyed by the
  problem's structural signature, optionally persisted to JSON;
* :class:`CostCalibrator` — a standalone fitter of the analytic cost
  model's constants from measured runs (``repro batch`` feeds it);
  planning never reads its weights;
* :class:`ContractionRuntime` / :class:`BatchExecutor` — cache-aware
  execution that reuses linearized operands and tiled tables across
  calls sharing an operand, reporting hit rates through the standard
  :class:`~repro.analysis.counters.Counters`.

Quick start::

    from repro.runtime import ContractionRuntime

    rt = ContractionRuntime(cache_path="plans.json")
    out1 = rt.contract(a, b, pairs=[(2, 2)])   # cold: plans + builds
    out2 = rt.contract(a, b, pairs=[(2, 2)])   # warm: all reused
    print(rt.metrics())
    rt.flush()                                  # persist plans
"""

from repro.runtime.calibrator import CostCalibrator, CostSample
from repro.runtime.executor import (
    BatchExecutor,
    BatchItem,
    BatchReport,
    ContractionRuntime,
    RunRecord,
)
from repro.runtime.plan_cache import CachedPlan, PlanCache
from repro.runtime.signature import ProblemSignature, signature_for

__all__ = [
    "ContractionRuntime",
    "BatchExecutor",
    "BatchItem",
    "BatchReport",
    "RunRecord",
    "PlanCache",
    "CachedPlan",
    "CostCalibrator",
    "CostSample",
    "ProblemSignature",
    "signature_for",
]
