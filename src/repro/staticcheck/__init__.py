"""Static analysis for contraction requests, task graphs, and the code base.

Three passes, all pre-execution (nothing here allocates a workspace or
runs a kernel):

* :mod:`repro.staticcheck.expr_lint` — given subscripts (or linearized
  problem parameters), declared shapes/nnz and a machine model, predict
  the plan Algorithm 7 would pick and every guard outcome — including
  the paper's Table 3 ``DNF`` regime — as ``FSTC0xx`` diagnostics;
* :mod:`repro.staticcheck.ast_lint` — ``FSTC1xx`` source rules keeping
  the vectorized hot paths honest (no per-nonzero Python loops in
  kernels, :mod:`repro.errors` exception discipline, determinism,
  ``__all__`` declarations);
* :mod:`repro.staticcheck.graph_lint` — ``FSTC2xx`` hazard analysis of
  tile-task write sets (write-write conflicts, order-dependent
  reductions) before a schedule runs;
* :mod:`repro.staticcheck.pass_lint` — ``FSTC5xx`` soundness checks of
  optimizer-pass plan rewrites against re-derived dataflow facts (the
  :class:`~repro.network.passes.PassVerifier`'s engine).

Configuration findings (``FSTC301``/``FSTC303``/``FSTC304``,
``FSTC6xx``, ``FSTC703``/``FSTC704``) are methods of the configs they
judge — ``ServiceConfig.diagnostics``, ``ShardedConfig.diagnostics``,
``TunerConfig.diagnostics`` — and :func:`refuse_errors` is the gate the
serving front ends apply to them at construction.

The CLI front end is ``python -m repro check``; see
``docs/staticcheck.md`` for the code catalogue.
"""

from repro.staticcheck.ast_lint import lint_file, lint_source, lint_tree
from repro.staticcheck.audit import audit_case, audit_registry, case_problem
from repro.staticcheck.diagnostics import (
    CODES,
    Diagnostic,
    diagnostics_to_json,
    has_errors,
    make_diagnostic,
    max_exit_status,
    refuse_errors,
    render_diagnostics,
)
from repro.staticcheck.expr_lint import (
    ExpressionReport,
    PlanPrediction,
    lint_expression,
    lint_problem,
    predict_plan,
)
from repro.staticcheck.graph_lint import (
    TileTask,
    analyze_task_graph,
    assert_disjoint_writes,
    hazards_for_stats,
    write_sets_for_pairs,
)
from repro.staticcheck.pass_lint import (
    lint_plan_annotations,
    self_test_passes,
    verify_rewrite,
)
from repro.staticcheck.registry_audit import audit_code_registry
from repro.staticcheck.service_lint import (
    cost_floor_seconds,
    lint_request_deadline,
)
from repro.staticcheck.shard_lint import lint_ring_balance
from repro.staticcheck.stream_lint import lint_dependency_tracker

__all__ = [
    "CODES",
    "Diagnostic",
    "ExpressionReport",
    "PlanPrediction",
    "TileTask",
    "analyze_task_graph",
    "assert_disjoint_writes",
    "audit_case",
    "audit_code_registry",
    "audit_registry",
    "case_problem",
    "cost_floor_seconds",
    "diagnostics_to_json",
    "has_errors",
    "hazards_for_stats",
    "lint_dependency_tracker",
    "lint_expression",
    "lint_file",
    "lint_plan_annotations",
    "lint_problem",
    "lint_request_deadline",
    "lint_ring_balance",
    "lint_source",
    "lint_tree",
    "make_diagnostic",
    "max_exit_status",
    "predict_plan",
    "refuse_errors",
    "render_diagnostics",
    "self_test_passes",
    "verify_rewrite",
    "write_sets_for_pairs",
]
