"""Analytic data-access cost model.

Implements the closed forms of the paper's Table 1 (untiled CI/CM/CO)
and Section 5.3 (tiled CO): hash-query counts, retrieved data volume,
and accumulator size, as functions of the linearized problem parameters
``(L, R, C, nnz_L, nnz_R)`` and, for the tiled scheme, the tile sizes.

These predictions are validated against measured counters in
``benchmarks/bench_table1_loop_orders.py`` and the analysis tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.machine.specs import MachineSpec
from repro.util.arrays import ceil_div

__all__ = [
    "ProblemShape",
    "CostEstimate",
    "AccessCostModel",
    "CostWeights",
    "DEFAULT_WEIGHTS",
    "fit_cost_weights",
]


@dataclass(frozen=True)
class ProblemShape:
    """Linearized contraction parameters (Section 2.1 notation)."""

    L: int
    R: int
    C: int
    nnz_L: int
    nnz_R: int

    def __post_init__(self):
        if min(self.L, self.R, self.C) < 1:
            raise ValueError("extents must be >= 1")
        if min(self.nnz_L, self.nnz_R) < 0:
            raise ValueError("nonzero counts must be >= 0")

    @property
    def density_L(self) -> float:
        """``p_L = nnz_L / (L * C)`` (Section 5.1)."""
        return self.nnz_L / (self.L * self.C)

    @property
    def density_R(self) -> float:
        """``p_R = nnz_R / (C * R)`` (Section 5.1)."""
        return self.nnz_R / (self.C * self.R)


@dataclass(frozen=True)
class CostEstimate:
    """Predicted data-access costs for one scheme (Table 1 row)."""

    scheme: str
    queries: float
    data_volume: float
    accumulator_cells: float


@dataclass(frozen=True)
class CostWeights:
    """Per-event costs, in cycles, that turn access counts into time.

    The defaults are the hard-coded machine assumptions the paper's
    platform comparison uses; :func:`fit_cost_weights` refits them from
    measured runs so the time proxy converges toward the observed
    machine (:class:`~repro.runtime.calibrator.CostCalibrator`).
    """

    query_cost: float = 30.0
    element_cost: float = 1.0
    update_hit_cost: float = 2.0
    update_miss_cost: float = 60.0
    ghz: float = 3.0

    def __post_init__(self):
        for name in ("query_cost", "element_cost", "update_hit_cost",
                     "update_miss_cost", "ghz"):
            if getattr(self, name) < 0 or (name == "ghz" and self.ghz <= 0):
                raise ValueError(f"{name} must be positive, got "
                                 f"{getattr(self, name)}")

    def scaled(self, alpha: float) -> "CostWeights":
        """Uniformly rescale every per-event cost by ``alpha``."""
        return replace(
            self,
            query_cost=self.query_cost * alpha,
            element_cost=self.element_cost * alpha,
            update_hit_cost=self.update_hit_cost * alpha,
            update_miss_cost=self.update_miss_cost * alpha,
        )

    def seconds(
        self, queries: float, data_volume: float, updates: float, *,
        workspace_fits: bool,
    ) -> float:
        """Time proxy for one execution's access counts."""
        update_cost = self.update_hit_cost if workspace_fits else self.update_miss_cost
        cycles = (
            queries * self.query_cost
            + data_volume * self.element_cost
            + updates * update_cost
        )
        return cycles / (self.ghz * 1e9)


#: The uncalibrated machine assumptions (class constants of
#: :class:`AccessCostModel`, packaged).
DEFAULT_WEIGHTS = CostWeights()


def fit_cost_weights(
    samples: Sequence[tuple[float, float, float, bool]],
    seconds: Sequence[float],
    *,
    base: CostWeights = DEFAULT_WEIGHTS,
) -> CostWeights:
    """Refit the cost weights from measured executions.

    ``samples`` holds one ``(queries, data_volume, accum_updates,
    workspace_fits)`` tuple per measured run and ``seconds`` the matching
    wall-clock kernel times.  With few or degenerate samples the fit
    falls back to a single least-squares scale factor applied to
    ``base`` — always well-posed, and already enough to absorb the
    host-vs-model speed gap.  With >= 4 samples a clipped least squares
    refits the three per-event costs independently (the hit/miss update
    costs keep the base ratio, since one run only ever exercises one of
    the two regimes).
    """
    import numpy as np

    if len(samples) != len(seconds) or not samples:
        raise ValueError("need equally many (non-zero) samples and seconds")
    feats = np.array(
        [[q, v, u if fits else 0.0, 0.0 if fits else u]
         for q, v, u, fits in samples],
        dtype=np.float64,
    )
    meas = np.asarray(seconds, dtype=np.float64) * (base.ghz * 1e9)  # cycles

    base_vec = np.array([base.query_cost, base.element_cost,
                         base.update_hit_cost, base.update_miss_cost])
    predicted = feats @ base_vec
    denom = float(predicted @ predicted)
    alpha = float(predicted @ meas) / denom if denom > 0 else 1.0
    if not np.isfinite(alpha):
        alpha = 1.0
    alpha = max(alpha, 1e-12)
    scaled = base.scaled(alpha)

    if len(samples) < 4:
        return scaled
    # Full refit: solve for (query, element, update) with the update
    # column folding hit/miss through the base ratio, then split back.
    miss_ratio = base.update_miss_cost / max(base.update_hit_cost, 1e-12)
    design = np.column_stack(
        [feats[:, 0], feats[:, 1], feats[:, 2] + feats[:, 3] * miss_ratio]
    )
    try:
        coef, _, rank, _ = np.linalg.lstsq(design, meas, rcond=None)
    except np.linalg.LinAlgError:  # pragma: no cover - defensive
        return scaled
    if rank < 3 or np.any(~np.isfinite(coef)) or np.any(coef <= 0):
        return scaled
    return replace(
        base,
        query_cost=float(coef[0]),
        element_cost=float(coef[1]),
        update_hit_cost=float(coef[2]),
        update_miss_cost=float(coef[2] * miss_ratio),
    )


class AccessCostModel:
    """Table 1 / Section 5.3 closed forms, optionally weighted by a machine.

    The machine parameter only matters for :meth:`estimated_seconds`,
    which converts abstract counts into a rough time proxy for the
    platform-comparison harness; the count formulas themselves are
    machine-independent.
    """

    def __init__(
        self,
        shape: ProblemShape,
        machine: MachineSpec | None = None,
        weights: CostWeights | None = None,
    ):
        self.shape = shape
        self.machine = machine
        self.weights = weights if weights is not None else CostWeights(
            query_cost=self.QUERY_COST,
            element_cost=self.ELEMENT_COST,
            update_hit_cost=self.UPDATE_HIT_COST,
            update_miss_cost=self.UPDATE_MISS_COST,
        )

    # -- untiled schemes (Table 1) -------------------------------------

    def ci(self) -> CostEstimate:
        """Contraction-inner: O(L*R) queries, O(L*nnz_R + R*nnz_L) volume."""
        s = self.shape
        return CostEstimate(
            scheme="CI",
            queries=float(s.L) * s.R,
            data_volume=float(s.L) * s.nnz_R + float(s.R) * s.nnz_L,
            accumulator_cells=1.0,
        )

    def cm(self) -> CostEstimate:
        """Contraction-middle: L + nnz_L queries, nnz_L + nnz_L*nnz_R/C volume."""
        s = self.shape
        return CostEstimate(
            scheme="CM",
            queries=float(s.L) + s.nnz_L,
            data_volume=float(s.nnz_L) + float(s.nnz_L) * s.nnz_R / s.C,
            accumulator_cells=float(s.R),
        )

    def co(self) -> CostEstimate:
        """Contraction-outer: 2C queries, nnz_L + nnz_R volume."""
        s = self.shape
        return CostEstimate(
            scheme="CO",
            queries=2.0 * s.C,
            data_volume=float(s.nnz_L) + s.nnz_R,
            accumulator_cells=float(s.L) * s.R,
        )

    # -- tiled CO (Section 5.3) ----------------------------------------

    def tiled_co(self, tile_l: int, tile_r: int) -> CostEstimate:
        """2-D tiled CO with tile sizes ``(T_L, T_R)``.

        ``N_queries = 2 * C * NL * NR`` and
        ``Data_Vol = nnz_L * NR + nnz_R * NL`` (Section 5.3): both shrink
        inversely with tile size, while the accumulator is capped at
        ``T_L * T_R`` cells.
        """
        s = self.shape
        nl = ceil_div(s.L, tile_l)
        nr = ceil_div(s.R, tile_r)
        return CostEstimate(
            scheme=f"TiledCO[{tile_l}x{tile_r}]",
            queries=2.0 * s.C * nl * nr,
            data_volume=float(s.nnz_L) * nr + float(s.nnz_R) * nl,
            accumulator_cells=float(tile_l) * tile_r,
        )

    def all_untiled(self) -> list[CostEstimate]:
        return [self.ci(), self.cm(), self.co()]

    # -- time proxy -----------------------------------------------------

    #: Cost weights, in arbitrary "cycles": a hash query is a dependent
    #: random access; retrieving one payload element is a streaming read;
    #: a workspace update that misses cache costs a DRAM round-trip.
    QUERY_COST = 30.0
    ELEMENT_COST = 1.0
    UPDATE_HIT_COST = 2.0
    UPDATE_MISS_COST = 60.0

    def workspace_fits(self, estimate: CostEstimate) -> bool:
        """Whether the scheme's accumulator fits one core's L3 share."""
        if self.machine is None:
            raise ValueError("a MachineSpec is required for fit checks")
        ws_bytes = estimate.accumulator_cells * self.machine.word_bytes
        return ws_bytes <= self.machine.l3_bytes_per_core

    def estimated_seconds(
        self, estimate: CostEstimate, accum_updates: float, *,
        ghz: float | None = None,
    ) -> float:
        """Convert counts into a crude time proxy for platform comparison.

        Accumulator updates are charged the DRAM-miss cost when the
        workspace exceeds the machine's per-core L3 share — the effect
        Section 3.4 identifies as the CO scheme's untiled weakness.
        The per-event costs come from ``self.weights`` (the class
        constants unless a calibrated :class:`CostWeights` was given).
        """
        fits = self.workspace_fits(estimate)
        weights = self.weights
        if ghz is not None and ghz != weights.ghz:
            weights = replace(weights, ghz=ghz)
        return weights.seconds(
            estimate.queries, estimate.data_volume, accum_updates,
            workspace_fits=fits,
        )
