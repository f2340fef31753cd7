"""Incremental re-contraction of streamed tensors.

The FaSTCC kernel's 2-D tiling (Section 4) makes contraction outputs
*block-decomposable*: output tile ``(i, j)`` is a pure function of the
left operand's tile-``i`` table, the right operand's tile-``j`` table,
and the pinned plan.  A delta whose coordinates land in ``k`` left tiles
therefore only perturbs the ``k x NR`` affected tile-pairs — the other
``(NL - k) x NR`` output tiles are byte-for-byte unchanged.

:class:`IncrementalEngine` exploits this: it registers a contraction
once (pinning the plan and backend, caching canonical linearized
operands, both tiled tables, and the raw linearized output rows), then
services each :class:`~repro.streaming.delta.DeltaBatch` by

1. applying the delta to the canonical operand,
2. *restricting* the new linearized operand to the touched tiles,
3. re-running the kernel on the restriction against the partner's
   cached full tables (only the affected tile-pairs produce tasks), and
4. patching the cached output rows: unaffected tiles keep their stored
   rows, affected tiles take the freshly computed ones.

Because each tile-pair task is deterministic given its two tables and
the plan, the patched output is **bit-identical** to a from-scratch
contraction of the mutated operands under the same plan (the
differential fuzzer in ``tests/streaming`` asserts this per backend).

Past a staleness threshold the incremental path stops paying: the
work it saves is priced through the paper's Section 5.1 density model
(multiply-accumulate volume per tile plus the modeled patched-row
count), and once the modeled incremental fraction exceeds the
threshold the engine falls back to a full recompute — which refreshes
every cached artifact at once.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.counters import Counters
from repro.backends.base import KernelBackend
from repro.backends.registry import resolve_backend
from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec, LinearizedOperand, Plan
from repro.core.tiled_co import TiledTables, build_tiled_tables, tiled_co_contract
from repro.errors import ConfigError, StreamError
from repro.machine.specs import DESKTOP, MachineSpec
from repro.runtime.signature import signature_for
from repro.streaming.delta import DeltaBatch, MutationLog
from repro.streaming.version import DependencyTracker
from repro.tensors.coo import COOTensor
from repro.util.groups import sort_by

__all__ = ["IncrementalEngine", "StreamState", "StreamStats", "check_stream_knobs"]

#: Default modeled-work fraction above which a delta triggers a full
#: recompute instead of tile patching (see Section 5.1 pricing below).
DEFAULT_STALENESS_THRESHOLD = 0.35


@dataclass
class StreamStats:
    """What one :meth:`IncrementalEngine.apply_delta` call did."""

    name: str
    side: str
    mode: str  # "incremental" | "full" | "noop"
    seq: int  # mutation-log sequence number of the applied batch
    tiles_touched: int
    tiles_total: int
    modeled_fraction: float
    seconds: float
    output_nnz: int


def check_stream_knobs(staleness_threshold: float, log_maxlen: int) -> None:
    """Range checks on the two engine knobs, shared with the service
    config that builds the engine (raises :class:`ConfigError`)."""
    if not 0.0 < staleness_threshold <= 1.0:
        raise ConfigError(
            f"staleness_threshold must be in (0, 1], got {staleness_threshold}"
        )
    if log_maxlen < 1:
        raise ConfigError(f"log_maxlen must be >= 1, got {log_maxlen}")


class StreamState:
    """Everything cached for one registered streaming contraction."""

    __slots__ = (
        "name", "spec", "plan", "backend", "left", "right",
        "left_op", "right_op", "hl", "hr",
        "l_idx", "r_idx", "values", "output", "logs", "artifact_ids",
    )

    def __init__(self, name: str, spec: ContractionSpec, plan: Plan,
                 backend: KernelBackend):
        self.name = name
        self.spec = spec
        self.plan = plan
        self.backend = backend
        self.left: COOTensor | None = None
        self.right: COOTensor | None = None
        self.left_op: LinearizedOperand | None = None
        self.right_op: LinearizedOperand | None = None
        self.hl: TiledTables | None = None
        self.hr: TiledTables | None = None
        # Linearized output rows, sorted by combined index l * R + r
        # (row-major output order) — the patchable representation.
        self.l_idx = np.empty(0, dtype=np.int64)
        self.r_idx = np.empty(0, dtype=np.int64)
        self.values = np.empty(0)
        self.output: COOTensor | None = None
        self.logs = {"left": MutationLog(), "right": MutationLog()}
        self.artifact_ids: list[str] = []


class IncrementalEngine:
    """Delta-driven incremental contraction over registered streams.

    Parameters
    ----------
    machine:
        Platform model for planning (Algorithm 7) when no plan/runtime
        supplies one.
    staleness_threshold:
        Modeled incremental-work fraction (0, 1] above which a delta
        falls back to full recompute.
    n_workers:
        Worker threads for table construction and the kernel.
    backend:
        Default kernel backend (name, instance, or ``None`` for the
        environment default); resolved and *pinned* per stream at
        registration so every re-contraction runs identically.
    runtime:
        Optional :class:`~repro.runtime.executor.ContractionRuntime` to
        integrate with: plans are shared through its
        :class:`~repro.runtime.plan_cache.PlanCache`, and every applied
        delta invalidates the runtime's cached linearizations/tables
        for the replaced tensor object.
    tracker:
        Dependency tracker to record artifacts in; a private one is
        created when omitted.
    log_maxlen:
        Bound on each stream side's :class:`MutationLog`.
    """

    def __init__(
        self,
        machine: MachineSpec = DESKTOP,
        *,
        staleness_threshold: float = DEFAULT_STALENESS_THRESHOLD,
        n_workers: int = 1,
        backend: "str | KernelBackend | None" = None,
        runtime=None,
        tracker: DependencyTracker | None = None,
        log_maxlen: int = 256,
    ):
        check_stream_knobs(staleness_threshold, log_maxlen)
        self.machine = machine
        self.staleness_threshold = float(staleness_threshold)
        self.n_workers = int(n_workers)
        self.backend = backend
        self.runtime = runtime
        self.tracker = tracker if tracker is not None else DependencyTracker()
        self.log_maxlen = int(log_maxlen)
        self.counters = Counters()
        self._states: dict[str, StreamState] = {}
        self._lock = threading.RLock()
        # Running totals behind metrics(): [deltas, seconds] per mode,
        # and the sum of every delta's modeled fraction.
        self._totals = {mode: [0, 0.0] for mode in ("incremental", "full", "noop")}
        self._fraction_sum = 0.0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        left: COOTensor,
        right: COOTensor,
        pairs: Sequence[tuple[int, int]],
        *,
        accumulator: str = "auto",
        tile_size: int | None = None,
        plan: Plan | None = None,
    ) -> COOTensor:
        """Register a streaming contraction and compute its first output.

        The chosen plan and resolved backend are pinned for the stream's
        lifetime — incremental patching is only sound against a fixed
        tiling.  Returns the canonical initial output.
        """
        spec = ContractionSpec(left.shape, right.shape, pairs)
        left = left.sum_duplicates()
        right = right.sum_duplicates()
        sig = signature_for(
            left, right, pairs, self.machine,
            accumulator=accumulator, tile_size=tile_size,
        )
        if plan is None:
            cached = (
                self.runtime.plan_cache.get(sig)
                if self.runtime is not None else None
            )
            if cached is not None:
                plan = cached.materialize(spec)
            else:
                plan = choose_plan(
                    spec, left.nnz, right.nnz, self.machine,
                    accumulator=accumulator, tile_size=tile_size,
                )
                if self.runtime is not None:
                    self.runtime.plan_cache.put(sig, plan)
        backend = resolve_backend(
            self.backend, signature=sig,
        ) if not isinstance(self.backend, KernelBackend) else self.backend

        state = StreamState(str(name), spec, plan, backend)
        state.logs = {
            "left": MutationLog(self.log_maxlen),
            "right": MutationLog(self.log_maxlen),
        }
        state.left = left
        state.right = right
        state.left_op = spec.linearize_left(left).sum_duplicates()
        state.right_op = spec.linearize_right(right).sum_duplicates()
        state.hl = build_tiled_tables(
            state.left_op, plan.tile_l, n_workers=self.n_workers,
            counters=self.counters,
        )
        state.hr = build_tiled_tables(
            state.right_op, plan.tile_r, n_workers=self.n_workers,
            counters=self.counters,
        )
        l_idx, r_idx, values = self._contract_rows(
            state, state.left_op, state.right_op, state.hl, state.hr
        )
        self._store_rows(state, l_idx, r_idx, values)

        with self._lock:
            if str(name) in self._states:
                raise StreamError(f"stream {name!r} is already registered")
            ln, rn = self._tensor_keys(str(name))
            state.artifact_ids = [
                f"{name}:lin:left", f"{name}:lin:right",
                f"{name}:tables:left", f"{name}:tables:right",
                f"{name}:out",
            ]
            self.tracker.register(f"{name}:lin:left", "linearized", {ln: None})
            self.tracker.register(f"{name}:lin:right", "linearized", {rn: None})
            self.tracker.register(f"{name}:tables:left", "tiled_table", {ln: None})
            self.tracker.register(f"{name}:tables:right", "tiled_table", {rn: None})
            self.tracker.register(f"{name}:out", "output", {ln: None, rn: None})
            self._states[str(name)] = state
        assert state.output is not None
        return state.output

    @staticmethod
    def _tensor_keys(name: str) -> tuple[str, str]:
        """Tracker tensor names for a stream's two operands."""
        return f"{name}.left", f"{name}.right"

    def streams(self) -> list[str]:
        with self._lock:
            return sorted(self._states)

    def _state(self, name: str) -> StreamState:
        with self._lock:
            state = self._states.get(str(name))
        if state is None:
            raise StreamError(
                f"unknown stream {name!r}; register it first "
                f"(known: {self.streams()})"
            )
        return state

    # ------------------------------------------------------------------
    # Kernel plumbing
    # ------------------------------------------------------------------

    def _contract_rows(
        self,
        state: StreamState,
        left_op: LinearizedOperand,
        right_op: LinearizedOperand,
        hl: TiledTables,
        hr: TiledTables,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the pinned-plan kernel; returns raw linearized rows."""
        l_idx, r_idx, values, _ = tiled_co_contract(
            left_op, right_op, state.plan,
            n_workers=self.n_workers, counters=self.counters,
            tables=(hl, hr), backend=state.backend,
        )
        return l_idx, r_idx, values

    def _store_rows(
        self, state: StreamState,
        l_idx: np.ndarray, r_idx: np.ndarray, values: np.ndarray,
    ) -> None:
        """Sort rows into row-major output order and refresh the output.

        Output positions are unique (disjoint tile pairs, unique drains
        within each task), so sorting by the combined index ``l * R +
        r`` fully canonicalizes the representation — the thread/merge
        order of the producing tasks is erased, which is what makes
        patched and from-scratch outputs comparable bit-for-bit — and
        the delinearized tensor is already in canonical COO order, so
        no duplicate-merging pass is needed.  Rows and ``state.output``
        columns stay index-aligned (patching relies on it).
        """
        combined = l_idx * np.int64(state.spec.R) + r_idx
        combined, l_idx, r_idx, values = sort_by(combined, l_idx, r_idx, values)
        state.l_idx, state.r_idx, state.values = l_idx, r_idx, values
        out = state.spec.delinearize_output(state.l_idx, state.r_idx, state.values)
        if combined.size > 1 and not np.all(np.diff(combined) > 0):
            # Colliding output keys (no tiled kernel produces these, but
            # a foreign backend could): canonicalize the slow way and
            # re-derive the rows so alignment holds.
            out = out.sum_duplicates()
            self._rows_from_output(state, out)
            return
        state.output = out

    def _rows_from_output(self, state: StreamState, out: COOTensor) -> None:
        """Re-derive the linearized row arrays from a canonical output."""
        n_left = len(state.spec.left_external)
        state.l_idx = state.spec.lin_l.encode(out.coords[:n_left, :])
        state.r_idx = state.spec.lin_r.encode(out.coords[n_left:, :])
        state.values = out.values
        state.output = out

    def _merge_rows(
        self, state: StreamState, keep: np.ndarray,
        l_new: np.ndarray, r_new: np.ndarray, v_new: np.ndarray,
    ) -> None:
        """Splice freshly contracted rows into the kept (sorted) rows.

        The kept rows are a subsequence of an already-canonical store,
        so one sort of the (small) new block plus a linear merge
        replaces the full re-sort — and the output tensor's coordinate
        columns are spliced the same way, skipping the full-output
        delinearization.  Falls back to :meth:`_store_rows` if the new
        block collides with a kept key (never the case for disjoint
        tile patches; kept for safety).
        """
        R = np.int64(state.spec.R)
        new_combined = l_new * R + r_new
        new_combined, l_new, r_new, v_new = sort_by(new_combined, l_new, r_new, v_new)
        kept_l = state.l_idx[keep]
        kept_r = state.r_idx[keep]
        kept_combined = kept_l * R + kept_r
        unique_new = new_combined.size <= 1 or bool(
            np.all(np.diff(new_combined) > 0)
        )
        pos = np.searchsorted(kept_combined, new_combined)
        hit = pos < kept_combined.size
        collides = bool(
            np.any(new_combined[hit] == kept_combined[pos[hit]])
        )
        if not unique_new or collides:
            self._store_rows(
                state,
                np.concatenate([kept_l, l_new]),
                np.concatenate([kept_r, r_new]),
                np.concatenate([state.values[keep], v_new]),
            )
            return
        assert state.output is not None
        total = kept_combined.size + new_combined.size
        new_at = np.zeros(total, dtype=bool)
        new_at[pos + np.arange(new_combined.size)] = True

        def splice(kept_arr, new_arr):
            merged = np.empty(total, dtype=kept_arr.dtype)
            merged[~new_at] = kept_arr
            merged[new_at] = new_arr
            return merged

        state.l_idx = splice(kept_l, l_new)
        state.r_idx = splice(kept_r, r_new)
        state.values = splice(state.values[keep], v_new)
        kept_coords = state.output.coords[:, keep]
        new_coords = state.spec.delinearize_output(l_new, r_new, v_new).coords
        coords = np.empty((kept_coords.shape[0], total), dtype=kept_coords.dtype)
        coords[:, ~new_at] = kept_coords
        coords[:, new_at] = new_coords
        state.output = COOTensor(
            coords, state.values, state.output.shape, check=False
        )

    def _splice_segments(
        self, state: StreamState, touched: np.ndarray, tile: int,
        l_new: np.ndarray, r_new: np.ndarray, v_new: np.ndarray,
    ) -> None:
        """Left-side patch via contiguous-slice replacement.

        The store is sorted by ``l * R + r`` with ``l`` as the primary
        key, so every touched *left* tile's rows occupy one contiguous
        slice, and the fresh tile blocks land exactly where the old
        ones were.  The whole patch is then a handful of
        ``concatenate`` copies — no keep-mask, no gather/scatter, and
        only the new rows are delinearized.  (Right-side patches can't
        use this: ``r`` is the secondary key, so a right tile's rows
        interleave through the store.)
        """
        R = np.int64(state.spec.R)
        new_combined = l_new * R + r_new
        new_combined, l_new, r_new, v_new = sort_by(new_combined, l_new, r_new, v_new)
        tiles = np.sort(touched)
        in_touched = np.isin(l_new // np.int64(tile), tiles)
        if (
            new_combined.size > 1
            and not bool(np.all(np.diff(new_combined) > 0))
        ) or not bool(np.all(in_touched)):
            # Colliding keys or rows escaping the touched tiles: no
            # tiled kernel produces either, but fall back to the
            # generic full re-sort rather than corrupt the store.
            keep = ~np.isin(state.l_idx // np.int64(tile), tiles)
            self._merge_rows(state, keep, l_new, r_new, v_new)
            return
        assert state.output is not None
        new_coords = state.spec.delinearize_output(l_new, r_new, v_new).coords
        pieces_l: list[np.ndarray] = []
        pieces_r: list[np.ndarray] = []
        pieces_v: list[np.ndarray] = []
        pieces_c: list[np.ndarray] = []
        cursor = 0
        for t in tiles.tolist():
            lo_l, hi_l = t * tile, (t + 1) * tile
            lo, hi = np.searchsorted(state.l_idx, [lo_l, hi_l], side="left")
            new_lo, new_hi = np.searchsorted(
                l_new, [lo_l, hi_l], side="left"
            )
            pieces_l += [state.l_idx[cursor:lo], l_new[new_lo:new_hi]]
            pieces_r += [state.r_idx[cursor:lo], r_new[new_lo:new_hi]]
            pieces_v += [state.values[cursor:lo], v_new[new_lo:new_hi]]
            pieces_c += [
                state.output.coords[:, cursor:lo],
                new_coords[:, new_lo:new_hi],
            ]
            cursor = int(hi)
        pieces_l.append(state.l_idx[cursor:])
        pieces_r.append(state.r_idx[cursor:])
        pieces_v.append(state.values[cursor:])
        pieces_c.append(state.output.coords[:, cursor:])
        state.l_idx = np.concatenate(pieces_l)
        state.r_idx = np.concatenate(pieces_r)
        state.values = np.concatenate(pieces_v)
        state.output = COOTensor(
            np.concatenate(pieces_c, axis=1), state.values,
            state.output.shape, check=False,
        )

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------

    def apply_delta(
        self,
        name: str,
        delta: DeltaBatch,
        *,
        side: str = "left",
        force: str | None = None,
    ) -> StreamStats:
        """Apply one delta batch to a registered stream's operand.

        ``side`` selects which operand mutates.  ``force`` overrides the
        staleness decision (``"incremental"`` or ``"full"``; benchmarks
        use it to measure both paths on the same delta).  Returns the
        per-call :class:`StreamStats` (folded into :meth:`metrics`).
        """
        if side not in ("left", "right"):
            raise ConfigError(f"side must be left|right, got {side!r}")
        if force not in (None, "incremental", "full"):
            raise ConfigError(
                f"force must be incremental|full when given, got {force!r}"
            )
        state = self._state(name)
        t0 = time.perf_counter()
        delta = delta.canonicalize()
        seq = state.logs[side].append(delta)

        spec = state.spec
        plan = state.plan
        if side == "left":
            old_tensor, partner_op = state.left, state.right_op
            tile, num_tiles = plan.tile_l, state.hl.num_tiles
            own_ext, partner_ext = spec.L, spec.R
        else:
            old_tensor, partner_op = state.right, state.left_op
            tile, num_tiles = plan.tile_r, state.hr.num_tiles
            own_ext, partner_ext = spec.R, spec.L
        assert old_tensor is not None and partner_op is not None

        if delta.n_ops == 0:
            stats = StreamStats(
                name=state.name, side=side, mode="noop", seq=seq,
                tiles_touched=0, tiles_total=num_tiles,
                modeled_fraction=0.0,
                seconds=time.perf_counter() - t0,
                output_nnz=state.output.nnz if state.output is not None else 0,
            )
            return self._tally(stats)

        # Touched tiles: the delta's coordinates mapped through the
        # spec's external linearizer onto this side's tile grid.
        if side == "left":
            ext = spec.lin_l.encode(delta.coords[list(spec.left_external), :])
        else:
            ext = spec.lin_r.encode(delta.coords[list(spec.right_external), :])
        touched = np.unique(ext // np.int64(tile))

        new_tensor = delta.apply(old_tensor)
        new_op = (
            spec.linearize_left(new_tensor) if side == "left"
            else spec.linearize_right(new_tensor)
        ).sum_duplicates()

        # -- Section 5.1 pricing of the incremental path ----------------
        # Work is modeled as multiply-accumulate volume: the kernel's
        # per-tile-pair cost bound is nnz(HL_i) * nnz(HR_j), so the
        # affected fraction is (nnz in touched tiles) / (total nnz) of
        # the mutated side (the partner's volume cancels), plus the
        # modeled cost of re-draining the patched output rows — the
        # plan's estimated output density (Eq. 5.1) times the patched
        # index space — against the full output's modeled row count.
        tile_of = new_op.ext // np.int64(tile)
        per_tile = np.bincount(tile_of, minlength=num_tiles)
        affected_nnz = int(per_tile[touched].sum())
        mults_full = float(new_op.nnz) * float(partner_op.nnz)
        mults_inc = float(affected_nnz) * float(partner_op.nnz)
        rows_full = plan.est_output_density * float(own_ext) * float(partner_ext)
        rows_inc = plan.est_output_density * float(
            min(touched.shape[0] * tile, own_ext)
        ) * float(partner_ext)
        denom = mults_full + rows_full
        fraction = (mults_inc + rows_inc) / denom if denom > 0 else 1.0

        mode = "incremental" if fraction <= self.staleness_threshold else "full"
        if force is not None:
            mode = force

        # Bump versions and fan invalidation out before recomputing.
        tensor_key = self._tensor_keys(state.name)[0 if side == "left" else 1]
        self.tracker.bump(tensor_key, tiles=touched.tolist())
        if self.runtime is not None:
            self.runtime.invalidate_operand(old_tensor)

        if mode == "incremental":
            self._patch(state, side, new_tensor, new_op, touched, tile)
            self.counters.stream_incremental += 1
        else:
            self._rebuild(state, side, new_tensor, new_op, tile)
            self.counters.stream_full += 1
        for artifact_id in state.artifact_ids:
            self.tracker.refresh(artifact_id)

        stats = StreamStats(
            name=state.name, side=side, mode=mode, seq=seq,
            tiles_touched=int(touched.shape[0]), tiles_total=num_tiles,
            modeled_fraction=float(fraction),
            seconds=time.perf_counter() - t0,
            output_nnz=state.output.nnz if state.output is not None else 0,
        )
        return self._tally(stats)

    def _tally(self, stats: StreamStats) -> StreamStats:
        with self._lock:
            totals = self._totals[stats.mode]
            totals[0] += 1
            totals[1] += stats.seconds
            self._fraction_sum += stats.modeled_fraction
        return stats

    def _patch(
        self,
        state: StreamState,
        side: str,
        new_tensor: COOTensor,
        new_op: LinearizedOperand,
        touched: np.ndarray,
        tile: int,
    ) -> None:
        """Re-contract only the touched tiles and patch the stored rows."""
        mask = np.isin(new_op.ext // np.int64(tile), touched)
        restricted = LinearizedOperand(
            ext=new_op.ext[mask], con=new_op.con[mask],
            values=new_op.values[mask],
            ext_extent=new_op.ext_extent, con_extent=new_op.con_extent,
        )
        h_restricted = build_tiled_tables(
            restricted, tile, n_workers=self.n_workers, counters=self.counters
        )
        if side == "left":
            assert state.hl is not None and state.right_op is not None
            l_new, r_new, v_new = self._contract_rows(
                state, restricted, state.right_op, h_restricted, state.hr
            )
            tables = list(state.hl.tables)
            for t in touched.tolist():
                tables[t] = h_restricted.tables[t]
            state.hl = TiledTables(tile, state.hl.num_tiles, tables, new_op.nnz)
            state.left, state.left_op = new_tensor, new_op
            self._splice_segments(state, touched, tile, l_new, r_new, v_new)
            return
        else:
            assert state.hr is not None and state.left_op is not None
            l_new, r_new, v_new = self._contract_rows(
                state, state.left_op, restricted, state.hl, h_restricted
            )
            keep = ~np.isin(state.r_idx // np.int64(tile), touched)
            tables = list(state.hr.tables)
            for t in touched.tolist():
                tables[t] = h_restricted.tables[t]
            state.hr = TiledTables(tile, state.hr.num_tiles, tables, new_op.nnz)
            state.right, state.right_op = new_tensor, new_op
        self._merge_rows(state, keep, l_new, r_new, v_new)

    def _rebuild(
        self,
        state: StreamState,
        side: str,
        new_tensor: COOTensor,
        new_op: LinearizedOperand,
        tile: int,
    ) -> None:
        """Full recompute: fresh tables for the mutated side, full kernel."""
        h_new = build_tiled_tables(
            new_op, tile, n_workers=self.n_workers, counters=self.counters
        )
        if side == "left":
            state.left, state.left_op, state.hl = new_tensor, new_op, h_new
        else:
            state.right, state.right_op, state.hr = new_tensor, new_op, h_new
        assert state.left_op is not None and state.right_op is not None
        l_idx, r_idx, values = self._contract_rows(
            state, state.left_op, state.right_op, state.hl, state.hr
        )
        self._store_rows(state, l_idx, r_idx, values)

    # ------------------------------------------------------------------
    # Results and maintenance
    # ------------------------------------------------------------------

    def result(self, name: str) -> COOTensor:
        """The stream's current canonical output (freshness-guarded)."""
        state = self._state(name)
        self.tracker.assert_fresh(f"{state.name}:out")
        assert state.output is not None
        return state.output

    def log(self, name: str, side: str = "left") -> MutationLog:
        state = self._state(name)
        if side not in state.logs:
            raise ConfigError(f"side must be left|right, got {side!r}")
        return state.logs[side]

    def invalidate(self, name: str) -> int:
        """Drop a stream's cached state; returns artifacts released."""
        with self._lock:
            state = self._states.pop(str(name), None)
        if state is None:
            return 0
        released = 0
        for artifact_id in state.artifact_ids:
            released += self.tracker.unregister(artifact_id)
        return released

    def metrics(self) -> dict:
        """JSON-friendly aggregate metrics."""
        with self._lock:
            streams = sorted(self._states)
            inc, inc_s = self._totals["incremental"]
            full, full_s = self._totals["full"]
            noop, _ = self._totals["noop"]
            fraction_sum = self._fraction_sum
        deltas = inc + full + noop
        return {
            "streams": streams,
            "deltas_applied": deltas,
            "incremental": inc,
            "full": full,
            "incremental_seconds": inc_s,
            "full_seconds": full_s,
            "mean_modeled_fraction": fraction_sum / deltas if deltas else 0.0,
            "tracker": self.tracker.stats(),
        }
