"""The FaSTCC kernel: 2-D tiled contraction-index-outer contraction.

Implements Algorithms 5 and 6 of the paper.  The output index space
``L x R`` is partitioned into ``NL x NR`` tiles; each input is split
into per-tile hash tables keyed by the contraction index
(``HL_i : C -> P({0..T_L-1} x V)``), and every tile pair ``(i, j)`` is an
independent task:

1. **construction** — build the tiled tables (parallelizable; the paper
   splits threads between the two operands);
2. **co-iteration** — for each ``c`` present in both ``HL_i`` and
   ``HR_j``, form the outer product of the two slices;
3. **accumulation** — upsert partial products into a dense or sparse
   tile workspace (chosen by the model);
4. **drain** — walk the workspace's active entries, remap intra-tile to
   global indices, and append to a thread-local COO builder; the master
   concatenates builders at the end.

The per-``c`` outer products of all matched keys are expanded with the
vectorized :func:`repro.util.groups.grouped_cartesian` kernel in bounded
chunks, so peak extra memory is ``O(chunk_pairs)`` regardless of how many
multiply-accumulates a tile performs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.counters import Counters, ensure_counters
from repro.backends.base import KernelBackend
from repro.backends.registry import resolve_backend
from repro.core.accumulators import DEFAULT_DENSE_CELL_GUARD, make_accumulator
from repro.core.plan import LinearizedOperand, Plan
from repro.errors import ConfigError, PlanError, ShapeError, WorkspaceLimitError
from repro.hashing.slice_table import SliceTable
from repro.parallel.memory_pool import COOBuilder
from repro.parallel.taskqueue import TaskQueue
from repro.util.arrays import ceil_div
from repro.util.groups import (
    group_boundaries,
    grouped_cartesian,
    sort_by,
    stable_argsort,
)

__all__ = [
    "TiledTables",
    "ContractionStats",
    "tiled_co_contract",
    "build_tiled_tables",
    "build_tiled_tables_pair",
]

#: Upper bound on the outer-product expansion processed per chunk.
DEFAULT_CHUNK_PAIRS = 1 << 21

#: Upper bound on the number of tile-pair tasks.  A dense accumulator
#: forced onto an ultra-sparse output explodes the tile grid (the paper's
#: Table 3 reports DNF for NIPS mode 2 in exactly this configuration);
#: the guard turns that into a clean WorkspaceLimitError.
DEFAULT_MAX_TASKS = 1 << 21


class TiledTables:
    """One operand's per-tile hash tables (``HL_i`` of Section 4.1)."""

    __slots__ = ("tile", "num_tiles", "tables", "nnz")

    def __init__(self, tile: int, num_tiles: int, tables: list[SliceTable | None], nnz: int):
        self.tile = tile
        self.num_tiles = num_tiles
        self.tables = tables
        self.nnz = nnz

    def nonempty_tiles(self) -> list[int]:
        return [i for i, t in enumerate(self.tables) if t is not None]


def build_tiled_tables(
    operand: LinearizedOperand,
    tile: int,
    *,
    n_workers: int = 1,
    counters: Counters | None = None,
) -> TiledTables:
    """Split an operand into per-tile contraction-indexed hash tables.

    An element with external index ``e`` lands in table ``e // tile``
    under intra-tile index ``e % tile`` (Section 4.2's parallel
    construction).  Table construction for distinct tiles is dispatched
    through the task queue, mirroring the paper's per-thread tile
    ownership.
    """
    if tile < 1:
        raise ConfigError(f"tile must be >= 1, got {tile}")
    counters = ensure_counters(counters)
    num_tiles = max(1, ceil_div(operand.ext_extent, tile))
    tables: list[SliceTable | None] = [None] * num_tiles
    if operand.nnz == 0:
        return TiledTables(tile, num_tiles, tables, 0)

    # One sort on (tile, con): each tile's run then arrives in key order,
    # so its SliceTable only checks that.  Ties keep operand order — the
    # same permutation as a stable tile sort then a stable con sort per
    # tile.
    tile_of = operand.ext // np.int64(tile)
    _, sorted_tiles, sorted_ext, sorted_con, sorted_vals = sort_by(
        tile_of * np.int64(operand.con_extent) + operand.con,
        tile_of, operand.ext, operand.con, operand.values,
    )
    sorted_intra = sorted_ext % np.int64(tile)
    tile_ids, offsets = group_boundaries(sorted_tiles)

    def make_task(g: int):
        def task() -> None:
            lo, hi = int(offsets[g]), int(offsets[g + 1])
            tables[int(tile_ids[g])] = SliceTable(
                sorted_con[lo:hi],
                sorted_intra[lo:hi],
                sorted_vals[lo:hi],
                counters=counters,
            )

        return task

    TaskQueue(n_workers).run([make_task(g) for g in range(tile_ids.shape[0])])
    return TiledTables(tile, num_tiles, tables, operand.nnz)


def build_tiled_tables_pair(
    left: LinearizedOperand,
    right: LinearizedOperand,
    tile_l: int,
    tile_r: int,
    *,
    n_workers: int = 1,
    counters: Counters | None = None,
) -> tuple[TiledTables, TiledTables]:
    """Build both operands' tile tables with a split thread team.

    The paper's Section 4.2: half the threads construct ``HL`` while
    the other half construct ``HR`` (OpenMP nested parallel regions).
    With one worker the two builds simply run back to back.

    A self-contraction whose two sides linearize to the same operand
    object (``right is left``) at the same tile size builds once, with
    the whole team, and returns that one :class:`TiledTables` twice —
    the tables are read-only once built.
    """
    if right is left and tile_l == tile_r:
        shared = build_tiled_tables(
            left, tile_l, n_workers=n_workers, counters=counters
        )
        return shared, shared
    if n_workers <= 1:
        return (
            build_tiled_tables(left, tile_l, counters=counters),
            build_tiled_tables(right, tile_r, counters=counters),
        )
    left_team = max(1, n_workers // 2)
    right_team = max(1, n_workers - left_team)
    results: list[TiledTables | None] = [None, None]
    errors: list[BaseException] = []

    def build(slot: int, operand: LinearizedOperand, tile: int, team: int) -> None:
        try:
            results[slot] = build_tiled_tables(
                operand, tile, n_workers=team, counters=counters
            )
        except BaseException as exc:  # noqa: BLE001 - reraised below
            errors.append(exc)

    threads = [
        threading.Thread(target=build, args=(0, left, tile_l, left_team)),
        threading.Thread(target=build, args=(1, right, tile_r, right_team)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    assert results[0] is not None and results[1] is not None
    return results[0], results[1]


@dataclass
class ContractionStats:
    """Everything measured during one kernel execution.

    ``task_costs`` (seconds per tile-pair task, in dispatch order) feed
    the scheduling simulator; ``phase_seconds`` breaks the run into the
    paper's four steps.
    """

    plan: Plan | None = None
    counters: Counters = field(default_factory=Counters)
    task_costs: np.ndarray = field(default_factory=lambda: np.empty(0))
    task_pairs: list = field(default_factory=list)  # (i, j) in dispatch order
    phase_seconds: dict[str, float] = field(default_factory=dict)
    output_nnz: int = 0
    num_tasks: int = 0

    @property
    def kernel_seconds(self) -> float:
        """Co-iteration + accumulation + drain (the parallel section)."""
        return self.phase_seconds.get("contract", 0.0)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())


def tiled_co_contract(
    left: LinearizedOperand,
    right: LinearizedOperand,
    plan: Plan,
    *,
    n_workers: int = 1,
    counters: Counters | None = None,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
    dense_cell_guard: int = DEFAULT_DENSE_CELL_GUARD,
    max_tasks: int = DEFAULT_MAX_TASKS,
    builder_chunk_rows: int = 1 << 16,
    trace=None,
    schedule: str = "heavy_first",
    tables: "tuple[TiledTables, TiledTables] | None" = None,
    check_hazards: bool = False,
    backend: "str | KernelBackend | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ContractionStats]:
    """Run Algorithm 6 on linearized operands.

    Returns ``(l_idx, r_idx, values, stats)`` with unique output
    coordinates (each output tile is disjoint, and each tile's drain
    emits unique positions).

    ``schedule`` orders the tile-pair task queue: ``"heavy_first"``
    (default) dispatches tasks by descending estimated cost
    (``nnz(HL_i) * nnz(HR_j)``, an upper bound on the tile's multiply-
    accumulates) — the LPT heuristic that tightens greedy dynamic
    scheduling's makespan when a few heavy tiles dominate;
    ``"fifo"`` keeps grid order (Algorithm 5's nested loops verbatim).

    ``tables`` injects prebuilt :class:`TiledTables` for both operands
    (from :func:`build_tiled_tables_pair`), skipping the construction
    phase entirely — the runtime layer's table-reuse path for batched
    contractions that share an operand.  Tile sizes must match the plan.

    ``check_hazards`` hands the dispatch list's per-task write sets to
    the task queue, which statically verifies the disjoint-tile
    invariant (:mod:`repro.staticcheck.graph_lint`) before executing —
    raising :class:`~repro.errors.SchedulerError` instead of racing if a
    tile pair is ever repeated.

    ``backend`` selects the kernel backend (name, instance, or ``None``
    for the environment default; see :mod:`repro.backends`).  A backend
    with a native pairwise path (scipy's SpGEMM, the array-API dense
    GEMM) short-circuits the tiled loop entirely when it accepts the
    problem; otherwise its element ops run inside Algorithm 6.
    """
    if schedule not in ("heavy_first", "fifo"):
        raise ConfigError(f"schedule must be heavy_first|fifo, got {schedule!r}")
    if left.con_extent != right.con_extent:
        raise ShapeError(
            f"contraction extents differ: {left.con_extent} vs {right.con_extent}"
        )
    counters = ensure_counters(counters)
    stats = ContractionStats(plan=plan, counters=counters)
    tile_l, tile_r = plan.tile_l, plan.tile_r
    backend = resolve_backend(backend)

    # A backend-native pairwise path replaces the whole tiled loop.
    # Instrumented runs (``trace``) stay on the tiled kernel — the trace
    # records accumulator access patterns the native path doesn't have.
    if trace is None:
        t0 = time.perf_counter()
        native = backend.contract_linearized(left, right, plan, counters=counters)
        if native is not None:
            l_idx, r_idx, values = native
            stats.phase_seconds["contract"] = time.perf_counter() - t0
            stats.output_nnz = int(values.shape[0])
            return l_idx, r_idx, values, stats

    # Step 1: parallel construction of the tiled hash tables, with the
    # thread pool split between the two operands (paper Section 4.2).
    # Prebuilt tables (the runtime's reuse path) skip this phase.
    t0 = time.perf_counter()
    if tables is not None:
        hl, hr = tables
        if hl.tile != tile_l or hr.tile != tile_r:
            raise PlanError(
                f"prebuilt tables tiled {hl.tile}x{hr.tile} but the plan "
                f"wants {tile_l}x{tile_r}"
            )
        if hl.nnz != left.nnz or hr.nnz != right.nnz:
            raise PlanError(
                "prebuilt tables do not match the operands: "
                f"table nnz ({hl.nnz}, {hr.nnz}) vs operand nnz "
                f"({left.nnz}, {right.nnz})"
            )
    else:
        hl, hr = build_tiled_tables_pair(
            left, right, tile_l, tile_r, n_workers=n_workers, counters=counters
        )
    stats.phase_seconds["build_tables"] = time.perf_counter() - t0

    expected_tile_nnz = max(8, int(plan.est_output_density * tile_l * tile_r) + 1)
    tile_r_np = np.int64(tile_r)

    # Per-worker state: a reusable accumulator and a COO builder.
    local = threading.local()
    all_builders: list[COOBuilder] = []
    builders_lock = threading.Lock()

    def get_state():
        acc = getattr(local, "acc", None)
        if acc is None:
            acc = make_accumulator(
                plan.accumulator,
                tile_l,
                tile_r,
                expected_nnz=expected_tile_nnz,
                counters=counters,
                cell_guard=dense_cell_guard,
                trace=trace,
                backend=backend,
            )
            builder = COOBuilder(chunk_rows=builder_chunk_rows)
            local.acc = acc
            local.builder = builder
            with builders_lock:
                all_builders.append(builder)
        return local.acc, local.builder

    def make_task(i: int, j: int):
        hl_i = hl.tables[i]
        hr_j = hr.tables[j]

        def task() -> None:
            acc, builder = get_state()
            acc.reset()
            # Co-iteration: scan HL_i's own keys, hash-probe HR_j.
            keys_l = hl_i.keys()
            found, starts_r, counts_r = hr_j.query_batch(keys_l)
            starts_l, counts_l = hl_i.spans_for_all_keys()
            sel = found
            if not sel.any():
                return
            g_sl = starts_l[sel]
            g_cl = counts_l[sel]
            g_sr = starts_r[sel]
            g_cr = counts_r[sel]
            counters.data_volume += int(g_cl.sum() + g_cr.sum())

            idx_l_payload, vals_l = hl_i.payload
            idx_r_payload, vals_r = hr_j.payload

            # Expand matched outer products in bounded chunks of groups.
            pair_counts = g_cl * g_cr
            cum = np.cumsum(pair_counts)
            chunk_start = 0
            n_groups = pair_counts.shape[0]
            base = 0
            while chunk_start < n_groups:
                limit = base + chunk_pairs
                chunk_end = int(np.searchsorted(cum, limit, side="right"))
                chunk_end = max(chunk_end, chunk_start + 1)
                sl = slice(chunk_start, chunk_end)
                ia, ib = grouped_cartesian(g_sl[sl], g_cl[sl], g_sr[sl], g_cr[sl])
                if ia.shape[0]:
                    positions = (
                        backend.gather(idx_l_payload, ia) * tile_r_np
                        + backend.gather(idx_r_payload, ib)
                    )
                    vals = backend.multiply(
                        backend.gather(vals_l, ia), backend.gather(vals_r, ib)
                    )
                    acc.update_batch(positions, vals)
                base = int(cum[chunk_end - 1])
                chunk_start = chunk_end

            # Drain: intra-tile positions back to global output indices.
            positions, values = acc.drain()
            if positions.shape[0]:
                l_global = np.int64(i) * tile_l + positions // tile_r_np
                r_global = np.int64(j) * tile_r + positions % tile_r_np
                builder.append_batch(l_global, r_global, values)
                counters.output_nnz += positions.shape[0]

        return task

    nonempty_l = hl.nonempty_tiles()
    nonempty_r = hr.nonempty_tiles()
    n_pairs = len(nonempty_l) * len(nonempty_r)
    if n_pairs > max_tasks:
        raise WorkspaceLimitError(
            f"tile grid of {len(nonempty_l)}x{len(nonempty_r)} nonempty tiles "
            f"({n_pairs} tasks) exceeds the task guard ({max_tasks}); this "
            "configuration is the paper's DNF regime — use a sparse "
            "accumulator (larger tiles) instead"
        )
    pairs_order = [(i, j) for i in nonempty_l for j in nonempty_r]
    if schedule == "heavy_first" and len(pairs_order) > 1:
        # Estimated tile cost: product of the two tables' nonzero counts
        # (the outer-product upper bound).  Descending order = LPT.
        weights = np.array(
            [hl.tables[i].nnz * hr.tables[j].nnz for i, j in pairs_order],
            dtype=np.int64,
        )
        order = stable_argsort(-weights)
        if order is not None:
            pairs_order = [pairs_order[k] for k in order]
    tasks = [make_task(i, j) for i, j in pairs_order]
    counters.tasks += len(tasks)
    stats.num_tasks = len(tasks)
    stats.task_pairs = pairs_order

    t0 = time.perf_counter()
    write_sets = (
        [frozenset([p]) for p in pairs_order] if check_hazards else None
    )
    records = TaskQueue(n_workers).run(tasks, write_sets=write_sets)
    stats.phase_seconds["contract"] = time.perf_counter() - t0
    stats.task_costs = np.array([r.cost for r in records], dtype=np.float64)

    # Step 4 epilogue: the master concatenates the thread-local lists.
    t0 = time.perf_counter()
    l_idx, r_idx, values = COOBuilder.merge(all_builders)
    stats.phase_seconds["merge_output"] = time.perf_counter() - t0
    stats.output_nnz = int(values.shape[0])
    return l_idx, r_idx, values, stats
