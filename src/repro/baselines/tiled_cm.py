"""Tiled contraction-middle: the road the paper did not take.

Section 3.5 resolves CO's workspace problem with 2-D output tiling.  An
obvious alternative the paper leaves implicit is to keep the CM loop
order and tile its 1-D workspace instead: partition ``R`` into tiles of
``T_R`` and run CM once per tile, so the workspace is ``T_R`` cells
regardless of the output extent.

The cost of that alternative is what justifies the paper's choice, and
this module makes it measurable: every *left* fiber must be re-read and
re-joined once per right tile, so

* queries grow to ``NR * (L + nnz_L)`` (vs tiled CO's
  ``2 C NL NR``, which in the common regime is far smaller because
  only matched keys are probed), and
* left-tensor volume grows to ``nnz_L * NR`` *plus* the join work is
  repeated per tile — CM's multiplicative ``nnz_L nnz_R / C`` term is
  *not* reduced by the tiling, it is simply partitioned.

The tiling ablation compares all three (untiled CM, tiled CM, tiled CO)
on the same operands.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.counters import Counters, ensure_counters
from repro.core.plan import LinearizedOperand
from repro.errors import ConfigError, ShapeError
from repro.hashing.slice_table import SliceTable
from repro.util.arrays import INDEX_DTYPE, ceil_div
from repro.util.groups import group_boundaries, grouped_cartesian, sort_by

__all__ = ["tiled_cm_contract"]


def tiled_cm_contract(
    left: LinearizedOperand,
    right: LinearizedOperand,
    *,
    tile_r: int = 512,
    counters: Counters | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CM loop order with a 1-D tiled workspace of ``tile_r`` cells.

    Returns ``(l_idx, r_idx, values)`` with unique coordinates.
    """
    if left.con_extent != right.con_extent:
        raise ShapeError("contraction extents differ")
    if tile_r < 1:
        raise ConfigError(f"tile_r must be >= 1, got {tile_r}")
    counters = ensure_counters(counters)

    hl = SliceTable(left.ext, left.con, left.values, counters=counters)
    counters.note_workspace(min(tile_r, right.ext_extent))
    n_tiles = max(1, ceil_div(right.ext_extent, tile_r))

    # Partition the right tensor by tile; each tile gets its own
    # c-indexed table (as the tiled CO scheme does for both operands).
    tile_of = right.ext // np.int64(tile_r)
    tiles: list[SliceTable | None] = [None] * n_tiles
    t_sorted, r_con, r_ext, r_vals = sort_by(
        tile_of, right.con, right.ext, right.values
    )
    tile_ids, offsets = group_boundaries(t_sorted)
    for g in range(tile_ids.shape[0]):
        lo, hi = int(offsets[g]), int(offsets[g + 1])
        tiles[int(tile_ids[g])] = SliceTable(
            r_con[lo:hi],
            r_ext[lo:hi] % np.int64(tile_r),
            r_vals[lo:hi],
            counters=counters,
        )

    l_con, l_vals = hl.payload
    starts_l, counts_l = hl.spans_for_all_keys()
    keys_l = hl.keys()

    ws = np.zeros(min(tile_r, right.ext_extent), dtype=np.float64)
    out_l: list[np.ndarray] = []
    out_r: list[np.ndarray] = []
    out_v: list[np.ndarray] = []

    for j, hr_j in enumerate(tiles):
        if hr_j is None:
            continue
        base_r = j * tile_r
        # CM over this tile: every left slice is re-read and re-joined.
        counters.hash_queries += keys_l.shape[0]
        for pos in range(keys_l.shape[0]):
            lo, hi = int(starts_l[pos]), int(starts_l[pos] + counts_l[pos])
            fiber_c = l_con[lo:hi]
            counters.data_volume += int(fiber_c.shape[0])
            found, starts_r, counts_r = hr_j.query_batch(fiber_c)
            fs = np.flatnonzero(found)
            if fs.size == 0:
                continue
            ia, ib = grouped_cartesian(
                lo + fs.astype(INDEX_DTYPE),
                np.ones(fs.shape[0], dtype=INDEX_DTYPE),
                starts_r[fs],
                counts_r[fs],
            )
            counters.data_volume += int(counts_r[fs].sum())
            r_payload, r_vals = hr_j.payload
            targets = r_payload[ib]
            contrib = l_vals[ia] * r_vals[ib]
            counters.accum_updates += int(contrib.shape[0])
            np.add.at(ws, targets, contrib)
            touched = np.unique(targets)
            out_l.append(
                np.full(touched.shape[0], keys_l[pos], dtype=INDEX_DTYPE)
            )
            out_r.append(base_r + touched)
            out_v.append(ws[touched].copy())
            ws[touched] = 0.0

    if not out_l:
        e = np.empty(0, dtype=INDEX_DTYPE)
        return e, e.copy(), np.empty(0)
    l_idx = np.concatenate(out_l)
    counters.output_nnz += int(l_idx.shape[0])
    return l_idx, np.concatenate(out_r), np.concatenate(out_v)
