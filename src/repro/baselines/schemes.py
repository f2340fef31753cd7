"""Untiled reference schemes: CI, CM, CO (paper Algorithms 2-4).

These are the instrumented implementations behind the Section 3 loop-
order analysis.  Each represents the inputs as hash-indexed slice maps
(:class:`~repro.hashing.slice_table.SliceTable`) keyed exactly as the
paper prescribes:

========  ==========================  ==========================
scheme    left map                    right map
========  ==========================  ==========================
CI        ``HL : L -> P(C x V)``      ``HR : R -> P(C x V)``
CM        ``HL : L -> P(C x V)``      ``HR : C -> P(R x V)``
CO        ``HL : C -> P(L x V)``      ``HR : C -> P(R x V)``
========  ==========================  ==========================

and tallies hash queries / retrieved data volume / workspace size into
:class:`~repro.analysis.counters.Counters`, which the Table 1 benchmark
compares against the closed forms in
:mod:`repro.machine.cost_model`.

All three produce identical results; the test suite checks them against
each other and against dense ``einsum``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.counters import Counters, ensure_counters
from repro.core.plan import LinearizedOperand
from repro.errors import ConfigError, WorkspaceLimitError
from repro.hashing.open_addressing import OpenAddressingMap
from repro.hashing.slice_table import SliceTable
from repro.util.arrays import INDEX_DTYPE
from repro.util.groups import group_boundaries, grouped_cartesian, sort_by

__all__ = ["contract_untiled", "ci_contract", "cm_contract", "co_contract"]

#: Dense-workspace guard for the untiled CO scheme: above this many
#: cells the scheme's own premise (a dense L*R accumulator) has failed,
#: which is precisely the problem Section 3.5 motivates tiling with.
DENSE_WS_GUARD = 1 << 26

_EXPAND_CHUNK = 1 << 21


def contract_untiled(
    scheme: str,
    left: LinearizedOperand,
    right: LinearizedOperand,
    *,
    counters: Counters | None = None,
    workspace: str = "auto",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dispatch to one of the three untiled reference schemes."""
    fn = {"ci": ci_contract, "cm": cm_contract, "co": co_contract}.get(scheme)
    if fn is None:
        raise ConfigError(f"scheme must be ci|cm|co, got {scheme!r}")
    if scheme == "co":
        return fn(left, right, counters=counters, workspace=workspace)
    return fn(left, right, counters=counters)


# ---------------------------------------------------------------------------
# Contraction-Inner (Algorithm 2)
# ---------------------------------------------------------------------------


def ci_contract(
    left: LinearizedOperand,
    right: LinearizedOperand,
    *,
    counters: Counters | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CI: sparse inner product of every (l, r) slice pair.

    For each nonzero left slice ``l``, the kernel co-iterates ``l``'s
    contraction fiber against the *entire* right tensor — the
    ``O(L * nnz_R)`` data volume of Table 1 — matching values of ``c``
    via binary search into the slice's sorted fiber.  Only a scalar
    accumulator is needed (``Size_Acc = 1``), the scheme's one virtue.
    """
    counters = ensure_counters(counters)
    counters.note_workspace(1)
    hl = SliceTable(left.ext, left.con, left.values, counters=counters)
    hr = SliceTable(right.ext, right.con, right.values, counters=counters)

    # Sort each left fiber by c so the co-iteration can binary search.
    starts_l, counts_l = hl.spans_for_all_keys()
    l_con, l_vals = hl.payload

    r_con, r_vals = hr.payload
    r_ext_of_payload = np.repeat(hr.keys(), hr.group_sizes())

    out_l: list[np.ndarray] = []
    out_r: list[np.ndarray] = []
    out_v: list[np.ndarray] = []

    keys_l = hl.keys()
    num_r_slices = hr.num_keys
    for pos in range(keys_l.shape[0]):
        lo, hi = int(starts_l[pos]), int(starts_l[pos] + counts_l[pos])
        fiber_c = l_con[lo:hi]
        fiber_v = l_vals[lo:hi]
        fiber_c, fiber_v = sort_by(fiber_c, fiber_v)
        # One conceptual query per (l, r) slice pair (Algorithm 2's loop
        # structure) and a full scan of the right tensor's nonzeros.
        counters.hash_queries += 1 + num_r_slices
        counters.data_volume += int(fiber_c.shape[0]) + int(r_con.shape[0])

        # Match every right nonzero's c against this fiber (binary
        # search; groups are never empty so the clamp below is safe).
        idx = np.searchsorted(fiber_c, r_con)
        safe = np.minimum(idx, fiber_c.shape[0] - 1)
        hit = fiber_c[safe] == r_con
        if not np.any(hit):
            continue
        contrib = fiber_v[safe[hit]] * r_vals[hit]
        counters.accum_updates += int(contrib.shape[0])
        # The right payload is sorted by r, so segments of equal r are
        # contiguous: reduce per output element (l, r).
        r_of_hit = r_ext_of_payload[hit]
        uniq_r, offsets = group_boundaries(r_of_hit)
        sums = np.add.reduceat(contrib, offsets[:-1])
        out_l.append(np.full(uniq_r.shape[0], keys_l[pos], dtype=INDEX_DTYPE))
        out_r.append(uniq_r)
        out_v.append(sums)

    if not out_l:
        e = np.empty(0, dtype=INDEX_DTYPE)
        return e, e.copy(), np.empty(0)
    l_idx = np.concatenate(out_l)
    counters.output_nnz += int(l_idx.shape[0])
    return l_idx, np.concatenate(out_r), np.concatenate(out_v)


# ---------------------------------------------------------------------------
# Contraction-Middle (Algorithm 3)
# ---------------------------------------------------------------------------


def cm_contract(
    left: LinearizedOperand,
    right: LinearizedOperand,
    *,
    counters: Counters | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CM: for each left slice ``l``, join its fiber against ``HR : C -> R``.

    Accumulates into a 1-D workspace ``WS : R -> V``, reset (sparsely)
    between ``l`` iterations — the generic form of Sparta's scheme; see
    :mod:`repro.baselines.sparta` for the chaining-table variant.
    """
    counters = ensure_counters(counters)
    hl = SliceTable(left.ext, left.con, left.values, counters=counters)
    hr = SliceTable(right.con, right.ext, right.values, counters=counters)
    counters.note_workspace(right.ext_extent)

    ws = np.zeros(right.ext_extent, dtype=np.float64)
    l_con, l_vals = hl.payload
    r_ext, r_vals = hr.payload
    starts_l, counts_l = hl.spans_for_all_keys()
    keys_l = hl.keys()
    counters.hash_queries += keys_l.shape[0]  # one query per left slice

    out_l: list[np.ndarray] = []
    out_r: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    for pos in range(keys_l.shape[0]):
        lo, hi = int(starts_l[pos]), int(starts_l[pos] + counts_l[pos])
        fiber_c = l_con[lo:hi]
        fiber_v = l_vals[lo:hi]
        counters.data_volume += int(fiber_c.shape[0])

        found, starts_r, counts_r = hr.query_batch(fiber_c)  # one query per nonzero
        if not np.any(found):
            continue
        fs = np.flatnonzero(found)
        ia, ib = grouped_cartesian(
            np.zeros(fs.shape[0], dtype=INDEX_DTYPE) + lo + fs,
            np.ones(fs.shape[0], dtype=INDEX_DTYPE),
            starts_r[fs],
            counts_r[fs],
        )
        counters.data_volume += int(counts_r[fs].sum())
        r_targets = r_ext[ib]
        contrib = fiber_v[ia - lo] * r_vals[ib]
        counters.accum_updates += int(contrib.shape[0])
        np.add.at(ws, r_targets, contrib)
        touched = np.unique(r_targets)
        out_l.append(np.full(touched.shape[0], keys_l[pos], dtype=INDEX_DTYPE))
        out_r.append(touched)
        out_v.append(ws[touched].copy())
        ws[touched] = 0.0  # sparse reset for the next l

    if not out_l:
        e = np.empty(0, dtype=INDEX_DTYPE)
        return e, e.copy(), np.empty(0)
    l_idx = np.concatenate(out_l)
    counters.output_nnz += int(l_idx.shape[0])
    return l_idx, np.concatenate(out_r), np.concatenate(out_v)


# ---------------------------------------------------------------------------
# Contraction-Outer (Algorithm 4)
# ---------------------------------------------------------------------------


def co_contract(
    left: LinearizedOperand,
    right: LinearizedOperand,
    *,
    counters: Counters | None = None,
    workspace: str = "auto",
    dense_guard: int = DENSE_WS_GUARD,
    trace=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CO: iterate the contraction index outermost.

    Both operands are keyed by ``c``; for every ``c`` present in both,
    the outer product of the two slices is accumulated into a 2-D
    workspace ``WS : (L x R) -> V``.

    ``workspace`` selects the accumulator:

    * ``"dense"`` — a flat ``L * R`` array (Table 1's ``Size_Acc``),
      guarded by ``dense_guard``: exceeding it raises
      :class:`~repro.errors.WorkspaceLimitError`, the exact failure mode
      Section 3.5 motivates tiling with.
    * ``"sparse"`` — an open-addressing upsert table.
    * ``"auto"`` — dense when it fits the guard, else sparse.
    """
    counters = ensure_counters(counters)
    hl = SliceTable(left.con, left.ext, left.values, counters=counters)
    hr = SliceTable(right.con, right.ext, right.values, counters=counters)

    keys_l = hl.keys()
    # One conceptual query per contraction index per table (2C of Table
    # 1); implemented as a scan of HL's keys plus batched probes of HR.
    found, starts_r, counts_r = hr.query_batch(keys_l)
    counters.hash_queries += keys_l.shape[0]  # the HL side of the 2C
    starts_l, counts_l = hl.spans_for_all_keys()

    sel = found
    g_sl, g_cl = starts_l[sel], counts_l[sel]
    g_sr, g_cr = starts_r[sel], counts_r[sel]
    counters.data_volume += int(g_cl.sum() + g_cr.sum())

    l_payload, l_vals = hl.payload
    r_payload, r_vals = hr.payload

    total_cells = left.ext_extent * right.ext_extent
    use_dense = workspace == "dense" or (
        workspace == "auto" and total_cells <= dense_guard
    )
    if workspace == "dense" and total_cells > dense_guard:
        raise WorkspaceLimitError(
            f"untiled CO dense workspace needs {total_cells} cells "
            f"(> guard of {dense_guard}); use the tiled kernel"
        )

    r_extent = np.int64(right.ext_extent)
    pair_counts = g_cl * g_cr
    cum = np.cumsum(pair_counts)

    if use_dense:
        counters.note_workspace(int(total_cells))
        ws = np.zeros(int(total_cells), dtype=np.float64)
        touched = np.zeros(int(total_cells), dtype=bool)
    else:
        est = int(cum[-1]) if cum.shape[0] else 0
        acc = OpenAddressingMap(max(64, est // 4), counters=counters)

    chunk_start = 0
    base = 0
    n_groups = pair_counts.shape[0]
    while chunk_start < n_groups:
        chunk_end = int(np.searchsorted(cum, base + _EXPAND_CHUNK, side="right"))
        chunk_end = max(chunk_end, chunk_start + 1)
        sl = slice(chunk_start, chunk_end)
        ia, ib = grouped_cartesian(g_sl[sl], g_cl[sl], g_sr[sl], g_cr[sl])
        if ia.shape[0]:
            out_keys = l_payload[ia] * r_extent + r_payload[ib]
            contrib = l_vals[ia] * r_vals[ib]
            counters.accum_updates += int(contrib.shape[0])
            if trace is not None:
                trace.record(out_keys)
            if use_dense:
                np.add.at(ws, out_keys, contrib)
                touched[out_keys] = True
            else:
                acc.upsert_batch(out_keys, contrib)
        base = int(cum[chunk_end - 1])
        chunk_start = chunk_end

    if use_dense:
        active = np.flatnonzero(touched).astype(INDEX_DTYPE)
        values = ws[active]
    else:
        counters.note_workspace(acc.capacity)
        active, values = acc.items_sorted()
    counters.output_nnz += int(active.shape[0])
    return active // r_extent, active % r_extent, values
