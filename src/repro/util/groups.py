"""Vectorized grouped-index kernels.

These are the computational primitives behind every contraction scheme in
the library: the one stable sort everything else goes through, finding
group boundaries in sorted key arrays, matching two sorted key sets (the hash-join of the CO scheme), expanding the cartesian
product of matched groups (the per-``c`` outer products of Algorithm 4),
and segment summation (workspace accumulation).

All functions are pure NumPy with no Python-level per-element loops, per
the HPC-Python guidance: the cost of each call is proportional to the
amount of *data* it touches, mirroring the data-volume analysis of the
paper's Section 3.
"""

from __future__ import annotations

import numpy as np

from repro.util.arrays import INDEX_DTYPE

__all__ = [
    "stable_argsort",
    "sort_by",
    "group_boundaries",
    "match_sorted_keys",
    "grouped_cartesian",
    "segment_sum",
]


#: Below this many presorted runs NumPy's timsort (``kind="stable"``)
#: merges the runs in close to linear time and beats a fresh sort.
TIMSORT_MAX_RUNS = 16

#: From this mean presorted-run length up, timsort wins however many
#: runs there are: long runs are typically disjoint blocks (tile-ordered
#: kernel output, a streamed store), which its galloping merge copies
#: rather than compares.
TIMSORT_MIN_RUN_LENGTH = 1024

_INT64_MAX = int(np.iinfo(np.int64).max)


def stable_argsort(keys: np.ndarray) -> np.ndarray | None:
    """``np.argsort(keys, kind="stable")``, or ``None`` if already sorted.

    ``None`` stands for the identity permutation: ``keys`` is
    nondecreasing (which includes empty and length-1 arrays), so the
    caller can skip its gathers.  Otherwise the result is exactly the
    stable permutation, picked by the cheapest exact route:

    * fewer than :data:`TIMSORT_MAX_RUNS` presorted runs (counted in one
      O(n) descent pass), or runs of :data:`TIMSORT_MIN_RUN_LENGTH` or
      more on average: NumPy's stable sort, which merges few or long
      runs in near-linear time;
    * other integer keys: NumPy's default (unstable, SIMD) argsort of
      the distinct int64 key ``(keys - min) * n + position``.  No two
      elements compare equal, so every correct sort returns the one
      permutation that orders ties by position — the stable one;
    * non-integer keys, or a key span whose ``span * n`` would overflow
      int64: NumPy's stable sort.
    """
    keys = np.asarray(keys)
    n = keys.shape[0]
    if n < 2:
        return None
    # Count steps that are *not* ascending, so a NaN breaks a run.
    runs = n - int(np.count_nonzero(keys[1:] >= keys[:-1]))
    if runs == 1:
        return None
    if (
        runs < TIMSORT_MAX_RUNS
        or n >= TIMSORT_MIN_RUN_LENGTH * runs
        or keys.dtype.kind not in "iu"
    ):
        return np.argsort(keys, kind="stable")
    lo = keys.min()
    span = int(keys.max()) - int(lo)
    if (span + 1) * n > _INT64_MAX:
        return np.argsort(keys, kind="stable")
    if keys.dtype.kind == "u":
        distinct = (keys - lo).astype(np.int64)
    else:
        distinct = keys.astype(np.int64) - np.int64(lo)
    distinct *= np.int64(n)
    distinct += np.arange(n, dtype=np.int64)
    return np.argsort(distinct)


def sort_by(keys: np.ndarray, *cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """Stable-sort ``keys`` and gather ``cols`` along their last axis.

    Returns ``(sorted_keys, *sorted_cols)``.  Already-sorted keys come
    back as the very arrays passed in, with no gather; callers that go
    on to mutate the results must copy them first.
    """
    order = stable_argsort(keys)
    if order is None:
        return (keys, *cols)
    return (keys[order], *(col[..., order] for col in cols))


def group_boundaries(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Locate groups of equal keys in a sorted 1-D array.

    Returns ``(unique_keys, offsets)`` where ``offsets`` has length
    ``len(unique_keys) + 1`` and group ``g`` occupies
    ``sorted_keys[offsets[g]:offsets[g + 1]]``.
    """
    keys = np.asarray(sorted_keys)
    n = keys.shape[0]
    if n == 0:
        return keys[:0].copy(), np.zeros(1, dtype=INDEX_DTYPE)
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    starts = np.flatnonzero(change).astype(INDEX_DTYPE)
    offsets = np.concatenate([starts, np.array([n], dtype=INDEX_DTYPE)])
    return keys[starts], offsets


def match_sorted_keys(
    keys_a: np.ndarray, keys_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inner-join two sorted unique key arrays.

    Returns ``(common, idx_a, idx_b)`` such that
    ``keys_a[idx_a] == keys_b[idx_b] == common``.  This is the key
    intersection step of the CO scheme: finding contraction indices ``c``
    present in both input slices.
    """
    common, idx_a, idx_b = np.intersect1d(
        keys_a, keys_b, assume_unique=True, return_indices=True
    )
    return common, idx_a.astype(INDEX_DTYPE), idx_b.astype(INDEX_DTYPE)


def grouped_cartesian(
    starts_a: np.ndarray,
    counts_a: np.ndarray,
    starts_b: np.ndarray,
    counts_b: np.ndarray,
    *,
    max_pairs: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-group cartesian products into flat index arrays.

    For each group ``g``, enumerates all pairs ``(i, j)`` with
    ``i in [starts_a[g], starts_a[g] + counts_a[g])`` and
    ``j in [starts_b[g], starts_b[g] + counts_b[g])``.  Returns
    ``(idx_a, idx_b)`` listing every pair, group by group.

    This realizes the nested ``for <l, lv> ... for <r, rv>`` loops of
    Algorithm 4 for *all* matched contraction indices at once.  The output
    size equals the number of multiply-accumulate operations, i.e. the
    quantity the paper's Section 3.4 notes is identical across loop
    orders.

    ``max_pairs`` guards against accidental quadratic blow-ups; exceeding
    it raises :class:`MemoryError` before any large allocation happens.
    """
    counts_a = np.asarray(counts_a, dtype=INDEX_DTYPE)
    counts_b = np.asarray(counts_b, dtype=INDEX_DTYPE)
    starts_a = np.asarray(starts_a, dtype=INDEX_DTYPE)
    starts_b = np.asarray(starts_b, dtype=INDEX_DTYPE)
    if not (counts_a.shape == counts_b.shape == starts_a.shape == starts_b.shape):
        raise ValueError("group descriptor arrays must have identical shapes")

    pairs = counts_a * counts_b
    total = int(pairs.sum())
    if max_pairs is not None and total > max_pairs:
        raise MemoryError(
            f"grouped cartesian product would produce {total} pairs "
            f"(> guard of {max_pairs})"
        )
    if total == 0:
        empty = np.empty(0, dtype=INDEX_DTYPE)
        return empty, empty.copy()

    # Group id of every output pair, then the pair's rank within its group.
    group_of = np.repeat(np.arange(pairs.shape[0], dtype=INDEX_DTYPE), pairs)
    pair_offsets = np.zeros(pairs.shape[0] + 1, dtype=INDEX_DTYPE)
    np.cumsum(pairs, out=pair_offsets[1:])
    local = np.arange(total, dtype=INDEX_DTYPE) - pair_offsets[group_of]

    nb = counts_b[group_of]
    idx_a = starts_a[group_of] + local // nb
    idx_b = starts_b[group_of] + local % nb
    return idx_a, idx_b


def segment_sum(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` grouped by (unsorted) ``keys``.

    Returns ``(unique_keys_sorted, sums)``.  Implemented with a sort and
    ``np.add.reduceat`` so the cost is ``O(n log n)`` regardless of the
    key range — this is the dense-workspace-free accumulation fallback
    used by the reference schemes when a dense workspace would not fit.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape != values.shape:
        raise ValueError("keys and values must have the same shape")
    if keys.size == 0:
        return keys[:0].copy(), values[:0].copy()
    keys, values = sort_by(keys, values)
    uniq, offsets = group_boundaries(keys)
    sums = np.add.reduceat(values, offsets[:-1])
    return uniq, sums
