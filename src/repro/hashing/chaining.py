"""Chaining (closed-addressing) hash table, Sparta-style.

Sparta represents sparse tensors with chaining hash tables (paper
Sections 2.2 and 7.2): keys hash to a bucket whose entries form a linked
list, so insertion is a cheap head push and never requires relocating
existing entries.  The trade-off is poorer locality on lookup, which the
hashing ablation benchmark measures.

This implementation stores the links in flat NumPy arrays (``heads`` per
bucket, ``next`` per entry) and supports duplicate keys — it is a
*multimap*, matching Sparta's use of one table entry per tensor nonzero.
Batched insertion chains same-bucket entries in one vectorized pass;
batched lookup walks all chains in lockstep.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.analysis.counters import Counters, ensure_counters
from repro.errors import ShapeError
from repro.hashing.hash_functions import splitmix64
from repro.util.arrays import INDEX_DTYPE, as_index_array, next_power_of_two
from repro.util.groups import group_boundaries, sort_by

__all__ = ["ChainingMultiMap"]

_NO_ENTRY = np.int64(-1)


class ChainingMultiMap:
    """Batched chaining multimap from int64 keys to float64 values.

    ``num_buckets`` is fixed at construction (Sparta sizes its tables from
    the nonzero count up front); chains simply grow when the table is
    overloaded.
    """

    __slots__ = ("_heads", "_next", "_keys", "_values", "_size", "_hash", "counters")

    def __init__(
        self,
        num_buckets: int = 64,
        *,
        value_dtype=np.float64,
        hash_fn: Callable[[np.ndarray], np.ndarray] = splitmix64,
        counters: Counters | None = None,
    ):
        num_buckets = max(8, next_power_of_two(num_buckets))
        self._heads = np.full(num_buckets, _NO_ENTRY, dtype=INDEX_DTYPE)
        self._next = np.empty(0, dtype=INDEX_DTYPE)
        self._keys = np.empty(0, dtype=INDEX_DTYPE)
        self._values = np.empty(0, dtype=value_dtype)
        self._size = 0
        self._hash = hash_fn
        self.counters = ensure_counters(counters)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def num_buckets(self) -> int:
        return int(self._heads.shape[0])

    def insert_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Append entries (duplicates allowed — multimap semantics).

        Entries are chained at bucket heads.  Within the batch, entries
        sharing a bucket are linked consecutively so a single vectorized
        pass suffices.
        """
        keys = as_index_array(keys)
        values = np.asarray(values, dtype=self._values.dtype)
        if keys.shape != values.shape or keys.ndim != 1:
            raise ShapeError("keys and values must be equal-length 1-D arrays")
        n = keys.shape[0]
        if n == 0:
            return
        mask = np.uint64(self.num_buckets - 1)
        buckets = (self._hash(keys) & mask).astype(INDEX_DTYPE)

        base = self._size
        sorted_buckets, sorted_ids = sort_by(
            buckets, base + np.arange(n, dtype=INDEX_DTYPE)
        )

        new_next = np.empty(n, dtype=INDEX_DTYPE)
        uniq_buckets, offsets = group_boundaries(sorted_buckets)
        # Within a bucket group, entry i links to entry i-1; the group's
        # first entry links to the pre-existing head.
        new_next[1:] = sorted_ids[:-1]
        starts = offsets[:-1]
        new_next[starts] = self._heads[uniq_buckets]
        # New heads are each group's last entry.
        new_heads = sorted_ids[offsets[1:] - 1]

        # Commit: extend entry storage, then splice the heads.
        self._keys = np.concatenate([self._keys, keys])
        self._values = np.concatenate([self._values, values])
        spliced_next = np.empty(n, dtype=INDEX_DTYPE)
        spliced_next[sorted_ids - base] = new_next
        self._next = np.concatenate([self._next, spliced_next])
        self._heads[uniq_buckets] = new_heads
        self._size += n

    def get_all_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Retrieve every entry matching each queried key.

        Returns ``(query_index, matched_keys, matched_values)`` triples:
        ``query_index[j]`` tells which input key produced match ``j``.
        Matches for one key appear in reverse insertion order (chain
        order).  Cost is proportional to the *chain lengths* walked, the
        behaviour the locality analysis cares about.
        """
        keys = as_index_array(keys)
        if keys.ndim != 1:
            raise ShapeError("key batches must be 1-D")
        self.counters.hash_queries += keys.shape[0]
        mask = np.uint64(self.num_buckets - 1)
        cursor = self._heads[(self._hash(keys) & mask).astype(INDEX_DTYPE)]
        query = np.arange(keys.shape[0], dtype=INDEX_DTYPE)

        out_q: list[np.ndarray] = []
        out_e: list[np.ndarray] = []
        probes = 0
        while cursor.size:
            live = cursor != _NO_ENTRY
            cursor = cursor[live]
            query = query[live]
            if not cursor.size:
                break
            probes += cursor.size
            hit = self._keys[cursor] == keys[query]
            out_q.append(query[hit])
            out_e.append(cursor[hit])
            cursor = self._next[cursor]
        self.counters.probes += probes
        if out_q:
            q = np.concatenate(out_q)
            e = np.concatenate(out_e)
        else:
            q = np.empty(0, dtype=INDEX_DTYPE)
            e = np.empty(0, dtype=INDEX_DTYPE)
        return q, self._keys[e], self._values[e]

    def chain_lengths(self) -> np.ndarray:
        """Length of every bucket chain (diagnostics / ablation)."""
        from repro.backends import get_backend

        lengths = np.zeros(self.num_buckets, dtype=INDEX_DTYPE)
        if self._size:
            mask = np.uint64(self.num_buckets - 1)
            buckets = (self._hash(self._keys) & mask).astype(INDEX_DTYPE)
            get_backend("numpy").scatter_accumulate(lengths, buckets, 1)
        return lengths

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All stored entries in insertion order (duplicates included)."""
        return self._keys.copy(), self._values.copy()
