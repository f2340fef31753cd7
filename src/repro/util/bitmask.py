"""Packed bitmask with vectorized batched test-and-set.

The paper's dense tile structure carries a bitmask ``bm`` of
``T_L * T_R / 8`` *bytes* — one bit per tile cell — whose test-and-set
drives the active-position bookkeeping (Section 4.2).  NumPy's ``bool``
arrays spend a full byte per bit; this class packs 64 cells per word,
reproducing the paper's memory footprint exactly while keeping every
operation batched.

The batched test-and-set must handle duplicate positions within one
batch: only the *first* occurrence of a position may report "was
clear".  That is resolved with a stable first-occurrence reduction, not
per-element Python.
"""

from __future__ import annotations

import numpy as np

from repro.util.arrays import INDEX_DTYPE, ceil_div
from repro.util.groups import stable_argsort

__all__ = ["PackedBitmask"]


class PackedBitmask:
    """``n_bits`` flags packed into uint64 words."""

    __slots__ = ("n_bits", "_words")

    def __init__(self, n_bits: int):
        if n_bits < 0:
            raise ValueError(f"n_bits must be >= 0, got {n_bits}")
        self.n_bits = int(n_bits)
        self._words = np.zeros(ceil_div(max(1, n_bits), 64), dtype=np.uint64)

    @property
    def nbytes(self) -> int:
        """Backing storage in bytes — ``ceil(n_bits / 8)`` rounded to
        words, the paper's T_L*T_R/8 bitmask footprint."""
        return self._words.nbytes

    def _split(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        positions = np.asarray(positions, dtype=INDEX_DTYPE)
        if positions.size and (
            positions.min() < 0 or positions.max() >= self.n_bits
        ):
            raise IndexError(
                f"bit positions must be in [0, {self.n_bits})"
            )
        return positions >> 6, np.uint64(1) << (positions & 63).astype(np.uint64)

    def test(self, positions: np.ndarray) -> np.ndarray:
        """Bit values at ``positions`` (no modification)."""
        words, bits = self._split(positions)
        return (self._words[words] & bits) != 0

    def test_and_set(self, positions: np.ndarray) -> np.ndarray:
        """Set bits at ``positions``; return which were *newly* set.

        Duplicate positions within the batch report True exactly once
        (at their first occurrence), matching a sequential loop of
        scalar test-and-set operations.
        """
        positions = np.asarray(positions, dtype=INDEX_DTYPE)
        if positions.size == 0:
            return np.zeros(0, dtype=bool)
        words, bits = self._split(positions)
        was_set = (self._words[words] & bits) != 0
        # OR the bits in (duplicates collapse naturally via bitwise_or.at).
        np.bitwise_or.at(self._words, words, bits)
        fresh = ~was_set
        if not fresh.any():
            return fresh
        # First occurrence per duplicated position among the fresh ones.
        order = stable_argsort(positions)
        sorted_pos = positions if order is None else positions[order]
        first_in_run = np.empty(positions.shape[0], dtype=bool)
        first_in_run[0] = True
        np.not_equal(sorted_pos[1:], sorted_pos[:-1], out=first_in_run[1:])
        if order is None:
            return fresh & first_in_run
        is_first = np.zeros(positions.shape[0], dtype=bool)
        is_first[order] = first_in_run
        return fresh & is_first

    def clear(self, positions: np.ndarray) -> None:
        """Clear bits at ``positions`` (sparse reset between tiles)."""
        words, bits = self._split(positions)
        np.bitwise_and.at(self._words, words, ~bits)

    def clear_all(self) -> None:
        self._words[:] = 0

    def count(self) -> int:
        """Population count across the whole mask."""
        # Per-byte popcount via unpackbits on the word view.
        as_bytes = self._words.view(np.uint8)
        return int(np.unpackbits(as_bytes).sum())

    def to_bool_array(self) -> np.ndarray:
        """Expand to a bool array of length ``n_bits`` (tests/debug)."""
        as_bytes = self._words.view(np.uint8)
        bits = np.unpackbits(as_bytes, bitorder="little")
        return bits[: self.n_bits].astype(bool)
