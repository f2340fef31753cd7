"""HiCOO: hierarchical COO with block compression.

HiCOO (Li et al., SC '18) is the compressed successor of COO used across
the sparse-tensor ecosystem the paper builds on (Sparta's relatives
Athena/ParTI): nonzeros are grouped into aligned ``2^b``-per-mode
blocks; each block stores its (shortened) block coordinates once, and
each element stores only its ``b``-bit offsets within the block.  For
tensors with spatial locality this cuts index memory several-fold
versus COO's full-width coordinates.

Included here as a substrate format: conversion to/from COO, block
iteration, and exact memory accounting (the compression-ratio facts the
format exists for).  The contraction kernels consume COO/SliceTables;
HiCOO is the storage/interchange tier.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.tensors.coo import COOTensor
from repro.util.arrays import INDEX_DTYPE
from repro.util.groups import group_boundaries, sort_by

__all__ = ["HiCOOTensor"]


def _offset_dtype(block_bits: int):
    if block_bits <= 8:
        return np.uint8
    if block_bits <= 16:
        return np.uint16
    return np.uint32


class HiCOOTensor:
    """A sparse tensor in HiCOO format.

    Attributes
    ----------
    block_bits:
        ``b``: blocks span ``2^b`` indices per mode.
    bptr:
        ``(n_blocks + 1,)`` offsets of each block's elements.
    bcoords:
        ``(ndim, n_blocks)`` block coordinates (``index >> b``).
    ecoords:
        ``(ndim, nnz)`` within-block offsets (``index & (2^b - 1)``),
        stored at the narrowest width that holds ``b`` bits.
    values:
        ``(nnz,)`` float64.
    """

    __slots__ = ("shape", "block_bits", "bptr", "bcoords", "ecoords", "values")

    def __init__(self, shape, block_bits, bptr, bcoords, ecoords, values):
        self.shape = tuple(int(s) for s in shape)
        self.block_bits = int(block_bits)
        self.bptr = bptr
        self.bcoords = bcoords
        self.ecoords = ecoords
        self.values = values

    # ------------------------------------------------------------------

    @classmethod
    def from_coo(cls, tensor: COOTensor, *, block_bits: int = 7) -> "HiCOOTensor":
        """Convert a COO tensor (duplicates summed during conversion)."""
        if not 1 <= block_bits <= 31:
            raise ShapeError(f"block_bits must be in [1, 31], got {block_bits}")
        canonical = tensor.sum_duplicates()
        ndim = canonical.ndim
        nnz = canonical.nnz
        b = np.int64(block_bits)
        mask = np.int64((1 << block_bits) - 1)

        if nnz == 0:
            return cls(
                tensor.shape,
                block_bits,
                np.zeros(1, dtype=INDEX_DTYPE),
                np.empty((ndim, 0), dtype=INDEX_DTYPE),
                np.empty((ndim, 0), dtype=_offset_dtype(block_bits)),
                np.empty(0),
            )

        block = canonical.coords >> b
        within = (canonical.coords & mask).astype(_offset_dtype(block_bits))

        # Sort by block (lexicographic over modes); canonical COO order
        # is already row-major over full coordinates, which is NOT the
        # same as block-major order, so sort on the linearized block id.
        block_extents = [(-(-s >> block_bits)) or 1 for s in canonical.shape]
        from repro.tensors.linearize import ModeLinearizer

        lin = ModeLinearizer([max(1, e) for e in block_extents])
        block_ids = lin.encode(block)
        sorted_ids, block, within, values = sort_by(
            block_ids, block, within, canonical.values
        )
        uniq, offsets = group_boundaries(sorted_ids)
        starts = offsets[:-1]

        return cls(
            tensor.shape,
            block_bits,
            offsets.astype(INDEX_DTYPE),
            block[:, starts].copy(),
            within.copy(),
            values.copy(),
        )

    # ------------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_blocks(self) -> int:
        return int(self.bcoords.shape[1])

    @property
    def block_size(self) -> int:
        return 1 << self.block_bits

    def block(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block ``i``: ``(block_coords, element_offsets, values)`` views."""
        sl = slice(int(self.bptr[i]), int(self.bptr[i + 1]))
        return self.bcoords[:, i], self.ecoords[:, sl], self.values[sl]

    def blocks(self):
        """Iterate ``(block_coords, element_offsets, values)`` triples."""
        for i in range(self.n_blocks):
            yield self.block(i)

    def to_coo(self) -> COOTensor:
        """Expand back to COO (full-width coordinates)."""
        counts = np.diff(self.bptr)
        base = np.repeat(self.bcoords, counts, axis=1) << np.int64(self.block_bits)
        coords = base + self.ecoords.astype(INDEX_DTYPE)
        return COOTensor(coords, self.values.copy(), self.shape, check=False)

    # ------------------------------------------------------------------
    # Memory accounting — the format's reason to exist.
    # ------------------------------------------------------------------

    @property
    def index_nbytes(self) -> int:
        """Bytes spent on structure (bptr + block + element indices)."""
        return self.bptr.nbytes + self.bcoords.nbytes + self.ecoords.nbytes

    @property
    def nbytes(self) -> int:
        return self.index_nbytes + self.values.nbytes

    def compression_ratio(self) -> float:
        """COO index bytes / HiCOO index bytes (> 1 = HiCOO smaller)."""
        coo_index_bytes = self.ndim * self.nnz * 8  # int64 per mode
        if self.index_nbytes == 0:
            return 1.0
        return coo_index_bytes / self.index_nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HiCOOTensor(shape={self.shape}, nnz={self.nnz}, "
            f"blocks={self.n_blocks}, b={self.block_bits})"
        )
