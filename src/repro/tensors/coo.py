"""COO (coordinate) sparse tensor format.

COO stores a sparse tensor as parallel arrays of coordinates and values
(Section 2.2 of the paper).  It supports constant-amortized-cost appends
and is the interchange format of the whole library: both FaSTCC and the
Sparta baseline consume COO input and produce COO output, exactly as in
the paper.

The coordinate array has shape ``(ndim, nnz)`` (one row per mode), the
value array has shape ``(nnz,)``.  A ``COOTensor`` may transiently hold
duplicate coordinates (e.g. while being assembled); ``sum_duplicates``
canonicalizes it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ShapeError, WorkspaceLimitError
from repro.tensors.linearize import ModeLinearizer
from repro.util.arrays import VALUE_DTYPE, as_index_array, as_value_array
from repro.util.groups import group_boundaries, sort_by

__all__ = ["COOTensor"]


class COOTensor:
    """An n-mode sparse tensor in coordinate format.

    Parameters
    ----------
    coords:
        Integer array of shape ``(ndim, nnz)``; ``coords[k, e]`` is the
        mode-``k`` index of nonzero ``e``.
    values:
        Float array of shape ``(nnz,)``.
    shape:
        Mode extents.  Every coordinate must satisfy
        ``0 <= coords[k] < shape[k]``.
    check:
        When true (default) validates coordinate bounds eagerly.
    """

    __slots__ = ("coords", "values", "shape")

    def __init__(self, coords, values, shape: Sequence[int], *, check: bool = True):
        coords = as_index_array(coords)
        if coords.ndim == 1:
            coords = coords.reshape(1, -1)
        if coords.ndim != 2:
            raise ShapeError(f"coords must be 2-D (ndim, nnz); got shape {coords.shape}")
        values = as_value_array(values)
        if values.ndim != 1:
            raise ShapeError(f"values must be 1-D; got shape {values.shape}")
        if coords.shape[1] != values.shape[0]:
            raise ShapeError(
                f"coords describe {coords.shape[1]} nonzeros but values has "
                f"{values.shape[0]} entries"
            )
        shape = tuple(int(s) for s in shape)
        if len(shape) != coords.shape[0]:
            raise ShapeError(
                f"shape has {len(shape)} modes but coords has {coords.shape[0]} rows"
            )
        if any(s < 0 for s in shape):
            raise ShapeError(f"mode extents must be non-negative: {shape}")
        if check and coords.shape[1] > 0:
            lo = coords.min(axis=1)
            hi = coords.max(axis=1)
            for k, (l, h, ext) in enumerate(zip(lo, hi, shape)):
                if l < 0 or h >= ext:
                    raise ShapeError(
                        f"mode {k} coordinates span [{l}, {h}] outside extent {ext}"
                    )
        self.coords = coords
        self.values = values
        self.shape = shape

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, shape: Sequence[int]) -> "COOTensor":
        """A tensor with the given shape and no stored nonzeros."""
        ndim = len(tuple(shape))
        return cls(np.empty((ndim, 0), dtype=np.int64), np.empty(0), shape)

    @classmethod
    def from_tuples(
        cls, tuples: Iterable[Sequence[float]], shape: Sequence[int]
    ) -> "COOTensor":
        """Build from an iterable of ``(i_1, ..., i_n, value)`` rows.

        This mirrors how FROSTT ``.tns`` files describe tensors (minus the
        1-based indexing, which :func:`repro.tensors.io.read_tns` handles).
        """
        rows = list(tuples)
        ndim = len(tuple(shape))
        if not rows:
            return cls.empty(shape)
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != ndim + 1:
            raise ShapeError(
                f"each tuple must have {ndim + 1} entries for a {ndim}-mode tensor"
            )
        return cls(as_index_array(arr[:, :ndim].T), arr[:, ndim], shape)

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "COOTensor":
        """Extract the nonzero structure of a dense array."""
        array = np.asarray(array, dtype=VALUE_DTYPE)
        coords = np.nonzero(array)
        stacked = np.vstack([c.astype(np.int64) for c in coords]) if array.ndim else None
        if array.ndim == 0:
            raise ShapeError("0-dimensional arrays are not supported")
        return cls(stacked, array[coords], array.shape)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def size(self) -> int:
        """Number of cells in the full index space (may be huge)."""
        out = 1
        for s in self.shape:
            out *= s
        return out

    @property
    def density(self) -> float:
        """Fraction of cells that are stored (after ``sum_duplicates``)."""
        return self.nnz / self.size if self.size else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"COOTensor(shape={self.shape}, nnz={self.nnz})"

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], float]]:
        """Yield ``(coordinate_tuple, value)`` pairs (slow; for tests)."""
        for e in range(self.nnz):
            yield tuple(int(self.coords[k, e]) for k in range(self.ndim)), float(
                self.values[e]
            )

    # ------------------------------------------------------------------
    # Canonicalization and transforms
    # ------------------------------------------------------------------

    def linearized(self) -> np.ndarray:
        """Row-major linear index of every stored nonzero."""
        return ModeLinearizer(self.shape).encode(self.coords)

    def sum_duplicates(self, *, drop_zeros: bool = False) -> "COOTensor":
        """Combine entries with identical coordinates by summation.

        Returns a new tensor whose coordinates are unique and sorted in
        row-major order.  With ``drop_zeros`` entries whose combined value
        is exactly 0.0 are removed (explicit zeros are otherwise kept, as
        in the paper's COO handling).
        """
        if self.nnz == 0:
            return COOTensor(self.coords.copy(), self.values.copy(), self.shape, check=False)
        lin, svals = sort_by(self.linearized(), self.values)
        uniq, offsets = group_boundaries(lin)
        sums = np.add.reduceat(svals, offsets[:-1])
        coords = ModeLinearizer(self.shape).decode(uniq)
        if drop_zeros:
            keep = sums != 0.0
            coords = coords[:, keep]
            sums = sums[keep]
        return COOTensor(coords, sums, self.shape, check=False)

    def sorted_by(self, mode_order: Sequence[int] | None = None) -> "COOTensor":
        """Return a copy with nonzeros sorted lexicographically.

        ``mode_order`` lists modes from outermost to innermost sort key;
        default is ``(0, 1, ..., ndim-1)``.  This is the ordering step CSF
        construction relies on.
        """
        if mode_order is None:
            mode_order = tuple(range(self.ndim))
        mode_order = tuple(int(m) for m in mode_order)
        if sorted(mode_order) != list(range(self.ndim)):
            raise ShapeError(f"mode_order must permute 0..{self.ndim - 1}: {mode_order}")
        # np.lexsort sorts by the *last* key first.
        keys = tuple(self.coords[m] for m in reversed(mode_order))
        order = np.lexsort(keys) if self.nnz else np.empty(0, dtype=np.int64)
        return COOTensor(self.coords[:, order], self.values[order], self.shape, check=False)

    def permute_modes(self, perm: Sequence[int]) -> "COOTensor":
        """Reorder tensor modes (a transpose generalization)."""
        perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(self.ndim)):
            raise ShapeError(f"perm must permute 0..{self.ndim - 1}: {perm}")
        return COOTensor(
            self.coords[list(perm), :],
            self.values.copy(),
            tuple(self.shape[p] for p in perm),
            check=False,
        )

    def scaled(self, factor: float) -> "COOTensor":
        """Multiply all values by a scalar."""
        return COOTensor(self.coords.copy(), self.values * factor, self.shape, check=False)

    def merge_modes(self, groups: Sequence[Sequence[int]]) -> "COOTensor":
        """Fuse groups of adjacent-in-``groups`` modes into single modes.

        ``groups`` partitions ``0..ndim-1``; each group is linearized
        row-major into one output mode (the paper's Section 2.1
        preprocessing, exposed as a tensor operation).  E.g.
        ``t.merge_modes([[0, 1], [2]])`` turns an ``(A, B, C)`` tensor
        into an ``(A*B, C)`` matrix.
        """
        flat = [int(m) for g in groups for m in g]
        if sorted(flat) != list(range(self.ndim)):
            raise ShapeError(
                f"groups must partition modes 0..{self.ndim - 1}: {groups}"
            )
        new_coords = np.empty((len(groups), self.nnz), dtype=np.int64)
        new_shape = []
        for k, group in enumerate(groups):
            group = [int(m) for m in group]
            lin = ModeLinearizer([self.shape[m] for m in group])
            new_coords[k] = lin.encode(self.coords[group, :])
            new_shape.append(lin.size)
        return COOTensor(new_coords, self.values.copy(), tuple(new_shape), check=False)

    # ------------------------------------------------------------------
    # Conversion and comparison
    # ------------------------------------------------------------------

    def to_dense(self, *, max_cells: int = 100_000_000) -> np.ndarray:
        """Materialize as a dense array (guarded against huge shapes)."""
        if self.size > max_cells:
            raise WorkspaceLimitError(
                f"refusing to densify {self.size} cells (> guard of {max_cells})"
            )
        if self.ndim == 0:
            # 0-mode tensor (a fully contracted output): a single cell.
            return np.asarray(self.values.sum(), dtype=VALUE_DTYPE)
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        if self.nnz:
            np.add.at(out, tuple(self.coords), self.values)
        return out

    def allclose(self, other: "COOTensor", *, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Numeric equality as mathematical tensors.

        Both operands are canonicalized (duplicates summed, exact zeros
        dropped to ``atol``) before comparison, so layouts and explicit
        zeros do not affect the result.
        """
        if self.shape != other.shape:
            return False
        a = self.sum_duplicates()
        b = other.sum_duplicates()
        la, va = a.linearized(), a.values
        lb, vb = b.linearized(), b.values
        # Merge the two index sets and compare values, treating missing as 0.
        all_idx = np.union1d(la, lb)
        fa = np.zeros(all_idx.shape[0], dtype=VALUE_DTYPE)
        fb = np.zeros_like(fa)
        fa[np.searchsorted(all_idx, la)] = va
        fb[np.searchsorted(all_idx, lb)] = vb
        return bool(np.allclose(fa, fb, rtol=rtol, atol=atol))

    def norm(self) -> float:
        """Frobenius norm (after summing duplicates)."""
        return float(np.linalg.norm(self.sum_duplicates().values))

    def copy(self) -> "COOTensor":
        return COOTensor(self.coords.copy(), self.values.copy(), self.shape, check=False)
