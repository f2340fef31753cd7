"""The correctness gate every op passes through, outside any timed region.

An output is correct when it has the reference's shape and exactly its
coordinates (both canonical: sorted, unique), and every value is within
``RTOL`` of the reference value, relative to the largest reference
magnitude.  References come from the untiled ``method="co"`` scheme.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.network import NetworkExecutor

from e2ebench.inputs import NetworkOp, PairOp

RTOL = 1e-12


def mismatch(out, ref) -> str | None:
    """Why ``out`` differs from ``ref``, or ``None`` when it matches."""
    if out is None:
        return "no output"
    if tuple(out.shape) != tuple(ref.shape):
        return f"shape {out.shape} != {ref.shape}"
    if out.coords.shape != ref.coords.shape:
        return f"nnz {out.nnz} != {ref.nnz}"
    if not np.array_equal(out.coords, ref.coords):
        return "coordinates differ"
    if ref.nnz == 0:
        return None
    scale = float(np.max(np.abs(ref.values)))
    worst = float(np.max(np.abs(out.values - ref.values)))
    if not worst <= RTOL * scale:
        return f"values differ by {worst:.3e} (limit {RTOL * scale:.3e})"
    return None


def reference(op):
    """The untiled contraction-outer (``co``) result of one op."""
    if isinstance(op, PairOp):
        return repro.contract(op.left, op.right, op.pairs, method="co")
    if isinstance(op, NetworkOp):
        return NetworkExecutor().contract(op.subscripts, *op.operands, method="co")
    raise TypeError(f"no reference for {type(op).__name__}")
