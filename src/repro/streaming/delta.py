"""Delta batches: canonical nonzero mutations of sparse tensors.

A streaming workload mutates tensors far more often than it replaces
them: a handful of coordinates gain, change, or lose their values while
the other 99.9% of the structure stays put.  :class:`DeltaBatch` is the
wire format for one such mutation — an ordered list of
insert/update/delete operations on explicit coordinates — with two key
properties:

* **canonicalization** (:meth:`DeltaBatch.canonicalize`): any op
  sequence collapses to at most one resolved op per coordinate, with
  last-write-wins semantics (inserts *accumulate*, updates and deletes
  *override*), sorted in row-major coordinate order.  Two batches that
  canonicalize identically have identical effect on every tensor.
* **application** (:meth:`DeltaBatch.apply` / :func:`apply_delta`):
  vectorized replay onto a :class:`~repro.tensors.coo.COOTensor` (and,
  through the COO interchange format, CSF and HiCOO), producing a
  canonical (sorted, duplicate-free) result.

:class:`MutationLog` is the bounded per-tensor history a serving shard
keeps for the streams it owns (see :mod:`repro.serve`): appended batches
get monotonic sequence numbers, and old entries are compacted away once
the bound is reached.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigError, FormatError, ShapeError, StreamError
from repro.tensors.coo import COOTensor
from repro.tensors.csf import CSFTensor
from repro.tensors.hicoo import HiCOOTensor
from repro.tensors.linearize import ModeLinearizer
from repro.util.arrays import as_index_array, as_value_array
from repro.util.groups import group_boundaries, sort_by

__all__ = ["DELETE", "INSERT", "UPDATE", "DeltaBatch", "MutationLog", "apply_delta"]

#: Operation kinds, stored as one int8 per op.
INSERT = 0  # value += v (absent coordinates start at 0; creates the entry)
UPDATE = 1  # value = v (creates or overwrites the entry)
DELETE = 2  # the entry is removed outright (not set to explicit zero)

_KIND_NAMES = {INSERT: "insert", UPDATE: "update", DELETE: "delete"}


class DeltaBatch:
    """An ordered batch of coordinate mutations against one tensor shape.

    Parameters
    ----------
    kinds:
        Int array of shape ``(n_ops,)`` over {:data:`INSERT`,
        :data:`UPDATE`, :data:`DELETE`}, in application order.
    coords:
        Integer array of shape ``(ndim, n_ops)``; column ``e`` is the
        coordinate op ``e`` touches.
    values:
        Float array of shape ``(n_ops,)``; ignored (forced to 0.0) for
        deletes.
    shape:
        Mode extents of the tensor the batch targets.
    """

    __slots__ = ("kinds", "coords", "values", "shape", "_canonical")

    def __init__(self, kinds, coords, values, shape: Sequence[int], *, check: bool = True):
        kinds = np.ascontiguousarray(kinds, dtype=np.int8)
        if kinds.ndim != 1:
            raise ShapeError(f"kinds must be 1-D; got shape {kinds.shape}")
        coords = as_index_array(coords)
        if coords.ndim == 1:
            coords = coords.reshape(1, -1)
        values = as_value_array(values)
        shape = tuple(int(s) for s in shape)
        if coords.ndim != 2 or coords.shape[0] != len(shape):
            raise ShapeError(
                f"coords must have shape ({len(shape)}, n_ops); got {coords.shape}"
            )
        if values.shape != kinds.shape or coords.shape[1] != kinds.shape[0]:
            raise ShapeError(
                f"kinds/coords/values disagree on op count: "
                f"{kinds.shape[0]}/{coords.shape[1]}/{values.shape[0]}"
            )
        if check:
            if kinds.shape[0] and (kinds.min() < INSERT or kinds.max() > DELETE):
                bad = sorted(set(kinds.tolist()) - set(_KIND_NAMES))
                raise FormatError(f"unknown delta op kinds: {bad}")
            if coords.shape[1]:
                lo = coords.min(axis=1)
                hi = coords.max(axis=1)
                for k, (l, h, ext) in enumerate(zip(lo, hi, shape)):
                    if l < 0 or h >= ext:
                        raise ShapeError(
                            f"mode {k} delta coordinates span [{l}, {h}] "
                            f"outside extent {ext}"
                        )
        values = values.copy()
        values[kinds == DELETE] = 0.0
        self.kinds = kinds
        self.coords = coords
        self.values = values
        self.shape = shape
        self._canonical = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, shape: Sequence[int]) -> "DeltaBatch":
        ndim = len(tuple(shape))
        return cls(
            np.empty(0, dtype=np.int8),
            np.empty((ndim, 0), dtype=np.int64),
            np.empty(0),
            shape,
        )

    @classmethod
    def from_ops(
        cls,
        ops: Iterable[tuple[str, Sequence[int], float]],
        shape: Sequence[int],
    ) -> "DeltaBatch":
        """Build from ``("insert"|"update"|"delete", coord, value)`` rows.

        Deletes may pass any value (it is ignored); the slow path for
        tests and hand-built demos.
        """
        names = {name: kind for kind, name in _KIND_NAMES.items()}
        rows = list(ops)
        ndim = len(tuple(shape))
        if not rows:
            return cls.empty(shape)
        kinds = np.empty(len(rows), dtype=np.int8)
        coords = np.empty((ndim, len(rows)), dtype=np.int64)
        values = np.zeros(len(rows))
        for e, row in enumerate(rows):
            name, coord = row[0], row[1]
            if name not in names:
                raise ConfigError(
                    f"delta op must be insert|update|delete, got {name!r}"
                )
            if len(coord) != ndim:
                raise ShapeError(
                    f"op {e} coordinate has {len(coord)} modes, expected {ndim}"
                )
            kinds[e] = names[name]
            coords[:, e] = [int(c) for c in coord]
            if names[name] != DELETE:
                values[e] = float(row[2])
        return cls(kinds, coords, values, shape)

    @classmethod
    def inserts(cls, coords, values, shape: Sequence[int]) -> "DeltaBatch":
        """An all-insert batch (the common streaming-append case)."""
        coords = as_index_array(coords)
        if coords.ndim == 1:
            coords = coords.reshape(1, -1)
        kinds = np.full(coords.shape[1], INSERT, dtype=np.int8)
        return cls(kinds, coords, values, shape)

    @classmethod
    def deletes(cls, coords, shape: Sequence[int]) -> "DeltaBatch":
        """An all-delete batch."""
        coords = as_index_array(coords)
        if coords.ndim == 1:
            coords = coords.reshape(1, -1)
        n = coords.shape[1]
        kinds = np.full(n, DELETE, dtype=np.int8)
        return cls(kinds, coords, np.zeros(n), shape)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def n_ops(self) -> int:
        return int(self.kinds.shape[0])

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        return self.n_ops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaBatch(shape={self.shape}, n_ops={self.n_ops}, "
            f"canonical={self._canonical})"
        )

    def linearized(self) -> np.ndarray:
        """Row-major linear index of every op's coordinate."""
        return ModeLinearizer(self.shape).encode(self.coords)

    # ------------------------------------------------------------------
    # Canonicalization
    # ------------------------------------------------------------------

    def canonicalize(self) -> "DeltaBatch":
        """Collapse to at most one resolved op per coordinate.

        Per coordinate, ops are replayed in batch order: inserts
        accumulate, an update or delete overrides everything before it.
        The residue is one of:

        * ``INSERT s`` — only inserts touched the coordinate (``s`` is
          their sum);
        * ``UPDATE v`` — the last update/delete was an update with value
          ``u`` (``v = u +`` inserts after it), *or* a delete followed by
          inserts summing to ``v`` (delete-then-insert sets the value);
        * ``DELETE`` — the last update/delete was a delete with no
          inserts after it.

        The result is sorted by row-major coordinate order with unique
        coordinates, and applying it to any tensor is equivalent to
        applying the original batch.  Idempotent.
        """
        if self._canonical or self.n_ops == 0:
            out = DeltaBatch(
                self.kinds.copy(), self.coords.copy(), self.values.copy(),
                self.shape, check=False,
            )
            out._canonical = True
            return out
        # Stable: keeps batch order per coordinate.
        slin, skinds, svals = sort_by(self.linearized(), self.kinds, self.values)
        uniq, offsets = group_boundaries(slin)
        n_groups = uniq.shape[0]
        counts = np.diff(offsets)

        # Position of each group's last barrier (update/delete), -1 if none.
        pos = np.arange(slin.shape[0], dtype=np.int64)
        barrier_pos = np.where(skinds != INSERT, pos, np.int64(-1))
        last_barrier = np.maximum.reduceat(barrier_pos, offsets[:-1])

        # Sum of insert values strictly after the group's last barrier.
        after = pos > np.repeat(last_barrier, counts)
        live_insert = (skinds == INSERT) & after
        insert_sums = np.add.reduceat(np.where(live_insert, svals, 0.0), offsets[:-1])
        has_insert = np.add.reduceat(live_insert.astype(np.int64), offsets[:-1]) > 0

        out_kinds = np.empty(n_groups, dtype=np.int8)
        out_vals = np.empty(n_groups)
        no_barrier = last_barrier < offsets[:-1]  # group's max position < its start
        barrier_kind = np.where(no_barrier, np.int8(INSERT), skinds[last_barrier])
        barrier_val = np.where(no_barrier, 0.0, svals[last_barrier])

        is_insert = no_barrier
        is_delete = (~no_barrier) & (barrier_kind == DELETE) & ~has_insert
        is_update = ~is_insert & ~is_delete
        out_kinds[is_insert] = INSERT
        out_kinds[is_update] = UPDATE
        out_kinds[is_delete] = DELETE
        # Delete-then-insert contributes 0 base; update contributes its value.
        base = np.where(barrier_kind == UPDATE, barrier_val, 0.0)
        out_vals[:] = np.where(is_delete, 0.0, base + insert_sums)

        coords = ModeLinearizer(self.shape).decode(uniq)
        out = DeltaBatch(out_kinds, coords, out_vals, self.shape, check=False)
        out._canonical = True
        return out

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def apply(self, tensor: COOTensor) -> COOTensor:
        """Replay the batch onto a COO tensor; returns a canonical result.

        The input is canonicalized first (duplicates summed), then
        update/delete coordinates are cleared from it, and the resolved
        update/insert entries are merged back in.  Explicit zeros
        written by ``UPDATE 0.0`` are kept (matching the paper's COO
        handling); ``DELETE`` removes the entry outright.
        """
        if tuple(tensor.shape) != self.shape:
            raise ShapeError(
                f"delta targets shape {self.shape} but tensor has {tensor.shape}"
            )
        delta = self.canonicalize()
        base = tensor.sum_duplicates()
        if delta.n_ops == 0:
            return base
        dlin = delta.linearized()  # sorted: canonical batches are coordinate-ordered
        barrier = delta.kinds != INSERT
        if base.nnz and barrier.any():
            blin = base.linearized()
            overridden = dlin[barrier]
            hit = np.searchsorted(overridden, blin)
            hit = np.minimum(hit, overridden.shape[0] - 1)
            keep = overridden[hit] != blin
            base = COOTensor(
                base.coords[:, keep], base.values[keep], self.shape, check=False
            )
        alive = delta.kinds != DELETE
        coords = np.concatenate([base.coords, delta.coords[:, alive]], axis=1)
        values = np.concatenate([base.values, delta.values[alive]])
        return COOTensor(coords, values, self.shape, check=False).sum_duplicates()

    def touched_linear(self) -> np.ndarray:
        """Sorted unique row-major indices of every touched coordinate.

        Deliberately an over-approximation: deletes of absent
        coordinates still count as touched — invalidation must be sound,
        not minimal.
        """
        return np.unique(self.linearized())


def apply_delta(tensor, delta: DeltaBatch):
    """Apply a delta to a COO, CSF, or HiCOO tensor, preserving format.

    CSF and HiCOO round-trip through the COO interchange format (the
    same path every kernel input takes); HiCOO keeps its block size,
    CSF its mode order.
    """
    if isinstance(tensor, COOTensor):
        return delta.apply(tensor)
    if isinstance(tensor, CSFTensor):
        out = delta.apply(tensor.to_coo())
        return CSFTensor.from_coo(out, mode_order=tensor.mode_order)
    if isinstance(tensor, HiCOOTensor):
        out = delta.apply(tensor.to_coo())
        return HiCOOTensor.from_coo(out, block_bits=tensor.block_bits)
    raise StreamError(
        f"cannot apply a delta to {type(tensor).__name__}; expected "
        "COOTensor, CSFTensor, or HiCOOTensor"
    )


class _LogEntry:
    __slots__ = ("seq", "delta")

    def __init__(self, seq: int, delta: DeltaBatch):
        self.seq = seq
        self.delta = delta


class MutationLog:
    """Bounded, thread-safe history of canonical deltas for one tensor.

    The owning shard appends every accepted batch; replicas (or a shard
    re-adopting a stream after a ring rebalance) replay ``since(seq)``.
    When the bound is exceeded the oldest entries are dropped and
    ``compacted`` counts them — a replay older than the log's horizon
    must fall back to full state transfer.
    """

    def __init__(self, maxlen: int = 256):
        if maxlen < 1:
            raise ConfigError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = int(maxlen)
        self._entries: list[_LogEntry] = []
        self._next_seq = 0
        self.compacted = 0
        self._lock = threading.Lock()

    def append(self, delta: DeltaBatch) -> int:
        """Record one canonical batch; returns its sequence number."""
        entry = _LogEntry(0, delta.canonicalize())
        with self._lock:
            entry.seq = self._next_seq
            self._next_seq += 1
            self._entries.append(entry)
            while len(self._entries) > self.maxlen:
                self._entries.pop(0)
                self.compacted += 1
            return entry.seq

    def since(self, seq: int) -> list[tuple[int, DeltaBatch]]:
        """Entries with sequence number >= ``seq``, oldest first.

        Raises :class:`StreamError` when ``seq`` predates the log
        horizon (those entries were compacted away).
        """
        with self._lock:
            if self._entries and seq < self._entries[0].seq and seq < self._next_seq:
                raise StreamError(
                    f"sequence {seq} predates the log horizon "
                    f"{self._entries[0].seq} ({self.compacted} compacted)"
                )
            return [(e.seq, e.delta) for e in self._entries if e.seq >= seq]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def next_seq(self) -> int:
        with self._lock:
            return self._next_seq
