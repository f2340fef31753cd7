"""Structural problem signatures for plan reuse.

A serving workload re-issues the *same structural contraction* — the
mode extents, nonzero counts, contracted mode pairs, and target machine
— thousands of times over different numeric values.  Algorithm 7's
decision depends only on that structure, so a plan computed once can be
replayed for every recurrence.  :class:`ProblemSignature` is the cache
key: two contractions with the same signature get the same plan.

The signature is deliberately *value-blind*: permuting the coordinate
order of an operand (COO is unordered) or changing its numeric values
does not change the key, while changing a shape, the contracted pairs,
the nonzero count (hence density), or the machine does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.machine.specs import MachineSpec
from repro.tensors.coo import COOTensor
from repro.util.cache import DriftKey, split_nnz_segment

__all__ = ["ProblemSignature", "signature_for"]


@dataclass(frozen=True)
class ProblemSignature:
    """Hashable structural identity of one contraction problem."""

    left_shape: tuple[int, ...]
    right_shape: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    nnz_l: int
    nnz_r: int
    machine: tuple  # (name, n_cores, l3_bytes, l2_bytes_per_core, word_bytes)
    accumulator: str = "auto"
    tile_size: int | None = None

    def _format(self, nnz: str) -> str:
        shape_l = "x".join(map(str, self.left_shape))
        shape_r = "x".join(map(str, self.right_shape))
        pairs = ",".join(f"{a}:{b}" for a, b in self.pairs)
        name, cores, l3, l2, word = self.machine
        return (
            f"L{shape_l}|R{shape_r}|P{pairs}|n{nnz}"
            f"|M{name};{cores};{l3};{l2};{word}"
            f"|A{self.accumulator}|T{self.tile_size or 0}"
        )

    @property
    def key(self) -> str:
        """Stable string form, usable as a JSON object key."""
        return self._format(f"{self.nnz_l},{self.nnz_r}")

    @property
    def structure_key(self) -> str:
        """:attr:`key` with the nnz segment wildcarded: equal for the
        same structure at any nonzero counts."""
        return self._format("*")

    @property
    def drift_key(self) -> DriftKey:
        """The plan caches' drift-reuse identity (see :mod:`repro.util.cache`)."""
        return self.structure_key, (self.nnz_l, self.nnz_r)

    @staticmethod
    def split_key(key: str) -> DriftKey | None:
        """Invert :attr:`key` into ``(structure_key, nnz)``; ``None`` for a
        string that is not a signature key."""
        return split_nnz_segment(key, 3)

    @property
    def density_l(self) -> float:
        cells = 1
        for s in self.left_shape:
            cells *= s
        return self.nnz_l / cells if cells else 0.0

    @property
    def density_r(self) -> float:
        cells = 1
        for s in self.right_shape:
            cells *= s
        return self.nnz_r / cells if cells else 0.0


def _machine_token(machine: MachineSpec) -> tuple:
    return (
        machine.name,
        machine.n_cores,
        machine.l3_bytes,
        machine.l2_bytes_per_core,
        machine.word_bytes,
    )


def signature_for(
    left: COOTensor,
    right: COOTensor,
    pairs: Sequence[tuple[int, int]],
    machine: MachineSpec,
    *,
    accumulator: str = "auto",
    tile_size: int | None = None,
) -> ProblemSignature:
    """Build the cache key for one concrete contraction call.

    Uses the raw (pre-deduplication) nonzero counts: they are invariant
    under coordinate permutation, which is the property the cache needs
    — identical logical problems must collide on the same key.
    """
    return ProblemSignature(
        left_shape=tuple(int(s) for s in left.shape),
        right_shape=tuple(int(s) for s in right.shape),
        pairs=tuple((int(a), int(b)) for a, b in pairs),
        nnz_l=int(left.nnz),
        nnz_r=int(right.nnz),
        machine=_machine_token(machine),
        accumulator=accumulator,
        tile_size=tile_size,
    )
