"""Seeded inputs for every workload.

Inputs come only from the ``--seed`` argument: each op's tensors are
drawn by calling the data generators directly with seeds derived from
``(seed, purpose, index)``.  The registry loaders in ``repro.data``
pin seeds 7 and 11, so they are used here only for their shapes and
generation parameters, never to load data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.frostt import generate_frostt
from repro.data.quantum import MOLECULES, generate_te_tensor
from repro.data.random_tensors import random_coo
from repro.tensors.coo import COOTensor

#: Registry self-contractions used here: ``name -> (tensor, scale,
#: nnz_target, contracted modes)``, with the generation parameters of
#: ``repro.data.registry``.
FROSTT_CASES = {
    "vast_01": ("vast", 0.05, 30_000, (0, 1)),
    "vast_014": ("vast", 0.05, 30_000, (0, 1, 4)),
    "uber_02": ("uber", 0.2, None, (0, 2)),
    "uber_123": ("uber", 0.2, None, (1, 2, 3)),
    "chic_0": ("chicago", 0.05, None, (0,)),
    "chic_01": ("chicago", 0.05, None, (0, 1)),
    "chic_123": ("chicago", 0.05, None, (1, 2, 3)),
    "NIPS_2": ("nips", 0.15, None, (2,)),
    "NIPS_23": ("nips", 0.15, None, (2, 3)),
}

#: Run cold, one fresh operand per op, round-robin.
COLD_SHAPES = ("vast_01", "vast_014", "uber_123", "chic_123", "NIPS_23", "NIPS_2")

#: Kernel-heavy pairs re-run on fixed operands in ``warm_iter``; the
#: quantum ones are ``(molecule, left kind, right kind)``.
WARM_PAIRS = {
    "uber_02": None,
    "chic_0": None,
    "G-vvov": ("guanine", "vv", "ov"),
    "C-vvov": ("caffeine", "vv", "ov"),
}

#: Warm pairwise signatures in the served mix (cheap enough to serve).
SERVE_PAIRS = ("chic_01", "uber_123", "NIPS_23")

#: Streamed contraction: a tall left operand (128 row blocks of 512 under
#: the model's dense tile) times a small right factor.
STREAM_LEFT_SHAPE = (65_536, 64)
STREAM_RIGHT_SHAPE = (64, 8)
STREAM_LEFT_NNZ = 30_000
STREAM_RIGHT_NNZ = 256
STREAM_BLOCK_ROWS = 512
STREAM_DELTA_NNZ = 8


def derive_seed(seed: int, *parts: int) -> int:
    """A 32-bit generator seed for one purpose of one run."""
    return int(np.random.SeedSequence([int(seed), *parts]).generate_state(1)[0])


@dataclass(frozen=True)
class PairOp:
    """One pairwise contraction: ``left x right`` over ``pairs``."""

    name: str
    left: COOTensor
    right: COOTensor
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class NetworkOp:
    """One einsum network over fixed operands."""

    name: str
    subscripts: str
    operands: tuple[COOTensor, ...]


def frostt_pair(name: str, seed: int) -> PairOp:
    """A registry self-contraction on an operand generated from ``seed``."""
    tensor, scale, nnz_target, modes = FROSTT_CASES[name]
    t = generate_frostt(tensor, scale=scale, seed=seed, nnz_target=nnz_target)
    return PairOp(name, t, t, tuple((m, m) for m in modes))


def cold_pair(seed: int, k: int, *, stream: int = 1) -> PairOp:
    """The ``k``-th op of ``cold_pairs``: a freshly generated operand.

    ``stream`` separates the measured ops from set-up and warm-up ops.
    """
    return frostt_pair(COLD_SHAPES[k % len(COLD_SHAPES)], derive_seed(seed, stream, k))


def _warm_pair(name: str, seed: int) -> PairOp:
    if WARM_PAIRS[name] is None:
        return frostt_pair(name, seed)
    molecule, kind_l, kind_r = WARM_PAIRS[name]
    mol = MOLECULES[molecule]
    left = generate_te_tensor(kind_l, mol, seed=seed)
    right = generate_te_tensor(kind_r, mol, seed=seed + 1)
    return PairOp(name, left, right, ((2, 2),))


def qc_three_term(molecule: str, seed: int) -> NetworkOp:
    """``TE_ov(i,m,k) x TE_vv(m,n,q) x TE_ov(j,n,q) -> (i,j,k)``."""
    spec = MOLECULES[molecule]
    ops = tuple(
        generate_te_tensor(kind, spec, seed=seed + d)
        for d, kind in enumerate(("ov", "vv", "ov"))
    )
    return NetworkOp(f"qc-{molecule}-3term", "imk,mnq,jnq->ijk", ops)


def uber_chain(seed: int) -> NetworkOp:
    """A scaled uber tensor x factor matrix x projection on mode 3."""
    tensor = generate_frostt("uber", scale=0.05, seed=seed, nnz_target=30_000)
    inner, out = 400, 5
    factor = random_coo((tensor.shape[3], inner), nnz=4 * inner, seed=seed + 1)
    proj = random_coo((inner, out), nnz=2 * out, seed=seed + 2)
    return NetworkOp("frostt-uber-chain", "abcd,dm,mn->abcn", (tensor, factor, proj))


def warm_items(seed: int) -> list:
    """The fixed operand set ``warm_iter`` re-runs, in round-robin order."""
    items: list = [
        _warm_pair(name, derive_seed(seed, 2, k))
        for k, name in enumerate(WARM_PAIRS)
    ]
    items.append(qc_three_term("caffeine", derive_seed(seed, 3, 0)))
    items.append(qc_three_term("guanine", derive_seed(seed, 3, 1)))
    items.append(uber_chain(derive_seed(seed, 3, 2)))
    return items


def serve_templates(seed: int) -> list:
    """Warm pairwise and network requests of the served mix."""
    items: list = [
        frostt_pair(name, derive_seed(seed, 4, k)) for k, name in enumerate(SERVE_PAIRS)
    ]
    items.append(qc_three_term("guanine", derive_seed(seed, 5, 0)))
    items.append(qc_three_term("caffeine", derive_seed(seed, 5, 1)))
    return items


@dataclass(frozen=True)
class StreamInputs:
    """A streamed pair plus the two delta blocks its writes cycle over.

    Deltas cycle ``insert X1, insert X2, delete X1, delete X2``, so the
    left operand after ``n`` deltas is ``states[n % 4]``.  ``X1`` and
    ``X2`` are coordinates absent from the base operand, each inside
    one block of ``STREAM_BLOCK_ROWS`` rows.
    """

    name: str
    left: COOTensor
    right: COOTensor
    pairs: tuple[tuple[int, int], ...]
    blocks: tuple[COOTensor, COOTensor]

    def state(self, n_deltas: int) -> COOTensor:
        """The left operand after ``n_deltas`` writes (independent of the
        streaming code: plain concatenation of base and live blocks)."""
        live = {0: (), 1: (0,), 2: (0, 1), 3: (1,)}[n_deltas % 4]
        parts = [self.left] + [self.blocks[b] for b in live]
        coords = np.concatenate([p.coords for p in parts], axis=1)
        values = np.concatenate([p.values for p in parts])
        return COOTensor(coords, values, self.left.shape, check=False)

    def delta_ops(self, n: int):
        """``(kind, block)`` of the ``n``-th write (0-based)."""
        return (("insert", 0), ("insert", 1), ("delete", 0), ("delete", 1))[n % 4]


def stream_inputs(name: str, seed: int) -> StreamInputs:
    rng = np.random.default_rng(seed)
    left = random_coo(STREAM_LEFT_SHAPE, STREAM_LEFT_NNZ, seed=seed + 1)
    right = random_coo(STREAM_RIGHT_SHAPE, STREAM_RIGHT_NNZ, seed=seed + 2)
    n_blocks = STREAM_LEFT_SHAPE[0] // STREAM_BLOCK_ROWS
    taken = set(left.linearized().tolist())
    blocks = []
    for b in rng.choice(n_blocks, size=2, replace=False):
        picked: dict[int, tuple[int, int]] = {}
        while len(picked) < STREAM_DELTA_NNZ:
            row = int(b) * STREAM_BLOCK_ROWS + int(rng.integers(STREAM_BLOCK_ROWS))
            col = int(rng.integers(STREAM_LEFT_SHAPE[1]))
            lin = row * STREAM_LEFT_SHAPE[1] + col
            if lin not in taken:
                picked[lin] = (row, col)
                taken.add(lin)
        coords = np.array(list(picked.values()), dtype=np.int64).T
        values = rng.uniform(0.5, 1.5, size=coords.shape[1])
        blocks.append(COOTensor(coords, values, STREAM_LEFT_SHAPE, check=False))
    return StreamInputs(name, left, right, ((1, 0),), (blocks[0], blocks[1]))
