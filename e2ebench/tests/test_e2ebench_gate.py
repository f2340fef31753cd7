"""The correctness gate and the seeded inputs."""

import numpy as np

import repro
from repro.tensors.coo import COOTensor

from e2ebench import inputs
from e2ebench.check import mismatch, reference
from e2ebench.workloads import digest


def _pair_output():
    op = inputs.cold_pair(3, 4)  # NIPS_23: thousands of output nonzeros
    return repro.contract(op.left, op.right, op.pairs), reference(op)


def _copy(t, coords=None, values=None):
    return COOTensor(
        t.coords.copy() if coords is None else coords,
        t.values.copy() if values is None else values,
        t.shape, check=False,
    )


def test_gate_accepts_the_kernel_output():
    out, ref = _pair_output()
    assert ref.nnz > 1000
    assert mismatch(out, ref) is None


def test_gate_fires_on_a_moved_coordinate():
    out, ref = _pair_output()
    coords = out.coords.copy()
    coords[0, 17] = (coords[0, 17] + 1) % out.shape[0]
    assert mismatch(_copy(out, coords=coords), ref) == "coordinates differ"


def test_gate_fires_on_a_perturbed_value():
    out, ref = _pair_output()
    values = out.values.copy()
    values[5] += 1e-9 * np.max(np.abs(values))
    assert mismatch(_copy(out, values=values), ref).startswith("values differ")


def test_gate_fires_on_a_dropped_entry_and_no_output():
    out, ref = _pair_output()
    short = COOTensor(out.coords[:, 1:], out.values[1:], out.shape, check=False)
    assert mismatch(short, ref).startswith("nnz")
    assert mismatch(None, ref) == "no output"


def test_gate_tolerates_reassociation_noise():
    out, ref = _pair_output()
    values = out.values * (1 + 1e-15)
    assert mismatch(_copy(out, values=values), ref) is None


def test_inputs_follow_the_seed_only():
    a = inputs.cold_pair(5, 2)
    b = inputs.cold_pair(5, 2)
    c = inputs.cold_pair(6, 2)
    assert digest(a.left) == digest(b.left)
    assert digest(a.left) != digest(c.left)
    assert [digest(t.left if hasattr(t, "left") else t.operands[0])
            for t in inputs.warm_items(1)] == [
        digest(t.left if hasattr(t, "left") else t.operands[0])
        for t in inputs.warm_items(1)]


def test_stream_states_cycle_through_the_delta_blocks():
    s = inputs.stream_inputs("s", 9)
    base = set(s.left.linearized().tolist())
    x1 = set(s.blocks[0].linearized().tolist())
    x2 = set(s.blocks[1].linearized().tolist())
    assert not (x1 & base) and not (x2 & base) and not (x1 & x2)
    expected = [base, base | x1, base | x1 | x2, base | x2, base]
    for n, want in enumerate(expected):
        assert set(s.state(n).linearized().tolist()) == want
    rows = s.blocks[0].coords[0] // inputs.STREAM_BLOCK_ROWS
    assert len(set(rows.tolist())) == 1  # one block of left rows per delta
