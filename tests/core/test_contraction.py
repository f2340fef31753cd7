"""Unit tests for the public contract()/self_contract() API."""

import numpy as np
import pytest

from repro import COOTensor, Counters, contract, self_contract
from repro.data.random_tensors import random_coo
from repro.machine.specs import SERVER
from repro.tensors.dense import dense_contract, dense_self_contract


class TestBasicAPI:
    def test_matrix_multiply(self):
        a = random_coo((6, 8), nnz=20, seed=1)
        b = random_coo((8, 5), nnz=15, seed=2)
        out = contract(a, b, [(1, 0)])
        np.testing.assert_allclose(out.to_dense(), a.to_dense() @ b.to_dense())

    def test_docstring_example(self):
        a = COOTensor([[0, 1], [1, 0]], [2.0, 3.0], (2, 2))
        out = contract(a, a, pairs=[(1, 0)])
        np.testing.assert_allclose(out.to_dense(), [[6.0, 0.0], [0.0, 6.0]])

    def test_bad_method(self):
        a = random_coo((4, 4), nnz=4, seed=3)
        with pytest.raises(ValueError):
            contract(a, a, [(1, 0)], method="gpu")

    def test_output_shape_and_type(self):
        a = random_coo((3, 4, 5), nnz=20, seed=4)
        b = random_coo((5, 7), nnz=15, seed=5)
        out = contract(a, b, [(2, 0)])
        assert isinstance(out, COOTensor)
        assert out.shape == (3, 4, 7)

    def test_duplicates_in_inputs_combined(self):
        a = COOTensor([[0, 0], [1, 1]], [1.0, 2.0], (2, 2))  # dup at (0,1)
        b = COOTensor([[1], [0]], [4.0], (2, 2))
        out = contract(a, b, [(1, 0)])
        # a is effectively [[0,3],[0,0]]; b[1,0] = 4 -> out[0,0] = 12
        assert out.to_dense()[0, 0] == 12.0

    def test_empty_inputs(self):
        a = COOTensor.empty((4, 5))
        b = random_coo((5, 3), nnz=5, seed=6)
        out = contract(a, b, [(1, 0)])
        assert out.nnz == 0
        assert out.shape == (4, 3)

    def test_canonical_output_sorted(self):
        a = random_coo((10, 12), nnz=40, seed=7)
        b = random_coo((12, 10), nnz=40, seed=8)
        out = contract(a, b, [(1, 0)])
        lin = out.linearized()
        assert np.all(np.diff(lin) > 0)

    def test_full_contraction_to_scalar(self):
        a = random_coo((5, 6), nnz=12, seed=9)
        out = contract(a, a, [(0, 0), (1, 1)])
        assert out.shape == ()
        expected = float((a.to_dense() ** 2).sum())
        assert float(out.to_dense()) == pytest.approx(expected)

    def test_machine_parameter(self):
        a = random_coo((30, 30), nnz=60, seed=10)
        out_d, stats_d = contract(a, a, [(1, 0)], return_stats=True)
        out_s, stats_s = contract(a, a, [(1, 0)], machine=SERVER, return_stats=True)
        assert out_d.allclose(out_s)
        assert stats_s.plan.machine_name == "server-tr-3990x"


class TestMethodEquivalence:
    @pytest.mark.parametrize("method", ["fastcc", "sparta", "taco", "ci", "cm", "co"])
    def test_all_methods_match_einsum(self, method):
        a = random_coo((7, 6, 5), nnz=40, seed=11)
        b = random_coo((5, 6, 8), nnz=35, seed=12)
        pairs = [(2, 0), (1, 1)]
        out = contract(a, b, pairs, method=method)
        np.testing.assert_allclose(
            out.to_dense(), dense_contract(a, b, pairs), rtol=1e-9
        )

    @pytest.mark.parametrize("method", ["fastcc", "sparta", "taco"])
    def test_methods_on_skewed_inputs(self, method):
        # One dense operand, one very sparse.
        a = random_coo((12, 10), nnz=100, seed=13)
        b = random_coo((10, 200), nnz=12, seed=14)
        out = contract(a, b, [(1, 0)], method=method)
        np.testing.assert_allclose(
            out.to_dense(), a.to_dense() @ b.to_dense(), rtol=1e-9
        )


class TestSelfContract:
    @pytest.mark.parametrize("modes", [[0], [1], [0, 1], [0, 2], [1, 2]])
    def test_matches_einsum(self, modes):
        t = random_coo((6, 5, 7), nnz=40, seed=15)
        out = self_contract(t, modes)
        np.testing.assert_allclose(
            out.to_dense(), dense_self_contract(t, modes), rtol=1e-9
        )

    def test_paper_output_arity(self):
        # Chicago 123: 4-mode tensor contracted over 3 modes -> 2-mode out.
        t = random_coo((5, 4, 3, 6), nnz=30, seed=16)
        out = self_contract(t, [1, 2, 3])
        assert out.ndim == 2


def tensor_with_duplicates(shape, nnz, seed):
    """A COO tensor whose coordinates each appear twice."""
    t = random_coo(shape, nnz=nnz, seed=seed)
    coords = np.concatenate([t.coords, t.coords[:, ::-1]], axis=1)
    values = np.concatenate([t.values, 2.0 * t.values])
    return COOTensor(coords, values, shape)


def counted_builds(monkeypatch):
    """Count per-operand table builds inside the kernel."""
    from repro.core import tiled_co

    calls = []
    original = tiled_co.build_tiled_tables

    def counting(operand, tile, **kw):
        calls.append(operand)
        return original(operand, tile, **kw)

    monkeypatch.setattr(tiled_co, "build_tiled_tables", counting)
    return calls


class TestSelfOperandSharing:
    """``contract(t, t, ...)`` over the same modes on both sides
    linearizes and tables ``t`` once, with the same bits and counts as
    contracting against a copy."""

    KERNEL_COUNTS = (
        "hash_queries", "data_volume", "accum_updates", "output_nnz", "tasks"
    )

    @pytest.mark.parametrize("modes", [[1], [1, 2], [0, 2]])
    @pytest.mark.parametrize("accumulator", ["dense", "sparse"])
    def test_bit_identical_to_a_copy(self, monkeypatch, modes, accumulator):
        t = tensor_with_duplicates((9, 7, 8), nnz=120, seed=21)
        pairs = [(m, m) for m in modes]
        builds = counted_builds(monkeypatch)
        c_self, c_copy = Counters(), Counters()
        shared = contract(t, t, pairs, counters=c_self, accumulator=accumulator)
        assert len(builds) == 1
        copied = contract(
            t, t.copy(), pairs, counters=c_copy, accumulator=accumulator
        )
        assert len(builds) == 3
        assert shared.coords.tobytes() == copied.coords.tobytes()
        assert shared.values.tobytes() == copied.values.tobytes()
        for name in self.KERNEL_COUNTS:
            assert getattr(c_self, name) == getattr(c_copy, name), name

    def test_swapped_modes_are_not_shared(self, monkeypatch):
        t = tensor_with_duplicates((6, 6, 4), nnz=60, seed=22)
        builds = counted_builds(monkeypatch)
        out = contract(t, t, [(0, 1), (1, 0)])
        assert len(builds) == 2
        assert builds[0] is not builds[1]
        dense = t.to_dense()
        np.testing.assert_allclose(
            out.to_dense(), np.einsum("abk,bal->kl", dense, dense), rtol=1e-12
        )


class TestStatsAndOverrides:
    def test_return_stats(self):
        a = random_coo((20, 20), nnz=50, seed=17)
        out, stats = contract(a, a, [(1, 0)], return_stats=True)
        assert stats.plan is not None
        assert stats.output_nnz == out.nnz
        assert "linearize" in stats.phase_seconds
        assert "delinearize" in stats.phase_seconds

    def test_counters_threaded_through(self):
        a = random_coo((20, 20), nnz=50, seed=18)
        c = Counters()
        contract(a, a, [(1, 0)], counters=c)
        assert c.accum_updates > 0

    def test_tile_and_accumulator_override(self):
        a = random_coo((40, 40), nnz=100, seed=19)
        out_default = contract(a, a, [(1, 0)])
        out_forced = contract(
            a, a, [(1, 0)], accumulator="sparse", tile_size=8
        )
        assert out_default.allclose(out_forced)

    def test_n_workers(self):
        a = random_coo((40, 40), nnz=100, seed=20)
        out1 = contract(a, a, [(1, 0)], n_workers=1, tile_size=8)
        out4 = contract(a, a, [(1, 0)], n_workers=4, tile_size=8)
        assert out1.allclose(out4)


class TestNewMethods:
    def test_sparta_improved_via_api(self):
        a = random_coo((12, 15), nnz=50, seed=21)
        b = random_coo((15, 9), nnz=40, seed=22)
        out = contract(a, b, [(1, 0)], method="sparta_improved")
        np.testing.assert_allclose(
            out.to_dense(), a.to_dense() @ b.to_dense(), rtol=1e-9
        )

    def test_taco_mm_via_api_with_stats(self):
        a = random_coo((8, 6, 5), nnz=30, seed=23)
        b = random_coo((5, 6, 7), nnz=30, seed=24)
        out, stats = contract(
            a, b, [(2, 0), (1, 1)], method="taco_mm", return_stats=True
        )
        assert stats.output_nnz == out.nnz
        assert "contract" in stats.phase_seconds

    def test_canonical_false_skips_sorting(self):
        a = random_coo((20, 20), nnz=80, seed=25)
        raw = contract(a, a, [(1, 0)], canonical=False)
        canon = contract(a, a, [(1, 0)], canonical=True)
        assert raw.allclose(canon)  # same tensor, any layout

    def test_counters_accumulate_across_calls(self):
        a = random_coo((15, 15), nnz=40, seed=26)
        c = Counters()
        contract(a, a, [(1, 0)], counters=c)
        first = c.accum_updates
        contract(a, a, [(1, 0)], counters=c)
        assert c.accum_updates == 2 * first

    def test_schedule_forwarding_not_needed_for_correctness(self):
        # The public API always uses the kernel default (heavy_first);
        # verify outputs equal the baseline regardless.
        a = random_coo((40, 40), nnz=200, seed=27)
        out = contract(a, a, [(1, 0)], tile_size=8)
        np.testing.assert_allclose(
            out.to_dense(), a.to_dense() @ a.to_dense(), rtol=1e-9
        )
