"""Unit tests for the FaSTCC tiled-CO kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.counters import Counters
from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec, LinearizedOperand
from repro.core.tiled_co import (
    build_tiled_tables,
    build_tiled_tables_pair,
    tiled_co_contract,
)
from repro.data.random_tensors import random_operand_pair
from repro.errors import WorkspaceLimitError
from repro.machine.specs import DESKTOP
from repro.util.groups import group_boundaries

from tests.conftest import reference_product, triples_to_dense


def plan_for(left, right, **kw):
    spec = ContractionSpec((left.ext_extent, left.con_extent),
                           (left.con_extent, right.ext_extent),
                           [(1, 0)])
    return choose_plan(spec, left.nnz, right.nnz, DESKTOP, **kw)


def two_sort_tables(operand: LinearizedOperand, tile: int) -> dict:
    """Tables by the two-sort algorithm: a stable argsort by tile, then a
    stable argsort by contraction index within each tile.  Returns
    ``tile -> (keys, intra, values, group_sizes)``."""
    tile_of = operand.ext // tile
    order = np.argsort(tile_of, kind="stable")
    tiles, intra = tile_of[order], (operand.ext % tile)[order]
    con, vals = operand.con[order], operand.values[order]
    tile_ids, offsets = group_boundaries(tiles)
    out = {}
    for g, t in enumerate(tile_ids):
        sl = slice(offsets[g], offsets[g + 1])
        by_con = np.argsort(con[sl], kind="stable")
        keys, key_offsets = group_boundaries(con[sl][by_con])
        out[int(t)] = (
            keys, intra[sl][by_con], vals[sl][by_con], np.diff(key_offsets)
        )
    return out


@st.composite
def dup_operands(draw):
    """A linearized operand with duplicate (ext, con) entries, in any order."""
    ext_extent = draw(st.integers(1, 40))
    con_extent = draw(st.integers(1, 12))
    n = draw(st.integers(0, 150))
    ext = draw(st.lists(st.integers(0, ext_extent - 1), min_size=n, max_size=n))
    con = draw(st.lists(st.integers(0, con_extent - 1), min_size=n, max_size=n))
    if draw(st.booleans()):  # the deduplicated operands' ext-major order
        pairs = sorted(zip(ext, con))
        ext, con = [e for e, _ in pairs], [c for _, c in pairs]
    return LinearizedOperand(
        np.array(ext, dtype=np.int64),
        np.array(con, dtype=np.int64),
        np.arange(n, dtype=np.float64) + 0.5,  # distinct: order shows
        ext_extent,
        con_extent,
    )


class TestBuildTiledTables:
    @settings(max_examples=150, deadline=None)
    @given(
        operand=dup_operands(),
        tile=st.integers(1, 16),
        n_workers=st.sampled_from([1, 2]),
    )
    def test_same_bits_as_two_sort_build(self, operand, tile, n_workers):
        built = build_tiled_tables(operand, tile, n_workers=n_workers)
        want = two_sort_tables(operand, tile)
        assert built.nonempty_tiles() == sorted(want)
        for t, (keys, intra, vals, sizes) in want.items():
            table = built.tables[t]
            got_intra, got_vals = table.payload
            for got, exp in [
                (table.keys(), keys),
                (got_intra, intra),
                (got_vals, vals),
                (table.group_sizes(), sizes),
            ]:
                assert got.dtype == exp.dtype
                assert got.tobytes() == exp.tobytes()

    def test_partitioning(self, operand_pair):
        left, _ = operand_pair
        tables = build_tiled_tables(left, tile=16)
        assert tables.num_tiles == (left.ext_extent + 15) // 16
        total = sum(t.nnz for t in tables.tables if t is not None)
        assert total == left.nnz

    def test_intra_tile_indices_bounded(self, operand_pair):
        left, _ = operand_pair
        tables = build_tiled_tables(left, tile=8)
        for t in tables.tables:
            if t is not None:
                idx, _ = t.payload
                assert idx.min() >= 0 and idx.max() < 8

    def test_tile_assignment(self, operand_pair):
        # Element with external index e lands in table e // tile with
        # intra index e % tile: verify by reconstructing.
        left, _ = operand_pair
        tile = 8
        tables = build_tiled_tables(left, tile=tile)
        rebuilt = []
        for i, t in enumerate(tables.tables):
            if t is None:
                continue
            intra, vals = t.payload
            # reconstruct (ext, con, val) triples
            starts, counts = t.spans_for_all_keys()
            cons = np.repeat(t.keys(), counts)
            rebuilt.append((i * tile + intra, cons, vals))
        ext = np.concatenate([e for e, _, _ in rebuilt])
        con = np.concatenate([c for _, c, _ in rebuilt])
        vals = np.concatenate([v for _, _, v in rebuilt])
        orig = sorted(zip(left.ext.tolist(), left.con.tolist(), left.values.tolist()))
        got = sorted(zip(ext.tolist(), con.tolist(), vals.tolist()))
        assert got == pytest.approx(orig)

    def test_empty_operand(self):
        left, _ = random_operand_pair(10, 10, 10, density_l=0.1, density_r=0.1)
        left.ext = left.ext[:0]
        left.con = left.con[:0]
        left.values = left.values[:0]
        tables = build_tiled_tables(left, tile=4)
        assert tables.nonempty_tiles() == []

    def test_bad_tile(self, operand_pair):
        with pytest.raises(ValueError):
            build_tiled_tables(operand_pair[0], tile=0)

    def test_parallel_construction_matches(self, operand_pair):
        left, _ = operand_pair
        seq = build_tiled_tables(left, tile=8, n_workers=1)
        par = build_tiled_tables(left, tile=8, n_workers=4)
        assert seq.nonempty_tiles() == par.nonempty_tiles()
        for i in seq.nonempty_tiles():
            np.testing.assert_array_equal(
                seq.tables[i].keys(), par.tables[i].keys()
            )

    @pytest.mark.parametrize("workers", [1, 3, 4])
    def test_team_split_pair_construction(self, operand_pair, workers):
        """Section 4.2's split thread teams: the pair builder must match
        back-to-back sequential builds regardless of team size."""
        from repro.core.tiled_co import build_tiled_tables_pair

        left, right = operand_pair
        hl_ref = build_tiled_tables(left, tile=8)
        hr_ref = build_tiled_tables(right, tile=16)
        hl, hr = build_tiled_tables_pair(
            left, right, 8, 16, n_workers=workers
        )
        assert hl.nonempty_tiles() == hl_ref.nonempty_tiles()
        assert hr.nonempty_tiles() == hr_ref.nonempty_tiles()
        for i in hl.nonempty_tiles():
            np.testing.assert_array_equal(
                hl.tables[i].keys(), hl_ref.tables[i].keys()
            )


class TestKernelCorrectness:
    @pytest.mark.parametrize("tile", [1, 3, 8, 16, 64, 1024])
    def test_tile_size_invariance(self, operand_pair, tile):
        """The result must not depend on the tile size."""
        left, right = operand_pair
        expected = reference_product(left, right)
        plan = plan_for(left, right, tile_size=tile)
        l, r, v, _ = tiled_co_contract(left, right, plan)
        got = triples_to_dense(l, r, v, left.ext_extent, right.ext_extent)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    @pytest.mark.parametrize("acc", ["dense", "sparse"])
    def test_accumulator_invariance(self, operand_pair, acc):
        left, right = operand_pair
        expected = reference_product(left, right)
        plan = plan_for(left, right, accumulator=acc, tile_size=8)
        l, r, v, _ = tiled_co_contract(left, right, plan)
        got = triples_to_dense(l, r, v, left.ext_extent, right.ext_extent)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_invariance(self, operand_pair, workers):
        left, right = operand_pair
        expected = reference_product(left, right)
        plan = plan_for(left, right, tile_size=8)
        l, r, v, _ = tiled_co_contract(left, right, plan, n_workers=workers)
        got = triples_to_dense(l, r, v, left.ext_extent, right.ext_extent)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_chunked_expansion_matches(self, operand_pair):
        left, right = operand_pair
        expected = reference_product(left, right)
        plan = plan_for(left, right, tile_size=16)
        l, r, v, _ = tiled_co_contract(left, right, plan, chunk_pairs=7)
        got = triples_to_dense(l, r, v, left.ext_extent, right.ext_extent)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_unique_output_coordinates(self, operand_pair):
        left, right = operand_pair
        plan = plan_for(left, right, tile_size=8)
        l, r, v, _ = tiled_co_contract(left, right, plan)
        combined = l * right.ext_extent + r
        assert len(np.unique(combined)) == len(combined)

    def test_disjoint_contraction_keys(self):
        # No common c between the operands: empty output.
        left, right = random_operand_pair(8, 20, 8, density_l=0.2, density_r=0.2, seed=5)
        left.con = left.con % 10
        right.con = 10 + right.con % 10
        plan = plan_for(left, right, tile_size=4)
        l, r, v, stats = tiled_co_contract(left, right, plan)
        assert v.size == 0

    def test_extent_mismatch(self):
        left, right = random_operand_pair(8, 10, 8, density_l=0.2, density_r=0.2)
        right.con_extent = 11
        plan = plan_for(left, right, tile_size=4)
        right2 = right
        with pytest.raises(ValueError):
            tiled_co_contract(left, right2, plan)


class TestKernelInstrumentation:
    def test_task_costs_recorded(self, operand_pair):
        left, right = operand_pair
        plan = plan_for(left, right, tile_size=8)
        _, _, _, stats = tiled_co_contract(left, right, plan)
        assert stats.num_tasks >= 1
        assert stats.task_costs.shape[0] == stats.num_tasks
        assert (stats.task_costs >= 0).all()

    def test_phase_seconds(self, operand_pair):
        left, right = operand_pair
        plan = plan_for(left, right, tile_size=8)
        _, _, _, stats = tiled_co_contract(left, right, plan)
        assert {"build_tables", "contract", "merge_output"} <= set(stats.phase_seconds)
        assert stats.total_seconds >= stats.kernel_seconds

    def test_counters_populated(self, operand_pair):
        left, right = operand_pair
        c = Counters()
        plan = plan_for(left, right, tile_size=8)
        _, _, v, _ = tiled_co_contract(left, right, plan, counters=c)
        assert c.hash_queries > 0
        assert c.data_volume > 0
        assert c.output_nnz == v.shape[0]

    def test_data_volume_grows_with_smaller_tiles(self):
        """Section 5.3: Data_Vol = nnz_L * NR + nnz_R * NL."""
        left, right = random_operand_pair(
            128, 64, 128, density_l=0.05, density_r=0.05, seed=6
        )
        vols = {}
        for tile in [16, 64]:
            c = Counters()
            plan = plan_for(left, right, tile_size=tile)
            tiled_co_contract(left, right, plan, counters=c)
            vols[tile] = c.data_volume
        assert vols[16] > vols[64]

    def test_task_guard(self):
        left, right = random_operand_pair(
            4096, 8, 4096, density_l=0.01, density_r=0.01, seed=7
        )
        plan = plan_for(left, right, tile_size=1, accumulator="dense")
        with pytest.raises(WorkspaceLimitError):
            tiled_co_contract(left, right, plan, max_tasks=100)


class TestTaskScheduling:
    def test_schedules_agree_numerically(self, operand_pair):
        left, right = operand_pair
        plan = plan_for(left, right, tile_size=8)
        fifo = tiled_co_contract(left, right, plan, schedule="fifo")
        heavy = tiled_co_contract(left, right, plan, schedule="heavy_first")
        a = triples_to_dense(*fifo[:3], left.ext_extent, right.ext_extent)
        b = triples_to_dense(*heavy[:3], left.ext_extent, right.ext_extent)
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_bad_schedule_rejected(self, operand_pair):
        left, right = operand_pair
        plan = plan_for(left, right, tile_size=8)
        with pytest.raises(ValueError):
            tiled_co_contract(left, right, plan, schedule="random")

    def test_heavy_first_dispatch_order(self):
        """heavy_first must dispatch tile pairs in non-increasing order
        of their estimated weight (nnz(HL_i) * nnz(HR_j)) — the LPT
        mechanism, checked deterministically via the recorded pair
        order (wall-clock task costs are too noisy to assert on)."""
        from repro.data.random_tensors import clustered_coo
        from repro.core.plan import ContractionSpec
        from repro.core.tiled_co import build_tiled_tables

        t = clustered_coo((600, 80), nnz=8000, seed=9, n_clusters=3,
                          spread=0.02)
        spec = ContractionSpec(t.shape, t.shape, [(1, 1)])
        left = spec.linearize_left(t).sum_duplicates()
        right = spec.linearize_right(t).sum_duplicates()
        plan = plan_for(left, right, tile_size=64)
        _, _, _, stats = tiled_co_contract(
            left, right, plan, schedule="heavy_first"
        )
        hl = build_tiled_tables(left, plan.tile_l)
        hr = build_tiled_tables(right, plan.tile_r)
        weights = [
            hl.tables[i].nnz * hr.tables[j].nnz for i, j in stats.task_pairs
        ]
        assert weights == sorted(weights, reverse=True)
        # And a few distinct weights actually exist (clustered input).
        assert len(set(weights)) > 1

        # FIFO keeps grid order instead.
        _, _, _, fifo_stats = tiled_co_contract(
            left, right, plan, schedule="fifo"
        )
        assert fifo_stats.task_pairs == sorted(fifo_stats.task_pairs)


class TestSharedBuild:
    def test_same_operand_same_tile_builds_once(self, operand_pair):
        left, _ = operand_pair
        hl, hr = build_tiled_tables_pair(left, left, 8, 8)
        assert hl is hr

    def test_different_tiles_build_twice(self, operand_pair):
        left, _ = operand_pair
        hl, hr = build_tiled_tables_pair(left, left, 8, 16)
        assert hl is not hr
        assert (hl.tile, hr.tile) == (8, 16)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_equal_operands_that_are_distinct_objects_build_twice(
        self, operand_pair, n_workers
    ):
        left, _ = operand_pair
        twin = LinearizedOperand(
            left.ext.copy(), left.con.copy(), left.values.copy(),
            left.ext_extent, left.con_extent,
        )
        hl, hr = build_tiled_tables_pair(left, twin, 8, 8, n_workers=n_workers)
        assert hl is not hr
