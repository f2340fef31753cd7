"""Unit and property tests for the grouped-index kernels."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.util.groups import (
    TIMSORT_MAX_RUNS,
    TIMSORT_MIN_RUN_LENGTH,
    group_boundaries,
    grouped_cartesian,
    match_sorted_keys,
    segment_sum,
    sort_by,
    stable_argsort,
)


def assert_stable_order(keys):
    """``stable_argsort`` is NumPy's stable argsort, ``None`` the identity."""
    keys = np.asarray(keys)
    want = np.argsort(keys, kind="stable")
    got = stable_argsort(keys)
    if got is None:
        got = np.arange(keys.shape[0])
    np.testing.assert_array_equal(got, want)


_DTYPES = {
    "int64": (np.int64, -(2**62), 2**62),
    "int32": (np.int32, -(2**31), 2**31 - 1),
    "uint16": (np.uint16, 0, 2**16 - 1),
}


@st.composite
def sort_keys(draw):
    """Key arrays across every route of :func:`stable_argsort`."""
    name = draw(st.sampled_from([*_DTYPES, "float64"]))
    shape = draw(st.sampled_from(["random", "ties", "sorted", "runs"]))
    if name == "float64":
        elem = st.floats(-1e6, 1e6, allow_nan=False)
        dtype = np.float64
    else:
        dtype, lo, hi = _DTYPES[name]
        if shape == "ties":
            lo, hi = max(lo, -2), min(hi, 2)
        elif draw(st.booleans()):
            lo, hi = max(lo, -50), min(hi, 50)  # small span, negatives
        elem = st.integers(lo, hi)
    if shape == "runs":
        runs = draw(st.lists(st.lists(elem, min_size=1, max_size=8),
                             min_size=1, max_size=64))
        values = [v for run in runs for v in sorted(run)]
    else:
        values = draw(st.lists(elem, max_size=300))
        if shape == "sorted":
            values.sort()
    return np.array(values, dtype=dtype)


class TestStableArgsort:
    @settings(max_examples=300, deadline=None)
    @given(keys=sort_keys())
    def test_matches_numpy_stable_argsort(self, keys):
        assert_stable_order(keys)

    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_lengths_are_identity(self, n):
        assert stable_argsort(np.zeros(n, dtype=np.int64)) is None

    def test_presorted_returns_none(self):
        assert stable_argsort(np.array([-3, -3, 0, 7, 7, 9])) is None

    def test_all_equal_keys(self):
        assert stable_argsort(np.full(100, 4)) is None
        keys = np.full(100, 4)
        keys[50] = 3
        assert_stable_order(keys)

    @pytest.mark.parametrize(
        "n_runs", [2, TIMSORT_MAX_RUNS - 1, TIMSORT_MAX_RUNS, 64]
    )
    def test_both_sides_of_the_run_threshold(self, n_runs):
        # Each run restarts below the previous one: exactly n_runs runs,
        # with ties across runs.
        rng = np.random.default_rng(n_runs)
        keys = np.concatenate(
            [np.sort(rng.integers(-20, 20, 30)) for _ in range(n_runs)]
        )
        assert_stable_order(keys)

    def test_long_runs_past_the_run_threshold(self):
        rng = np.random.default_rng(5)
        run = TIMSORT_MIN_RUN_LENGTH + 1
        keys = np.concatenate(
            [np.sort(rng.integers(0, 10 * run, run)) for _ in range(20)]
        )
        assert_stable_order(keys)

    def test_span_overflowing_int64(self):
        keys = np.array([2**62, -(2**62), 0, 5, -(2**62), 2**62] * 8)
        assert_stable_order(keys)
        big = np.array([np.iinfo(np.uint64).max, 0, 7, 0] * 8, dtype=np.uint64)
        assert_stable_order(big)

    def test_float_keys_with_nan(self):
        # NaN sorts last; a NaN never counts as part of a presorted run.
        assert_stable_order(np.array([1.0, np.nan]))
        assert_stable_order(np.array([np.nan, 1.0, 0.5, np.nan, -2.0]))


class TestSortBy:
    def test_gathers_columns_along_last_axis(self):
        keys = np.array([3, 1, 3, 0])
        coords = np.array([[10, 11, 12, 13], [20, 21, 22, 23]])
        skeys, scoords, svals = sort_by(keys, coords, np.array([0.5, 1.5, 2.5, 3.5]))
        order = np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(skeys, keys[order])
        np.testing.assert_array_equal(scoords, coords[:, order])
        np.testing.assert_array_equal(svals, [3.5, 1.5, 0.5, 2.5])

    def test_presorted_returns_inputs_without_gather(self):
        keys = np.array([0, 0, 2, 5])
        vals = np.arange(4.0)
        skeys, svals = sort_by(keys, vals)
        assert skeys is keys and svals is vals


def test_one_stable_sort_primitive():
    """Every stable sort in the library goes through ``stable_argsort``.

    The array-API backend's ``xp.argsort(..., stable=True)`` is another
    API and is not matched.
    """
    root = Path(repro.__file__).parent
    pattern = re.compile(r"""kind\s*=\s*["'](stable|mergesort)["']""")
    offenders = [
        f"{path.relative_to(root)}:{lineno}"
        for path in sorted(root.rglob("*.py"))
        if path != root / "util" / "groups.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


class TestGroupBoundaries:
    def test_basic(self):
        keys, offsets = group_boundaries(np.array([1, 1, 3, 3, 3, 7]))
        np.testing.assert_array_equal(keys, [1, 3, 7])
        np.testing.assert_array_equal(offsets, [0, 2, 5, 6])

    def test_single_group(self):
        keys, offsets = group_boundaries(np.array([5, 5, 5]))
        np.testing.assert_array_equal(keys, [5])
        np.testing.assert_array_equal(offsets, [0, 3])

    def test_all_distinct(self):
        keys, offsets = group_boundaries(np.arange(4))
        np.testing.assert_array_equal(keys, np.arange(4))
        np.testing.assert_array_equal(offsets, [0, 1, 2, 3, 4])

    def test_empty(self):
        keys, offsets = group_boundaries(np.array([], dtype=np.int64))
        assert keys.size == 0
        np.testing.assert_array_equal(offsets, [0])


class TestMatchSortedKeys:
    def test_basic(self):
        common, ia, ib = match_sorted_keys(np.array([1, 3, 5]), np.array([3, 4, 5]))
        np.testing.assert_array_equal(common, [3, 5])
        np.testing.assert_array_equal(ia, [1, 2])
        np.testing.assert_array_equal(ib, [0, 2])

    def test_disjoint(self):
        common, ia, ib = match_sorted_keys(np.array([1]), np.array([2]))
        assert common.size == 0

    def test_empty(self):
        common, _, _ = match_sorted_keys(np.array([]), np.array([1, 2]))
        assert common.size == 0


class TestGroupedCartesian:
    def test_single_group(self):
        ia, ib = grouped_cartesian(
            np.array([0]), np.array([2]), np.array([10]), np.array([3])
        )
        np.testing.assert_array_equal(ia, [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(ib, [10, 11, 12, 10, 11, 12])

    def test_multiple_groups(self):
        ia, ib = grouped_cartesian(
            np.array([0, 5]), np.array([1, 2]),
            np.array([0, 7]), np.array([2, 1]),
        )
        np.testing.assert_array_equal(ia, [0, 0, 5, 6])
        np.testing.assert_array_equal(ib, [0, 1, 7, 7])

    def test_empty_groups_skipped(self):
        ia, ib = grouped_cartesian(
            np.array([0, 1]), np.array([0, 2]),
            np.array([0, 3]), np.array([2, 1]),
        )
        np.testing.assert_array_equal(ia, [1, 2])
        np.testing.assert_array_equal(ib, [3, 3])

    def test_no_groups(self):
        ia, ib = grouped_cartesian(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64),
            np.array([], dtype=np.int64), np.array([], dtype=np.int64),
        )
        assert ia.size == 0 and ib.size == 0

    def test_guard(self):
        with pytest.raises(MemoryError):
            grouped_cartesian(
                np.array([0]), np.array([10_000]),
                np.array([0]), np.array([10_000]),
                max_pairs=1000,
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            grouped_cartesian(np.array([0]), np.array([1, 2]),
                              np.array([0]), np.array([1]))


class TestSegmentSum:
    def test_basic(self):
        keys, sums = segment_sum(np.array([3, 1, 3]), np.array([1.0, 2.0, 4.0]))
        np.testing.assert_array_equal(keys, [1, 3])
        np.testing.assert_array_equal(sums, [2.0, 5.0])

    def test_empty(self):
        keys, sums = segment_sum(np.array([]), np.array([]))
        assert keys.size == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            segment_sum(np.array([1, 2]), np.array([1.0]))


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 20), st.floats(-5, 5)), max_size=50)
)
def test_segment_sum_matches_dict(pairs):
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    vals = np.array([v for _, v in pairs])
    got_k, got_s = segment_sum(keys, vals)
    model = {}
    for k, v in pairs:
        model[k] = model.get(k, 0.0) + v
    assert got_k.tolist() == sorted(model)
    assert got_s.tolist() == pytest.approx([model[k] for k in sorted(model)])


@settings(max_examples=60, deadline=None)
@given(
    groups=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8)
)
def test_grouped_cartesian_matches_nested_loops(groups):
    """Property: the expansion equals the naive per-group double loop."""
    starts_a = np.cumsum([0] + [a for a, _ in groups])[:-1]
    starts_b = np.cumsum([0] + [b for _, b in groups])[:-1]
    counts_a = np.array([a for a, _ in groups], dtype=np.int64)
    counts_b = np.array([b for _, b in groups], dtype=np.int64)
    ia, ib = grouped_cartesian(starts_a, counts_a, starts_b, counts_b)
    expected = []
    for g, (na, nb) in enumerate(groups):
        for i in range(na):
            for j in range(nb):
                expected.append((starts_a[g] + i, starts_b[g] + j))
    assert list(zip(ia.tolist(), ib.tolist())) == expected
