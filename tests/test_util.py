"""Unit tests for repro._util: Fenwick tree, slice costs, partitions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import (
    FenwickTree,
    SortedSliceL1,
    ordered_partitions,
    pairs,
    sorted_slice_l1,
)


class TestFenwickTree:
    def test_empty_tree(self):
        tree = FenwickTree(0)
        assert len(tree) == 0
        assert tree.total() == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FenwickTree(-1)

    def test_single_updates_and_prefix_sums(self):
        tree = FenwickTree(5)
        tree.add(0)
        tree.add(3, 2)
        assert tree.prefix_sum(-1) == 0
        assert tree.prefix_sum(0) == 1
        assert tree.prefix_sum(2) == 1
        assert tree.prefix_sum(3) == 3
        assert tree.prefix_sum(4) == 3
        assert tree.total() == 3

    def test_out_of_range_add(self):
        tree = FenwickTree(3)
        with pytest.raises(IndexError):
            tree.add(3)
        with pytest.raises(IndexError):
            tree.add(-1)

    def test_out_of_range_query(self):
        tree = FenwickTree(3)
        with pytest.raises(IndexError):
            tree.prefix_sum(3)

    @given(st.lists(st.integers(min_value=0, max_value=19), max_size=60))
    def test_matches_naive_counts(self, updates):
        tree = FenwickTree(20)
        counts = [0] * 20
        for index in updates:
            tree.add(index)
            counts[index] += 1
        for prefix in range(20):
            assert tree.prefix_sum(prefix) == sum(counts[: prefix + 1])


class TestSortedSliceL1:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SortedSliceL1([2.0, 1.0])

    def test_empty_slice_is_free(self):
        slices = SortedSliceL1([1.0, 2.0, 3.0])
        assert slices.cost(1, 1, 10.0) == 0.0

    def test_bad_slice_raises(self):
        slices = SortedSliceL1([1.0, 2.0])
        with pytest.raises(IndexError):
            slices.cost(1, 3, 0.0)
        with pytest.raises(IndexError):
            slices.cost(-1, 1, 0.0)

    def test_point_below_above_and_inside(self):
        slices = SortedSliceL1([1.0, 2.0, 4.0])
        assert slices.cost(0, 3, 0.0) == 7.0
        assert slices.cost(0, 3, 5.0) == 8.0
        assert slices.cost(0, 3, 2.0) == 3.0

    def test_median_cost_is_minimal(self):
        rng = random.Random(3)
        values = sorted(rng.uniform(0, 10) for _ in range(9))
        slices = SortedSliceL1(values)
        best = min(slices.cost(2, 8, point) for point in values[2:8])
        assert slices.median_cost(2, 8) == pytest.approx(best)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=25),
        st.floats(min_value=-150, max_value=150),
    )
    def test_matches_naive_sum(self, values, point):
        values = sorted(values)
        slices = SortedSliceL1(values)
        n = len(values)
        start, stop = 0, n
        expected = sum(abs(v - point) for v in values[start:stop])
        assert slices.cost(start, stop, point) == pytest.approx(expected)

    def test_one_shot_wrapper(self):
        assert sorted_slice_l1([1.0, 3.0], 0, 2, 2.0) == 2.0


class TestOrderedPartitions:
    def test_fubini_counts(self):
        # ordered Bell numbers: 1, 1, 3, 13, 75, 541
        for n, expected in [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75)]:
            assert sum(1 for _ in ordered_partitions(list(range(n)))) == expected

    def test_partitions_cover_domain(self):
        for partition in ordered_partitions([1, 2, 3]):
            flattened = [item for bucket in partition for item in bucket]
            assert sorted(flattened) == [1, 2, 3]
            assert all(bucket for bucket in partition)

    def test_partitions_are_distinct(self):
        seen = set()
        for partition in ordered_partitions(list(range(4))):
            key = tuple(tuple(sorted(bucket)) for bucket in partition)
            assert key not in seen
            seen.add(key)


class TestPairs:
    def test_small_values(self):
        assert pairs(0) == 0
        assert pairs(1) == 0
        assert pairs(2) == 1
        assert pairs(5) == 10
