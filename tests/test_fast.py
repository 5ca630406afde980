"""Tests for the array-based (numpy) pair counter and where pair_counts uses it."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partial_ranking import PartialRanking
from repro.errors import DomainMismatchError, InvalidRankingError
from repro.generators.random import random_bucket_order, resolve_rng
from repro.metrics.fast import count_inversions_array
from repro.metrics.hausdorff import kendall_hausdorff_counts
from repro.metrics.kendall import (
    _ARRAY_MIN_ITEMS,
    _pair_counts_array,
    _pair_counts_fenwick,
    kendall,
    pair_counts,
)
from tests.conftest import bucket_order_pairs


class TestCountInversionsArray:
    def test_empty_and_singleton(self):
        assert count_inversions_array(np.array([])) == 0
        assert count_inversions_array(np.array([7])) == 0

    def test_sorted_and_reversed(self):
        assert count_inversions_array(np.arange(10)) == 0
        assert count_inversions_array(np.arange(10)[::-1]) == 45

    def test_ties_do_not_count(self):
        assert count_inversions_array(np.array([2, 2, 2, 1])) == 3

    @given(st.lists(st.integers(min_value=0, max_value=12), max_size=64))
    def test_matches_quadratic_definition(self, values):
        arr = np.array(values, dtype=np.int64)
        naive = sum(
            1
            for i in range(len(values))
            for j in range(i + 1, len(values))
            if values[i] > values[j]
        )
        assert count_inversions_array(arr) == naive


class TestPairCountsLarge:
    @given(bucket_order_pairs(max_size=7))
    def test_bitwise_equal_to_fenwick_path(self, pair):
        sigma, tau = pair
        assert _pair_counts_array(sigma, tau) == _pair_counts_fenwick(sigma, tau)

    def test_medium_random_cross_check(self):
        rng = resolve_rng(5)
        for tie_bias in (0.0, 0.5, 0.95):
            sigma = random_bucket_order(500, rng, tie_bias=tie_bias)
            tau = random_bucket_order(500, rng, tie_bias=tie_bias)
            assert pair_counts(sigma, tau) == _pair_counts_fenwick(sigma, tau)

    def test_domain_mismatch_rejected(self):
        with pytest.raises(DomainMismatchError):
            pair_counts(PartialRanking([["a"]]), PartialRanking([["b"]]))


class TestThreshold:
    @pytest.mark.parametrize(
        ("n", "array_path"), [(_ARRAY_MIN_ITEMS - 1, False), (_ARRAY_MIN_ITEMS, True)]
    )
    def test_public_path_matches_fenwick_either_side(self, monkeypatch, n, array_path):
        # the module, not the same-named function repro.metrics exports
        kendall_module = importlib.import_module("repro.metrics.kendall")
        calls = []

        def spy(sigma, tau):
            calls.append(len(sigma))
            return _pair_counts_array(sigma, tau)

        monkeypatch.setattr(kendall_module, "_pair_counts_array", spy)
        rng = resolve_rng(n)
        for tie_bias in (0.0, 0.5, 0.95):
            sigma = random_bucket_order(n, rng, tie_bias=tie_bias)
            tau = random_bucket_order(n, rng, tie_bias=tie_bias)
            assert pair_counts(sigma, tau) == _pair_counts_fenwick(sigma, tau)
        assert calls == ([n] * 3 if array_path else [])


class TestEntryPoints:
    @settings(max_examples=30)
    @given(bucket_order_pairs(max_size=7))
    def test_kendall_array_matches_kendall(self, pair):
        sigma, tau = pair
        for p in (0.0, 0.5, 1.0):
            assert _pair_counts_array(sigma, tau).kendall(p) == kendall(sigma, tau, p)

    @given(bucket_order_pairs(max_size=7))
    def test_hausdorff_large_matches_closed_form(self, pair):
        sigma, tau = pair
        assert _pair_counts_array(sigma, tau).kendall_hausdorff() == (
            kendall_hausdorff_counts(sigma, tau)
        )

    def test_bad_p_rejected(self):
        sigma = PartialRanking([list(range(_ARRAY_MIN_ITEMS))])
        with pytest.raises(InvalidRankingError):
            kendall(sigma, sigma, p=-0.5)
