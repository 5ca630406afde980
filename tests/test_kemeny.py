"""Tests for the exact Kemeny (Held-Karp) aggregation solver."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.aggregate import kemeny
from repro.aggregate.decompose import kemeny_decomposed
from repro.aggregate.exact import optimal_full_ranking
from repro.aggregate.kemeny import (
    _held_karp,
    kemeny_lower_bound,
    pair_cost_array,
)
from repro.aggregate.median import median_full_ranking
from repro.aggregate.objective import total_distance
from repro.core.partial_ranking import PartialRanking
from repro.errors import AggregationError
from repro.generators.random import random_bucket_order, resolve_rng
from repro.metrics.kendall import kendall
from repro.verify.reference import (
    held_karp_python,
    kemeny_monolithic,
    pair_cost_sign_sums,
)


def kemeny_exact(rankings, p=0.5, **kwargs):
    """(ranking, objective) of the certified decomposed optimum."""
    result = kemeny_decomposed(rankings, p, require_exact=True, **kwargs)
    return result.ranking, result.objective


class TestPairCostMatrix:
    def test_costs_reflect_disagreements_and_ties(self):
        rankings = [
            PartialRanking.from_sequence("ab"),
            PartialRanking([["a", "b"]]),
        ]
        items, ahead, ties = pair_cost_array(rankings)
        i, j = items.index("a"), items.index("b")
        # no input ranks b strictly ahead of a; one ranks a ahead of b
        assert ahead[i][j] == 0
        assert ahead[j][i] == 1
        # the second input ties the one pair
        assert ties == 1

    def test_pair_sum_is_constant(self):
        rng = resolve_rng(3)
        rankings = [random_bucket_order(6, rng) for _ in range(5)]
        items, ahead, ties = pair_cost_array(rankings)
        n = len(items)
        # every input orders a pair one way or ties it: strict counts in
        # both directions plus the pair's ties make m, so the strict
        # shortfall summed over pairs is the tie count
        upper = np.triu_indices(n, k=1)
        strict = (ahead + ahead.T)[upper]
        assert (strict <= len(rankings)).all()
        assert int((len(rankings) - strict).sum()) == ties

    @pytest.mark.parametrize("rows_per_chunk", [1, 3, 11])
    def test_counts_match_sign_sums_across_chunks(self, monkeypatch, rows_per_chunk):
        rng = resolve_rng(5)
        n = 9
        rankings = [random_bucket_order(n, rng, tie_bias=0.4) for _ in range(11)]
        monkeypatch.setattr(kemeny, "_CHUNK_BUDGET", rows_per_chunk * n * n)
        items, ahead, ties = pair_cost_array(rankings)
        ref_items, ref_ahead, ref_ties = pair_cost_sign_sums(rankings)
        assert items == ref_items
        assert ahead.dtype == np.int64
        assert np.array_equal(ahead, ref_ahead)
        assert ties == ref_ties

    def test_bad_p_rejected(self):
        # pair_cost_array takes no p; the solvers that use it validate it
        rankings = [PartialRanking.from_sequence("ab")]
        for bad in (2.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(AggregationError, match="outside"):
                kemeny_decomposed(rankings, bad)
            with pytest.raises(AggregationError, match="outside"):
                kemeny_lower_bound(rankings, bad)
            with pytest.raises(AggregationError, match="outside"):
                kemeny_monolithic(rankings, bad)


class TestKemenyOptimal:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_factorial_bruteforce(self, seed):
        rng = resolve_rng(seed)
        rankings = [random_bucket_order(5, rng) for _ in range(3)]
        _, dp_cost = kemeny_exact(rankings)
        _, brute_cost = optimal_full_ranking(rankings, metric="k_prof")
        assert dp_cost == pytest.approx(brute_cost)

    def test_reported_cost_matches_objective(self):
        rng = resolve_rng(9)
        rankings = [random_bucket_order(8, rng) for _ in range(5)]
        best, cost = kemeny_exact(rankings)
        assert best.is_full
        assert total_distance(best, rankings, "k_prof") == pytest.approx(cost)

    def test_beats_or_ties_median(self):
        rng = resolve_rng(21)
        for _ in range(5):
            rankings = [random_bucket_order(7, rng) for _ in range(5)]
            _, exact_cost = kemeny_exact(rankings)
            median_cost = total_distance(
                median_full_ranking(rankings), rankings, "k_prof"
            )
            assert exact_cost <= median_cost + 1e-9

    def test_unanimous_inputs_reproduced(self):
        sigma = PartialRanking.from_sequence("dbca")
        best, cost = kemeny_exact([sigma, sigma, sigma])
        assert best == sigma
        assert cost == 0.0

    def test_monolithic_size_guard(self):
        # the monolithic reference DP refuses n > 16 outright ...
        rankings = [PartialRanking.from_sequence(range(17))]
        with pytest.raises(AggregationError):
            kemeny_monolithic(rankings)

    def test_decomposition_lifts_cap_on_ordered_input(self):
        # ... but the decomposed solver condenses the unanimous
        # order into 17 singleton components and solves it instantly
        rankings = [PartialRanking.from_sequence(range(17))]
        best, cost = kemeny_exact(rankings)
        assert best == rankings[0]
        assert cost == 0.0

    def test_decomposed_path_refuses_one_big_scc(self):
        # rotations of the same order produce a single dominance SCC
        # spanning all n items: no decomposition helps, so the certified
        # solver must refuse just like the monolithic reference
        n = 20
        base = list(range(n))
        rankings = [
            PartialRanking.from_sequence(base[shift:] + base[:shift])
            for shift in (0, 1, 2)
        ]
        with pytest.raises(AggregationError):
            kemeny_exact(rankings)

    def test_condorcet_cycle_resolved_optimally(self):
        # the classical 3-voter cycle: a>b>c, b>c>a, c>a>b
        rankings = [
            PartialRanking.from_sequence("abc"),
            PartialRanking.from_sequence("bca"),
            PartialRanking.from_sequence("cab"),
        ]
        _, cost = kemeny_exact(rankings)
        # by symmetry every full ranking costs 4 here: each voter's own
        # order disagrees with each other voter on exactly 2 pairs; the
        # pairwise lower bound of 3 is unattainable because of the cycle
        assert cost == 4.0
        assert kemeny_lower_bound(rankings) == 3.0


#: A profile on which the float-cost solve at p = 0.1 broke a tie among
#: optima by rounding and returned 5 | 1 | 4 | 3 | 2 | 0, which costs the
#: same as the p = 1/2 answer.
_FLOAT_TIE_PROFILE = [
    [[1], [0], [4], [3], [2], [5]],
    [[2], [4], [5], [1], [3], [0]],
    [[5], [4], [3], [1], [2], [0]],
    [[1, 2], [0], [5], [3, 4]],
    [[4], [3], [0], [5], [2], [1]],
    [[0], [2], [1, 5], [3], [4]],
    [[5], [1, 3], [0, 2, 4]],
]


class TestPInvariance:
    """The solve runs on integer counts, so only the objective sees p."""

    def test_solve_is_identical_at_every_p(self):
        rng = resolve_rng(11)
        rankings = [random_bucket_order(6, rng, tie_bias=0.3) for _ in range(3)]
        _, _, ties = pair_cost_array(rankings)
        base = kemeny_decomposed(rankings, 0.0, require_exact=True)
        for p in (0.1, 0.25, 0.3, 0.5, 1.0):
            result = kemeny_decomposed(rankings, p, require_exact=True)
            assert result.ranking == base.ranking
            assert result.components == base.components
            assert result.objective == base.objective + p * ties
            assert result.lower_bound == base.lower_bound + p * ties
            if p in (0.25, 0.5, 1.0):
                # dyadic p: every float sum is exact, so the value is the
                # monolithic optimum and the ranking's own K^(p) total
                assert result.objective == kemeny_monolithic(rankings, p)[1]
                assert result.objective == total_distance(
                    result.ranking, rankings, lambda a, b, p=p: kendall(a, b, p)
                )

    def test_float_tie_profile_answers_as_at_one_half(self):
        rankings = [PartialRanking(buckets) for buckets in _FLOAT_TIE_PROFILE]
        at_tenth = kemeny_decomposed(rankings, 0.1, require_exact=True)
        at_half = kemeny_decomposed(rankings, 0.5, require_exact=True)
        assert at_tenth.ranking == at_half.ranking
        assert at_tenth.ranking == PartialRanking.from_sequence([5, 1, 4, 3, 0, 2])
        _, _, ties = pair_cost_array(rankings)
        assert at_tenth.objective == (at_half.objective - 0.5 * ties) + 0.1 * ties


class TestPairCostArray:
    def test_matches_per_ranking_accumulation(self):
        """``ahead`` counts, per ordered pair, the inputs ranking the second
        item strictly ahead of the first; ``ties`` counts (input, pair)
        ties."""
        rng = resolve_rng(5)
        rankings = [random_bucket_order(7, rng, tie_bias=0.3) for _ in range(4)]
        items, ahead, ties = pair_cost_array(rankings)
        assert items == sorted(items, key=lambda item: (type(item).__name__, repr(item)))
        assert ahead.dtype == np.int64
        expected_ties = 0
        for i, x in enumerate(items):
            for j, y in enumerate(items):
                expected = 0
                for sigma in rankings:
                    if i != j and sigma.position(y) < sigma.position(x):
                        expected += 1
                    elif i < j and sigma.position(y) == sigma.position(x):
                        expected_ties += 1
                assert ahead[i, j] == expected
        assert ties == expected_ties
        assert isinstance(ties, int)

    def test_diagonal_is_zero(self):
        rng = resolve_rng(6)
        rankings = [random_bucket_order(5, rng) for _ in range(3)]
        _, ahead, _ = pair_cost_array(rankings)
        assert not np.diag(ahead).any()


class TestHeldKarpVectorized:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_bit_identical_to_python_reference(self, seed):
        rng = resolve_rng(seed)
        rankings = [random_bucket_order(8, rng, tie_bias=0.4) for _ in range(4)]
        _, ahead, _ = pair_cost_array(rankings)
        n = ahead.shape[0]
        vec_order, vec_value = _held_karp(ahead, n)
        ref_order, ref_value = held_karp_python(ahead, n)
        # integer counts: the orders and optima agree exactly, ties included
        assert vec_order == ref_order
        assert vec_value == ref_value


class TestLowerBound:
    def test_lower_bound_never_exceeds_optimum(self):
        rng = resolve_rng(33)
        for _ in range(10):
            rankings = [random_bucket_order(7, rng) for _ in range(4)]
            bound = kemeny_lower_bound(rankings)
            _, cost = kemeny_exact(rankings)
            assert bound <= cost + 1e-9

    def test_tight_on_acyclic_majority(self):
        rankings = [
            PartialRanking.from_sequence("abcd"),
            PartialRanking.from_sequence("abcd"),
            PartialRanking.from_sequence("dcba"),
        ]
        bound = kemeny_lower_bound(rankings)
        _, cost = kemeny_exact(rankings)
        assert bound == pytest.approx(cost)
