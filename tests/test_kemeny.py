"""Tests for the exact Kemeny (Held-Karp) aggregation solver."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.aggregate.decompose import kemeny_decomposed
from repro.aggregate.exact import optimal_full_ranking
from repro.aggregate.kemeny import (
    _held_karp,
    kemeny_lower_bound,
    pair_cost_array,
)
from repro.aggregate.scoring import ScoringScheme, resolve_scheme
from repro.aggregate.median import median_full_ranking
from repro.aggregate.objective import total_distance
from repro.core.partial_ranking import PartialRanking
from repro.errors import AggregationError
from repro.generators.random import random_bucket_order, resolve_rng
from repro.verify.reference import held_karp_python, kemeny_monolithic


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
        items, cost = pair_cost_array(rankings)
        i, j = items.index("a"), items.index("b")
        # placing a before b: 0 from the agreeing input, 1/2 from the tie
        assert cost[i][j] == 0.5
        # placing b before a: 1 from the strict input, 1/2 from the tie
        assert cost[j][i] == 1.5

    def test_pair_sum_is_constant(self):
        rng = resolve_rng(3)
        rankings = [random_bucket_order(6, rng) for _ in range(5)]
        items, cost = pair_cost_array(rankings)
        n = len(items)
        sums = {
            round(cost[i][j] + cost[j][i], 6)
            for i in range(n)
            for j in range(i + 1, n)
        }
        # each pair's forward+backward cost counts each input once:
        # 1 for strict inputs, 2 * (1/2) for tied ones -> always m
        assert sums == {float(len(rankings))}

    def test_bad_p_rejected(self):
        with pytest.raises(AggregationError):
            pair_cost_array([PartialRanking.from_sequence("ab")], p=2.0)


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


class TestScoringScheme:
    def test_kendall_scheme_matches_scalar_p(self):
        rng = resolve_rng(7)
        rankings = [random_bucket_order(6, rng, tie_bias=0.4) for _ in range(4)]
        _, scalar = pair_cost_array(rankings, p=0.25)
        _, schemed = pair_cost_array(
            rankings, scheme=ScoringScheme.kendall(0.25)
        )
        assert np.array_equal(scalar, schemed)

    def test_scheme_and_conflicting_p_rejected(self):
        with pytest.raises(AggregationError):
            pair_cost_array(
                [PartialRanking.from_sequence("ab")],
                p=0.25,
                scheme=ScoringScheme.kendall(0.75),
            )

    def test_resolve_scheme_defaults_to_kendall(self):
        scheme = resolve_scheme(0.25, None)
        assert scheme == ScoringScheme.kendall(0.25)
        assert scheme.is_kendall

    def test_invalid_penalties_rejected(self):
        with pytest.raises(AggregationError):
            ScoringScheme(disagree=-1.0)
        with pytest.raises(AggregationError):
            ScoringScheme(tie=float("nan"))
        with pytest.raises(AggregationError):
            ScoringScheme.kendall(2.0)

    def test_non_kendall_scheme_changes_the_matrix(self):
        # rewarding agreement (agree > 0) charges the *winning* order too
        rankings = [
            PartialRanking.from_sequence("ab"),
            PartialRanking.from_sequence("ab"),
        ]
        scheme = ScoringScheme(agree=0.25, disagree=1.0, tie=0.5)
        items, cost = pair_cost_array(rankings, scheme=scheme)
        i, j = items.index("a"), items.index("b")
        assert cost[i, j] == pytest.approx(0.5)  # 2 inputs agree, 0.25 each
        assert cost[j, i] == pytest.approx(2.0)  # 2 strict disagreements

    def test_optimal_accepts_scheme_passthrough(self):
        rng = resolve_rng(11)
        rankings = [random_bucket_order(6, rng, tie_bias=0.3) for _ in range(3)]
        via_p = kemeny_exact(rankings, p=0.25)
        via_scheme = kemeny_exact(rankings, scheme=ScoringScheme.kendall(0.25))
        assert via_p == via_scheme


class TestPairCostArray:
    def test_matches_per_ranking_accumulation(self):
        """Every entry equals the per-input sum of the definition: 1 when
        the input ranks the second item strictly ahead, p when it ties
        the pair."""
        rng = resolve_rng(5)
        rankings = [random_bucket_order(7, rng, tie_bias=0.3) for _ in range(4)]
        items, cost = pair_cost_array(rankings, p=0.25)
        assert items == sorted(items, key=lambda item: (type(item).__name__, repr(item)))
        for i, x in enumerate(items):
            for j, y in enumerate(items):
                expected = 0.0
                if i != j:
                    for sigma in rankings:
                        if sigma.position(y) < sigma.position(x):
                            expected += 1.0
                        elif sigma.position(y) == sigma.position(x):
                            expected += 0.25
                assert cost[i, j] == expected

    def test_diagonal_is_zero(self):
        rng = resolve_rng(6)
        rankings = [random_bucket_order(5, rng) for _ in range(3)]
        _, cost = pair_cost_array(rankings)
        assert not np.diag(cost).any()


class TestHeldKarpVectorized:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_bit_identical_to_python_reference(self, seed):
        rng = resolve_rng(seed)
        rankings = [random_bucket_order(8, rng, tie_bias=0.4) for _ in range(4)]
        _, cost = pair_cost_array(rankings)
        n = cost.shape[0]
        vec_order, vec_value = _held_karp(cost, n)
        ref_order, ref_value = held_karp_python(cost, n)
        # dyadic penalties make every partial sum exact, so the orders
        # and objectives must agree bit-for-bit, ties included
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
