"""Tests for the majority-tournament / Condorcet utilities."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate.decompose import kemeny_decomposed
from repro.aggregate.exact import optimal_full_ranking
from repro.aggregate.kemeny import kemeny_lower_bound, pair_cost_array
from repro.aggregate.objective import total_distance
from repro.aggregate.tournament import (
    condorcet_winner,
    is_condorcet_consistent,
    topological_aggregation,
)
from repro.core.partial_ranking import PartialRanking
from repro.errors import AggregationError
from repro.generators.random import random_bucket_order, resolve_rng
from tests.conftest import _bucket_order_of


def _consensus_profile():
    return [
        PartialRanking.from_sequence("abcd"),
        PartialRanking.from_sequence("abcd"),
        PartialRanking.from_sequence("abdc"),
    ]


def _cycle_profile():
    return [
        PartialRanking.from_sequence("abc"),
        PartialRanking.from_sequence("bca"),
        PartialRanking.from_sequence("cab"),
    ]


def _majority_edges(rankings):
    """``{(x, y): (margin, count)}`` over the strict-dominance digraph."""
    items, ahead, _ = pair_cost_array(rankings)
    return {
        (x, y): (ahead[j, i] - ahead[i, j], ahead[i, j])
        for i, x in enumerate(items)
        for j, y in enumerate(items)
        if ahead[i, j] < ahead[j, i]
    }


class TestMajorityDigraph:
    def test_consensus_graph_is_the_total_order(self):
        edges = _majority_edges(_consensus_profile())
        assert ("a", "b") in edges
        assert ("a", "c") in edges
        assert ("c", "d") in edges  # 2 of 3 voters
        assert ("d", "c") not in edges

    def test_margins_are_positive(self):
        for margin, cost in _majority_edges(_consensus_profile()).values():
            assert margin > 0
            assert cost >= 0

    def test_tied_pair_has_no_edge(self):
        rankings = [
            PartialRanking.from_sequence("ab"),
            PartialRanking.from_sequence("ba"),
        ]
        assert _majority_edges(rankings) == {}
        assert is_condorcet_consistent(rankings)
        assert condorcet_winner(rankings) is None

    def test_cycle_detected(self):
        assert not is_condorcet_consistent(_cycle_profile())
        assert is_condorcet_consistent(_consensus_profile())


class TestCondorcetWinner:
    def test_consensus_winner(self):
        assert condorcet_winner(_consensus_profile()) == "a"

    def test_cycle_has_no_winner(self):
        assert condorcet_winner(_cycle_profile()) is None

    def test_no_winner_with_tied_top(self):
        rankings = [
            PartialRanking.from_sequence("abc"),
            PartialRanking.from_sequence("bac"),
        ]
        assert condorcet_winner(rankings) is None


class TestTopologicalAggregation:
    def test_matches_lower_bound_and_exact_optimum(self):
        rankings = _consensus_profile()
        ranking, cost = topological_aggregation(rankings)
        assert ranking.is_full
        assert cost == pytest.approx(kemeny_lower_bound(rankings))
        exact = kemeny_decomposed(rankings, require_exact=True).objective
        assert cost == pytest.approx(exact)
        assert total_distance(ranking, rankings, "k_prof") == pytest.approx(cost)

    def test_cyclic_instance_rejected(self):
        with pytest.raises(AggregationError, match="Condorcet cycle"):
            topological_aggregation(_cycle_profile())

    def test_invalid_input_is_not_reported_as_a_cycle(self):
        with pytest.raises(AggregationError, match="at least one input"):
            topological_aggregation([])
        with pytest.raises(AggregationError) as raised:
            topological_aggregation(_consensus_profile(), p=2.0)
        assert "Condorcet" not in str(raised.value)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_acyclic_random_instances_are_solved_exactly(self, seed):
        rng = resolve_rng(seed)
        rankings = [random_bucket_order(6, rng) for _ in range(5)]
        if not is_condorcet_consistent(rankings):
            return
        _, topo_cost = topological_aggregation(rankings)
        exact_cost = kemeny_decomposed(rankings, require_exact=True).objective
        assert topo_cost == pytest.approx(exact_cost)
        assert topo_cost == pytest.approx(kemeny_lower_bound(rankings))

    def test_condorcet_winner_tops_the_aggregation(self):
        rankings = _consensus_profile()
        ranking, _ = topological_aggregation(rankings)
        assert ranking.items_in_order()[0] == condorcet_winner(rankings)


@st.composite
def _small_profiles(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=5))
    return [draw(_bucket_order_of(n)) for _ in range(m)]


class TestAgainstDefinitions:
    """The Condorcet functions against their definitions at p = 1/2: voter
    counts from scalar ``ahead`` loops, the brute-force optimum versus the
    pairwise lower bound, and the decomposed Kemeny solver."""

    @settings(max_examples=60, deadline=None)
    @given(_small_profiles())
    def test_winner_beats_every_rival_by_voter_count(self, rankings):
        domain = sorted(rankings[0].domain)

        def beats(x, y):
            ahead = sum(sigma.ahead(x, y) for sigma in rankings)
            behind = sum(sigma.ahead(y, x) for sigma in rankings)
            return ahead > behind

        expected = [x for x in domain if all(beats(x, y) for y in domain if y != x)]
        assert condorcet_winner(rankings) == (expected[0] if expected else None)

    @settings(max_examples=60, deadline=None)
    @given(_small_profiles())
    def test_consistent_exactly_when_lower_bound_is_attained(self, rankings):
        _, optimum = optimal_full_ranking(rankings, "k_prof")
        attained = optimum == kemeny_lower_bound(rankings)
        assert is_condorcet_consistent(rankings) == attained

    @settings(max_examples=60, deadline=None)
    @given(_small_profiles())
    def test_topological_aggregation_is_the_decomposed_ranking(self, rankings):
        if not is_condorcet_consistent(rankings):
            with pytest.raises(AggregationError, match="Condorcet cycle"):
                topological_aggregation(rankings)
            return
        ranking, objective = topological_aggregation(rankings)
        result = kemeny_decomposed(rankings)
        assert ranking == result.ranking
        assert objective == result.objective
