"""Tests for the sequential-access MEDRANK / NRA algorithms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate.median import median_scores
from repro.aggregate.medrank import AccessLog, medrank, nra_median
from repro.core.partial_ranking import PartialRanking
from repro.db.mmap_lists import SortedListStore, int32_fits
from repro.errors import AggregationError
from repro.generators.random import (
    random_bucket_order,
    random_full_ranking,
    resolve_rng,
)


class TestAccessLog:
    def test_derived_quantities(self):
        log = AccessLog(depth=5, num_lists=4, domain_size=50)
        assert log.total_accesses == 20
        assert log.saturation == 0.1

    def test_empty_domain_saturation(self):
        assert AccessLog(depth=0, num_lists=2, domain_size=0).saturation == 0.0


class TestMedrank:
    def test_paper_instantiation_unanimous_top(self):
        # all three lists start with 'a': majority reached at depth 1
        rankings = [
            PartialRanking.from_sequence("abc"),
            PartialRanking.from_sequence("acb"),
            PartialRanking.from_sequence("abc"),
        ]
        result = medrank(rankings, k=1)
        assert result.winners == ("a",)
        assert result.access_log.depth == 1

    def test_winner_has_minimal_median_on_full_rankings(self):
        rng = resolve_rng(17)
        for _ in range(25):
            rankings = [random_full_ranking(9, rng) for _ in range(5)]
            result = medrank(rankings, k=1)
            scores = median_scores(rankings)
            assert scores[result.winners[0]] == min(scores.values())

    def test_output_is_top_k_list(self):
        rng = resolve_rng(3)
        rankings = [random_bucket_order(8, rng) for _ in range(3)]
        result = medrank(rankings, k=3)
        assert result.ranking.is_top_k(3)
        assert len(result.winners) == 3
        assert len(set(result.winners)) == 3

    def test_bad_parameters_rejected(self):
        rankings = [PartialRanking.from_sequence("ab")]
        with pytest.raises(AggregationError):
            medrank(rankings, k=0)
        with pytest.raises(AggregationError):
            medrank(rankings, k=3)
        with pytest.raises(AggregationError):
            medrank(rankings, quota=0.0)
        with pytest.raises(AggregationError):
            medrank(rankings, quota=1.0)

    def test_higher_quota_reads_deeper(self):
        rng = resolve_rng(23)
        rankings = [random_full_ranking(30, rng) for _ in range(5)]
        shallow = medrank(rankings, k=1, quota=0.5)
        deep = medrank(rankings, k=1, quota=0.9)
        assert deep.access_log.depth >= shallow.access_log.depth

    def test_depth_never_exceeds_domain(self):
        rng = resolve_rng(29)
        for _ in range(10):
            rankings = [random_bucket_order(12, rng) for _ in range(4)]
            result = medrank(rankings, k=12)
            assert result.access_log.depth <= 12

    def test_accesses_are_depth_times_lists(self):
        rng = resolve_rng(31)
        rankings = [random_full_ranking(20, rng) for _ in range(3)]
        result = medrank(rankings, k=2)
        assert result.access_log.total_accesses == result.access_log.depth * 3


class TestNraMedian:
    def test_certified_winner_minimizes_median(self):
        rng = resolve_rng(41)
        for _ in range(25):
            rankings = [random_bucket_order(10, rng) for _ in range(5)]
            result = nra_median(rankings, k=1)
            scores = median_scores(rankings)
            assert scores[result.winners[0]] == pytest.approx(min(scores.values()))

    def test_certified_topk_dominates_complement(self):
        rng = resolve_rng(43)
        for _ in range(15):
            rankings = [random_bucket_order(10, rng) for _ in range(4)]
            k = 3
            result = nra_median(rankings, k=k)
            scores = median_scores(rankings)
            worst_selected = max(scores[item] for item in result.winners)
            rest = set(rankings[0].domain) - set(result.winners)
            assert all(scores[item] >= worst_selected - 1e-9 for item in rest)

    def test_stops_early_on_correlated_inputs(self):
        top = list(range(40))
        rankings = [PartialRanking.from_sequence(top) for _ in range(3)]
        result = nra_median(rankings, k=1)
        assert result.access_log.depth < 40

    def test_bad_parameters_rejected(self):
        rankings = [PartialRanking.from_sequence("ab")]
        with pytest.raises(AggregationError):
            nra_median(rankings, k=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_nra_and_full_information_agree_on_winner_score(self, seed):
        rng = resolve_rng(seed)
        rankings = [random_bucket_order(8, rng) for _ in range(3)]
        result = nra_median(rankings, k=1)
        scores = median_scores(rankings)
        assert scores[result.winners[0]] == pytest.approx(min(scores.values()))


class TestSingleList:
    def test_single_input_returns_its_top(self):
        sigma = PartialRanking.from_sequence("cab")
        result = medrank([sigma], k=1)
        assert result.winners == ("c",)
        assert result.access_log.depth == 1
        certified = nra_median([sigma], k=1)
        assert certified.winners == ("c",)


class TestSortedListStoreStorage:
    def test_fit_guard(self):
        assert int32_fits(5)
        assert int32_fits((2**31 - 1) // 2)
        assert not int32_fits(2**31)

    def test_small_domain_stores_int32(self, tmp_path):
        profile = (PartialRanking([[0, 1], [2]]), PartialRanking([[2], [1, 0]]))
        store = SortedListStore.build(tmp_path / "lists", profile)
        assert store.storage == "int32"
