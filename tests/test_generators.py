"""Tests for synthetic ranking generators and workloads."""

from __future__ import annotations

import random

import pytest

from repro.core.partial_ranking import PartialRanking
from repro.errors import InvalidRankingError
from repro.generators.mallows import bucketized_mallows, mallows_full_ranking
from repro.generators.random import (
    random_bucket_order,
    random_full_ranking,
    random_top_k,
    random_type,
    resolve_rng,
)
from repro.generators.workloads import (
    db_profile_workload,
    mallows_profile_workload,
    random_profile_workload,
)
from repro.metrics.kendall import kendall_full


class TestResolveRng:
    def test_passes_through_random(self):
        rng = random.Random(1)
        assert resolve_rng(rng) is rng

    def test_seed_is_deterministic(self):
        assert resolve_rng(5).random() == resolve_rng(5).random()


class TestRandomGenerators:
    def test_full_ranking_is_full(self):
        assert random_full_ranking(10, 0).is_full

    def test_int_domain_uses_range(self):
        assert random_full_ranking(4, 0).domain == {0, 1, 2, 3}

    def test_explicit_domain(self):
        assert random_full_ranking(["x", "y"], 0).domain == {"x", "y"}

    def test_empty_domain_rejected(self):
        with pytest.raises(InvalidRankingError):
            random_full_ranking(0, 0)
        with pytest.raises(InvalidRankingError):
            random_full_ranking([], 0)

    def test_tie_bias_extremes(self):
        assert random_bucket_order(8, 0, tie_bias=0.0).is_full
        assert random_bucket_order(8, 0, tie_bias=1.0).type == (8,)

    def test_tie_bias_validated(self):
        with pytest.raises(InvalidRankingError):
            random_bucket_order(4, 0, tie_bias=1.5)

    def test_determinism(self):
        assert random_bucket_order(10, 42) == random_bucket_order(10, 42)

    def test_random_type_is_composition(self):
        sizes = random_type(12, 0, max_bucket=4)
        assert sum(sizes) == 12
        assert all(1 <= s <= 4 for s in sizes)

    def test_random_type_validation(self):
        with pytest.raises(InvalidRankingError):
            random_type(0)
        with pytest.raises(InvalidRankingError):
            random_type(5, max_bucket=0)

    def test_random_top_k_shape(self):
        sigma = random_top_k(10, 3, 0)
        assert sigma.is_top_k(3)

    def test_random_top_k_validation(self):
        with pytest.raises(InvalidRankingError):
            random_top_k(5, 6, 0)


class TestMallows:
    def test_phi_validation(self):
        with pytest.raises(InvalidRankingError):
            mallows_full_ranking("abc", 0.0)
        with pytest.raises(InvalidRankingError):
            mallows_full_ranking("abc", 1.5)

    def test_partial_reference_rejected(self):
        with pytest.raises(InvalidRankingError):
            mallows_full_ranking(PartialRanking([["a", "b"]]), 0.5)

    def test_empty_reference_rejected(self):
        with pytest.raises(InvalidRankingError):
            mallows_full_ranking([], 0.5)

    def test_low_phi_concentrates_on_reference(self):
        reference = PartialRanking.from_sequence(range(12))
        rng = random.Random(0)
        distances = [
            kendall_full(reference, mallows_full_ranking(reference, 0.05, rng))
            for _ in range(30)
        ]
        assert sum(distances) / len(distances) < 2.0

    def test_high_phi_is_dispersed(self):
        reference = PartialRanking.from_sequence(range(12))
        rng = random.Random(0)
        near = sum(
            kendall_full(reference, mallows_full_ranking(reference, 0.1, rng))
            for _ in range(30)
        )
        far = sum(
            kendall_full(reference, mallows_full_ranking(reference, 1.0, rng))
            for _ in range(30)
        )
        assert near < far

    @pytest.mark.parametrize("n", [1, 2, 9, 200])
    @pytest.mark.parametrize("phi", [1e-6, 0.3, 0.7, 0.95, 1.0])
    def test_draws_match_the_per_step_weight_loop(self, n, phi):
        """Same offsets, and the same rng state after, as re-summing the
        step's weights on every insertion."""

        def naive(reference, rng):
            order = []
            for step, item in enumerate(reference):
                if phi == 1.0:
                    offset = rng.randrange(step + 1)
                else:
                    weights = [phi**j for j in range(step + 1)]
                    draw = rng.random() * sum(weights)
                    cumulative = 0.0
                    offset = step
                    for index, weight in enumerate(weights):
                        cumulative += weight
                        if draw <= cumulative:
                            offset = index
                            break
                order.insert(step - offset, item)
            return PartialRanking.from_sequence(order)

        for seed in range(3):
            fast_rng, naive_rng = random.Random(seed), random.Random(seed)
            reference = list(range(n))
            assert mallows_full_ranking(reference, phi, fast_rng) == naive(
                reference, naive_rng
            )
            assert fast_rng.random() == naive_rng.random()

    def test_bucketized_output_is_valid(self):
        sigma = bucketized_mallows(list(range(15)), 0.4, 7, max_bucket=4)
        assert sigma.domain == set(range(15))
        assert all(size <= 4 for size in sigma.type)


class TestWorkloads:
    def test_random_workload_shape(self):
        workload = random_profile_workload(10, 4, seed=0)
        assert workload.num_inputs == 4
        assert workload.domain_size == 10
        assert workload.max_bucket >= 1
        assert "random" in workload.name

    def test_mallows_workload_is_deterministic(self):
        a = mallows_profile_workload(10, 3, seed=5)
        b = mallows_profile_workload(10, 3, seed=5)
        assert a.rankings == b.rankings

    def test_db_workload_catalogs(self):
        for catalog in ("restaurants", "flights"):
            workload = db_profile_workload(30, seed=0, catalog=catalog)
            assert workload.domain_size == 30
            assert workload.max_bucket > 1  # the whole point: ties

    def test_db_workload_unknown_catalog(self):
        with pytest.raises(InvalidRankingError):
            db_profile_workload(10, catalog="nope")

    def test_nonpositive_m_rejected(self):
        with pytest.raises(InvalidRankingError):
            random_profile_workload(5, 0)
        with pytest.raises(InvalidRankingError):
            mallows_profile_workload(5, 0)
