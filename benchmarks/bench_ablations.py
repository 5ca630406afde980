"""Ablation benchmarks for the design choices DESIGN.md §5 calls out.

Each class isolates one implementation decision and measures both sides:

* the Figure 1 incremental DP vs. the generic prefix-sum DP;
* O(n log n) discordance counting (at 300 items, the array classifier
  ``pair_counts`` switches to at 192) vs. the quadratic reference;
* the MEDRANK majority quota (0.5 as in the paper vs. stricter quotas);
* Theorem 5 witness construction vs. the Proposition 6 closed form for
  ``K_Haus``.
"""

from __future__ import annotations

import random

import pytest

from repro.aggregate.dp import _prefix_sum_bucketing, figure1_boundaries
from repro.aggregate.medrank import medrank
from repro.generators.random import random_bucket_order
from repro.metrics.hausdorff import kendall_hausdorff, kendall_hausdorff_counts
from repro.metrics.kendall import kendall, kendall_naive


@pytest.fixture(scope="module")
def half_integral_scores():
    rng = random.Random(0)
    return sorted(rng.randint(0, 600) / 2 for _ in range(300))


@pytest.fixture(scope="module")
def ranking_pair():
    rng = random.Random(1)
    return (
        random_bucket_order(300, rng, tie_bias=0.5),
        random_bucket_order(300, rng, tie_bias=0.5),
    )


class TestBucketingDPAblation:
    def test_figure1_incremental(self, benchmark, half_integral_scores):
        result = benchmark(figure1_boundaries, half_integral_scores)
        assert result.cost >= 0

    def test_prefix_sum_generic(self, benchmark, half_integral_scores):
        result = benchmark(_prefix_sum_bucketing, list(half_integral_scores))
        # both must find the same optimum; figure1 is the faster path
        assert result.cost == pytest.approx(figure1_boundaries(half_integral_scores).cost)


class TestKendallAblation:
    def test_fenwick_fast_path(self, benchmark, ranking_pair):
        sigma, tau = ranking_pair
        assert benchmark(kendall, sigma, tau) >= 0

    def test_quadratic_reference(self, benchmark, ranking_pair):
        sigma, tau = ranking_pair
        assert benchmark(kendall_naive, sigma, tau) == kendall(*ranking_pair)


class TestHausdorffAblation:
    def test_theorem5_witnesses(self, benchmark, ranking_pair):
        sigma, tau = ranking_pair
        assert benchmark(kendall_hausdorff, sigma, tau) >= 0

    def test_proposition6_closed_form(self, benchmark, ranking_pair):
        sigma, tau = ranking_pair
        value = benchmark(kendall_hausdorff_counts, sigma, tau)
        assert value == kendall_hausdorff(sigma, tau)


class TestMedrankQuotaAblation:
    @pytest.mark.parametrize("quota", [0.5, 0.7, 0.9])
    def test_quota_depth_tradeoff(self, benchmark, quota):
        rng = random.Random(7)
        rankings = [random_bucket_order(300, rng, tie_bias=0.3) for _ in range(5)]
        result = benchmark(medrank, rankings, 3, quota)
        assert len(result.winners) == 3
        # the paper's quota (just over half) is the shallowest stopping rule
        if quota == 0.5:
            deeper = medrank(rankings, 3, 0.9)
            assert result.access_log.depth <= deeper.access_log.depth
