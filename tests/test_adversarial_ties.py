"""Adversarial tie-structure battery: degenerate bucket shapes.

The structures where tie-handling bugs hide: the single bucket of all n
items (every pair tied), n singletons (no ties), and k singletons over
one giant bucket of n−k. For every pair drawn from the battery the three
implementation layers — object-level metrics, the ``metrics.fast``
array classifier, and ``metrics.batch`` matrix entries — must agree *exactly*
(these are integer/half-integer values; no tolerance), and the
Proposition 6 closed form ``K_Haus = |U| + max(|S|, |T|)`` must hold.
"""

from __future__ import annotations

import pytest

from repro.core.partial_ranking import PartialRanking
from repro.generators import adversarial_profile_workload
from repro.metrics import (
    footrule,
    footrule_hausdorff,
    kendall,
    kendall_hausdorff_counts,
    pair_counts,
    pairwise_distance_matrix,
)
from repro.metrics.hausdorff import kendall_hausdorff
from repro.metrics.kendall import _pair_counts_array, _pair_counts_fenwick


def _battery(n: int) -> list[tuple[str, PartialRanking]]:
    domain = list(range(n))
    shapes = [
        ("single-bucket", PartialRanking.single_bucket(domain)),
        ("all-singletons", PartialRanking.from_sequence(domain)),
        ("all-singletons-reversed", PartialRanking.from_sequence(domain[::-1])),
    ]
    for k in {1, n // 2, n - 1} - {0, n}:
        shapes.append(
            (
                f"{k}-singletons-then-bucket",
                PartialRanking([*[[i] for i in domain[:k]], domain[k:]]),
            )
        )
        shapes.append(
            ("top-" + str(k), PartialRanking.top_k(domain[:k], domain)),
        )
    return shapes


def _pairs(n: int):
    shapes = _battery(n)
    return [
        pytest.param(sigma, tau, id=f"n{n}:{name_a}|{name_b}")
        for i, (name_a, sigma) in enumerate(shapes)
        for name_b, tau in shapes[i:]
    ]


@pytest.mark.parametrize("sigma,tau", [p for n in (2, 5, 9) for p in _pairs(n)])
class TestLayersAgreeExactly:
    def test_pair_counts_all_layers(self, sigma, tau):
        reference = _pair_counts_fenwick(sigma, tau)
        assert pair_counts(sigma, tau) == reference
        assert _pair_counts_array(sigma, tau) == reference

    def test_kendall_all_layers(self, sigma, tau):
        for p in (0.0, 0.25, 0.5, 1.0):
            object_level = kendall(sigma, tau, p)
            array_level = _pair_counts_array(sigma, tau).kendall(p)
            assert object_level == array_level  # bit-for-bit, no tolerance
        matrix = pairwise_distance_matrix([sigma, tau], "kendall")
        object_half = kendall(sigma, tau)
        assert matrix[0, 1] == object_half
        assert matrix[1, 0] == object_half

    def test_kendall_hausdorff_all_layers(self, sigma, tau):
        closed_form = kendall_hausdorff_counts(sigma, tau)
        assert _pair_counts_array(sigma, tau).kendall_hausdorff() == closed_form
        assert kendall_hausdorff(sigma, tau) == closed_form  # Theorem 5 witnesses
        matrix = pairwise_distance_matrix([sigma, tau], "kendall_hausdorff")
        assert matrix[0, 1] == closed_form

    def test_footrule_all_layers(self, sigma, tau):
        object_level = footrule(sigma, tau)
        matrix = pairwise_distance_matrix([sigma, tau], "footrule")
        assert matrix[0, 1] == object_level

    def test_footrule_hausdorff_all_layers(self, sigma, tau):
        object_level = footrule_hausdorff(sigma, tau)
        matrix = pairwise_distance_matrix([sigma, tau], "footrule_hausdorff")
        assert matrix[0, 1] == object_level

    def test_proposition_6_closed_form(self, sigma, tau):
        counts = pair_counts(sigma, tau)
        expected = counts.discordant + max(
            counts.tied_first_only, counts.tied_second_only
        )
        assert kendall_hausdorff_counts(sigma, tau) == expected


class TestExtremeValues:
    """Known closed-form values on the extreme shapes."""

    def test_single_bucket_vs_singletons(self):
        n = 6
        bucket = PartialRanking.single_bucket(range(n))
        chain = PartialRanking.from_sequence(range(n))
        counts = pair_counts(bucket, chain)
        total = n * (n - 1) // 2
        assert counts.tied_first_only == total  # every pair tied in bucket only
        assert counts.discordant == 0
        assert kendall(bucket, chain) == pytest.approx(total / 2)
        assert kendall_hausdorff_counts(bucket, chain) == total

    def test_identical_single_buckets_are_distance_zero(self):
        bucket = PartialRanking.single_bucket(range(7))
        assert kendall(bucket, bucket) == pytest.approx(0.0)
        assert footrule(bucket, bucket) == pytest.approx(0.0)
        assert kendall_hausdorff_counts(bucket, bucket) == 0

    def test_full_reversal_attains_kendall_maximum(self):
        n = 7
        forward = PartialRanking.from_sequence(range(n))
        backward = PartialRanking.from_sequence(range(n - 1, -1, -1))
        assert kendall_hausdorff_counts(forward, backward) == n * (n - 1) // 2

    def test_adversarial_workload_shapes(self):
        workload = adversarial_profile_workload(12, seed=3)
        bucket, full, mixed, topk = workload.rankings
        assert bucket.type == (12,)
        assert full.is_full
        assert max(mixed.type) == 12 - 3  # k=3 singletons + giant bucket
        assert sorted(mixed.type)[:-1] == [1, 1, 1]
        assert topk.is_top_k(3)
        domains = {sigma.domain for sigma in workload.rankings}
        assert len(domains) == 1  # one common domain for the whole profile
