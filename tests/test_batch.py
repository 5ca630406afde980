"""The batch layer: bit-for-bit equality with the per-pair metrics.

Part of the axiom/equivalence matrix (RP008): the array pair classifier
(forced at any size through ``repro.metrics.kendall._pair_counts_array``)
and the all-pairs layer (``pair_counts_matrix``,
``pairwise_distance_matrix``) are checked against the object
implementations and the O(n²)/exponential oracles with ``==`` — no
tolerances; the kernels are exact by construction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.conftest import bucket_order_pairs, bucket_orders
from repro.core import DomainCodec, PartialRanking
from repro.errors import DomainMismatchError, InvalidRankingError
from repro.generators.workloads import (
    db_profile_workload,
    mallows_profile_workload,
    random_profile_workload,
)
from repro.metrics import (
    footrule,
    footrule_hausdorff,
    kendall,
    kendall_hausdorff,
    pair_counts,
    pairwise_distance_matrix,
)
from repro.metrics.batch import (
    _pair_counts_dense_tiled,
    _pair_counts_pairs,
    bucket_index_matrix,
    pair_counts_matrix,
)
from repro.metrics.fast import count_inversions_array
from repro.metrics.kendall import _pair_counts_array, _pair_counts_fenwick, kendall_naive
import repro.metrics.plugins  # noqa: F401 - registers the plugin metrics
from repro.metrics.registry import get_metric, metric_names

METRIC_FNS = {
    "kendall": kendall,
    "footrule": footrule,
    "kendall_hausdorff": lambda s, t: float(kendall_hausdorff(s, t)),
    "footrule_hausdorff": footrule_hausdorff,
}

WORKLOADS = {
    "mallows": lambda: mallows_profile_workload(16, 6, seed=11).rankings,
    "random": lambda: random_profile_workload(20, 5, seed=5).rankings,
    "db": lambda: db_profile_workload(seed=2).rankings,
}


def _inversions_oracle(values: list[int]) -> int:
    return sum(
        1
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if values[i] > values[j]
    )


class TestCountInversionsArray:
    def test_small_cases(self) -> None:
        assert count_inversions_array([]) == 0
        assert count_inversions_array([3]) == 0
        assert count_inversions_array([1, 2]) == 0
        assert count_inversions_array([2, 1]) == 1
        assert count_inversions_array([2, 2]) == 0

    def test_reversed_worst_case(self) -> None:
        n = 257  # off power-of-two: exercises the sentinel padding
        assert count_inversions_array(np.arange(n)[::-1]) == n * (n - 1) // 2

    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=40))
    def test_matches_quadratic_oracle(self, values: list[int]) -> None:
        assert count_inversions_array(np.array(values, dtype=np.int64)) == (
            _inversions_oracle(values)
        )


class TestFastPath:
    @given(bucket_order_pairs(max_size=7))
    def test_array_path_matches_fenwick(self, pair) -> None:
        sigma, tau = pair
        assert _pair_counts_array(sigma, tau) == _pair_counts_fenwick(sigma, tau)

    @given(bucket_order_pairs(max_size=6), st.floats(min_value=0.0, max_value=1.0))
    def test_kendall_array_matches_fast(self, pair, p: float) -> None:
        sigma, tau = pair
        assert _pair_counts_array(sigma, tau).kendall(p) == kendall(sigma, tau, p)

    @given(bucket_order_pairs(max_size=6), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    def test_kendall_array_matches_naive(self, pair, p: float) -> None:
        # dyadic p: every term is exact in float64, so the naive oracle's
        # sequential accumulation agrees bit for bit
        sigma, tau = pair
        assert _pair_counts_array(sigma, tau).kendall(p) == kendall_naive(sigma, tau, p)

    @given(bucket_order_pairs(max_size=6))
    def test_kendall_hausdorff_array_matches_witnesses(self, pair) -> None:
        sigma, tau = pair
        assert _pair_counts_array(sigma, tau).kendall_hausdorff() == (
            kendall_hausdorff(sigma, tau)
        )

    def test_domain_mismatch_rejected(self) -> None:
        sigma = PartialRanking.from_sequence([1, 2, 3])
        tau = PartialRanking.from_sequence([1, 2, 4])
        with pytest.raises(DomainMismatchError):
            pair_counts(sigma, tau)

    def test_bad_penalty_rejected(self) -> None:
        sigma = PartialRanking.from_sequence([1, 2])
        with pytest.raises(InvalidRankingError):
            kendall(sigma, sigma, p=1.5)


def _assert_same_counts(a, b) -> None:
    assert (a.discordant == b.discordant).all()
    assert (a.tied_first_only == b.tied_first_only).all()
    assert (a.tied_both == b.tied_both).all()
    assert (a.concordant == b.concordant).all()


class TestPairCountsMatrix:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_strategies_agree(self, workload: str) -> None:
        """One GEMM tile, forced widths 1 and 3, and the per-pair kernel
        classify identically, and match the object ``pair_counts``."""
        profile = WORKLOADS[workload]()
        rows = bucket_index_matrix(profile)
        one_tile = _pair_counts_dense_tiled(rows)
        for matrix in (
            _pair_counts_dense_tiled(rows, tile=1),
            _pair_counts_dense_tiled(rows, tile=3),
            _pair_counts_pairs(rows, None),
            pair_counts_matrix(profile),
        ):
            _assert_same_counts(one_tile, matrix)
        for i in range(len(profile)):
            for j in range(len(profile)):
                assert one_tile.pair_counts(i, j) == pair_counts(profile[i], profile[j])

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_entries_match_scalar_pair_counts(self, workload: str) -> None:
        profile = WORKLOADS[workload]()
        matrix = pair_counts_matrix(profile)
        for i in range(len(profile)):
            for j in range(len(profile)):
                assert matrix.pair_counts(i, j) == pair_counts(profile[i], profile[j])

    def test_tied_second_only_is_transpose(self) -> None:
        profile = WORKLOADS["random"]()
        matrix = pair_counts_matrix(profile)
        assert (matrix.tied_second_only == matrix.tied_first_only.T).all()

    def test_unknown_strategy_rejected(self) -> None:
        # the kernel is chosen by size alone; there is no strategy knob
        with pytest.raises(TypeError, match="strategy"):
            pair_counts_matrix(WORKLOADS["random"](), strategy="pairs")  # type: ignore[call-arg]
        with pytest.raises(TypeError, match="strategy"):
            pairwise_distance_matrix(  # type: ignore[call-arg]
                WORKLOADS["random"](), strategy="pairs"
            )

    def test_bad_penalty_rejected(self) -> None:
        matrix = pair_counts_matrix(WORKLOADS["random"]())
        with pytest.raises(InvalidRankingError):
            matrix.kendall(p=-0.1)


class TestPairwiseDistanceMatrix:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("metric", sorted(METRIC_FNS))
    def test_bit_for_bit_vs_per_pair(self, workload: str, metric: str) -> None:
        profile = WORKLOADS[workload]()
        matrix = pairwise_distance_matrix(profile, metric)
        fn = METRIC_FNS[metric]
        for i in range(len(profile)):
            for j in range(len(profile)):
                expected = 0.0 if i == j else fn(profile[i], profile[j])
                assert matrix[i, j] == expected

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_kendall_p_sweep(self, p: float) -> None:
        profile = WORKLOADS["mallows"]()
        matrix = pairwise_distance_matrix(profile, "k_prof", p=p)
        for i in range(len(profile)):
            for j in range(i + 1, len(profile)):
                assert matrix[i, j] == kendall(profile[i], profile[j], p)

    def test_aliases_cover_all_four_metrics(self) -> None:
        profile = WORKLOADS["random"]()
        for canonical in METRIC_FNS:
            for alias in get_metric(canonical).aliases:
                assert (
                    pairwise_distance_matrix(profile, alias)
                    == pairwise_distance_matrix(profile, canonical)
                ).all()

    def test_unknown_metric_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown metric"):
            pairwise_distance_matrix(WORKLOADS["random"](), "hamming")

    def test_empty_profile_rejected(self) -> None:
        with pytest.raises(DomainMismatchError):
            pairwise_distance_matrix([], "kendall")

    @pytest.mark.parametrize("metric", metric_names())
    def test_degenerate_profiles(self, metric: str) -> None:
        """One ranking gives the 1×1 zero matrix; none is a domain error."""
        single = [PartialRanking([[1, 2], [3]])]
        assert pairwise_distance_matrix(single, metric).tolist() == [[0.0]]
        with pytest.raises(DomainMismatchError):
            pairwise_distance_matrix([], metric)

    @pytest.mark.parametrize("metric", sorted(METRIC_FNS))
    def test_jobs_equals_serial(self, metric: str) -> None:
        profile = WORKLOADS["mallows"]()
        serial = pairwise_distance_matrix(profile, metric)
        pooled = pairwise_distance_matrix(profile, metric, jobs=2)
        assert (serial == pooled).all()

    @pytest.mark.parametrize("metric", ["footrule", "weighted_footrule", "top_difference"])
    def test_l1_family_never_forks(self, metric: str, monkeypatch) -> None:
        """The L1 metrics accept ``jobs`` and run serially all the same."""
        profile = WORKLOADS["mallows"]()
        serial = pairwise_distance_matrix(profile, metric)

        def no_pool(*args, **kwargs):
            raise AssertionError("the L1 kernel must not start a process pool")

        monkeypatch.setattr("repro.parallel.ProcessPoolExecutor", no_pool)
        pooled = pairwise_distance_matrix(profile, metric, jobs=2)
        assert np.array_equal(serial, pooled)

    def test_pairs_kernel_jobs_equals_serial(self) -> None:
        rows = bucket_index_matrix(WORKLOADS["mallows"]())
        _assert_same_counts(_pair_counts_pairs(rows, None), _pair_counts_pairs(rows, 2))
        single = bucket_index_matrix([PartialRanking([[1, 2], [3]])])
        assert _pair_counts_pairs(single, None).pair_counts(0, 0).tied_both == 1

    @given(
        st.lists(bucket_orders(min_size=3, max_size=3), min_size=2, max_size=4),
        st.sampled_from(sorted(METRIC_FNS)),
    )
    def test_symmetry_zero_diagonal_and_agreement(self, profile, metric: str) -> None:
        matrix = pairwise_distance_matrix(profile, metric)
        assert (matrix == matrix.T).all()
        assert (np.diag(matrix) == 0.0).all()
        fn = METRIC_FNS[metric]
        for i in range(len(profile)):
            for j in range(i + 1, len(profile)):
                assert matrix[i, j] == fn(profile[i], profile[j])


class TestContractsUnderDebug:
    def test_batch_agrees_with_checked_metrics(self, monkeypatch) -> None:
        """Exercise the batch layer while the runtime metric contracts of
        the scalar reference calls are live (REPRO_DEBUG=1)."""
        monkeypatch.setenv("REPRO_DEBUG", "1")
        profile = WORKLOADS["random"]()[:4]
        for metric, fn in METRIC_FNS.items():
            matrix = pairwise_distance_matrix(profile, metric)
            for i in range(len(profile)):
                for j in range(len(profile)):
                    expected = 0.0 if i == j else fn(profile[i], profile[j])
                    assert matrix[i, j] == expected


class TestCodecAndCaches:
    def test_codec_interned_per_domain(self) -> None:
        sigma = PartialRanking([[1, 2], [3]])
        tau = PartialRanking([[3], [1, 2]])
        assert DomainCodec.for_profile([sigma, tau]) is DomainCodec.for_domain(
            sigma.domain
        )

    def test_dense_arrays_cached_by_codec_identity(self) -> None:
        sigma = PartialRanking([[1, 2], [3]])
        codec = DomainCodec.for_domain(sigma.domain)
        first = sigma.dense_arrays(codec)
        second = sigma.dense_arrays(codec)
        assert first[0] is second[0] and first[1] is second[1]

    def test_dense_arrays_read_only(self) -> None:
        sigma = PartialRanking([[1, 2], [3]])
        bucket_index, positions = sigma.dense_arrays(DomainCodec.for_domain(sigma.domain))
        with pytest.raises(ValueError):
            bucket_index[0] = 9
        with pytest.raises(ValueError):
            positions[0] = 9.0

    def test_encode_values(self) -> None:
        sigma = PartialRanking([["a", "b"], ["c"]])
        codec = DomainCodec.for_domain(sigma.domain)
        assert codec.items == ("a", "b", "c")
        bucket_index, positions = sigma.dense_arrays(codec)
        assert bucket_index.tolist() == [0, 0, 1]
        assert positions.tolist() == [1.5, 1.5, 3.0]

    def test_encode_rejects_foreign_domain(self) -> None:
        sigma = PartialRanking.from_sequence([1, 2, 3])
        codec = DomainCodec.for_domain(frozenset({4, 5}))
        with pytest.raises(DomainMismatchError):
            codec.encode(sigma)
