"""Bit-for-bit equality of the position-matrix aggregation kernels.

The batch layer (:mod:`repro.aggregate.batch`) and the online aggregator
(:mod:`repro.aggregate.online`) both claim *exact* equality with the dict
reference in :mod:`repro.verify.reference` — not closeness within a
tolerance. These tests assert it with ``==`` across tie modes, weight
vectors (including arbitrary non-dyadic floats), degenerate profiles, and
process boundaries, plus the public :mod:`repro.aggregate.median` entry
points that run on the kernels.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate.batch import (
    median_fixed_type_batch,
    median_full_ranking_batch,
    median_partial_ranking_batch,
    median_scores_array,
    median_scores_batch,
    median_top_k_batch,
)
from repro.aggregate.median import (
    median_fixed_type,
    median_full_ranking,
    median_partial_ranking,
    median_scores,
    median_top_k,
)
from repro.aggregate.online import OnlineMedianAggregator
from repro.core.partial_ranking import PartialRanking
from repro.errors import AggregationError
from repro.generators.random import random_bucket_order, resolve_rng
from repro.verify.reference import (
    median_fixed_type_dict,
    median_full_ranking_dict,
    median_partial_ranking_dict,
    median_scores_dict,
    median_top_k_dict,
)

from tests.conftest import bucket_orders

TIES = ("low", "mid", "high")

#: Profiles over a shared domain: fixing the size makes every drawn
#: bucket order range over the same integer domain 0..n-1.
def _shared_domain_profiles(n: int, max_m: int = 5):
    return st.lists(bucket_orders(min_size=n, max_size=n), min_size=1, max_size=max_m)


def _random_profile(seed: int, n: int, m: int, tie_bias: float = 0.5):
    rng = resolve_rng(seed)
    return [random_bucket_order(n, rng, tie_bias=tie_bias) for _ in range(m)]


def _random_weights(seed: int, m: int) -> list[float]:
    """Arbitrary positive floats — deliberately NOT multiples of 1/2**k."""
    rng = resolve_rng(seed + 1)
    return [0.1 + rng.random() for _ in range(m)]


class TestScoresBitForBit:
    @settings(max_examples=40, deadline=None)
    @given(_shared_domain_profiles(4), st.sampled_from(TIES))
    def test_unweighted_scores_equal_dict_path(self, profile, tie):
        assert median_scores_batch(profile, tie=tie) == median_scores_dict(profile, tie=tie)

    @settings(max_examples=40, deadline=None)
    @given(
        _shared_domain_profiles(4),
        st.sampled_from(TIES),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_weighted_scores_equal_dict_path(self, profile, tie, seed):
        weights = _random_weights(seed, len(profile))
        assert median_scores_batch(profile, tie=tie, weights=weights) == (
            median_scores_dict(profile, tie=tie, weights=weights)
        )

    @pytest.mark.parametrize("tie", TIES)
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 9])
    def test_even_and_odd_profile_sizes(self, tie, m):
        profile = _random_profile(seed=m, n=6, m=m)
        assert median_scores_batch(profile, tie=tie) == median_scores_dict(profile, tie=tie)

    @pytest.mark.parametrize("tie", TIES)
    def test_degenerate_profiles(self, tie):
        one_bucket = [PartialRanking([[0, 1, 2, 3]])] * 4
        singletons = [PartialRanking([[0], [1], [2], [3]])] * 3
        mixed = [PartialRanking([[0, 1, 2, 3]]), PartialRanking([[3], [2], [1], [0]])]
        for profile in (one_bucket, singletons, mixed):
            assert median_scores_batch(profile, tie=tie) == median_scores_dict(profile, tie=tie)

    def test_dyadic_and_extreme_weights(self):
        profile = _random_profile(seed=7, n=5, m=4)
        for weights in ([1.0, 1.0, 1.0, 1.0], [0.25, 0.5, 2.0, 4.0], [1e-6, 1e6, 1.0, 3.0]):
            for tie in TIES:
                assert median_scores_batch(
                    profile, tie=tie, weights=weights
                ) == median_scores_dict(profile, tie=tie, weights=weights)

    def test_scores_are_plain_python_floats(self):
        scores = median_scores_batch(_random_profile(seed=0, n=4, m=3))
        assert all(type(value) is float for value in scores.values())


class TestOutputsBitForBit:
    @settings(max_examples=30, deadline=None)
    @given(_shared_domain_profiles(5), st.sampled_from(TIES))
    def test_full_and_partial_ranking_equal_dict_path(self, profile, tie):
        assert median_full_ranking_batch(profile, tie=tie) == (
            median_full_ranking_dict(profile, tie=tie)
        )
        assert median_partial_ranking_batch(profile, tie=tie) == (
            median_partial_ranking_dict(profile, tie=tie)
        )

    @settings(max_examples=30, deadline=None)
    @given(_shared_domain_profiles(5), st.integers(min_value=1, max_value=5))
    def test_top_k_equal_dict_path_all_k(self, profile, k):
        assert median_top_k_batch(profile, k) == median_top_k_dict(profile, k)

    def test_top_k_boundary_ties_resolved_canonically(self):
        # every item gets the same median score -> the boundary tie-break
        # must pick the canonically-first items, exactly like the sort.
        profile = [PartialRanking([[0, 1, 2, 3, 4]])] * 3
        for k in range(1, 6):
            assert median_top_k_batch(profile, k) == median_top_k_dict(profile, k)

    @pytest.mark.parametrize(
        "bucket_type", [(5,), (1, 4), (2, 3), (1, 1, 1, 1, 1), (4, 1)]
    )
    def test_fixed_type_equal_dict_path(self, bucket_type):
        profile = _random_profile(seed=11, n=5, m=5)
        for tie in TIES:
            assert median_fixed_type_batch(
                profile, bucket_type, tie=tie
            ) == median_fixed_type_dict(profile, bucket_type, tie=tie)

    def test_weighted_outputs_equal_dict_path(self):
        profile = _random_profile(seed=3, n=6, m=5)
        weights = _random_weights(42, 5)
        assert median_top_k_batch(profile, 3, weights=weights) == (
            median_top_k_dict(profile, 3, weights=weights)
        )
        assert median_full_ranking_batch(
            profile, weights=weights
        ) == median_full_ranking_dict(profile, weights=weights)
        assert median_partial_ranking_batch(
            profile, weights=weights
        ) == median_partial_ranking_dict(profile, weights=weights)


class TestErrorParity:
    """The batch wrappers raise the same errors as the dict path."""

    def test_bad_k_messages_match(self):
        profile = _random_profile(seed=0, n=4, m=3)
        for k in (0, 5, -1):
            with pytest.raises(AggregationError) as batch_err:
                median_top_k_batch(profile, k)
            with pytest.raises(AggregationError) as dict_err:
                median_top_k_dict(profile, k)
            assert str(batch_err.value) == str(dict_err.value)

    def test_bad_bucket_type_messages_match(self):
        profile = _random_profile(seed=0, n=4, m=3)
        for bucket_type in ((3,), (5,), (2, -1, 3), (0, 4)):
            with pytest.raises(AggregationError) as batch_err:
                median_fixed_type_batch(profile, bucket_type)
            with pytest.raises(AggregationError) as dict_err:
                median_fixed_type_dict(profile, bucket_type)
            assert str(batch_err.value) == str(dict_err.value)

    def test_empty_profile_rejected(self):
        with pytest.raises(AggregationError, match="at least one input ranking"):
            median_scores_batch([])

    def test_mismatched_domains_rejected(self):
        profile = [PartialRanking([[0, 1]]), PartialRanking([[1, 2]])]
        with pytest.raises(AggregationError, match="different domain"):
            median_scores_batch(profile)

    def test_weight_validation_matches(self):
        profile = _random_profile(seed=0, n=4, m=3)
        with pytest.raises(AggregationError, match="^2 weights for 3 rankings$"):
            median_scores_batch(profile, weights=[1.0, 2.0])
        with pytest.raises(AggregationError, match="^2 weights for 3 rankings$"):
            median_scores_dict(profile, weights=[1.0, 2.0])
        with pytest.raises(AggregationError, match="strictly positive"):
            median_scores_batch(profile, weights=[1.0, -2.0, 1.0])


class TestArrayKernelValidation:
    def test_rejects_non_2d_input(self):
        with pytest.raises(AggregationError, match="2-dimensional"):
            median_scores_array(np.zeros(4))

    def test_rejects_empty_matrix(self):
        with pytest.raises(AggregationError, match="empty profile"):
            median_scores_array(np.empty((0, 3)))


class TestEngineDispatch:
    """The public entry points have one path: the array kernels."""

    def test_unknown_engine_rejected(self):
        profile = _random_profile(seed=0, n=4, m=3)
        with pytest.raises(TypeError, match="engine"):
            median_scores(profile, engine="dict")  # type: ignore[call-arg]

    @pytest.mark.parametrize("engine", ["auto", "dict", "array"])
    def test_all_engines_agree_on_small_profiles(self, engine):
        """The public function (``auto``), the dict reference and the
        kernel agree on a profile far below any size threshold."""
        profile = _random_profile(seed=9, n=5, m=4)
        paths = {
            "auto": median_scores,
            "dict": median_scores_dict,
            "array": median_scores_batch,
        }
        assert paths[engine](profile) == median_scores_dict(profile)

    def test_auto_crosses_to_array_on_large_profiles(self):
        """A 40 × 30 profile: public function == kernel == reference."""
        profile = _random_profile(seed=13, n=30, m=40)
        assert (
            median_scores(profile)
            == median_scores_batch(profile)
            == median_scores_dict(profile)
        )

    def test_outputs_dispatch_through_engines(self):
        profile = _random_profile(seed=17, n=6, m=5)
        assert median_top_k(profile, 2) == median_top_k_dict(profile, 2)
        assert median_full_ranking(profile) == median_full_ranking_dict(profile)
        assert median_partial_ranking(profile) == median_partial_ranking_dict(profile)
        assert median_fixed_type(profile, (2, 4)) == median_fixed_type_dict(
            profile, (2, 4)
        )


class TestOnlineMatchesBatch:
    def _assert_snapshot(self, aggregator, profile):
        assert aggregator.scores() == median_scores_batch(
            profile, tie=aggregator._tie
        )
        assert aggregator.full_ranking() == median_full_ranking_batch(profile)
        assert aggregator.partial_ranking() == median_partial_ranking_batch(profile)
        k = (len(aggregator.domain) + 1) // 2
        assert aggregator.top_k(k) == median_top_k_batch(profile, k)

    @pytest.mark.parametrize("tie", TIES)
    def test_snapshots_after_every_add(self, tie):
        profile = _random_profile(seed=21, n=6, m=7)
        aggregator = OnlineMedianAggregator(range(6), tie=tie)
        for upto, ranking in enumerate(profile, start=1):
            aggregator.add(ranking)
            assert aggregator.scores() == median_scores_batch(
                profile[:upto], tie=tie
            )
        assert len(aggregator) == len(profile)

    def test_snapshots_after_interleaved_adds_and_discards(self):
        profile = _random_profile(seed=23, n=5, m=8)
        aggregator = OnlineMedianAggregator(range(5))
        active: list[PartialRanking] = []
        for step, ranking in enumerate(profile):
            aggregator.add(ranking)
            active.append(ranking)
            # query between updates, so every query reads counts that
            # discards have already decremented
            self._assert_snapshot(aggregator, active)
            if step % 3 == 2:
                victim = active.pop(0)
                aggregator.discard(victim)
                self._assert_snapshot(aggregator, active)

    def test_duplicate_rankings_add_and_discard_by_value(self):
        sigma = PartialRanking([[0, 1], [2]])
        aggregator = OnlineMedianAggregator(range(3))
        aggregator.add(sigma)
        aggregator.add(sigma)
        assert len(aggregator) == 2
        aggregator.discard(sigma)
        assert len(aggregator) == 1
        assert aggregator.scores() == median_scores_batch([sigma])

    def test_failed_discard_is_a_noop(self):
        sigma = PartialRanking([[0], [1], [2]])
        other = PartialRanking([[2], [1], [0]])
        aggregator = OnlineMedianAggregator(range(3))
        aggregator.add(sigma)
        before = aggregator.scores()
        with pytest.raises(AggregationError, match="not previously added"):
            aggregator.discard(other)
        assert aggregator.scores() == before
        assert len(aggregator) == 1

    def test_errors_preserved(self):
        with pytest.raises(AggregationError, match="must be non-empty"):
            OnlineMedianAggregator([])
        with pytest.raises(AggregationError, match="unknown median tie rule"):
            OnlineMedianAggregator(range(3), tie="median")  # type: ignore[arg-type]
        aggregator = OnlineMedianAggregator(range(3))
        with pytest.raises(AggregationError, match="no rankings to discard"):
            aggregator.discard(PartialRanking([[0, 1, 2]]))
        with pytest.raises(AggregationError, match="no rankings have been added"):
            aggregator.scores()
        with pytest.raises(AggregationError, match="domain differs"):
            aggregator.add(PartialRanking([[0, 1]]))
        aggregator.add(PartialRanking([[0, 1, 2]]))
        with pytest.raises(AggregationError, match="k=4 out of range"):
            aggregator.top_k(4)

    def test_growth_beyond_initial_capacity(self):
        profile = _random_profile(seed=29, n=4, m=20)
        aggregator = OnlineMedianAggregator(range(4))
        for ranking in profile:
            aggregator.add(ranking)
        assert aggregator.scores() == median_scores_batch(profile)


def _resume_remotely(
    payload: bytes, extra: PartialRanking
) -> tuple[dict, dict, int]:
    """Pool worker: unpickle an aggregator, query it, keep aggregating."""
    aggregator = pickle.loads(payload)
    before = aggregator.scores()
    aggregator.add(extra)
    return before, aggregator.scores(), len(aggregator)


class TestOnlinePickle:
    def test_in_process_round_trip(self):
        profile = _random_profile(seed=31, n=5, m=6)
        aggregator = OnlineMedianAggregator(range(5), tie="low")
        for ranking in profile:
            aggregator.add(ranking)
        aggregator.scores()  # a query must leave the pickled counts untouched
        clone = pickle.loads(pickle.dumps(aggregator))
        assert len(clone) == len(aggregator)
        assert clone.domain == aggregator.domain
        assert clone.scores() == aggregator.scores()
        assert clone.full_ranking() == aggregator.full_ranking()
        # the clone stays updatable and bit-for-bit on its own trajectory
        extra = PartialRanking([[4], [3], [2], [1], [0]])
        clone.add(extra)
        assert clone.scores() == median_scores_batch(profile + [extra], tie="low")

    def test_round_trip_of_empty_aggregator(self):
        clone = pickle.loads(pickle.dumps(OnlineMedianAggregator(range(3))))
        assert len(clone) == 0
        clone.add(PartialRanking([[0, 1, 2]]))
        assert clone.scores() == median_scores_batch([PartialRanking([[0, 1, 2]])])

    def test_across_a_real_process_boundary(self):
        profile = _random_profile(seed=37, n=4, m=5)
        aggregator = OnlineMedianAggregator(range(4))
        for ranking in profile:
            aggregator.add(ranking)
        extra = PartialRanking([[0], [1, 2], [3]])
        with ProcessPoolExecutor(max_workers=1) as pool:
            before, after, count = pool.submit(
                _resume_remotely, pickle.dumps(aggregator), extra
            ).result()
        assert before == aggregator.scores()
        assert after == median_scores_batch(profile + [extra])
        assert count == len(profile) + 1


class TestContractsUnderDebug:
    def test_kernels_run_with_live_contracts(self, monkeypatch):
        """Exercise every batch kernel and the online path with the
        runtime contracts enabled (REPRO_DEBUG=1)."""
        monkeypatch.setenv("REPRO_DEBUG", "1")
        profile = _random_profile(seed=41, n=6, m=5)
        weights = _random_weights(0, 5)
        for tie in TIES:
            assert median_scores_batch(profile, tie=tie) == median_scores_dict(profile, tie=tie)
        assert median_scores_batch(profile, weights=weights) == (
            median_scores_dict(profile, weights=weights)
        )
        assert median_top_k_batch(profile, 3) == median_top_k_dict(profile, 3)
        assert median_full_ranking_batch(profile) == median_full_ranking_dict(profile)
        assert median_partial_ranking_batch(profile) == median_partial_ranking_dict(profile)
        assert median_fixed_type_batch(profile, (2, 2, 2)) == (
            median_fixed_type_dict(profile, (2, 2, 2))
        )
        aggregator = OnlineMedianAggregator(range(6))
        for ranking in profile:
            aggregator.add(ranking)
        assert aggregator.scores() == median_scores_batch(profile)
