"""Tests for the incremental (online) median aggregator."""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate.median import (
    median_full_ranking,
    median_partial_ranking,
    median_scores,
    median_top_k,
)
from repro.aggregate.online import OnlineMedianAggregator
from repro.core.partial_ranking import PartialRanking
from repro.errors import AggregationError
from repro.generators.random import random_bucket_order, resolve_rng
from tests.conftest import ForgedOnline


def _check_voter_churn(n: int) -> None:
    """Thirty updates over seven voters, each checked against the offline median."""
    rng = resolve_rng(11)
    aggregator = OnlineMedianAggregator(range(n))
    voters: dict[str, PartialRanking] = {}
    for step in range(30):
        key = f"v{step % 7}"
        ranking = random_bucket_order(n, rng, tie_bias=0.4)
        replaced = aggregator.update(key, ranking)
        assert replaced == (key in voters)
        voters[key] = ranking
        assert aggregator.scores() == median_scores(list(voters.values()))
        assert len(aggregator) == len(voters)


class TestConstruction:
    def test_empty_domain_rejected(self):
        with pytest.raises(AggregationError):
            OnlineMedianAggregator([])

    def test_no_inputs_yet(self):
        aggregator = OnlineMedianAggregator("abc")
        assert len(aggregator) == 0
        with pytest.raises(AggregationError):
            aggregator.scores()

    def test_domain_mismatch_rejected(self):
        aggregator = OnlineMedianAggregator("abc")
        with pytest.raises(AggregationError):
            aggregator.add(PartialRanking([["x", "y", "z"]]))


class TestOnlineEqualsBatch:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_snapshots_match_batch_after_every_add(self, seed):
        rng = resolve_rng(seed)
        n = 6
        aggregator = OnlineMedianAggregator(range(n))
        added: list[PartialRanking] = []
        for _ in range(4):
            ranking = random_bucket_order(n, rng, tie_bias=0.5)
            aggregator.add(ranking)
            added.append(ranking)
            assert aggregator.scores() == median_scores(added)
            assert aggregator.full_ranking() == median_full_ranking(added)
            assert aggregator.top_k(2) == median_top_k(added, 2)
            assert aggregator.partial_ranking() == median_partial_ranking(added)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_discard_restores_previous_state(self, seed):
        rng = resolve_rng(seed)
        n = 6
        aggregator = OnlineMedianAggregator(range(n))
        first = random_bucket_order(n, rng, tie_bias=0.5)
        second = random_bucket_order(n, rng, tie_bias=0.5)
        aggregator.add(first)
        baseline = aggregator.scores()
        aggregator.add(second)
        aggregator.discard(second)
        assert aggregator.scores() == baseline
        assert len(aggregator) == 1


    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_adds_cross_to_counts_and_discards_stay(self, seed):
        """n = 3 has 5 bins: eight adds switch rows to counts mid-way."""
        rng = resolve_rng(seed)
        aggregator = OnlineMedianAggregator(range(3))
        added: list[PartialRanking] = []
        for _ in range(8):
            added.append(random_bucket_order(3, rng, tie_bias=0.5))
            aggregator.add(added[-1])
            assert aggregator.scores() == median_scores(added)
        while len(added) > 1:
            aggregator.discard(added.pop(rng.randrange(len(added))))
            assert aggregator.scores() == median_scores(added)
            assert aggregator.partial_ranking() == median_partial_ranking(added)


class TestDiscard:
    def test_discard_unknown_ranking_is_rejected_and_noop(self):
        aggregator = OnlineMedianAggregator("ab")
        aggregator.add(PartialRanking.from_sequence("ab"))
        before = aggregator.scores()
        with pytest.raises(AggregationError):
            aggregator.discard(PartialRanking.from_sequence("ba"))
        assert aggregator.scores() == before
        assert len(aggregator) == 1

    def test_discard_from_empty_rejected(self):
        aggregator = OnlineMedianAggregator("ab")
        with pytest.raises(AggregationError):
            aggregator.discard(PartialRanking.from_sequence("ab"))

    def test_duplicate_adds_need_duplicate_discards(self):
        aggregator = OnlineMedianAggregator("ab")
        sigma = PartialRanking.from_sequence("ab")
        aggregator.add(sigma)
        aggregator.add(sigma)
        aggregator.discard(sigma)
        assert len(aggregator) == 1
        aggregator.discard(sigma)
        assert len(aggregator) == 0


class TestInteractiveScenario:
    def test_toggling_criteria_like_a_search_page(self):
        """Add four criteria, drop one, like a user refining a search."""
        rng = resolve_rng(5)
        n = 12
        criteria = [random_bucket_order(n, rng, tie_bias=0.6) for _ in range(4)]
        aggregator = OnlineMedianAggregator(range(n))
        for ranking in criteria:
            aggregator.add(ranking)
        with_all = aggregator.top_k(3)
        aggregator.discard(criteria[1])
        without_one = aggregator.top_k(3)
        assert with_all.domain == without_one.domain
        assert aggregator.scores() == median_scores(
            [criteria[0], criteria[2], criteria[3]]
        )

    def test_bad_k_rejected(self):
        aggregator = OnlineMedianAggregator("abc")
        aggregator.add(PartialRanking.from_sequence("abc"))
        with pytest.raises(AggregationError):
            aggregator.top_k(0)
        with pytest.raises(AggregationError):
            aggregator.top_k(4)


class TestVoterKeyedUpdates:
    """Replace semantics: voters re-rank, they do not append."""

    def test_update_inserts_then_replaces(self):
        aggregator = OnlineMedianAggregator("abc")
        first = PartialRanking.from_sequence("abc")
        second = PartialRanking.from_sequence("cba")
        assert aggregator.update("alice", first) is False
        assert len(aggregator) == 1
        assert aggregator.update("alice", second) is True
        assert len(aggregator) == 1
        assert aggregator.scores() == median_scores([second])
        assert aggregator.voters == frozenset({"alice"})

    def test_update_equals_offline_median_of_voter_map(self):
        _check_voter_churn(n=9)  # seven voters, 17 bins: rows throughout

    def test_update_on_counts_equals_offline_median_of_voter_map(self):
        _check_voter_churn(n=2)  # seven voters, 3 bins: counts from the third

    def test_failed_update_is_a_noop(self):
        aggregator = OnlineMedianAggregator("abc")
        aggregator.update("alice", PartialRanking.from_sequence("abc"))
        before = aggregator.scores()
        with pytest.raises(AggregationError):
            aggregator.update("alice", PartialRanking([["x", "y", "z"]]))
        assert aggregator.scores() == before
        assert len(aggregator) == 1
        assert aggregator.voters == frozenset({"alice"})

    def test_forget_drops_the_voter(self):
        aggregator = OnlineMedianAggregator("ab")
        sigma = PartialRanking.from_sequence("ab")
        tau = PartialRanking.from_sequence("ba")
        aggregator.update("alice", sigma)
        aggregator.update("bob", tau)
        aggregator.forget("alice")
        assert len(aggregator) == 1
        assert aggregator.voters == frozenset({"bob"})
        assert aggregator.scores() == median_scores([tau])

    def test_forget_unknown_voter_rejected(self):
        aggregator = OnlineMedianAggregator("ab")
        aggregator.add(PartialRanking.from_sequence("ab"))
        with pytest.raises(AggregationError):
            aggregator.forget("nobody")
        assert len(aggregator) == 1

    def test_voter_map_survives_pickle(self):
        aggregator = OnlineMedianAggregator("abc")
        aggregator.update("alice", PartialRanking.from_sequence("abc"))
        aggregator.update("bob", PartialRanking.from_sequence("bca"))
        clone = pickle.loads(pickle.dumps(aggregator))
        assert clone.voters == aggregator.voters
        assert clone.scores() == aggregator.scores()
        assert clone.update("alice", PartialRanking.from_sequence("cab")) is True
        assert clone.scores() == median_scores(
            [PartialRanking.from_sequence("cab"), PartialRanking.from_sequence("bca")]
        )

    def test_updates_and_anonymous_adds_coexist(self):
        aggregator = OnlineMedianAggregator("abc")
        anonymous = PartialRanking.from_sequence("abc")
        keyed = PartialRanking.from_sequence("cba")
        aggregator.add(anonymous)
        aggregator.update("alice", keyed)
        assert len(aggregator) == 2
        assert aggregator.scores() == median_scores([anonymous, keyed])
        aggregator.forget("alice")
        assert aggregator.scores() == median_scores([anonymous])


class TestSnapshotRows:
    """The rebuild counts only rows that are positions over the domain."""

    def test_rows_in_insertion_order_restore(self):
        """Row order is irrelevant to counts: unsorted rows restore too."""
        sigma = PartialRanking.from_sequence("abc")
        tau = PartialRanking([["c"], ["a", "b"]])
        rows = [[1.0, 2.0, 3.0], [2.5, 2.5, 1.0]]  # a, b, c in codec order
        clone = pickle.loads(pickle.dumps(ForgedOnline("abc", rows, [("bob", rows[1])])))
        assert clone.scores() == median_scores([sigma, tau])
        clone.forget("bob")
        assert clone.scores() == median_scores([sigma])

    @pytest.mark.parametrize("m", [5, 9])  # n = 4 has 7 bins: rows, then counts
    def test_position_rows_round_trip(self, m):
        aggregator = OnlineMedianAggregator(range(4))
        profile = [random_bucket_order(4, resolve_rng(seed), tie_bias=0.5) for seed in range(m)]
        for ranking in profile:
            aggregator.add(ranking)
        items, _, rows, _ = aggregator.__reduce__()[1]
        positions = [[ranking.position(item) for item in items] for ranking in profile]
        assert (np.sort(rows, axis=0) == np.sort(positions, axis=0)).all()
        assert pickle.loads(pickle.dumps(aggregator)).scores() == median_scores(profile)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.5, 1.0, 2.0]],  # below position 1: would wrap to the last bin
            [[1.0, 2.0, 3.5]],  # beyond position n
            [[1.0, 1.25, 3.0]],  # not a half-integer
            [[1.0, 2.0, 3.0, 1.0]],  # width n + 1
            [1.0, 2.0, 3.0],  # not a matrix
        ],
    )
    def test_bad_active_rows_rejected(self, rows):
        with pytest.raises(AggregationError):
            pickle.loads(pickle.dumps(ForgedOnline("abc", rows)))

    @pytest.mark.parametrize("row", [[0.5, 1.0, 2.0], [1.0, 2.0, 3.0, 1.0]])
    def test_bad_voter_rows_rejected(self, row):
        good = [[1.0, 2.0, 3.0]]
        with pytest.raises(AggregationError):
            pickle.loads(pickle.dumps(ForgedOnline("abc", good, [("alice", row)])))


class TestMemory:
    def test_few_rankings_over_a_large_domain_stay_small(self):
        """Memory is O(m·n): three rankings allocate no (n, 2n − 1) count matrix."""
        n = 5_000
        rng = resolve_rng(3)
        profile = [PartialRanking.from_sequence(rng.sample(range(n), n)) for _ in range(3)]
        tracemalloc.start()
        try:
            aggregator = OnlineMedianAggregator(range(n))
            for voter, ranking in enumerate(profile):
                aggregator.update(voter, ranking)
            clone = pickle.loads(pickle.dumps(aggregator))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the count matrix alone would take n * (2n - 1) * 8 bytes, about 400 MB
        assert peak < 32 * 2**20
        assert clone.scores() == median_scores(profile)
