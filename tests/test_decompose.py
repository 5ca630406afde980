"""Tests for the SCC-condensed exact Kemeny solver.

The decomposition's soundness claim (THEORY.md, "Decomposition
soundness") is that concatenating per-component optima along the
condensation order is a *global* ``K^(p)`` optimum. These tests pin that
claim against the monolithic Held-Karp solver across random, Mallows and
adversarial-tie profiles, exercise the structural fixtures (single SCC,
fully ordered, mixed), and cover the heuristic ``exact=False`` fallback
plus the observability counters the analyzers cross-reference.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import metrics, spans
from repro.aggregate.decompose import (
    DecomposedResult,
    dominance_components,
    kemeny_decomposed,
)
from repro.aggregate.kemeny import pair_cost_array
from repro.aggregate.objective import total_distance
from repro.core.partial_ranking import PartialRanking
from repro.errors import AggregationError
from repro.generators.random import random_bucket_order, resolve_rng
from repro.generators.workloads import (
    adversarial_profile_workload,
    banded_profile_workload,
    mallows_profile_workload,
)
from repro.metrics.kendall import kendall
from repro.verify.reference import kemeny_monolithic


def _rotation_profile(n: int, shifts=(0, 1, 2)) -> list[PartialRanking]:
    """Rotations of one order: a single dominance SCC spanning all items."""
    base = list(range(n))
    return [
        PartialRanking.from_sequence(base[shift:] + base[:shift])
        for shift in shifts
    ]


class TestMatchesMonolithic:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=9),
    )
    def test_random_profiles(self, seed, n):
        rng = resolve_rng(seed)
        rankings = [random_bucket_order(n, rng, tie_bias=0.4) for _ in range(4)]
        result = kemeny_decomposed(rankings, require_exact=True)
        _, monolithic = kemeny_monolithic(rankings)
        assert result.exact
        # dyadic p=1/2 keeps every partial sum exact -> equality, not approx
        assert result.objective == monolithic

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_mallows_profiles(self, seed):
        workload = mallows_profile_workload(n=8, m=5, phi=0.4, seed=seed)
        result = kemeny_decomposed(workload.rankings, require_exact=True)
        _, monolithic = kemeny_monolithic(workload.rankings)
        assert result.objective == monolithic

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_adversarial_tie_profiles(self, seed):
        workload = adversarial_profile_workload(n=7, seed=seed)
        result = kemeny_decomposed(workload.rankings, require_exact=True)
        _, monolithic = kemeny_monolithic(workload.rankings)
        assert result.objective == monolithic

    def test_reported_objective_matches_reevaluation(self):
        rng = resolve_rng(4)
        rankings = [random_bucket_order(9, rng, tie_bias=0.3) for _ in range(5)]
        result = kemeny_decomposed(rankings)
        reevaluated = total_distance(result.ranking, rankings, "k_prof")
        assert reevaluated == pytest.approx(result.objective)


class TestStructuralFixtures:
    def test_single_scc_condorcet_cycle(self):
        rankings = [
            PartialRanking.from_sequence("abc"),
            PartialRanking.from_sequence("bca"),
            PartialRanking.from_sequence("cab"),
        ]
        result = kemeny_decomposed(rankings)
        assert result.components == (("a", "b", "c"),)
        assert result.largest_component == 3
        assert result.exact
        assert result.objective == 4.0
        assert result.lower_bound == 3.0

    def test_fully_ordered_profile_gives_singletons(self):
        sigma = PartialRanking.from_sequence(range(20))
        result = kemeny_decomposed([sigma, sigma])
        assert len(result.components) == 20
        assert result.largest_component == 1
        assert result.exact
        assert result.ranking == sigma
        assert result.objective == 0.0
        # singleton components never enter the DP
        assert result.dp_states == 0

    def test_mixed_banded_profile(self):
        workload = banded_profile_workload(n=40, m=5, band=5, seed=2, tie_bias=0.3)
        result = kemeny_decomposed(workload.rankings, require_exact=True)
        assert result.exact
        assert result.largest_component <= 5
        assert len(result.components) >= 40 // 5
        # components partition the domain
        flattened = sorted(item for comp in result.components for item in comp)
        assert flattened == sorted(range(40))

    def test_components_follow_condensation_order(self):
        rng = resolve_rng(12)
        rankings = [random_bucket_order(8, rng, tie_bias=0.3) for _ in range(5)]
        items, ahead, _ = pair_cost_array(rankings)
        slot = {item: index for index, item in enumerate(items)}
        result = kemeny_decomposed(rankings)
        for earlier_pos in range(len(result.components)):
            for later_pos in range(earlier_pos + 1, len(result.components)):
                for x in result.components[earlier_pos]:
                    for y in result.components[later_pos]:
                        # no later item may strictly dominate an earlier one
                        assert ahead[slot[x], slot[y]] <= ahead[slot[y], slot[x]]

    def test_dominance_components_on_cycle_matrix(self):
        rankings = _rotation_profile(6)
        _, ahead, _ = pair_cost_array(rankings)
        components = dominance_components(ahead)
        assert len(components) == 1
        assert components[0] == list(range(6))


class TestFallback:
    def test_require_exact_refuses_big_scc(self):
        rankings = _rotation_profile(8)
        with pytest.raises(AggregationError, match="strongly-connected"):
            kemeny_decomposed(rankings, max_exact=4, require_exact=True)

    def test_heuristic_fallback_reports_inexact(self):
        rankings = _rotation_profile(8)
        result = kemeny_decomposed(rankings, max_exact=4)
        assert not result.exact
        assert result.ranking.is_full
        assert result.objective >= result.lower_bound - 1e-9
        # the heuristic never enters the DP for the oversized component
        assert result.dp_states == 0
        reevaluated = total_distance(result.ranking, rankings, "k_prof")
        assert reevaluated == pytest.approx(result.objective)

    def test_heuristic_ranking_is_the_same_at_every_p(self):
        # the Borda seed and the swaps read integer counts, so an inexact
        # answer does not move with the tie penalty either
        rankings = _rotation_profile(8) + [PartialRanking([[3, 4, 5], [0, 1, 2, 6, 7]])]
        results = [kemeny_decomposed(rankings, p, max_exact=4) for p in (0.0, 0.1, 0.5, 1.0)]
        assert not any(result.exact for result in results)
        assert {result.ranking for result in results} == {results[0].ranking}
        assert results[-1].objective == total_distance(
            results[-1].ranking, rankings, lambda a, b: kendall(a, b, 1.0)
        )

    def test_heuristic_close_to_exact_on_small_instances(self):
        rng = resolve_rng(3)
        for _ in range(5):
            rankings = [random_bucket_order(8, rng, tie_bias=0.4) for _ in range(5)]
            forced = kemeny_decomposed(rankings, max_exact=1)
            _, optimum = kemeny_monolithic(rankings)
            if optimum == 0:
                continue
            assert forced.objective <= 1.5 * optimum + 1e-9

    def test_max_exact_validated(self):
        with pytest.raises(AggregationError):
            kemeny_decomposed([PartialRanking.from_sequence("ab")], max_exact=0)

    def test_max_exact_bool_rejected(self):
        # True is an int subclass: it used to act as a cap of 1, so a
        # 3-cycle quietly came back with exact=False
        with pytest.raises(AggregationError, match="must be an int"):
            kemeny_decomposed(_rotation_profile(3), max_exact=True)

    def test_max_exact_float_rejected(self):
        with pytest.raises(AggregationError, match="must be an int"):
            kemeny_decomposed(_rotation_profile(3), max_exact=2.5)

    def test_max_exact_string_rejected(self):
        # used to escape as a bare TypeError from the size comparison
        with pytest.raises(AggregationError, match="must be an int"):
            kemeny_decomposed(_rotation_profile(3), max_exact="7")


class TestObservability:
    @pytest.fixture(autouse=True)
    def _isolated_obs(self):
        """Detach ambient obs sessions and reset counters around every test."""
        saved = spans._SESSIONS[:]
        spans._SESSIONS.clear()
        spans._LOCAL.stack.clear()
        metrics.reset()
        yield
        spans._SESSIONS[:] = saved
        spans._LOCAL.stack.clear()
        metrics.reset()

    def test_scc_counters_recorded(self):
        # rotations force one 6-item SCC, so the DP must actually run
        rankings = _rotation_profile(6)
        with obs.capture():
            result = kemeny_decomposed(rankings)
        counters = obs.snapshot()["counters"]
        assert counters["kemeny.scc.components"] == len(result.components) == 1
        assert counters["kemeny.scc.largest"] == result.largest_component == 6
        assert counters["kemeny.dp_states"] == result.dp_states == 1 << 6

    def test_dp_states_counter_absent_when_all_singletons(self):
        sigma = PartialRanking.from_sequence(range(6))
        with obs.capture():
            kemeny_decomposed([sigma, sigma])
        counters = obs.snapshot()["counters"]
        assert "kemeny.dp_states" not in counters
        assert counters["kemeny.scc.components"] == 6


class TestResultShape:
    def test_fields_and_immutability(self):
        rng = resolve_rng(8)
        rankings = [random_bucket_order(6, rng) for _ in range(3)]
        result = kemeny_decomposed(rankings)
        assert isinstance(result, DecomposedResult)
        assert result.ranking.is_full
        assert isinstance(result.components, tuple)
        assert result.lower_bound <= result.objective + 1e-9
        with pytest.raises(AttributeError):
            result.exact = False  # type: ignore[misc]
