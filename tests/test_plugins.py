"""The metric plugin registry and the two first-party plugins.

Covers the registry API (registration, aliasing, collisions, the shared
unknown-metric error), bit-for-bit agreement of each plugin's scalar /
batch / jobs=2 kernels with its plain-Python oracle on Mallows, random,
and adversarial tie workloads (plus Hypothesis-drawn bucket orders), the
normalized wrappers, the REPRO_DEBUG contract layer over the plugin
scalars, the proven-upper-bound normalizers, and the registry-aware
median/minmax aggregation entry point.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from repro import obs
from repro.aggregate import minmax
from repro.aggregate.minmax import OBJECTIVES, AggregateResult, aggregate
from repro.aggregate.objective import max_distance, resolve_metric, total_distance
from repro.analysis.contracts import ENV_FLAG
from repro.core.partial_ranking import PartialRanking
from repro.errors import (
    AggregationError,
    DomainMismatchError,
    InvalidRankingError,
    UnknownMetricError,
)
from repro.generators.workloads import (
    adversarial_profile_workload,
    mallows_profile_workload,
    random_profile_workload,
)
from repro.metrics.footrule import footrule
from repro.metrics.normalized import normalized_metric
from repro.metrics.plugins.top_difference import (
    alpha_prefix,
    harmonic_alphas,
    max_top_difference,
    top_difference,
    top_difference_matrix,
    top_difference_naive,
)
from repro.metrics.plugins.weighted_footrule import (
    harmonic_weights,
    max_weighted_footrule,
    weight_table,
    weighted_footrule,
    weighted_footrule_matrix,
    weighted_footrule_naive,
)
from repro.metrics.registry import (
    MetricPlugin,
    canonical_metric,
    get_metric,
    metric_names,
    register_metric,
    registered_metrics,
    unregister_metric,
)
from repro.verify.reference import aggregate_exhaustive_scalar
from tests.conftest import bucket_order_pairs, bucket_orders

#: (scalar, oracle, batch) triples for the parametrized agreement tests.
_PLUGINS = (
    ("weighted_footrule", weighted_footrule, weighted_footrule_naive, weighted_footrule_matrix),
    ("top_difference", top_difference, top_difference_naive, top_difference_matrix),
)

_WORKLOADS = (
    mallows_profile_workload(12, 6, phi=0.3, seed=5, max_bucket=4),
    random_profile_workload(10, 6, seed=7),
    adversarial_profile_workload(11, seed=9),
)


def _all_partial_rankings(items: tuple[int, ...]):
    """Every bucket order over ``items`` (ordered set partitions)."""
    if not items:
        yield ()
        return
    for k in range(1, len(items) + 1):
        for first in itertools.combinations(items, k):
            rest = tuple(x for x in items if x not in first)
            for tail in _all_partial_rankings(rest):
                yield (first, *tail)


class TestRegistry:
    def test_builtins_and_plugins_registered(self):
        names = {plugin.name for plugin in registered_metrics()}
        assert {
            "kendall",
            "footrule",
            "kendall_hausdorff",
            "footrule_hausdorff",
            "weighted_footrule",
            "top_difference",
        } <= names

    def test_aliases_resolve_to_canonical(self):
        for alias, canonical in (
            ("k_prof", "kendall"),
            ("f_haus", "footrule_hausdorff"),
            ("wf", "weighted_footrule"),
            ("td", "top_difference"),
            ("top_diff", "top_difference"),
        ):
            assert canonical_metric(alias) == canonical
            assert get_metric(alias).name == canonical

    def test_metric_names_contains_every_spelling(self):
        names = metric_names()
        assert list(names) == sorted(names)
        assert "wf" in names and "weighted_footrule" in names

    def test_unknown_metric_error_lists_spellings(self):
        with pytest.raises(UnknownMetricError, match="unknown metric") as exc_info:
            get_metric("spearman")
        message = str(exc_info.value)
        for spelling in ("kendall", "wf", "top_difference"):
            assert spelling in message
        # the shared error is both a ValueError and an AggregationError
        assert isinstance(exc_info.value, ValueError)
        assert isinstance(exc_info.value, AggregationError)

    def test_registration_collision_rejected(self):
        plugin = get_metric("weighted_footrule")
        clone = MetricPlugin(
            name="wf_clone",
            aliases=("wf",),  # collides with the registered alias
            citation=plugin.citation,
            scalar=plugin.scalar,
            batch=plugin.batch,
            oracle=plugin.oracle,
            axiom_class="metric",
        )
        with pytest.raises(ValueError, match="already registered"):
            register_metric(clone)
        assert "wf_clone" not in metric_names()

    def test_reregistering_same_plugin_is_a_noop(self):
        plugin = get_metric("top_difference")
        assert register_metric(plugin) is plugin

    def test_register_unregister_roundtrip(self):
        plugin = MetricPlugin(
            name="test_scratch_metric",
            aliases=("tsm",),
            citation="test-only",
            scalar=footrule,
            batch=weighted_footrule_matrix,
            oracle=footrule,
            axiom_class="metric",
        )
        register_metric(plugin)
        try:
            assert get_metric("tsm") is plugin
            # late registrations propagate into the verify catalog
            from repro.verify.registry import all_checks

            ids = {info.check_id for info in all_checks()}
            assert "oracle:plugin-test_scratch_metric" in ids
            assert "relation:symmetry-test_scratch_metric" in ids
            assert "relation:regularity-test_scratch_metric" in ids
        finally:
            unregister_metric("test_scratch_metric")
        with pytest.raises(UnknownMetricError):
            get_metric("tsm")

    def test_axiom_class_validated(self):
        with pytest.raises(ValueError, match="axiom_class"):
            MetricPlugin(
                name="bad",
                aliases=(),
                citation="",
                scalar=footrule,
                batch=weighted_footrule_matrix,
                oracle=footrule,
                axiom_class="vibes",
            )


class TestPluginKernelAgreement:
    @pytest.mark.parametrize("name,scalar,oracle,batch", _PLUGINS)
    @pytest.mark.parametrize("workload", _WORKLOADS, ids=lambda w: w.name)
    def test_scalar_batch_oracle_bit_for_bit(self, name, scalar, oracle, batch, workload):
        rankings = workload.rankings
        matrix = batch(rankings)
        pooled = batch(rankings, jobs=2)
        assert matrix.shape == (len(rankings), len(rankings))
        assert np.array_equal(matrix, pooled)
        assert np.array_equal(matrix, matrix.T)
        for i, sigma in enumerate(rankings):
            for j, tau in enumerate(rankings):
                expected = oracle(sigma, tau)
                assert scalar(sigma, tau) == expected
                assert matrix[i, j] == expected

    @pytest.mark.parametrize("name,scalar,oracle,batch", _PLUGINS)
    @given(pair=bucket_order_pairs(max_size=8))
    @settings(max_examples=60)
    def test_hypothesis_pairs_bit_for_bit(self, name, scalar, oracle, batch, pair):
        sigma, tau = pair
        expected = oracle(sigma, tau)
        assert scalar(sigma, tau) == expected
        assert float(batch((sigma, tau))[0, 1]) == expected

    @pytest.mark.parametrize("name,scalar,oracle,batch", _PLUGINS)
    @given(sigma=bucket_orders(max_size=8))
    @settings(max_examples=40)
    def test_symmetry_and_regularity(self, name, scalar, oracle, batch, sigma):
        assert scalar(sigma, sigma) == 0.0
        reverse = sigma.reverse()
        assert scalar(sigma, reverse) == scalar(reverse, sigma)

    @pytest.mark.parametrize("name,scalar,oracle,batch", _PLUGINS)
    def test_domain_mismatch_rejected(self, name, scalar, oracle, batch):
        sigma = PartialRanking([[1], [2]])
        tau = PartialRanking([[1], [3]])
        with pytest.raises(DomainMismatchError):
            scalar(sigma, tau)
        with pytest.raises(DomainMismatchError):
            oracle(sigma, tau)

    def test_dispatch_through_pairwise_distance_matrix(self):
        from repro.metrics.batch import pairwise_distance_matrix

        rankings = mallows_profile_workload(9, 5, seed=3).rankings
        for spelling, batch in (
            ("weighted_footrule", weighted_footrule_matrix),
            ("wf", weighted_footrule_matrix),
            ("top_difference", top_difference_matrix),
            ("td", top_difference_matrix),
        ):
            assert np.array_equal(
                pairwise_distance_matrix(rankings, spelling), batch(rankings)
            )


class TestPluginParameters:
    def test_custom_weights_quantized_consistently(self):
        sigma = PartialRanking([[0, 1], [2], [3]])
        tau = PartialRanking([[3], [2], [0], [1]])
        weights = [0.9, 0.5, 0.3, 0.1]
        expected = weighted_footrule_naive(sigma, tau, weights=weights)
        assert weighted_footrule(sigma, tau, weights=weights) == expected
        matrix = weighted_footrule_matrix((sigma, tau), weights=weights)
        assert matrix[0, 1] == expected

    def test_custom_alphas_quantized_consistently(self):
        sigma = PartialRanking([[0], [1, 2], [3]])
        tau = PartialRanking([[2], [3], [1], [0]])
        alphas = [1.0, 0.25, 0.125]
        expected = top_difference_naive(sigma, tau, alphas=alphas)
        assert top_difference(sigma, tau, alphas=alphas) == expected
        matrix = top_difference_matrix((sigma, tau), alphas=alphas)
        assert matrix[0, 1] == expected

    def test_invalid_weights_rejected(self):
        sigma = PartialRanking([[0], [1]])
        with pytest.raises(InvalidRankingError):
            weighted_footrule(sigma, sigma, weights=[1.0])  # wrong shape
        with pytest.raises(InvalidRankingError):
            weighted_footrule(sigma, sigma, weights=[1.0, -2.0])
        with pytest.raises(InvalidRankingError):
            top_difference(sigma, sigma, alphas=[-1.0])

    def test_weight_tables_are_dyadic_and_increasing(self):
        table = weight_table(9)
        assert np.all(np.diff(table) > 0)
        # dyadic grid: scaling by 2^21 yields exact integers
        scaled = table * (1 << 21)
        assert np.array_equal(scaled, np.rint(scaled))
        prefix = alpha_prefix(9)
        assert np.all(np.diff(prefix) > 0)
        assert prefix[0] == 0.0

    def test_harmonic_defaults_have_expected_shape(self):
        assert harmonic_weights(5).shape == (5,)
        assert harmonic_alphas(5).shape == (4,)
        assert harmonic_weights(0).shape == (0,)
        assert harmonic_alphas(1).shape == (0,)


class TestUpperBounds:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bounds_dominate_exhaustive_maximum(self, n):
        """max_value is a proven upper bound (not necessarily attained)."""
        items = tuple(range(n))
        all_rankings = [
            PartialRanking([list(bucket) for bucket in shape])
            for shape in _all_partial_rankings(items)
        ]
        wf_max = max(
            weighted_footrule(s, t) for s in all_rankings for t in all_rankings
        )
        td_max = max(
            top_difference(s, t) for s in all_rankings for t in all_rankings
        )
        assert wf_max <= max_weighted_footrule(n)
        assert td_max <= max_top_difference(n)

    def test_zero_domain(self):
        assert max_weighted_footrule(0) == 0.0
        assert max_top_difference(0) == 0.0

    def test_normalized_metric_stays_in_unit_interval(self):
        rankings = random_profile_workload(8, 5, seed=11).rankings
        for name in ("weighted_footrule", "top_difference", "k_prof", "f_haus"):
            scaled = normalized_metric(name)
            for sigma in rankings:
                for tau in rankings:
                    value = scaled(sigma, tau)
                    assert 0.0 <= value <= 1.0
            assert scaled(rankings[0], rankings[0]) == 0.0

    def test_normalized_metric_unknown_and_unnormalizable(self):
        with pytest.raises(UnknownMetricError):
            normalized_metric("spearman")
        plugin = get_metric("weighted_footrule")
        bare = MetricPlugin(
            name="test_no_max",
            aliases=(),
            citation="test-only",
            scalar=plugin.scalar,
            batch=plugin.batch,
            oracle=plugin.oracle,
            axiom_class="metric",
        )
        register_metric(bare)
        try:
            with pytest.raises(AggregationError, match="max_value"):
                normalized_metric("test_no_max")
        finally:
            unregister_metric("test_no_max")


class TestContractsOverPlugins:
    @pytest.fixture
    def debug_mode(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")

    def test_plugin_scalars_pass_contracts(self, debug_mode):
        rankings = mallows_profile_workload(8, 4, seed=13).rankings
        for sigma in rankings:
            for tau in rankings:
                assert weighted_footrule(sigma, tau) == weighted_footrule_naive(sigma, tau)
                assert top_difference(sigma, tau) == top_difference_naive(sigma, tau)

    def test_contract_layer_checks_symmetry_under_debug(self, debug_mode):
        sigma = PartialRanking([[0], [1], [2]])
        tau = PartialRanking([[2], [0, 1]])
        # contract-wrapped calls still return the exact dyadic value
        assert weighted_footrule(sigma, tau) == weighted_footrule(tau, sigma)
        assert top_difference(sigma, tau) == top_difference(tau, sigma)


class TestAggregateEntryPoint:
    def _profile(self):
        return [
            PartialRanking([[1], [2], [3], [4]]),
            PartialRanking([[2], [1], [3, 4]]),
            PartialRanking([[4], [3], [2], [1]]),
        ]

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("metric", ["f_prof", "k_prof", "wf", "td"])
    def test_exhaustive_small_domains(self, objective, metric):
        result = aggregate(self._profile(), objective, metric)
        assert isinstance(result, AggregateResult)
        assert result.exact
        assert result.kind == objective
        assert result.metric == get_metric(metric).name
        # the reported objective matches a recomputation
        profile = self._profile()
        recomputed = (
            max_distance(result.ranking, profile, metric)
            if objective == "minmax"
            else total_distance(result.ranking, profile, metric)
        )
        assert result.objective == recomputed

    def test_exhaustive_is_optimal_for_minmax(self):
        profile = self._profile()
        result = aggregate(profile, "minmax", "f_prof")
        items = sorted(profile[0].domain, key=lambda x: (type(x).__name__, repr(x)))
        best = min(
            max_distance(PartialRanking.from_sequence(perm), profile, "f_prof")
            for perm in itertools.permutations(items)
        )
        assert result.objective == best

    def test_minmax_protects_worst_voter(self):
        profile = self._profile()
        median = aggregate(profile, "median", "f_prof")
        minmax = aggregate(profile, "minmax", "f_prof")
        assert max_distance(minmax.ranking, profile) <= max_distance(median.ranking, profile)
        assert total_distance(median.ranking, profile) <= total_distance(minmax.ranking, profile)

    def test_local_search_on_large_domain(self):
        profile = random_profile_workload(10, 5, seed=17).rankings
        result = aggregate(profile, "minmax", "wf")
        assert not result.exact
        assert result.metric == "weighted_footrule"
        # deterministic: same call, same answer
        again = aggregate(profile, "minmax", "wf")
        assert again.ranking == result.ranking
        assert again.objective == result.objective

    def test_local_search_never_worse_than_borda_seed(self):
        profile = random_profile_workload(9, 6, seed=19).rankings
        for objective in OBJECTIVES:
            result = aggregate(profile, objective, "f_prof")
            evaluate = max_distance if objective == "minmax" else total_distance
            assert result.objective == evaluate(result.ranking, profile, "f_prof")

    def test_require_exact_raises_beyond_cap(self):
        profile = random_profile_workload(10, 4, seed=23).rankings
        with pytest.raises(AggregationError, match="require_exact"):
            aggregate(profile, "minmax", require_exact=True)
        # raising the cap instead certifies the result
        result = aggregate(profile[:2], "median", max_exact=10, require_exact=True)
        assert result.exact

    def test_unknown_objective_and_metric(self):
        profile = self._profile()
        with pytest.raises(AggregationError, match="unknown objective"):
            aggregate(profile, "mean")
        with pytest.raises(UnknownMetricError, match="unknown metric"):
            aggregate(profile, "median", "spearman")
        with pytest.raises(AggregationError, match="max_exact"):
            aggregate(profile, "median", max_exact=0)

    def test_callable_metric(self):
        result = aggregate(self._profile(), "minmax", footrule)
        assert result.metric == "footrule"
        assert result.exact

    @pytest.mark.parametrize("cap", [True, False])
    def test_max_exact_rejects_bool(self, cap):
        with pytest.raises(AggregationError, match="max_exact"):
            aggregate(self._profile(), "median", max_exact=cap)

    def test_max_exact_rejects_float(self):
        with pytest.raises(AggregationError, match="max_exact"):
            aggregate(self._profile(), "median", max_exact=2.5)

    def test_max_exact_rejects_string(self):
        with pytest.raises(AggregationError, match="max_exact"):
            aggregate(self._profile(), "median", max_exact="7")

    @pytest.mark.parametrize("metric", [None, 42, ["f_prof"]])
    def test_metric_must_be_name_or_callable(self, metric):
        with pytest.raises(AggregationError, match="metric must be"):
            aggregate(self._profile(), "median", metric)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_non_finite_distance_rejected(self, value, objective):
        def broken_metric(sigma, tau):
            return value

        with pytest.raises(AggregationError, match="broken_metric.*non-finite"):
            aggregate(self._profile(), objective, broken_metric)

    def test_non_finite_distance_rejected_in_local_search(self):
        def broken_metric(sigma, tau):
            return float("nan")

        profile = random_profile_workload(9, 3, seed=2).rankings
        with pytest.raises(AggregationError, match="non-finite"):
            aggregate(profile, "median", broken_metric)

    def test_resolve_metric_passthrough_and_registry(self):
        assert resolve_metric(footrule) is footrule
        assert resolve_metric("wf") is get_metric("weighted_footrule").scalar
        with pytest.raises(UnknownMetricError):
            resolve_metric("nope")


def _search_outcome(rankings, objective, metric, **kwargs):
    """``aggregate()``'s result fields plus its candidate counter."""
    with obs.capture(), obs.trace("test") as span:
        result = aggregate(rankings, objective, metric, **kwargs)
    (search,) = span.children
    return (
        result.ranking,
        result.objective,
        search.counters["aggregate.minmax.candidates"],
        result.exact,
    )


def _tie_heavy_profiles():
    yield adversarial_profile_workload(6, seed=3).rankings
    yield adversarial_profile_workload(5, seed=8, k=2).rankings
    yield random_profile_workload(6, 5, seed=11, tie_bias=0.8).rankings
    yield random_profile_workload(4, 3, seed=12, tie_bias=0.9).rankings
    yield (PartialRanking([[1, 2, 3]]),)


class TestExactAggregationArrayPath:
    """The array candidate pass answers exactly like scalar enumeration."""

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize(
        "metric",
        [plugin.name for plugin in registered_metrics()] + [footrule],
        ids=lambda metric: metric if isinstance(metric, str) else "callable",
    )
    def test_bit_identical_to_scalar_enumeration(self, objective, metric):
        for profile in _tie_heavy_profiles():
            ranking, value, candidates = aggregate_exhaustive_scalar(profile, metric)[
                objective
            ]
            assert _search_outcome(profile, objective, metric) == (
                ranking,
                value,
                candidates,
                True,
            )

    @pytest.mark.parametrize("k", range(7))
    def test_permutation_table_is_lexicographic(self, k):
        table = minmax._permutation_table(k)
        assert table.dtype == np.int8
        assert [tuple(row) for row in table] == list(itertools.permutations(range(k)))

    @pytest.mark.parametrize("m", [1, 15])
    def test_chunks_concatenate_to_permutation_order(self, monkeypatch, m):
        monkeypatch.setattr(minmax, "_CHUNK_ELEMENTS", 400)
        chunks = list(minmax._candidate_chunks(6, m))
        assert len(chunks) > 1
        assert max(len(chunk) for chunk in chunks) * 6 * max(6, m) <= 400
        rows = [tuple(row) for chunk in chunks for row in chunk]
        assert rows == list(itertools.permutations(range(6)))

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("metric", ["kendall", "f_haus", footrule])
    def test_chunked_search_matches_one_chunk(self, monkeypatch, objective, metric):
        profile = random_profile_workload(6, 4, seed=5, tie_bias=0.7).rankings
        whole = _search_outcome(profile, objective, metric)
        monkeypatch.setattr(minmax, "_CHUNK_ELEMENTS", 1000)
        assert _search_outcome(profile, objective, metric) == whole

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_local_search_hook_matches_scalar_fallback(self, objective):
        profile = random_profile_workload(9, 6, seed=21, tie_bias=0.5).rankings
        hooked = _search_outcome(profile, objective, "f_prof")
        assert not hooked[3]
        assert _search_outcome(profile, objective, footrule) == hooked

    @pytest.mark.parametrize("metric", ["f_prof", "k_prof", "f_haus"])
    def test_local_search_past_int8_positions(self, metric):
        profile = random_profile_workload(130, 2, seed=4, tie_bias=0.3).rankings
        result = aggregate(profile, "median", metric)
        assert not result.exact
        assert result.ranking.is_full
        assert result.objective == total_distance(result.ranking, profile, metric)

    def test_plugin_without_hook_uses_scalar_calls(self):
        plugin = register_metric(
            MetricPlugin(
                name="test_hookless_footrule",
                aliases=(),
                citation="F_prof without a candidate scorer",
                scalar=footrule,
                batch=get_metric("footrule").batch,
                oracle=footrule,
                axiom_class="metric",
            )
        )
        try:
            profile = adversarial_profile_workload(5, seed=4).rankings
            for objective in OBJECTIVES:
                got = aggregate(profile, objective, plugin.name)
                want = aggregate(profile, objective, "footrule")
                assert got.metric == plugin.name
                assert (got.ranking, got.objective, got.exact) == (
                    want.ranking,
                    want.objective,
                    want.exact,
                )
        finally:
            unregister_metric(plugin.name)

    def test_every_hook_has_a_candidate_oracle(self):
        from repro.verify.registry import all_checks

        ids = {info.check_id for info in all_checks()}
        for plugin in registered_metrics():
            assert plugin.candidate_scorer is not None
            assert f"oracle:candidates-{plugin.name}" in ids
        assert "oracle:aggregate-exhaustive" in ids
