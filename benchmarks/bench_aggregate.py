"""Benchmarks + perf-regression gate for the aggregation kernels (PR 4).

Three modes:

* ``pytest benchmarks/bench_aggregate.py --benchmark-only`` —
  pytest-benchmark timings of the position-matrix median kernels versus
  the dict reference in ``repro.verify.reference``, and of the online aggregator versus per-update
  recomputation. ``REPRO_BENCH_SMOKE=1`` shrinks the sizes for CI.
* ``PYTHONPATH=src python benchmarks/bench_aggregate.py`` — regenerate
  ``BENCH_PR4.json`` at the repo root: the 80-voter × 10,000-item
  acceptance numbers, the online-update comparison, the Kemeny cost-matrix
  timing, and the smoke-size timings the CI gate compares against.
* ``PYTHONPATH=src python benchmarks/bench_aggregate.py --check BENCH_PR4.json``
  — the regression gate: re-measure the smoke sizes and exit non-zero if
  any kernel is more than 2× slower than the committed baseline, or any
  kernel-vs-dict speedup fell below half its committed value (the
  speedup-ratio check is machine-independent; the absolute check assumes
  comparable hardware — see docs/PERFORMANCE.md). The
  ``aggregate_exhaustive`` case also fails the gate when exact
  ``aggregate()`` disagrees with the scalar enumerator on any answer.
"""

from __future__ import annotations

import os

from repro.aggregate.batch import median_scores_batch, median_top_k_batch
from repro.aggregate.kemeny import pair_cost_array
from repro.aggregate.minmax import OBJECTIVES, aggregate
from repro.aggregate.online import OnlineMedianAggregator
from repro.generators.workloads import random_profile_workload
from repro.metrics.registry import registered_metrics
from repro.verify.reference import (
    aggregate_exhaustive_scalar,
    median_scores_dict,
    median_top_k_dict,
)

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Benchmark sizes (full -> CI smoke). The full median sizes are the
#: acceptance-criteria profile: 80 voters over 10,000 items.
_MEDIAN_ITEMS = 1_000 if _SMOKE else 10_000
_MEDIAN_RANKINGS = 24 if _SMOKE else 80
_ONLINE_ITEMS = 500 if _SMOKE else 2_000
_ONLINE_RANKINGS = 24 if _SMOKE else 80
_KEMENY_ITEMS = 60 if _SMOKE else 150
_KEMENY_RANKINGS = 12 if _SMOKE else 40

#: Exact aggregate(): every registered metric x both objectives over
#: all 7! candidate rankings of one 15-voter profile.
_EXHAUSTIVE_ITEMS = 7
_EXHAUSTIVE_RANKINGS = 15

#: Smoke-size names the --check gate compares (kernel paths only; the
#: dict timings are recorded for the speedup ratios).
_GATED_TIMINGS = (
    "median_scores_array_s",
    "median_top_k_array_s",
    "online_updates_s",
    "kemeny_cost_matrix_s",
    "aggregate_exhaustive_s",
)
_GATED_SPEEDUPS = ("median_scores", "median_top_k", "online")


def _median_profile(n=None, m=None):
    return random_profile_workload(
        n or _MEDIAN_ITEMS, m or _MEDIAN_RANKINGS, seed=0, tie_bias=0.3
    ).rankings


def _online_profile():
    return random_profile_workload(_ONLINE_ITEMS, _ONLINE_RANKINGS, seed=1).rankings


def _online_updates(profile, domain):
    aggregator = OnlineMedianAggregator(domain)
    scores = None
    for ranking in profile:
        aggregator.add(ranking)
        scores = aggregator.scores()
    return scores


def _online_recompute(profile):
    scores = None
    for upto in range(1, len(profile) + 1):
        scores = median_scores_batch(profile[:upto])
    return scores


class TestMedianScores:
    def test_array_engine(self, benchmark):
        profile = _median_profile()
        scores = benchmark(median_scores_batch, profile)
        assert len(scores) == _MEDIAN_ITEMS

    def test_dict_engine(self, benchmark):
        profile = _median_profile()
        scores = benchmark(median_scores_dict, profile)
        assert scores == median_scores_batch(profile)


class TestMedianTopK:
    def test_array_engine(self, benchmark):
        profile = _median_profile()
        k = _MEDIAN_ITEMS // 10
        result = benchmark(median_top_k_batch, profile, k)
        assert len(result.buckets[0]) == 1  # top-k output starts with singletons

    def test_dict_engine(self, benchmark):
        profile = _median_profile()
        k = _MEDIAN_ITEMS // 10
        result = benchmark(median_top_k_dict, profile, k)
        assert result == median_top_k_batch(profile, k)


class TestOnlineAggregator:
    def test_incremental_updates(self, benchmark):
        profile = _online_profile()
        scores = benchmark(_online_updates, profile, range(_ONLINE_ITEMS))
        assert scores == median_scores_batch(profile)

    def test_recompute_each_update(self, benchmark):
        profile = _online_profile()
        scores = benchmark(_online_recompute, profile)
        assert scores == median_scores_batch(profile)


def _exhaustive_profile():
    return random_profile_workload(
        _EXHAUSTIVE_ITEMS, _EXHAUSTIVE_RANKINGS, seed=3, tie_bias=0.5
    ).rankings


def _aggregate_every_metric(profile):
    """Exact ``aggregate()`` answers, one per (metric, objective)."""
    return [
        aggregate(profile, objective, plugin.name)
        for plugin in registered_metrics()
        for objective in OBJECTIVES
    ]


class TestExhaustiveAggregate:
    def test_every_metric_and_objective(self, benchmark):
        profile = _exhaustive_profile()
        results = benchmark(_aggregate_every_metric, profile)
        assert all(result.exact for result in results)


class TestKemenyCosting:
    def test_pair_cost_array(self, benchmark):
        profile = random_profile_workload(
            _KEMENY_ITEMS, _KEMENY_RANKINGS, seed=2
        ).rankings
        items, ahead, _ = benchmark(pair_cost_array, profile)
        assert len(items) == _KEMENY_ITEMS
        assert not ahead.diagonal().any()


# ----------------------------------------------------------------------
# BENCH_PR4.json regeneration and the --check regression gate
# ----------------------------------------------------------------------


def _best_of(fn, *args, repeats=3, **kwargs):
    from conftest import best_of

    return best_of(fn, *args, repeats=repeats, **kwargs)


def _median_comparison(n, m, repeats=3):
    """dict vs array medians (plain, weighted, top-k) at one size."""
    profile = _median_profile(n, m)
    weights = [1.0 + (index % 4) * 0.25 for index in range(m)]
    k = max(1, n // 10)
    t_array, array_scores = _best_of(median_scores_batch, profile, repeats=repeats)
    t_dict, dict_scores = _best_of(median_scores_dict, profile, repeats=repeats)
    assert array_scores == dict_scores
    t_array_w, array_weighted = _best_of(
        median_scores_batch, profile, weights=weights, repeats=repeats
    )
    t_dict_w, dict_weighted = _best_of(
        median_scores_dict, profile, weights=weights, repeats=repeats
    )
    assert array_weighted == dict_weighted
    t_array_k, array_topk = _best_of(median_top_k_batch, profile, k, repeats=repeats)
    t_dict_k, dict_topk = _best_of(median_top_k_dict, profile, k, repeats=repeats)
    assert array_topk == dict_topk
    return {
        "n_items": n,
        "m_rankings": m,
        "k": k,
        "median_scores": {
            "dict_s": round(t_dict, 5),
            "array_s": round(t_array, 5),
            "speedup": round(t_dict / t_array, 2),
        },
        "median_scores_weighted": {
            "dict_s": round(t_dict_w, 5),
            "array_s": round(t_array_w, 5),
            "speedup": round(t_dict_w / t_array_w, 2),
        },
        "median_top_k": {
            "dict_s": round(t_dict_k, 5),
            "array_s": round(t_array_k, 5),
            "speedup": round(t_dict_k / t_array_k, 2),
        },
    }


def _online_comparison():
    profile = _online_profile()
    t_online, online_scores = _best_of(
        _online_updates, profile, range(_ONLINE_ITEMS)
    )
    t_recompute, recomputed = _best_of(_online_recompute, profile)
    assert online_scores == recomputed
    return {
        "n_items": _ONLINE_ITEMS,
        "m_updates": _ONLINE_RANKINGS,
        "incremental_s": round(t_online, 5),
        "recompute_s": round(t_recompute, 5),
        "speedup": round(t_recompute / t_online, 2),
    }


def _kemeny_timing():
    profile = random_profile_workload(_KEMENY_ITEMS, _KEMENY_RANKINGS, seed=2).rankings
    seconds, (items, _, _) = _best_of(pair_cost_array, profile)
    return {
        "n_items": len(items),
        "m_rankings": _KEMENY_RANKINGS,
        "seconds": round(seconds, 5),
    }


def _exhaustive_comparison(repeats=3):
    """Time exact aggregate() and check it against the scalar enumerator."""
    profile = _exhaustive_profile()
    seconds, results = _best_of(_aggregate_every_metric, profile, repeats=repeats)
    expected = []
    for plugin in registered_metrics():
        answers = aggregate_exhaustive_scalar(profile, plugin.name)
        expected.extend((*answers[objective][:2], True) for objective in OBJECTIVES)
    answers = [(result.ranking, result.objective, result.exact) for result in results]
    return {
        "n_items": _EXHAUSTIVE_ITEMS,
        "m_rankings": _EXHAUSTIVE_RANKINGS,
        "cases": len(results),
        "seconds": round(seconds, 5),
        "bitwise_equal": answers == expected,
    }


def _smoke_measurements():
    """The fixed-size timings the CI gate compares run-over-run."""
    median = _median_comparison(1_000, 24, repeats=5)
    online_profile = random_profile_workload(500, 24, seed=1).rankings
    t_online, online_scores = _best_of(
        _online_updates, online_profile, range(500), repeats=5
    )
    t_recompute, recomputed = _best_of(_online_recompute, online_profile, repeats=5)
    assert online_scores == recomputed
    # big enough that the timing is milliseconds, not scheduler noise
    kemeny_profile = random_profile_workload(400, 24, seed=2).rankings
    t_kemeny, _ = _best_of(pair_cost_array, kemeny_profile, repeats=7)
    exhaustive = _exhaustive_comparison()
    return {
        "sizes": {
            "median": "1000x24",
            "online": "500x24",
            "kemeny": "400x24",
            "aggregate_exhaustive": f"{_EXHAUSTIVE_ITEMS}x{_EXHAUSTIVE_RANKINGS}",
        },
        "timings": {
            "median_scores_array_s": median["median_scores"]["array_s"],
            "median_scores_dict_s": median["median_scores"]["dict_s"],
            "median_top_k_array_s": median["median_top_k"]["array_s"],
            "median_top_k_dict_s": median["median_top_k"]["dict_s"],
            "online_updates_s": round(t_online, 5),
            "online_recompute_s": round(t_recompute, 5),
            "kemeny_cost_matrix_s": round(t_kemeny, 5),
            "aggregate_exhaustive_s": exhaustive["seconds"],
        },
        "aggregate_exhaustive": exhaustive,
        "speedups": {
            "median_scores": median["median_scores"]["speedup"],
            "median_top_k": median["median_top_k"]["speedup"],
            "online": round(t_recompute / t_online, 2),
        },
    }


def check_against_baseline(baseline: dict, fresh: dict) -> list[str]:
    """Gate failures: >2x kernel slowdown, halved kernel-vs-dict speedup,
    or exact aggregate() answers that differ from the scalar enumerator."""
    failures = []
    if not fresh["aggregate_exhaustive"]["bitwise_equal"]:
        failures.append(
            "aggregate_exhaustive: exact aggregate() differs from the scalar "
            "enumerator on at least one (metric, objective)"
        )
    base_timings = baseline["smoke"]["timings"]
    base_speedups = baseline["smoke"]["speedups"]
    for name in _GATED_TIMINGS:
        old, new = base_timings[name], fresh["timings"][name]
        if new > 2.0 * old:
            failures.append(
                f"{name}: {new:.5f}s is {new / old:.1f}x the baseline {old:.5f}s"
            )
    for name in _GATED_SPEEDUPS:
        old, new = base_speedups[name], fresh["speedups"][name]
        if new < old / 2.0:
            failures.append(
                f"{name} speedup fell to {new:.1f}x (baseline {old:.1f}x)"
            )
    return failures


def _run_check(baseline: dict) -> int:
    from conftest import report_failures

    fresh = _smoke_measurements()
    print(f"{'kernel':<28}{'baseline':>12}{'fresh':>12}")
    for name in sorted(fresh["timings"]):
        print(
            f"{name:<28}{baseline['smoke']['timings'][name]:>12.5f}"
            f"{fresh['timings'][name]:>12.5f}"
        )
    for name in sorted(fresh["speedups"]):
        print(
            f"{name + ' speedup':<28}{baseline['smoke']['speedups'][name]:>11.1f}x"
            f"{fresh['speedups'][name]:>11.1f}x"
        )
    print(f"aggregate_exhaustive bitwise_equal: {fresh['aggregate_exhaustive']['bitwise_equal']}")
    return report_failures(check_against_baseline(baseline, fresh), "perf gate")


def _regenerate() -> int:
    from conftest import machine_info, write_baseline

    payload = {
        "pr": 4,
        "machine": machine_info(),
        "median_80x10000": _median_comparison(10_000, 80),
        "online_2000x80": _online_comparison(),
        "kemeny_cost_150x40": _kemeny_timing(),
        "smoke": _smoke_measurements(),
    }
    write_baseline("BENCH_PR4.json", payload)
    median = payload["median_80x10000"]
    for key in ("median_scores", "median_scores_weighted", "median_top_k"):
        print(f"{key} 80x10000: {median[key]['speedup']}x")
    print(f"online 2000x80: {payload['online_2000x80']['speedup']}x")
    return 0


def main(argv: list[str] | None = None) -> int:
    from conftest import gate_main

    return gate_main(
        argv,
        description=__doc__,
        check_help="re-measure smoke sizes and fail on regression vs this JSON",
        check=_run_check,
        regenerate=_regenerate,
    )


if __name__ == "__main__":
    raise SystemExit(main())
