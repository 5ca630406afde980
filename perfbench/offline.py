"""The two offline workloads: ``profile-matrix`` and ``aggregate-offline``.

Every operation is the same composite call sequence on one seeded
profile, rebuilt as fresh ``PartialRanking`` objects inside the op so no
cached encoding carries over from an earlier op. A run makes whole passes
over the fixed op list, so every run does the same work.
"""

from __future__ import annotations

import gc
import time
from importlib import import_module
from typing import Any, Callable

import repro.metrics.plugins  # noqa: F401 - registers the two plugin metrics
from repro.core.partial_ranking import PartialRanking

from answers import scalar_distance
from inputs import METRICS

# modules, not the same-named functions ``repro.aggregate`` re-exports
agg_batch = import_module("repro.aggregate.batch")
decompose = import_module("repro.aggregate.decompose")
medrank = import_module("repro.aggregate.medrank")
minmax = import_module("repro.aggregate.minmax")
metrics_batch = import_module("repro.metrics.batch")

Profile = list[PartialRanking]


def _build(profile: list[list[list[int]]]) -> Profile:
    return [PartialRanking(buckets) for buckets in profile]


# ----------------------------------------------------------------------
# profile-matrix
# ----------------------------------------------------------------------


def matrix_op(data: dict[str, Any]) -> dict[str, Any]:
    wide = _build(data["wide"])
    matrices = {
        metric: metrics_batch.pairwise_distance_matrix(wide, metric) for metric in METRICS
    }
    long = _build(data["long"])
    long_matrix = metrics_batch.pairwise_distance_matrix(long, "kendall")
    return {"wide": wide, "matrices": matrices, "long": long, "long_matrix": long_matrix}


def _check_matrix(profile: Profile, matrix: Any, metric: str, samples: int) -> list[str]:
    problems = []
    m = len(profile)
    if not (matrix == matrix.T).all():
        problems.append(f"{metric}: matrix is not symmetric")
    if not (matrix.diagonal() == 0).all():
        problems.append(f"{metric}: diagonal is not zero")
    for k in range(samples):
        i, j = (7 * k + 1) % m, (13 * k + 5) % m
        expected = scalar_distance(metric, profile[i], profile[j])
        if float(matrix[i, j]) != expected:
            problems.append(f"{metric}[{i},{j}] = {matrix[i, j]!r}, scalar {expected!r}")
    return problems


def matrix_check(result: dict[str, Any]) -> list[str]:
    problems = []
    for metric, matrix in result["matrices"].items():
        problems += _check_matrix(result["wide"], matrix, metric, 6)
    problems += _check_matrix(result["long"], result["long_matrix"], "kendall", 3)
    return problems


# ----------------------------------------------------------------------
# aggregate-offline
# ----------------------------------------------------------------------


def offline_op(data: dict[str, Any]) -> dict[str, Any]:
    small = _build(data["small"])
    median = minmax.aggregate(small, objective="median", metric="kendall")
    worst = minmax.aggregate(small, objective="minmax", metric="f_prof")
    k12 = decompose.kemeny_decomposed(_build(data["kemeny12"]))
    k300 = decompose.kemeny_decomposed(_build(data["kemeny300"]))
    profile = _build(data["median"])
    full = agg_batch.median_full_ranking_batch(profile)
    partial = agg_batch.median_partial_ranking_batch(profile)
    top = medrank.medrank(profile, k=10)
    return {
        "small": small,
        "median": median,
        "minmax": worst,
        "kemeny": (k12, k300),
        "full": full,
        "partial": partial,
        "medrank": top,
    }


def offline_check(result: dict[str, Any]) -> list[str]:
    problems = []
    median = result["median"]
    kemeny = decompose.kemeny_decomposed(result["small"])
    if not (median.exact and kemeny.exact):
        problems.append(f"n=6 not exact: aggregate {median.exact}, kemeny {kemeny.exact}")
    if median.objective != kemeny.objective:
        problems.append(
            f"median objective {median.objective!r} != kemeny {kemeny.objective!r}"
        )
    if not result["minmax"].exact:
        problems.append("minmax at n=6 not exact")
    if len(result["medrank"].winners) != 10:
        problems.append("medrank returned fewer than 10 winners")
    return problems


def offline_counts(result: dict[str, Any]) -> dict[str, float]:
    kemeny = result["kemeny"]
    return {
        "aggregate.kemeny.dp_states": sum(r.dp_states for r in kemeny),
        "aggregate.kemeny.largest_component": max(r.largest_component for r in kemeny),
        "aggregate.medrank.accesses": result["medrank"].access_log.total_accesses,
    }


# ----------------------------------------------------------------------
# Driving a run
# ----------------------------------------------------------------------

WORKLOADS: dict[str, tuple[Callable, Callable, Callable | None]] = {
    "profile-matrix": (matrix_op, matrix_check, None),
    "aggregate-offline": (offline_op, offline_check, offline_counts),
}


def run_passes(op: Callable, inputs: list[dict], seconds: float) -> dict[str, Any]:
    """Whole passes over ``inputs`` until ``seconds`` have gone by."""
    gc.collect()
    latencies: list[float] = []
    completions: list[float] = []
    results: list[Any] = []
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    while True:
        for data in inputs:
            t0 = time.perf_counter()
            result = op(data)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            completions.append(t1)
            if passes == 0:
                results.append(result)
        passes += 1
        if time.perf_counter() >= deadline:
            break
    return {
        "start": start,
        "latencies": latencies,
        "completions": completions,
        "results": results,
        "passes": passes,
    }
