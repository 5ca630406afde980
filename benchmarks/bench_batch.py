"""Benchmarks for the batch distance layer (PR 2's acceptance numbers).

Two modes:

* ``pytest benchmarks/bench_batch.py --benchmark-only`` — pytest-benchmark
  timings of the inversion counter, the two pair classifiers and the
  all-pairs matrix versus the per-pair loop. Setting
  ``REPRO_BENCH_SMOKE=1`` shrinks the sizes for the CI smoke job.
* ``PYTHONPATH=src python benchmarks/bench_batch.py`` — regenerate
  ``BENCH_PR2.json`` at the repo root: the Fenwick-versus-array
  ``pair_counts`` crossover sweep (the source of
  ``repro.metrics.kendall._ARRAY_MIN_ITEMS``), the n = 100,000
  pair-counting comparison, and the 80 items × 25 rankings matrix
  speedups recorded against the acceptance criteria.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.partial_ranking import PartialRanking
from repro.generators.workloads import mallows_profile_workload, random_profile_workload
from repro.metrics import (
    footrule,
    footrule_hausdorff,
    kendall,
    kendall_hausdorff_counts,
    pairwise_distance_matrix,
)
from repro.metrics.fast import count_inversions_array
from repro.metrics.kendall import _pair_counts_array, _pair_counts_fenwick

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Benchmark sizes (full -> CI smoke).
_INVERSION_N = 20_000 if _SMOKE else 100_000
_MATRIX_ITEMS = 40 if _SMOKE else 80
_MATRIX_RANKINGS = 8 if _SMOKE else 25

#: The pair_counts crossover grid (items).
_CROSSOVER_SIZES = (32, 48, 64, 96, 128, 160, 192, 256, 320, 384, 448, 512)

_PER_PAIR = {
    "kendall": kendall,
    "footrule": footrule,
    "kendall_hausdorff": lambda s, t: float(kendall_hausdorff_counts(s, t)),
    "footrule_hausdorff": footrule_hausdorff,
}


def _per_pair_matrix(profile, metric_name):
    fn = _PER_PAIR[metric_name]
    m = len(profile)
    matrix = np.zeros((m, m))
    for i in range(m):  # repro: noqa[RP009]  (this loop is the baseline being measured)
        for j in range(i + 1, m):
            matrix[i, j] = matrix[j, i] = fn(profile[i], profile[j])
    return matrix


def _matrix_profile():
    return mallows_profile_workload(
        _MATRIX_ITEMS, _MATRIX_RANKINGS, phi=0.3, seed=0, max_bucket=6
    ).rankings


class TestInversionCounters:
    def test_vectorized_counter(self, benchmark):
        rng = np.random.default_rng(0)
        values = rng.integers(0, _INVERSION_N, size=_INVERSION_N)
        expected = count_inversions_array(values)
        assert benchmark(count_inversions_array, values) == expected


class TestPairClassifiers:
    def test_pair_counts_array(self, benchmark):
        n = 5_000 if _SMOKE else 50_000
        profile = random_profile_workload(n, 2, seed=1).rankings
        counts = benchmark(_pair_counts_array, profile[0], profile[1])
        assert counts.total == n * (n - 1) // 2

    def test_pair_counts_fenwick(self, benchmark):
        n = 1_000 if _SMOKE else 5_000
        profile = random_profile_workload(n, 2, seed=1).rankings
        counts = benchmark(_pair_counts_fenwick, profile[0], profile[1])
        assert counts.total == n * (n - 1) // 2


class TestPairwiseMatrix:
    def test_batch_matrix_kendall(self, benchmark):
        profile = _matrix_profile()
        matrix = benchmark(pairwise_distance_matrix, profile, "kendall")
        assert (matrix == matrix.T).all()

    def test_per_pair_matrix_kendall(self, benchmark):
        profile = _matrix_profile()
        matrix = benchmark(_per_pair_matrix, profile, "kendall")
        assert (matrix == pairwise_distance_matrix(profile, "kendall")).all()

    def test_batch_matrix_footrule_hausdorff(self, benchmark):
        profile = _matrix_profile()
        matrix = benchmark(pairwise_distance_matrix, profile, "footrule_hausdorff")
        assert (matrix == matrix.T).all()

    def test_per_pair_matrix_footrule_hausdorff(self, benchmark):
        profile = _matrix_profile()
        matrix = benchmark(_per_pair_matrix, profile, "footrule_hausdorff")
        assert (matrix == pairwise_distance_matrix(profile, "footrule_hausdorff")).all()


# ----------------------------------------------------------------------
# BENCH_PR2.json regeneration
# ----------------------------------------------------------------------


def _best_of(fn, *args, repeats=3):
    import time

    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def _first_call_seconds(fn, sigma, tau, loops: int) -> float:
    """Best-of-7 mean seconds of ``fn`` on fresh copies of a pair, so the
    array path pays its dense encoding as on rankings it has not seen."""
    import time

    best = float("inf")
    for _ in range(7):
        copies = [(PartialRanking(sigma.buckets), PartialRanking(tau.buckets)) for _ in range(loops)]
        start = time.perf_counter()
        for a, b in copies:
            fn(a, b)
        best = min(best, time.perf_counter() - start)
    return best / loops


def _pair_counts_crossover():
    """Forced-Fenwick vs forced-array ``pair_counts``, tie bias 0 and 0.5;
    ``crossover_n`` is the smallest swept size from which the array path
    is faster at every size, tied or not."""
    rows = []
    for n in _CROSSOVER_SIZES:
        for ties in (False, True):
            sigma, tau = random_profile_workload(n, 2, seed=n, tie_bias=0.5 * ties).rankings
            t_fen, t_arr = (
                _first_call_seconds(fn, sigma, tau, max(20, 16_000 // n))
                for fn in (_pair_counts_fenwick, _pair_counts_array)
            )
            rows.append(
                {"n": n, "ties": ties, "fenwick_s": round(t_fen, 7),
                 "array_s": round(t_arr, 7), "speedup": round(t_fen / t_arr, 2)}
            )
    slower = max((row["n"] for row in rows if row["speedup"] <= 1.0), default=0)
    crossover = min((n for n in _CROSSOVER_SIZES if n > slower), default=None)
    return {"machine": _machine(), "crossover_n": crossover, "rows": rows}


def _pair_counts_comparison():
    """Forced-Fenwick vs forced-array ``pair_counts`` at n = 100,000."""
    n = 100_000
    profile = random_profile_workload(n, 2, seed=1).rankings
    sigma, tau = profile
    t_array, counts_array = _best_of(_pair_counts_array, sigma, tau, repeats=3)
    t_fenwick, counts_fenwick = _best_of(_pair_counts_fenwick, sigma, tau, repeats=1)
    assert counts_array == counts_fenwick
    return {
        "n": n,
        "pair_counts_array_s": round(t_array, 4),
        "pair_counts_fenwick_s": round(t_fenwick, 4),
        "speedup": round(t_fenwick / t_array, 2),
    }


def _matrix_comparison():
    """Batch vs per-pair all-pairs matrix on 80 items x 25 rankings."""
    profile = mallows_profile_workload(80, 25, phi=0.3, seed=0, max_bucket=6).rankings
    out = {"n_items": 80, "m_rankings": 25, "metrics": {}}
    for metric in sorted(_PER_PAIR):
        t_batch, batch = _best_of(pairwise_distance_matrix, profile, metric)
        t_loop, loop = _best_of(_per_pair_matrix, profile, metric)
        assert (batch == loop).all(), metric
        out["metrics"][metric] = {
            "batch_s": round(t_batch, 5),
            "per_pair_s": round(t_loop, 5),
            "speedup": round(t_loop / t_batch, 2),
        }
    return out


def _machine() -> dict:
    import platform

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def main() -> None:
    import json
    from pathlib import Path

    payload = {
        "pr": 2,
        "machine": _machine(),
        "pair_counts_crossover": _pair_counts_crossover(),
        "pair_counts_n100k": _pair_counts_comparison(),
        "pairwise_matrix_80x25": _matrix_comparison(),
    }
    target = Path(__file__).resolve().parent.parent / "BENCH_PR2.json"
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    matrix = payload["pairwise_matrix_80x25"]["metrics"]
    print(f"wrote {target}")
    print(f"pair_counts crossover_n: {payload['pair_counts_crossover']['crossover_n']}")
    print(f"pair_counts n=100k speedup: {payload['pair_counts_n100k']['speedup']}x")
    for metric, numbers in matrix.items():
        print(f"matrix {metric}: {numbers['speedup']}x")


if __name__ == "__main__":
    main()
