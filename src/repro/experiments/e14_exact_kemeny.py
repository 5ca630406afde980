"""E14 — median aggregation vs. the exact Kemeny optimum (footnote 4).

Footnote 4 frames median aggregation as the *non-trivial yet
computationally simple* constant-factor algorithm for the Kendall
aggregation problem. With the Held–Karp solver we can compute the exact
``K^(1/2)`` optimum up to n ≈ 14 — past the factorial brute force — and
measure the real approximation ratios of median, Borda, best-input, and
the pairwise-majority lower bound, together with solve times.

A second table measures the SCC-condensed solver
(:func:`repro.aggregate.decompose.kemeny_decomposed`) on sparse-conflict
banded profiles far beyond the monolithic n ≤ 16 cap: component-size
histogram, certified-exact rate, and solve time per instance.
"""

from __future__ import annotations

import time
from collections import Counter

from repro.aggregate.baselines import best_input, borda
from repro.aggregate.decompose import kemeny_decomposed
from repro.aggregate.median import median_full_ranking
from repro.aggregate.objective import total_distance
from repro.experiments.runner import Table, register
from repro.generators.random import random_bucket_order, resolve_rng
from repro.generators.workloads import banded_profile_workload


@register("e14", "median vs exact Kemeny optimum (Held-Karp), K_prof objective")
def run(
    seed: int = 0,
    sizes: tuple[int, ...] = (6, 9, 12),
    m: int = 5,
    trials: int = 8,
    banded_sizes: tuple[int, ...] = (40, 80, 120),
    band: int = 6,
) -> list[Table]:
    """Run E14; see the module docstring and EXPERIMENTS.md."""
    rng = resolve_rng(seed)
    rows = []
    for n in sizes:
        median_ratios: list[float] = []
        borda_ratios: list[float] = []
        best_input_ratios: list[float] = []
        bound_gaps: list[float] = []
        exact_seconds = 0.0
        for _ in range(trials):
            rankings = [random_bucket_order(n, rng, tie_bias=0.5) for _ in range(m)]
            start = time.perf_counter()
            exact = kemeny_decomposed(rankings, require_exact=True)
            exact_seconds += time.perf_counter() - start
            optimum = exact.objective
            if optimum == 0:
                continue
            median_ratios.append(
                total_distance(median_full_ranking(rankings), rankings, "k_prof")
                / optimum
            )
            borda_ratios.append(
                total_distance(borda(rankings), rankings, "k_prof") / optimum
            )
            best_input_ratios.append(
                total_distance(best_input(rankings, "k_prof"), rankings, "k_prof")
                / optimum
            )
            bound_gaps.append(optimum / max(exact.lower_bound, 1e-12))
        rows.append(
            {
                "n": n,
                "median_mean": sum(median_ratios) / len(median_ratios),
                "median_max": max(median_ratios),
                "borda_mean": sum(borda_ratios) / len(borda_ratios),
                "best_input_mean": sum(best_input_ratios) / len(best_input_ratios),
                "optimum_over_lower_bound": sum(bound_gaps) / len(bound_gaps),
                "exact_seconds_total": exact_seconds,
            }
        )
    table = Table(
        title=f"E14: K_prof aggregation ratio vs exact Kemeny optimum (m={m})",
        columns=(
            "n",
            "median_mean",
            "median_max",
            "borda_mean",
            "best_input_mean",
            "optimum_over_lower_bound",
            "exact_seconds_total",
        ),
        rows=tuple(rows),
        notes=(
            "exact solve time grows as 2^n while median stays O(nm + n log n); "
            "median's measured ratio stays near 1, far inside its proved constant. "
            "best-input returns a PARTIAL ranking, so its ratio can dip below 1 "
            "against the best FULL ranking."
        ),
    )

    banded_rows = []
    for n in banded_sizes:
        histogram: Counter[int] = Counter()
        exact_count = 0
        median_ratios = []
        decompose_seconds = 0.0
        for trial in range(trials):
            workload = banded_profile_workload(
                n, m, band=band, seed=rng.getrandbits(32), tie_bias=0.3
            )
            start = time.perf_counter()
            result = kemeny_decomposed(workload.rankings)
            decompose_seconds += time.perf_counter() - start
            histogram.update(len(component) for component in result.components)
            exact_count += result.exact
            if result.exact and result.objective > 0:
                median_ratios.append(
                    total_distance(
                        median_full_ranking(workload.rankings),
                        workload.rankings,
                        "k_prof",
                    )
                    / result.objective
                )
        banded_rows.append(
            {
                "n": n,
                "band": band,
                "certified_exact_rate": exact_count / trials,
                "component_histogram": " ".join(
                    f"{size}x{count}" for size, count in sorted(histogram.items())
                ),
                "median_mean": (
                    sum(median_ratios) / len(median_ratios) if median_ratios else 1.0
                ),
                "decompose_seconds_total": decompose_seconds,
            }
        )
    banded_table = Table(
        title=(
            f"E14: SCC-condensed exact Kemeny on banded profiles "
            f"(m={m}, band={band})"
        ),
        columns=(
            "n",
            "band",
            "certified_exact_rate",
            "component_histogram",
            "median_mean",
            "decompose_seconds_total",
        ),
        rows=tuple(banded_rows),
        notes=(
            "disagreement confined to bands keeps every strongly-connected "
            "component at most band items, so the per-component Held-Karp DP "
            "certifies the global optimum (exact rate 1.0) at sizes the "
            "monolithic solver refuses outright; the histogram entries are "
            "component_size x count over all trials."
        ),
    )
    return [table, banded_table]
