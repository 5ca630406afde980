"""Benchmarks + perf-regression gate for the exact Kemeny solvers (PR 9).

Three modes:

* ``pytest benchmarks/bench_kemeny.py --benchmark-only`` —
  pytest-benchmark timings of the SCC-condensed solver on a banded
  n=120 instance (certified exact, refused outright by the monolithic
  DP) and of the vectorized Held–Karp DP versus the Python reference
  in ``repro.verify.reference``. ``REPRO_BENCH_SMOKE=1`` shrinks the DP comparison size;
  the banded solve stays at full size — it is milliseconds either way,
  and shrinking it would un-gate the acceptance claim.
* ``PYTHONPATH=src python benchmarks/bench_kemeny.py`` — regenerate
  ``BENCH_KEMENY.json`` at the repo root: the n>=100 banded acceptance
  solve, the per-state DP speedup, the pair-cost-matrix timing, and the
  smoke-size timings the CI gate compares against.
* ``PYTHONPATH=src python benchmarks/bench_kemeny.py --check BENCH_KEMENY.json``
  — the regression gate: re-measure the smoke sizes and exit non-zero
  if any timing is more than 2x the committed baseline, if the
  vectorized-DP speedup fell below half its committed value, or if the
  n>=100 banded instance is no longer certified exact in under a second
  (the acceptance criterion, checked absolutely on every run).
"""

from __future__ import annotations

import os

from repro.aggregate.decompose import kemeny_decomposed
from repro.aggregate.kemeny import _held_karp, pair_cost_array
from repro.errors import AggregationError
from repro.generators.workloads import banded_profile_workload, random_profile_workload
from repro.verify.reference import held_karp_python, kemeny_monolithic

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: The acceptance instance: n >= 100 sparse-conflict items, certified
#: exact under a second. Never shrunk — the gate's reason to exist.
_BANDED_ITEMS = 120
_BANDED_RANKINGS = 5
_BAND = 6
_BANDED_TIE_BIAS = 0.3

#: Vectorized-vs-python DP comparison size (full -> CI smoke).
_DP_ITEMS = 11 if _SMOKE else 13
_COST_ITEMS = 60 if _SMOKE else 150
_COST_RANKINGS = 12 if _SMOKE else 40

_GATED_TIMINGS = (
    "decomposed_banded_s",
    "held_karp_vectorized_s",
    "pair_cost_array_s",
)
_GATED_SPEEDUPS = ("held_karp",)


def _banded_profile():
    return banded_profile_workload(
        _BANDED_ITEMS, _BANDED_RANKINGS, band=_BAND, seed=3, tie_bias=_BANDED_TIE_BIAS
    ).rankings


def _dp_counts(n):
    profile = random_profile_workload(n, 5, seed=4, tie_bias=0.3).rankings
    _, ahead, _ = pair_cost_array(profile)
    return ahead


class TestDecomposedSolve:
    def test_banded_instance_certified_exact(self, benchmark):
        """The monolithic solver refuses this instance; decomposition
        certifies the global optimum in milliseconds."""
        profile = _banded_profile()
        result = benchmark(kemeny_decomposed, profile, require_exact=True)
        assert result.exact
        assert result.largest_component <= _BAND
        assert len(result.ranking.domain) == _BANDED_ITEMS

    def test_monolithic_refuses_same_instance(self):
        profile = _banded_profile()
        try:
            kemeny_monolithic(profile)
        except AggregationError:
            pass
        else:  # pragma: no cover - the guard regressed
            raise AssertionError("monolithic solver accepted n=120")


class TestHeldKarp:
    def test_vectorized(self, benchmark):
        ahead = _dp_counts(_DP_ITEMS)
        order, value = benchmark(_held_karp, ahead, _DP_ITEMS)
        assert sorted(order) == list(range(_DP_ITEMS))
        assert value >= 0

    def test_python_reference(self, benchmark):
        ahead = _dp_counts(_DP_ITEMS)
        order, value = benchmark(held_karp_python, ahead, _DP_ITEMS)
        # identical to the vectorized DP, tie resolution included
        assert (order, value) == _held_karp(ahead, _DP_ITEMS)


# ----------------------------------------------------------------------
# BENCH_KEMENY.json regeneration and the --check regression gate
# ----------------------------------------------------------------------


def _best_of(fn, *args, repeats=3, **kwargs):
    from conftest import best_of

    return best_of(fn, *args, repeats=repeats, **kwargs)


def _banded_acceptance(repeats=5):
    """The headline: n=120 banded profile solved exactly, under a second."""
    profile = _banded_profile()
    seconds, result = _best_of(kemeny_decomposed, profile, require_exact=True, repeats=repeats)
    histogram: dict[int, int] = {}
    for component in result.components:
        histogram[len(component)] = histogram.get(len(component), 0) + 1
    return {
        "n_items": _BANDED_ITEMS,
        "m_rankings": _BANDED_RANKINGS,
        "band": _BAND,
        "seconds": round(seconds, 5),
        "exact": result.exact,
        "components": len(result.components),
        "largest_component": result.largest_component,
        "component_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "dp_states": result.dp_states,
        "objective": result.objective,
    }


def _held_karp_comparison(n, repeats=3):
    """Vectorized vs Python-reference DP at one size, identity checked."""
    ahead = _dp_counts(n)
    t_vec, vec = _best_of(_held_karp, ahead, n, repeats=repeats)
    t_ref, ref = _best_of(held_karp_python, ahead, n, repeats=repeats)
    assert vec == ref
    states = 1 << n
    return {
        "n_items": n,
        "dp_states": states,
        "vectorized_s": round(t_vec, 5),
        "python_s": round(t_ref, 5),
        "speedup": round(t_ref / t_vec, 2),
        "vectorized_ns_per_state": round(t_vec / states * 1e9, 1),
    }


def _cost_timing(n, m, repeats=5):
    profile = random_profile_workload(n, m, seed=2).rankings
    seconds, (items, _, _) = _best_of(pair_cost_array, profile, repeats=repeats)
    return {"n_items": len(items), "m_rankings": m, "seconds": round(seconds, 5)}


def _smoke_measurements():
    """The fixed-size timings the CI gate compares run-over-run.

    The banded acceptance solve runs at full size even under
    ``REPRO_BENCH_SMOKE`` so the under-a-second claim is checked on
    every CI run, not only on regeneration machines.
    """
    banded = _banded_acceptance(repeats=5)
    dp = _held_karp_comparison(11, repeats=5)
    cost = _cost_timing(60, 12, repeats=7)
    return {
        "sizes": {"banded": "120x5 band=6", "held_karp": "n=11", "cost": "60x12"},
        "timings": {
            "decomposed_banded_s": banded["seconds"],
            "held_karp_vectorized_s": dp["vectorized_s"],
            "held_karp_python_s": dp["python_s"],
            "pair_cost_array_s": cost["seconds"],
        },
        "speedups": {"held_karp": dp["speedup"]},
        "acceptance": {
            "banded_exact": banded["exact"],
            "banded_seconds": banded["seconds"],
            "banded_n": banded["n_items"],
        },
    }


def check_against_baseline(baseline: dict, fresh: dict) -> list[str]:
    """Gate failures: >2x slowdown, halved DP speedup, or a broken
    acceptance claim (n>=100 certified exact under one second)."""
    failures = []
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
    acceptance = fresh["acceptance"]
    if not acceptance["banded_exact"]:
        failures.append("banded n=120 solve is no longer certified exact")
    if acceptance["banded_n"] < 100:
        failures.append(
            f"acceptance instance shrank to n={acceptance['banded_n']} < 100"
        )
    if acceptance["banded_seconds"] >= 1.0:
        failures.append(
            f"banded n=120 exact solve took {acceptance['banded_seconds']:.3f}s "
            ">= the 1s acceptance ceiling"
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
    return report_failures(check_against_baseline(baseline, fresh), "kemeny perf gate")


def _regenerate() -> int:
    from conftest import machine_info, write_baseline

    payload = {
        "pr": 9,
        "machine": machine_info(),
        "banded_120x5": _banded_acceptance(),
        "held_karp_13": _held_karp_comparison(13),
        "cost_150x40": _cost_timing(150, 40),
        "smoke": _smoke_measurements(),
    }
    write_baseline("BENCH_KEMENY.json", payload)
    banded = payload["banded_120x5"]
    print(
        f"banded n={banded['n_items']}: exact={banded['exact']} "
        f"in {banded['seconds']}s "
        f"({banded['components']} components, largest {banded['largest_component']})"
    )
    dp = payload["held_karp_13"]
    print(f"held_karp n=13: {dp['speedup']}x over the python reference")
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
