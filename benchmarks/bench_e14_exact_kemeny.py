"""Benchmark + reproduction check for E14 (exact Kemeny vs median)."""

from __future__ import annotations

from repro.experiments import e14_exact_kemeny


def test_e14_exact_kemeny(benchmark):
    table, _ = benchmark(e14_exact_kemeny.run, seed=0, sizes=(6, 10), m=5, trials=5)
    for row in table.rows:
        # the optimum can never beat the pairwise lower bound, and median's
        # measured ratio stays far inside its proved constant factor
        assert row["optimum_over_lower_bound"] >= 1.0 - 1e-9
        assert row["median_max"] <= 6.0  # the transferred constant (3 * 2)
    # exact solving gets more expensive with n; median does not blow up
    assert table.rows[-1]["exact_seconds_total"] >= table.rows[0]["exact_seconds_total"]
