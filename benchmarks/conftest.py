"""Shared benchmark fixtures and the unified ``--check`` gate CLI.

Each ``bench_e*.py`` file wraps one EXPERIMENTS.md experiment: the
benchmark measures the runner's wall time at reduced-but-representative
parameters, and the test body re-asserts the experiment's headline claim so
a benchmark run doubles as a reproduction check.

Run with::

    pytest benchmarks/ --benchmark-only

The gated scripts (``bench_aggregate.py``, ``bench_kemeny.py``,
``bench_obs.py``, ``bench_plugins.py``, ``bench_scale.py``,
``bench_serve.py``) additionally share one CLI shape, implemented here so
the gates cannot drift apart:

* no arguments — regenerate the committed baseline JSON at the repo root
  (:func:`write_baseline`, stamped with :func:`machine_info`);
* ``--check BASELINE`` — re-measure and exit non-zero on regression,
  with failures printed as ``REGRESSION: ...`` lines on stderr
  (:func:`report_failures`), so CI logs look identical across gates.

Scripts import these helpers lazily inside ``main()`` — when executed as
``python benchmarks/bench_X.py`` the benchmarks directory is
``sys.path[0]`` and ``import conftest`` resolves here; under pytest the
gate CLI never runs.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest

from repro.generators.workloads import (
    db_profile_workload,
    mallows_profile_workload,
    random_profile_workload,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def best_of(fn, *args, repeats: int = 3, **kwargs):
    """``(best_seconds, last_result)`` over ``repeats`` timed calls.

    The minimum is the classic noise-robust estimator (what ``timeit``
    reports): scheduler spikes only ever make a call slower.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def machine_info() -> dict:
    """The provenance stamp every committed baseline carries."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def load_baseline(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_baseline(filename: str, payload: dict) -> Path:
    """Write a baseline JSON at the repo root and announce it."""
    target = REPO_ROOT / filename
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return target


def report_failures(failures: list[str], gate_name: str) -> int:
    """Print ``REGRESSION:`` lines (stderr) or the OK line; return exit code."""
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if not failures:
        print(f"{gate_name}: OK")
    return 1 if failures else 0


def gate_main(
    argv: list[str] | None,
    *,
    description: str | None,
    check_help: str,
    check,
    regenerate,
) -> int:
    """The shared ``--check BASELINE`` / regenerate argument parser.

    ``check`` receives the parsed baseline dict and returns an exit code;
    ``regenerate`` takes no arguments and returns an exit code.
    """
    import argparse

    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--check", metavar="BASELINE", help=check_help)
    options = parser.parse_args(argv)
    if options.check:
        return check(load_baseline(options.check))
    return regenerate()


@pytest.fixture(scope="session")
def mallows_workload():
    return mallows_profile_workload(80, 5, phi=0.3, seed=0, max_bucket=6)


@pytest.fixture(scope="session")
def random_workload():
    return random_profile_workload(80, 5, seed=0, tie_bias=0.5)


@pytest.fixture(scope="session")
def restaurant_workload():
    return db_profile_workload(80, seed=0, catalog="restaurants")
