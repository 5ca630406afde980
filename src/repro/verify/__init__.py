"""Differential + metamorphic verification of the metric implementations.

The library ships three structurally different implementations of every
paper metric (object-level definitions, array kernels, batch matrices)
plus process-pool execution paths, all promising bit-for-bit agreement.
This package turns that promise — and the paper's theorems — into a
continuously executable harness:

* :mod:`repro.verify.oracles` — the oracle registry: reference
  implementations paired with their fast/batch/parallel variants;
* :mod:`repro.verify.relations` — paper theorems as metamorphic checks;
* :mod:`repro.verify.reference` — the plain reference implementations
  (dict medians, Python Held–Karp) kept only as oracles;
* :mod:`repro.verify.registry` — the flat check namespace and runner;
* :mod:`repro.verify.fuzz` — the seeded fuzz driver over
  :mod:`repro.generators` workloads;
* :mod:`repro.verify.shrink` / :mod:`repro.verify.replay` — minimal
  reproducers and deterministic replay files;
* :mod:`repro.verify.selftest` — the harness verifying itself against a
  deliberately injected mutation.

Run it: ``python -m repro.verify --rounds 50 --seed 0`` (see
``docs/TESTING.md``).
"""

from repro.verify.fuzz import Discrepancy, FuzzReport, run_fuzz
from repro.verify.oracles import OracleEntry, Rankings, oracle_entries, values_equal
from repro.verify.registry import (
    CheckInfo,
    all_checks,
    covered_names,
    find_check,
    run_check,
    select_checks,
)
from repro.verify.relations import Relation, relations
from repro.verify.replay import load_replay, replay_file, write_replay
from repro.verify.selftest import SELFTEST_CHECK_ID, SelfTestResult, run_selftest
from repro.verify.shrink import shrink_case

__all__ = [
    "OracleEntry",
    "Rankings",
    "oracle_entries",
    "values_equal",
    "Relation",
    "relations",
    "CheckInfo",
    "all_checks",
    "find_check",
    "select_checks",
    "run_check",
    "covered_names",
    "Discrepancy",
    "FuzzReport",
    "run_fuzz",
    "shrink_case",
    "write_replay",
    "load_replay",
    "replay_file",
    "SELFTEST_CHECK_ID",
    "SelfTestResult",
    "run_selftest",
]
