"""repro.analysis — domain-aware static analysis and runtime contracts.

Two halves, cross-referencing each other:

* a **static-analysis framework** (:mod:`repro.analysis.engine`,
  :mod:`repro.analysis.rules`, :mod:`repro.analysis.reporters`) with fourteen
  shipped RPxxx rules, ``# repro: noqa[RPxxx]`` suppressions, text/JSON/SARIF
  reporters, and the ``python -m repro.analysis`` CLI — the repository's
  correctness gate;
* a **runtime-contract layer** (:mod:`repro.analysis.contracts`):
  :func:`checked_metric` attaches the paper's distance axioms
  (non-negativity, regularity, symmetry, near-triangle with the
  Proposition 13 constants) to the four shipped metrics as postconditions,
  active under ``REPRO_DEBUG=1``.

This module imports eagerly only the contract layer (stdlib-only, needed
by ``repro.metrics`` at import time); the analysis engine loads lazily on
first attribute access so metric call paths never pay for it.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalog and how to add rules.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.contracts import (
    ENV_FLAG,
    checked_metric,
    contracts_enabled,
    near_triangle_constant,
)

__all__ = [
    "ENV_FLAG",
    "checked_metric",
    "contracts_enabled",
    "near_triangle_constant",
    # lazily loaded engine API:
    "Severity",
    "Finding",
    "Rule",
    "AnalysisResult",
    "register",
    "registered_rules",
    "analyze_paths",
    "analyze_source",
    "render_text",
    "render_json",
]

_ENGINE_EXPORTS = frozenset(
    {
        "Severity",
        "Finding",
        "Rule",
        "AnalysisResult",
        "register",
        "registered_rules",
        "analyze_paths",
        "analyze_source",
    }
)
_REPORTER_EXPORTS = frozenset({"render_text", "render_json"})


def __getattr__(name: str) -> Any:
    if name in _ENGINE_EXPORTS:
        from repro.analysis import engine

        return getattr(engine, name)
    if name in _REPORTER_EXPORTS:
        from repro.analysis import reporters

        return getattr(reporters, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
