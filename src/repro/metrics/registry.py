"""The process-wide metric plugin registry (the pluggable-metric subsystem).

The paper's four metrics used to be hard-wired into
:func:`~repro.metrics.batch.pairwise_distance_matrix`, the verify
registry, and the experiment runner. This module turns "a metric" into a
first-class value — a :class:`MetricPlugin` bundling

* a canonical **name** plus accepted alias spellings,
* the **scalar** two-ranking kernel (the object layer),
* the **batch** all-pairs kernel (must be bit-for-bit equal to the
  scalar kernel on every entry — the repo-wide exactness promise),
* a deliberately naive **oracle** reference the verify harness
  differential-tests both kernels against,
* the **axiom class** (``"metric"`` or ``"near-metric"``) and, where the
  penalty parameter applies, the supported ``p``-range,
* optionally the per-domain **maximum value** used by the normalized
  ([0, 1]-scaled) variant,
* optionally a **candidate scorer** that scores many full rankings
  against a profile in one array pass (exact ``aggregate()`` uses it;
  each entry must equal the scalar kernel bit for bit).

The four built-in metrics register themselves when
:mod:`repro.metrics.batch` is imported; the first-party plugins under
:mod:`repro.metrics.plugins` register on import of :mod:`repro.metrics`.
Third-party code registers the same way (see ``docs/METRICS.md``) and
immediately resolves through every name-based dispatch surface —
``pairwise_distance_matrix``, ``aggregate(...)``, the serving layer's
distance route, the experiment runner, and the verify harness, which
auto-contributes an ``oracle:`` and symmetry/regularity ``relation:``
check per plugin.

Unknown names raise :class:`~repro.errors.UnknownMetricError` with one
shared message listing every registered spelling, so all dispatch
surfaces fail identically.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.core.partial_ranking import PartialRanking
from repro.errors import UnknownMetricError

__all__ = [  # repro: noqa[RP011] — pure name-resolution layer; the resolved kernels are instrumented
    "MetricPlugin",
    "register_metric",
    "unregister_metric",
    "registered_metrics",
    "metric_names",
    "canonical_metric",
    "get_metric",
    "AXIOM_CLASSES",
]

#: Valid ``axiom_class`` values: a genuine metric, or a near metric that
#: satisfies the relaxed triangle inequality with a finite constant.
AXIOM_CLASSES = ("metric", "near-metric")

#: A scalar two-ranking kernel: ``d(sigma, tau, ...)``.
ScalarKernel = Callable[..., float]

#: An all-pairs kernel: ``(profile, ...) -> (m, m) float64 matrix``.
BatchKernel = Callable[..., npt.NDArray[np.float64]]

#: Scores full rankings against a fixed profile: ``ranks -> (N, m)``.
CandidateScore = Callable[[npt.NDArray[np.integer[Any]]], npt.NDArray[np.float64]]

#: Prepares a :data:`CandidateScore` for one profile (per-voter state is
#: built once, then reused for every chunk of candidates).
CandidateScorer = Callable[[Sequence[PartialRanking]], CandidateScore]


@dataclass(frozen=True, slots=True)
class MetricPlugin:
    """One pluggable distance: kernels, reference oracle, and metadata.

    ``scalar``, ``batch``, and ``oracle`` must agree **bit for bit** on
    every input (positions are multiples of ½ and plugin weights are
    dyadic rationals, so exact float agreement is achievable and the
    verify harness asserts it with ``==``). ``batch`` accepts the batch
    layer's profile types and the keyword arguments ``p`` and ``jobs``
    (parameters it does not use are accepted and ignored, so dispatch
    stays uniform).
    """

    name: str
    aliases: tuple[str, ...]
    citation: str
    scalar: ScalarKernel
    batch: BatchKernel
    oracle: ScalarKernel
    axiom_class: str
    #: Closed ``[lo, hi]`` range of the supported penalty parameter, or
    #: None when the metric takes no ``p``.
    p_range: tuple[float, float] | None = None
    #: ``n -> bound`` with ``d <= bound`` over all pairs of partial
    #: rankings of an n-item domain (powers the normalized variant).
    #: Exact suprema for the built-ins; plugins may supply a proven
    #: upper bound. None when no closed form is provided.
    max_value: Callable[[int], float] | None = None
    #: Optional array hook for exact aggregation: ``candidate_scorer(profile)``
    #: returns ``score(ranks)``, where ``ranks`` is an ``(N, n)`` integer
    #: array of full rankings (``ranks[c, s]`` is the 1-based position of
    #: codec slot ``s`` in candidate ``c``) and the result is the
    #: ``(N, m)`` float64 matrix whose ``[c, v]`` entry equals
    #: ``scalar(candidate c, profile[v])`` bit for bit. Without it,
    #: ``aggregate()`` fills the same matrix with scalar calls.
    candidate_scorer: CandidateScorer | None = None
    #: True for the four paper metrics (their oracle/relation checks are
    #: hand-curated in repro.verify; plugins get auto-contributed ones).
    builtin: bool = field(default=False)

    def __post_init__(self) -> None:
        if self.axiom_class not in AXIOM_CLASSES:
            raise ValueError(
                f"axiom_class {self.axiom_class!r} not in {AXIOM_CLASSES}"
            )

    def names(self) -> tuple[str, ...]:
        """The canonical name followed by every accepted alias."""
        return (self.name, *self.aliases)


_LOCK = threading.Lock()
#: Canonical name -> plugin, in registration order.
_REGISTRY: dict[str, MetricPlugin] = {}
#: Every accepted spelling -> canonical name.
_ALIASES: dict[str, str] = {}


def register_metric(plugin: MetricPlugin) -> MetricPlugin:
    """Register a plugin process-wide; returns it for decorator-ish use.

    Raises ``ValueError`` on a name/alias collision with an
    already-registered plugin (re-registering the exact same plugin
    object is a no-op, so module re-imports are safe); an invalid
    ``axiom_class`` already fails at :class:`MetricPlugin` construction.
    """
    with _LOCK:
        existing = _REGISTRY.get(plugin.name)
        if existing is plugin:
            return plugin
        taken = [spelling for spelling in plugin.names() if spelling in _ALIASES]
        if taken:
            raise ValueError(
                f"metric name(s) {taken!r} already registered; pick unique "
                "names/aliases or unregister_metric() first"
            )
        _REGISTRY[plugin.name] = plugin
        for spelling in plugin.names():
            _ALIASES[spelling] = plugin.name
    return plugin


def unregister_metric(name: str) -> None:
    """Remove a plugin (tests only; unknown names raise the shared error)."""
    with _LOCK:
        canonical = _ALIASES.get(name)
        if canonical is None:
            raise UnknownMetricError(_unknown_message(name))
        plugin = _REGISTRY.pop(canonical)
        for spelling in plugin.names():
            _ALIASES.pop(spelling, None)


def registered_metrics() -> tuple[MetricPlugin, ...]:
    """Every registered plugin, in registration order."""
    with _LOCK:
        return tuple(_REGISTRY.values())


def metric_names() -> tuple[str, ...]:
    """Every accepted spelling (canonical names and aliases), sorted."""
    with _LOCK:
        return tuple(sorted(_ALIASES))


def _unknown_message(name: str) -> str:
    return f"unknown metric {name!r}; expected one of {sorted(_ALIASES)}"


def canonical_metric(name: str) -> str:
    """Resolve any accepted spelling to the canonical plugin name."""
    return get_metric(name).name


def get_metric(name: str) -> MetricPlugin:
    """The plugin registered under ``name`` (canonical or alias).

    Raises :class:`~repro.errors.UnknownMetricError` — the one shared
    unknown-metric error every dispatch surface produces — listing all
    registered spellings.
    """
    with _LOCK:
        canonical = _ALIASES.get(name)
        if canonical is None:
            raise UnknownMetricError(_unknown_message(name))
        return _REGISTRY[canonical]
