"""Aggregation objectives: distance of a candidate to the input profile.

The *median* aggregation problem for a metric ``d`` asks for the ranking
minimizing ``sum_i d(candidate, sigma_i)``; the *minmax* (egalitarian)
problem minimizes ``max_i d(candidate, sigma_i)`` instead (arXiv
1701.08305 — no voter is left arbitrarily far from the consensus). This
module evaluates both objectives for any metric registered in the plugin
registry (:mod:`repro.metrics.registry`), plus the raw
``L1``-to-score-function objective used by Lemma 8 and Theorems 9–11.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

import repro.metrics.batch  # noqa: F401 — registers the built-in metric plugins
from repro.core.partial_ranking import Item, PartialRanking
from repro.errors import AggregationError
from repro.metrics.footrule import footrule
from repro.metrics.hausdorff import footrule_hausdorff, kendall_hausdorff_counts
from repro.metrics.kendall import kendall
from repro.metrics.registry import get_metric

__all__ = [  # repro: noqa[RP011] — objective evaluation sums over instrumented metrics
    "METRICS",
    "total_distance",
    "max_distance",
    "total_l1_to_function",
    "validate_profile",
    "validate_max_exact",
    "validate_penalty",
    "resolve_metric",
]

#: Name -> metric function registry used across experiments and baselines.
#: Retained for back-compat; name resolution goes through the metric
#: plugin registry, so registered plugins (``weighted_footrule``,
#: ``top_difference``, third-party) resolve here too.
METRICS: dict[str, Callable[[PartialRanking, PartialRanking], float]] = {
    "k_prof": kendall,
    "f_prof": footrule,
    "k_haus": lambda s, t: float(kendall_hausdorff_counts(s, t)),
    "f_haus": footrule_hausdorff,
}


def resolve_metric(  # repro: noqa[RP002] — name resolution only; consumes no rankings
    metric: str | Callable[[PartialRanking, PartialRanking], float],
) -> Callable[[PartialRanking, PartialRanking], float]:
    """A scalar metric callable from a registry name or a callable.

    Unknown names raise the registry's shared
    :class:`~repro.errors.UnknownMetricError` (an
    :class:`AggregationError`) listing every registered spelling.
    """
    if not isinstance(metric, str):
        return metric
    return get_metric(metric).scalar


def validate_profile(rankings: Sequence[PartialRanking]) -> frozenset[Item]:
    """Validate an aggregation input profile and return its common domain.

    Raises :class:`AggregationError` on an empty profile or mismatched
    domains.
    """
    if not rankings:
        raise AggregationError("aggregation requires at least one input ranking")
    domain = rankings[0].domain
    for index, ranking in enumerate(rankings[1:], start=1):
        if ranking.domain != domain:
            raise AggregationError(
                f"input ranking {index} has a different domain than input 0"
            )
    return domain


def validate_max_exact(max_exact: object) -> None:
    """Raise :class:`AggregationError` unless ``max_exact`` is an ``int`` ≥ 1."""
    if isinstance(max_exact, bool) or not isinstance(max_exact, int):
        raise AggregationError(
            f"max_exact={max_exact!r} must be an int, not {type(max_exact).__name__}"
        )
    if max_exact < 1:
        raise AggregationError(f"max_exact={max_exact} must be at least 1")


def validate_penalty(p: float) -> None:
    """Raise :class:`AggregationError` unless the tie penalty ``p`` is in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise AggregationError(f"penalty parameter p={p} outside [0, 1]")


def total_distance(
    candidate: PartialRanking,
    rankings: Sequence[PartialRanking],
    metric: str | Callable[[PartialRanking, PartialRanking], float] = "f_prof",
) -> float:
    """``sum_i d(candidate, sigma_i)`` for a named or custom metric."""
    domain = validate_profile(rankings)
    if candidate.domain != domain:
        raise AggregationError("candidate domain differs from the input profile's domain")
    metric_fn = resolve_metric(metric)
    return sum(metric_fn(candidate, sigma) for sigma in rankings)


def max_distance(
    candidate: PartialRanking,
    rankings: Sequence[PartialRanking],
    metric: str | Callable[[PartialRanking, PartialRanking], float] = "f_prof",
) -> float:
    """``max_i d(candidate, sigma_i)`` — the egalitarian (minmax) objective.

    The minmax counterpart of :func:`total_distance` (arXiv 1701.08305):
    the worst-off voter's distance to the candidate. Same domain
    validation and metric resolution as the median objective.
    """
    domain = validate_profile(rankings)
    if candidate.domain != domain:
        raise AggregationError("candidate domain differs from the input profile's domain")
    metric_fn = resolve_metric(metric)
    return max(metric_fn(candidate, sigma) for sigma in rankings)


def total_l1_to_function(
    f: Mapping[Item, float],
    rankings: Sequence[PartialRanking],
) -> float:
    """``sum_i L1(f, sigma_i)`` for an arbitrary score function ``f``.

    This is the objective of Lemma 8: the median function minimizes it over
    all functions ``g: D -> R``.
    """
    domain = validate_profile(rankings)
    if set(f) != set(domain):
        raise AggregationError("function domain differs from the input profile's domain")
    return sum(
        # the Lemma 8 objective *definition*, kept as the readable reference
        sum(abs(f[item] - sigma[item]) for item in domain)  # repro: noqa[RP009]
        for sigma in rankings
    )
