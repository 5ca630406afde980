"""The reference every sampled distance answer is checked against."""

from __future__ import annotations

import repro.metrics.plugins  # noqa: F401 - registers the two plugin metrics
from repro.core.partial_ranking import PartialRanking
from repro.metrics.registry import get_metric

#: The penalty the server and the batch kernels use when none is given.
P = 0.5


def scalar_distance(metric: str, sigma: PartialRanking, tau: PartialRanking) -> float:
    """The two-ranking metric, as registered, at the default penalty."""
    plugin = get_metric(metric)
    if plugin.p_range is None:
        return float(plugin.scalar(sigma, tau))
    return float(plugin.scalar(sigma, tau, p=P))
