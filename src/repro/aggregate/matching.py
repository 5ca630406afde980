"""Optimal footrule aggregation via minimum-cost perfect matching.

The paper's footnote 4 recalls that computing an *optimal* solution to the
Spearman footrule aggregation problem (full-ranking output) requires a
minimum-cost perfect matching: match each item ``x`` to an output position
``p`` in ``1..n`` at cost ``sum_i |sigma_i(x) - p|``; an optimal matching is
an optimal full-ranking aggregation, because ``F_prof`` only depends on the
positions. The median algorithm's selling point is matching this quality to
within a small constant *without* solving a matching — experiments E7 and
E9 quantify the gap.

The assignment problem is solved with SciPy's Jonker–Volgenant solver.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import obs
from repro.aggregate.objective import validate_profile
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import PartialRanking

__all__ = ["optimal_footrule_aggregation"]


def optimal_footrule_aggregation(
    rankings: Sequence[PartialRanking],
) -> tuple[PartialRanking, float]:
    """Return an optimal full-ranking footrule aggregation and its cost.

    Minimizes ``sum_i F_prof(out, sigma_i)`` over all full rankings
    ``out``. Runs in O(n³) via the assignment problem — the expensive exact
    comparator to median aggregation. The item×slot cost matrix takes one
    O(n²) broadcast per ranking; every entry is a sum of half-integers,
    hence exact in float64.
    """
    # imported here, not at module level: only this comparator needs it,
    # and it costs every `import repro` about 0.4 s and 45 MB otherwise
    from scipy.optimize import linear_sum_assignment

    validate_profile(rankings)
    codec = DomainCodec.for_profile(rankings)
    items = list(codec.items)  # canonical key order, as before
    n = len(items)

    with obs.trace("aggregate.matching.assignment", m=len(rankings), n=n):
        obs.add("aggregate.matching.cells", len(rankings) * n * n)
        slots = np.arange(1, n + 1, dtype=float)
        cost = np.zeros((n, n))
        for sigma in rankings:
            positions = sigma.dense_arrays(codec)[1]
            cost += np.abs(positions[:, None] - slots[None, :])

        rows, cols = linear_sum_assignment(cost)
        order: list = [None] * n
        for row, col in zip(rows, cols):
            order[col] = items[row]
        total_cost = float(cost[rows, cols].sum())
        return PartialRanking.from_sequence(order), total_cost
