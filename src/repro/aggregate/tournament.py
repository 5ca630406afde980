"""Pairwise-majority (Condorcet) structure of an aggregation instance.

The exact Kemeny objective decomposes over pairs (see
:mod:`repro.aggregate.kemeny`), so the instance's difficulty is entirely
captured by its *majority tournament*: the directed graph with an edge
``x -> y`` whenever ranking ``x`` before ``y`` is strictly cheaper than
the opposite. Classical facts, all executable here:

* if the tournament is **acyclic**, any topological order is an exactly
  optimal aggregation and the pairwise lower bound is tight;
* a **Condorcet winner** (beats everything) exists in particular, and the
  paper's median/MEDRANK algorithms tend to find it;
* cycles are what make Kemeny aggregation NP-hard — E14 measured that they
  are rare on random bucket-order profiles, which this module lets callers
  check per instance before paying for the exponential solver.

The tournament is the dominance digraph ``ahead < ahead.T`` of
:mod:`repro.aggregate.decompose`: it is acyclic exactly when every
strongly-connected component is a single item. It is read off the integer
disagreement counts, so it does not depend on the tie penalty ``p``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.aggregate.decompose import dominance_components, kemeny_decomposed
from repro.aggregate.kemeny import pair_cost_array
from repro.aggregate.objective import validate_penalty, validate_profile
from repro.core.partial_ranking import Item, PartialRanking
from repro.errors import AggregationError

__all__ = [  # repro: noqa[RP011] — Condorcet structure diagnostics, not a hot path
    "is_condorcet_consistent",
    "condorcet_winner",
    "topological_aggregation",
]


def is_condorcet_consistent(rankings: Sequence[PartialRanking]) -> bool:
    """True if the majority digraph is acyclic.

    Acyclic instances are *easy*: the pairwise lower bound is attainable
    and :func:`topological_aggregation` is exactly optimal.
    """
    _, ahead, _ = pair_cost_array(rankings)
    return all(len(component) == 1 for component in dominance_components(ahead))


def condorcet_winner(rankings: Sequence[PartialRanking]) -> Item | None:
    """The item strictly beating every other item, if one exists."""
    items, ahead, _ = pair_cost_array(rankings)
    beats = ahead < ahead.T
    np.fill_diagonal(beats, True)
    winners = np.flatnonzero(beats.all(axis=1))
    return items[int(winners[0])] if winners.size else None


def topological_aggregation(
    rankings: Sequence[PartialRanking],
    p: float = 0.5,
) -> tuple[PartialRanking, float]:
    """Exactly optimal full-ranking aggregation for acyclic instances.

    Orders the items topologically along the majority digraph (items with
    no strict preference between them are ordered canonically), achieving
    the pairwise lower bound: :func:`~repro.aggregate.decompose.kemeny_decomposed`
    with a DP cap of one item, so a cycle is refused before any DP runs.
    Raises :class:`AggregationError` on cyclic instances; use
    ``kemeny_decomposed`` (or median aggregation) there.
    """
    # validate up front so the only refusal left below is the cycle
    validate_penalty(p)
    validate_profile(rankings)
    try:
        result = kemeny_decomposed(rankings, p, max_exact=1, require_exact=True)
    except AggregationError as cycle:
        raise AggregationError(
            "majority digraph has a Condorcet cycle; no topological aggregation "
            "exists (use kemeny_decomposed or median aggregation)"
        ) from cycle
    return result.ranking, result.objective
