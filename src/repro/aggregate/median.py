"""Median rank aggregation (paper §6, Theorems 9–11 and Corollaries 30–32).

Given input partial rankings ``sigma_1, ..., sigma_m`` over a common domain,
the median score function ``f(d) = median(sigma_1(d), ..., sigma_m(d))``
minimizes ``sum_i L1(g, sigma_i)`` over all functions ``g`` (Lemma 8). The
paper then derives constant-factor-approximate aggregations from ``f``:

* **top-k output** (Theorem 9 / Corollary 30): sort by median score, take
  the first k — a factor-3 approximation w.r.t. ``F_prof`` among top-k
  lists (factor 2 if the inputs all have the output's type).
* **full-ranking output** (Theorem 11 / Corollary 32): any refinement of
  the partial ranking induced by ``f`` — factor 2 for full-ranking inputs.
* **partial-ranking output** (Theorem 10 / Corollary 31): the partial
  ranking ``f†`` closest in L1 to ``f`` (computed by the Figure 1 dynamic
  program in :mod:`repro.aggregate.dp`) — factor 2 against all partial
  rankings when the inputs are partial rankings.

When ``m`` is even the paper's ``median(a_1..a_m)`` is a *set*
``{a_{m/2}, a_{m/2+1}, (a_{m/2}+a_{m/2+1})/2}``; every member satisfies
Lemma 8, and the ``tie`` parameter selects which one to use.

Every output is computed by the position-matrix kernels of
:mod:`repro.aggregate.batch`, which encode the profile once into an
``(m, n)`` matrix. The readable per-item statement of the definitions —
gathers plus scalar :func:`median_of` calls — lives in
:mod:`repro.verify.reference` as the oracle those kernels are checked
against bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal

from repro import obs
from repro.aggregate.objective import validate_profile
from repro.core.partial_ranking import Item, PartialRanking
from repro.errors import AggregationError

MedianTie = Literal["mid", "low", "high"]

__all__ = [
    "median_of",
    "median_scores",
    "median_top_k",
    "median_full_ranking",
    "median_partial_ranking",
    "median_fixed_type",
    "MedianAggregator",
]

def _check_tie(tie: str) -> None:
    if tie not in ("low", "mid", "high"):
        raise AggregationError(f"unknown median tie rule {tie!r}")


def _validated_weights(
    weights: Sequence[float] | None, count: int, noun: str = "values"
) -> list[float] | None:
    """Validate a weight vector once, up front (not once per item).

    Returns the weights as a plain list (so an exhausted iterator or a
    numpy array behave identically downstream), or ``None`` for the
    unweighted path.
    """
    if weights is None:
        return None
    checked = list(weights)
    if len(checked) != count:
        raise AggregationError(f"{len(checked)} weights for {count} {noun}")
    if any(w <= 0 for w in checked):
        raise AggregationError("weights must be strictly positive")
    return checked


def median_of(
    values: Sequence[float],
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> float:
    """Return a member of the paper's median set of a list of numbers.

    For odd length this is the middle element. For even length the median
    set is ``{lower middle, upper middle, their average}``; ``tie`` picks
    which member to return.

    With ``weights`` (positive, one per value), returns a *weighted*
    median: a point minimizing ``sum_i w_i |x - a_i|``. When the optimal
    set is an interval, ``tie`` selects its lower end, upper end, or
    midpoint — mirroring the unweighted median-set semantics. Lemma 8
    generalizes verbatim: any weighted median minimizes the weighted L1
    objective, which the property tests verify.
    """
    if not values:
        raise AggregationError("median of an empty list is undefined")
    _check_tie(tie)
    return _median_of_checked(values, tie, _validated_weights(weights, len(values)))


def _median_of_checked(
    values: Sequence[float], tie: MedianTie, weights: Sequence[float] | None
) -> float:
    """:func:`median_of` with validation already performed by the caller."""
    if weights is None:
        ordered = sorted(values)
        m = len(ordered)
        if m % 2 == 1:
            return ordered[m // 2]
        low, high = ordered[m // 2 - 1], ordered[m // 2]
    else:
        pairs = sorted(zip(values, weights))
        total = sum(weight for _, weight in pairs)
        half = total / 2
        # lower weighted median: first value whose prefix weight reaches
        # half the total; upper: last value whose suffix weight reaches it
        cumulative = 0.0
        low = high = pairs[-1][0]
        for value, weight in pairs:
            cumulative += weight
            if cumulative >= half:
                low = value
                break
        cumulative = 0.0
        for value, weight in reversed(pairs):
            cumulative += weight
            if cumulative >= half:
                high = value
                break
    if tie == "low":
        return low
    if tie == "high":
        return high
    return (low + high) / 2


# The kernels import this module's validation helpers, so each entry
# point imports them at call time rather than at module load.


@obs.traced("aggregate.median_scores")
def median_scores(
    rankings: Sequence[PartialRanking],
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> dict[Item, float]:
    """The median score function ``f(d) = median_i sigma_i(d)``.

    By Lemma 8 this minimizes ``sum_i L1(f, sigma_i)`` over all functions.
    Optional ``weights`` (one positive weight per input ranking) give the
    weighted-voter generalization: the weighted median minimizes
    ``sum_i w_i L1(f, sigma_i)`` (see docs/THEORY.md, Lemma 8W).
    """
    from repro.aggregate.batch import median_scores_batch

    return median_scores_batch(rankings, tie=tie, weights=weights)


@obs.traced("aggregate.median_top_k")
def median_top_k(
    rankings: Sequence[PartialRanking],
    k: int,
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> PartialRanking:
    """Theorem 9: the median top-k list.

    The first k items of the median order become singleton buckets;
    everything else is the bottom bucket. Guaranteed within factor 3 of the
    optimal top-k list w.r.t. ``sum_i F_prof``.
    """
    from repro.aggregate.batch import median_top_k_batch

    return median_top_k_batch(rankings, k, tie=tie, weights=weights)


@obs.traced("aggregate.median_full_ranking")
def median_full_ranking(
    rankings: Sequence[PartialRanking],
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> PartialRanking:
    """Theorem 11: a full ranking refining the median-induced ranking.

    Ties in the median scores are broken canonically. For full-ranking
    inputs this is a factor-2 approximation w.r.t. ``sum_i F``.
    """
    from repro.aggregate.batch import median_full_ranking_batch

    return median_full_ranking_batch(rankings, tie=tie, weights=weights)


@obs.traced("aggregate.median_partial_ranking")
def median_partial_ranking(
    rankings: Sequence[PartialRanking],
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> PartialRanking:
    """Theorem 10: the partial ranking ``f†`` closest in L1 to the median.

    Uses the O(n²) dynamic program of Figure 1; a factor-2 approximation
    against all partial rankings (for partial-ranking inputs).
    """
    from repro.aggregate.batch import median_partial_ranking_batch

    return median_partial_ranking_batch(rankings, tie=tie, weights=weights)


@obs.traced("aggregate.median_fixed_type")
def median_fixed_type(
    rankings: Sequence[PartialRanking],
    bucket_type: Sequence[int],
    tie: MedianTie = "mid",
) -> PartialRanking:
    """Corollary 30: the median aggregation constrained to a given type.

    Items in median order are grouped into consecutive buckets of the
    prescribed sizes; the result is the type-``alpha`` partial ranking
    consistent with the median scores, within factor 3 of the optimum over
    that type.
    """
    from repro.aggregate.batch import median_fixed_type_batch

    return median_fixed_type_batch(rankings, bucket_type, tie=tie)


@dataclass(frozen=True, slots=True)
class MedianAggregator:
    """Convenience object bundling all median-aggregation outputs.

    Example
    -------
    >>> from repro.core import PartialRanking
    >>> inputs = [
    ...     PartialRanking([["a"], ["b", "c"]]),
    ...     PartialRanking([["a", "b"], ["c"]]),
    ...     PartialRanking([["b"], ["a"], ["c"]]),
    ... ]
    >>> agg = MedianAggregator(tuple(inputs))
    >>> agg.full_ranking().items_in_order()
    ['a', 'b', 'c']
    """

    rankings: tuple[PartialRanking, ...]
    tie: MedianTie = "mid"
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        validate_profile(self.rankings)
        if self.weights is not None and len(self.weights) != len(self.rankings):
            raise AggregationError(
                f"{len(self.weights)} weights for {len(self.rankings)} rankings"
            )

    def scores(self) -> dict[Item, float]:
        """The median score function."""
        return median_scores(self.rankings, tie=self.tie, weights=self.weights)

    def top_k(self, k: int) -> PartialRanking:
        """Theorem 9 output."""
        return median_top_k(self.rankings, k, tie=self.tie, weights=self.weights)

    def full_ranking(self) -> PartialRanking:
        """Theorem 11 output."""
        return median_full_ranking(self.rankings, tie=self.tie, weights=self.weights)

    def partial_ranking(self) -> PartialRanking:
        """Theorem 10 output (dynamic program)."""
        return median_partial_ranking(self.rankings, tie=self.tie, weights=self.weights)

    def fixed_type(self, bucket_type: Sequence[int]) -> PartialRanking:
        """Corollary 30 output."""
        return median_fixed_type(self.rankings, bucket_type, tie=self.tie)
