"""Kendall-style metrics on partial rankings (paper §2.2, §3.1).

For full rankings, the Kendall tau distance ``K`` counts pairwise
disagreements (bubble-sort exchanges). For partial rankings the paper
defines ``K^(p)``: a pair tied in one ranking but not the other incurs
penalty ``p``; a strictly discordant pair incurs penalty 1; every other
pair is free. ``K^(1/2)`` is the profile metric ``K_prof``.

This module provides a fast O(n log n) implementation built on pair-category
counting plus discordance counting (a Fenwick tree on small domains, the
array classifier of :mod:`repro.metrics.fast` on large ones), and a
transparent O(n²) implementation used as the property-test oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Any

from repro import obs
from repro._util import FenwickTree, pairs
from repro.analysis.contracts import checked_metric, near_triangle_constant
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import PartialRanking
from repro.errors import DomainMismatchError, InvalidRankingError
from repro.metrics.fast import _classify_rows

__all__ = [
    "PairCounts",
    "pair_counts",
    "kendall",
    "kendall_naive",
    "kendall_full",
]


@dataclass(frozen=True, slots=True)
class PairCounts:
    """Pair bookkeeping between two partial rankings over a common domain.

    Attributes follow Proposition 6's notation:

    * ``discordant`` — |U|: pairs strictly ordered in both rankings, in
      opposite directions.
    * ``tied_first_only`` — |S|: pairs tied in the first ranking only.
    * ``tied_second_only`` — |T|: pairs tied in the second ranking only.
    * ``tied_both`` — pairs tied in both rankings (never penalized).
    * ``concordant`` — pairs strictly ordered the same way in both.
    """

    discordant: int
    tied_first_only: int
    tied_second_only: int
    tied_both: int
    concordant: int

    @property
    def total(self) -> int:
        """Total number of unordered pairs (n choose 2)."""
        return (
            self.discordant
            + self.tied_first_only
            + self.tied_second_only
            + self.tied_both
            + self.concordant
        )

    def kendall(self, p: float = 0.5) -> float:
        """Evaluate ``K^(p)`` from the pair counts."""
        return self.discordant + p * (self.tied_first_only + self.tied_second_only)

    def kendall_hausdorff(self) -> int:
        """Evaluate ``K_Haus`` via Proposition 6: |U| + max(|S|, |T|)."""
        return self.discordant + max(self.tied_first_only, self.tied_second_only)


def _require_common_domain(sigma: PartialRanking, tau: PartialRanking) -> None:
    # identity first: cached domains are shared between a ranking and its
    # derived rankings, making the common case a pointer comparison
    if sigma.domain is not tau.domain and sigma.domain != tau.domain:
        raise DomainMismatchError(
            f"rankings must share a domain (sizes {len(sigma)} and {len(tau)})"
        )


#: From this many items :func:`pair_counts` runs the array classifier, not
#: the Fenwick tree: ``crossover_n`` of ``pair_counts_crossover`` in
#: ``BENCH_PR2.json`` (``benchmarks/bench_batch.py``).
_ARRAY_MIN_ITEMS = 192


def pair_counts(sigma: PartialRanking, tau: PartialRanking) -> PairCounts:
    """Classify all unordered pairs of distinct items in O(n log n).

    Below ``_ARRAY_MIN_ITEMS`` items the discordant count uses a Fenwick
    tree: items are processed in increasing ``sigma``-bucket order, one
    bucket at a time; within a bucket nothing is counted (those pairs are
    tied in ``sigma``). For each item we count previously inserted items
    sitting in a strictly *later* ``tau``-bucket — exactly the pairs
    ordered one way by ``sigma`` and the opposite way by ``tau``. From
    there on :mod:`repro.metrics.fast` classifies the bucket-index arrays.
    """
    if not obs.enabled():
        return _pair_counts_impl(sigma, tau)
    n = len(sigma)
    with obs.trace("metrics.pair_counts", n=n):
        obs.add("metrics.pairs", pairs(n))
        return _pair_counts_impl(sigma, tau)


def _pair_counts_impl(sigma: PartialRanking, tau: PartialRanking) -> PairCounts:
    _require_common_domain(sigma, tau)
    if len(sigma) < _ARRAY_MIN_ITEMS:
        return _pair_counts_fenwick(sigma, tau)
    return _pair_counts_array(sigma, tau)


def _pair_counts_fenwick(sigma: PartialRanking, tau: PartialRanking) -> PairCounts:
    """The Fenwick-tree path, at any size (the domains must match)."""
    joint = Counter((sigma.bucket_index(x), tau.bucket_index(x)) for x in sigma.domain)
    tied_both = sum(pairs(count) for count in joint.values())

    tree = FenwickTree(len(tau.buckets))
    inserted = 0
    discordant = 0
    for bucket in sigma.buckets:
        ranks = [tau.bucket_index(item) for item in bucket]
        for rank in ranks:
            # previously inserted items whose tau-bucket is strictly later
            discordant += inserted - tree.prefix_sum(rank)
        for rank in ranks:
            tree.add(rank)
        inserted += len(ranks)
    return _from_counts(sigma, tau, discordant, tied_both)


def _pair_counts_array(sigma: PartialRanking, tau: PartialRanking) -> PairCounts:
    """The array path, at any size (the domains must match)."""
    codec = DomainCodec.for_domain(sigma.domain)
    x, _ = sigma.dense_arrays(codec)
    y, _ = tau.dense_arrays(codec)
    discordant, tied_both = _classify_rows(x, y)
    return _from_counts(sigma, tau, discordant, tied_both)


def _from_counts(
    sigma: PartialRanking, tau: PartialRanking, discordant: int, tied_both: int
) -> PairCounts:
    """The five categories from the two counts that take a pass."""
    tied_first_only = sum(pairs(size) for size in sigma.type) - tied_both
    tied_second_only = sum(pairs(size) for size in tau.type) - tied_both
    concordant = pairs(len(sigma)) - discordant - tied_first_only - tied_second_only - tied_both
    return PairCounts(
        discordant=discordant,
        tied_first_only=tied_first_only,
        tied_second_only=tied_second_only,
        tied_both=tied_both,
        concordant=concordant,
    )


def _kendall_constant(args: tuple[Any, ...], kwargs: dict[str, Any]) -> float:
    """Near-triangle constant of ``K^(p)``: per Proposition 13, 1 in the
    metric regime (p >= 1/2) and 1/(2p) in the near-metric regime."""
    p = args[0] if args else kwargs.get("p", 0.5)
    return near_triangle_constant(p)


@checked_metric(constant_from=_kendall_constant)
def kendall(sigma: PartialRanking, tau: PartialRanking, p: float = 0.5) -> float:
    """The Kendall distance ``K^(p)`` between two partial rankings.

    ``p`` is the penalty for a pair tied in exactly one of the rankings
    (§3.1, Case 3). The default ``p = 1/2`` gives ``K_prof``, the L1
    distance between K-profiles. Per Proposition 13, ``K^(p)`` is a metric
    for ``p in [1/2, 1]``, a near metric for ``p in (0, 1/2)``, and not a
    distance measure at ``p = 0``; values outside [0, 1] are rejected.

    Runs in O(n log n).
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidRankingError(f"penalty parameter p={p} outside [0, 1]")
    return pair_counts(sigma, tau).kendall(p)


def kendall_naive(sigma: PartialRanking, tau: PartialRanking, p: float = 0.5) -> float:
    """O(n²) reference implementation of ``K^(p)``, straight from §3.1.

    Used as the oracle in property tests; prefer :func:`kendall` in
    application code.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidRankingError(f"penalty parameter p={p} outside [0, 1]")
    _require_common_domain(sigma, tau)
    total = 0.0
    for x, y in combinations(sigma.domain, 2):
        tied_sigma = sigma.tied(x, y)
        tied_tau = tau.tied(x, y)
        if tied_sigma and tied_tau:
            continue
        if tied_sigma != tied_tau:
            total += p
            continue
        if sigma.ahead(x, y) != tau.ahead(x, y):
            total += 1.0
    return total


def kendall_full(sigma: PartialRanking, tau: PartialRanking) -> int:
    """Classical Kendall tau between two *full* rankings (§2.2).

    The number of pairwise disagreements, equal to the number of adjacent
    exchanges a bubble sort needs to turn one ranking into the other.
    """
    _require_common_domain(sigma, tau)
    if not sigma.is_full or not tau.is_full:
        raise InvalidRankingError("kendall_full requires full rankings; use kendall() instead")
    counts = pair_counts(sigma, tau)
    return counts.discordant
