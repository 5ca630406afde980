"""Reference implementations kept only as oracles for the fast paths.

The library runs one implementation of each computation. The plain
versions here restate the same definitions in the most direct way, and
the oracle registry (:mod:`repro.verify.oracles`), the relation checks,
the tests and the benchmarks compare the library against them bit for
bit:

* the **dict median** — Lemma 8's median score function as per-item
  gathers plus scalar :func:`~repro.aggregate.median.median_of` calls,
  and the Theorem 9/10/11 and Corollary 30 outputs derived from it. The
  public ``median_*`` functions compute the same values from one
  ``(m, n)`` position matrix (:mod:`repro.aggregate.batch`);
* the **Python Held–Karp DP** — the per-state generator-sum recurrence
  that :func:`repro.aggregate.kemeny._held_karp` batches into one matrix
  product;
* the **sign-sum pair counts** — Kemeny's ``(items, ahead, ties)`` from
  the column sums of the profile's ``(m, n·n)`` pair-sign tensor, the
  arithmetic :func:`repro.aggregate.kemeny.pair_cost_array` replaces with
  one boolean comparison summed into int64;
* the **broadcast footrule assignment** — the item×slot footrule cost
  from one ``(m, n, n)`` broadcast, solved by SciPy's
  ``linear_sum_assignment``: the reference for
  :func:`repro.aggregate.matching.optimal_footrule_aggregation`;
* the **monolithic Kemeny solver** — one Held–Karp DP over the whole
  instance, the SCC-soundness reference for
  :func:`repro.aggregate.decompose.kemeny_decomposed`;
* the **scalar exhaustive aggregator** — every full ranking built as a
  :class:`PartialRanking` and scored with m scalar metric calls, the
  loop that exact :func:`repro.aggregate.minmax.aggregate` replaces with
  one array pass over its candidate table.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import permutations

import numpy as np
import numpy.typing as npt
from scipy.optimize import linear_sum_assignment

from repro.aggregate.decompose import _MAX_EXACT
from repro.aggregate.dp import optimal_partial_ranking
from repro.aggregate.kemeny import _held_karp, pair_cost_array
from repro.aggregate.median import (
    MedianTie,
    _check_tie,
    _median_of_checked,
    _validated_weights,
)
from repro.aggregate.objective import resolve_metric, validate_penalty, validate_profile
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import Item, PartialRanking
from repro.errors import AggregationError
from repro.metrics.batch import bucket_index_matrix, position_matrix

__all__ = [
    "median_scores_dict",
    "median_top_k_dict",
    "median_full_ranking_dict",
    "median_partial_ranking_dict",
    "median_fixed_type_dict",
    "pair_cost_sign_sums",
    "footrule_assignment_broadcast",
    "held_karp_python",
    "kemeny_monolithic",
    "aggregate_exhaustive_scalar",
]


def median_scores_dict(
    rankings: Sequence[PartialRanking],
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> dict[Item, float]:
    """Lemma 8's median score function, one item at a time."""
    domain = validate_profile(rankings)
    _check_tie(tie)
    checked = _validated_weights(weights, len(rankings), noun="rankings")
    return {
        item: _median_of_checked(
            [sigma[item] for sigma in rankings], tie, checked  # repro: noqa[RP009] — the per-item reference the position-matrix kernels are checked against
        )
        for item in domain
    }


def _order_by_scores(scores: dict[Item, float]) -> list[Item]:
    """Items sorted by score, ties broken canonically (deterministic)."""
    return sorted(scores, key=lambda item: (scores[item], type(item).__name__, repr(item)))


def median_top_k_dict(
    rankings: Sequence[PartialRanking],
    k: int,
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> PartialRanking:
    """Theorem 9: the first k items of the median order, then the rest."""
    scores = median_scores_dict(rankings, tie=tie, weights=weights)
    if not 0 < k <= len(scores):
        raise AggregationError(f"k={k} out of range for domain of size {len(scores)}")
    ordered = _order_by_scores(scores)
    return PartialRanking.top_k(ordered[:k], scores.keys())


def median_full_ranking_dict(
    rankings: Sequence[PartialRanking],
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> PartialRanking:
    """Theorem 11: the median order with ties broken canonically."""
    scores = median_scores_dict(rankings, tie=tie, weights=weights)
    return PartialRanking.from_sequence(_order_by_scores(scores))


def median_partial_ranking_dict(
    rankings: Sequence[PartialRanking],
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> PartialRanking:
    """Theorem 10: the Figure 1 DP over the median scores."""
    scores = median_scores_dict(rankings, tie=tie, weights=weights)
    return optimal_partial_ranking(scores)


def median_fixed_type_dict(
    rankings: Sequence[PartialRanking],
    bucket_type: Sequence[int],
    tie: MedianTie = "mid",
) -> PartialRanking:
    """Corollary 30: the median order cut into buckets of the given sizes."""
    scores = median_scores_dict(rankings, tie=tie)
    if sum(bucket_type) != len(scores):
        raise AggregationError(
            f"type {tuple(bucket_type)} does not partition a domain of size {len(scores)}"
        )
    if any(size <= 0 for size in bucket_type):
        raise AggregationError("bucket sizes must be positive")
    ordered = _order_by_scores(scores)
    buckets: list[list[Item]] = []
    start = 0
    for size in bucket_type:
        buckets.append(ordered[start : start + size])
        start += size
    return PartialRanking(buckets)


def pair_cost_sign_sums(
    rankings: Sequence[PartialRanking],
) -> tuple[list[Item], npt.NDArray[np.int64], int]:
    """:func:`~repro.aggregate.kemeny.pair_cost_array` from sign sums.

    ``S[r, i·n + j] = sign(bucket_r(i) − bucket_r(j))`` is +1 when input
    ``r`` places item ``j`` strictly ahead of item ``i``; its column sums
    give ``ahead = (sum S + sum |S|) / 2``, and the strictly ordered
    (input, ordered pair) cells ``sum |S|`` leave
    ``(m·n(n−1) − sum |S|) / 2`` tied (input, pair) cells. Every sum is
    an exact small integer in float64.
    """
    validate_profile(rankings)
    codec = DomainCodec.for_profile(rankings)
    rows = bucket_index_matrix(rankings, codec)
    m, n = rows.shape
    sign = np.sign(rows[:, :, None] - rows[:, None, :]).reshape(m, n * n).astype(np.float64)
    sign_sum = sign.sum(axis=0)
    strict_sum = np.abs(sign).sum(axis=0)
    ahead = np.rint((sign_sum + strict_sum) / 2.0).astype(np.int64).reshape(n, n)
    ties = (m * n * (n - 1) - int(np.rint(strict_sum.sum()))) // 2
    return list(codec.items), ahead, ties


def footrule_assignment_broadcast(
    rankings: Sequence[PartialRanking],
) -> tuple[PartialRanking, float]:
    """Optimal footrule aggregation from one whole-profile broadcast.

    ``cost[x, k] = sum_i |sigma_i(x) − k|`` over slots ``k = 1..n``, built
    as one ``(m, n, n)`` array and summed over the inputs (sums of
    half-integers, exact in float64), then SciPy's assignment solver.
    """
    validate_profile(rankings)
    codec = DomainCodec.for_profile(rankings)
    positions = position_matrix(rankings, codec)
    n = positions.shape[1]
    slots = np.arange(1, n + 1, dtype=float)
    cost = np.abs(positions[:, :, None] - slots[None, None, :]).sum(axis=0)
    rows, cols = linear_sum_assignment(cost)
    order = [codec.items[row] for row in rows[np.argsort(cols)]]
    return PartialRanking.from_sequence(order), float(cost[rows, cols].sum())


def held_karp_python(
    ahead: npt.NDArray[np.int64], n: int
) -> tuple[list[int], int]:
    """The Held–Karp DP with a per-state Python generator sum.

    The differential twin of :func:`repro.aggregate.kemeny._held_karp`:
    the tests and ``benchmarks/bench_kemeny.py`` assert the two agree
    exactly, and the benchmark measures the batched path's speedup.
    """
    rows = ahead.tolist()
    full = 1 << n
    infinity = float("inf")
    dp: list[float] = [infinity] * full
    parent = [-1] * full
    dp[0] = 0
    for mask in range(full):
        base = dp[mask]
        if base == infinity:
            continue
        remaining = [i for i in range(n) if not mask & (1 << i)]
        for x in remaining:
            added = sum(rows[x][y] for y in remaining if y != x)
            new_mask = mask | (1 << x)
            candidate = base + added
            if candidate < dp[new_mask]:
                dp[new_mask] = candidate
                parent[new_mask] = x

    order: list[int] = []
    mask = full - 1
    while mask:
        x = parent[mask]
        order.append(x)
        mask ^= 1 << x
    order.reverse()
    return order, int(dp[full - 1])


def kemeny_monolithic(
    rankings: Sequence[PartialRanking], p: float = 0.5
) -> tuple[PartialRanking, float]:
    """Exact ``K^(p)`` aggregation by one Held–Karp DP over all n ≤ 16
    items, without the SCC condensation whose soundness it checks."""
    validate_penalty(p)
    items, ahead, ties = pair_cost_array(rankings)
    n = len(items)
    if n > _MAX_EXACT:
        raise AggregationError(
            f"exact Kemeny refused for n={n} > {_MAX_EXACT}; "
            "use median aggregation for large domains"
        )
    order, disagreements = _held_karp(ahead, n)
    ranking = PartialRanking.from_sequence([items[x] for x in order])
    return ranking, float(disagreements) + p * ties


def _scores(
    candidate: PartialRanking,
    rankings: Sequence[PartialRanking],
    metric_fn: Callable[[PartialRanking, PartialRanking], float],
) -> tuple[float, float]:
    """(max, total) distances of a candidate to the profile."""
    total = 0.0
    worst = 0.0
    for sigma in rankings:
        value = metric_fn(candidate, sigma)
        total += value
        if value > worst:
            worst = value
    return worst, total


def aggregate_exhaustive_scalar(
    rankings: Sequence[PartialRanking],
    metric: str | Callable[[PartialRanking, PartialRanking], float] = "f_prof",
) -> dict[str, tuple[PartialRanking, float, int]]:
    """Exact median and minmax aggregation by scalar enumeration.

    Maps ``"median"`` and ``"minmax"`` to ``(ranking, objective value,
    candidates scored)``. Full rankings run in
    :func:`itertools.permutations` order of the canonical item order
    (type name, then ``repr``), each one a fresh :class:`PartialRanking`
    scored by m scalar metric calls, and per objective only a *strict*
    improvement of its ``(primary, secondary)`` key replaces the
    incumbent. The differential twin of the exhaustive path of
    :func:`repro.aggregate.minmax.aggregate`; ``oracle:aggregate-exhaustive``,
    the tests and ``benchmarks/bench_aggregate.py`` assert the two agree
    bit for bit.
    """
    validate_profile(rankings)
    metric_fn = resolve_metric(metric)
    items = sorted(rankings[0].domain, key=lambda item: (type(item).__name__, repr(item)))
    best: dict[str, tuple[tuple[float, float], tuple[Item, ...], float]] = {}
    candidates = 0
    for perm in permutations(items):
        worst, total = _scores(PartialRanking([item] for item in perm), rankings, metric_fn)
        candidates += 1
        for objective, key, value in (
            ("median", (total, worst), total),
            ("minmax", (worst, total), worst),
        ):
            incumbent = best.get(objective)
            if incumbent is None or key < incumbent[0]:
                best[objective] = (key, perm, value)
    return {
        objective: (PartialRanking([item] for item in perm), value, candidates)
        for objective, (_, perm, value) in best.items()
    }
