"""Position-matrix aggregation kernels (the batch layer for paper §6).

Read straight from the definitions, ``median_scores`` takes O(m·n) dict
lookups and ``n`` separate :func:`~repro.aggregate.median.median_of`
calls. This module encodes a
profile of ``m`` rankings over ``n`` items **once** into an ``(m, n)``
float64 position matrix — reusing the interned
:class:`~repro.core.codec.DomainCodec` and the per-ranking
:meth:`~repro.core.partial_ranking.PartialRanking.dense_arrays` caches —
and then derives every §6 output from columnwise array kernels:

* :func:`median_scores_array` / :func:`median_scores_batch` — all three
  ``tie`` modes via one columnwise sort (``np.median``-style middle
  selection), and the weighted-voter generalization via a columnwise
  ``lexsort`` + cumulative-weight selection;
* :func:`median_top_k_batch` — ``np.partition`` pivoting plus an explicit
  canonical tie-break at the k-th score boundary;
* :func:`median_full_ranking_batch` / :func:`median_partial_ranking_batch`
  / :func:`median_fixed_type_batch` — a single stable ``argsort`` shared
  by the full-ranking, Figure-1-DP and fixed-type outputs.

Every kernel is **bit-for-bit equal** to the corresponding dict
reference in :mod:`repro.verify.reference`, for every tie mode and
every weight vector — not merely within tolerance. The guarantees rest on three facts: positions are multiples of
½ (exact in float64, sums exact in any order); ``np.cumsum`` is a
sequential scan, so the weighted prefix sums perform the *same additions
in the same order* as the Python loop; and the sorted order of positions
(resp. of ``(position, weight)`` pairs under ``lexsort``) is the same
multiset the dict path sorts. The Hypothesis suite and the
``oracle:aggregate-*`` checks in :mod:`repro.verify` assert the equality
with ``==``.

The dict implementations in :mod:`repro.verify.reference` are the
independent reference (and the readable statement of the paper's
definitions); every public ``median_*`` function in
:mod:`repro.aggregate.median` runs on the kernels here.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from repro import obs
from repro.aggregate.dp import optimal_bucketing
from repro.aggregate.median import MedianTie, _check_tie, _validated_weights
from repro.aggregate.objective import validate_profile
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import Item, PartialRanking
from repro.errors import AggregationError
from repro.metrics.batch import position_matrix

__all__ = [
    "median_scores_array",
    "median_scores_batch",
    "median_top_k_batch",
    "median_full_ranking_batch",
    "median_partial_ranking_batch",
    "median_fixed_type_batch",
]


# ----------------------------------------------------------------------
# Core columnwise kernels
# ----------------------------------------------------------------------


def median_scores_array(
    positions: npt.NDArray[np.float64],
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> npt.NDArray[np.float64]:
    """Columnwise (weighted) median of an ``(m, n)`` position matrix.

    Row ``r`` holds ranking ``r``'s positions in codec slot order; the
    result is the length-``n`` vector of per-item medians — the median
    score function of Lemma 8 as a dense array.

    Kept as a thin tracing wrapper over :func:`_median_scores_array_impl`
    so ``benchmarks/bench_obs.py`` can measure the disabled-mode overhead
    of the instrumentation as (wrapper − impl) directly.
    """
    if not obs.enabled():
        return _median_scores_array_impl(positions, tie, weights)
    shape = np.shape(positions)
    with obs.trace(
        "aggregate.batch.median_scores_array",
        tie=tie,
        weighted=weights is not None,
    ):
        if len(shape) == 2:
            obs.add("aggregate.cells", shape[0] * shape[1])
        return _median_scores_array_impl(positions, tie, weights)


def _median_scores_array_impl(
    positions: npt.NDArray[np.float64],
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> npt.NDArray[np.float64]:
    _check_tie(tie)
    matrix = np.asarray(positions, dtype=np.float64)
    if matrix.ndim != 2:
        raise AggregationError(
            f"position matrix must be 2-dimensional, got shape {matrix.shape}"
        )
    m = matrix.shape[0]
    if m == 0:
        raise AggregationError("median of an empty profile is undefined")
    if weights is None:
        ordered = np.sort(matrix, axis=0)
        if m % 2 == 1:
            return ordered[m // 2].copy()
        low = ordered[m // 2 - 1]
        high = ordered[m // 2]
    else:
        weight_vec = np.asarray(_validated_weights(weights, m, noun="rankings"), dtype=np.float64)
        low, high = _weighted_bounds(matrix, weight_vec)
    if tie == "low":
        return low.copy()
    if tie == "high":
        return high.copy()
    return (low + high) / 2


def _weighted_bounds(
    matrix: npt.NDArray[np.float64], weight_vec: npt.NDArray[np.float64]
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
    """Columnwise lower/upper weighted medians.

    Mirrors the scalar path of :func:`repro.aggregate.median.median_of`
    operation for operation: pairs sorted by ``(value, weight)``
    (``lexsort`` with the weight as the secondary key), sequential prefix
    sums (``np.cumsum``) in the same forward/backward order, the same
    ``>= total/2`` crossing tests — hence bitwise-identical selections
    for arbitrary float weights, not just exactly-representable ones.
    """
    m, n = matrix.shape
    weight_rows = np.broadcast_to(weight_vec[:, None], (m, n))
    order = np.lexsort((weight_rows, matrix), axis=0)
    values = np.take_along_axis(matrix, order, axis=0)
    sorted_weights = np.take_along_axis(weight_rows, order, axis=0)
    forward = np.cumsum(sorted_weights, axis=0)
    half = forward[-1] / 2
    backward = np.cumsum(sorted_weights[::-1], axis=0)
    columns = np.arange(n)
    low = values[np.argmax(forward >= half, axis=0), columns]
    high = values[m - 1 - np.argmax(backward >= half, axis=0), columns]
    return low, high


def _order_slots(scores: npt.NDArray[np.float64]) -> npt.NDArray[np.intp]:
    """Slots sorted by score; ties broken by slot = canonical item order.

    A stable argsort over codec-slot order *is* the dict path's
    ``sorted(scores, key=(score, type name, repr))``, because slot order
    is exactly the canonical ``(type name, repr)`` order.
    """
    return np.argsort(scores, kind="stable")


def _top_k_slots(scores: npt.NDArray[np.float64], k: int) -> npt.NDArray[np.intp]:
    """The k slots a canonical full sort would list first, via partition.

    ``argpartition`` alone picks arbitrary slots among scores equal to the
    k-th smallest; the boundary ties are resolved explicitly in ascending
    slot order to match the canonical sort bit for bit.
    """
    n = scores.shape[0]
    if not 0 < k <= n:
        raise AggregationError(f"k={k} out of range for domain of size {n}")
    if k == n:
        return _order_slots(scores)
    pivot = np.partition(scores, k - 1)[k - 1]
    chosen = np.flatnonzero(scores < pivot)
    boundary = np.flatnonzero(scores == pivot)[: k - chosen.shape[0]]
    chosen = np.concatenate((chosen, boundary))
    return chosen[np.lexsort((chosen, scores[chosen]))]


# ----------------------------------------------------------------------
# Profile-level wrappers (drop-in equivalents of aggregate.median)
# ----------------------------------------------------------------------


def _encoded_profile(
    rankings: Sequence[PartialRanking],
) -> tuple[DomainCodec, npt.NDArray[np.float64]]:
    """Validate the profile and encode it once as an (m, n) matrix."""
    domain = validate_profile(rankings)
    codec = DomainCodec.for_domain(domain)
    return codec, position_matrix(rankings, codec)


def _scores_dict(
    codec: DomainCodec, scores: npt.NDArray[np.float64]
) -> dict[Item, float]:
    """Score vector -> dict with plain Python floats, codec item order."""
    return dict(zip(codec.items, scores.tolist()))


def median_scores_batch(
    rankings: Sequence[PartialRanking],
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> dict[Item, float]:
    """Array-path :func:`~repro.aggregate.median.median_scores`.

    Same signature, same result (bit for bit, including the weighted
    generalization), computed from one position matrix instead of n
    per-item gathers.
    """
    codec, matrix = _encoded_profile(rankings)
    return _scores_dict(codec, median_scores_array(matrix, tie=tie, weights=weights))


def median_top_k_batch(
    rankings: Sequence[PartialRanking],
    k: int,
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> PartialRanking:
    """Array-path :func:`~repro.aggregate.median.median_top_k` (Theorem 9)."""
    codec, matrix = _encoded_profile(rankings)
    scores = median_scores_array(matrix, tie=tie, weights=weights)
    slots = _top_k_slots(scores, k)
    items = codec.items
    return PartialRanking.top_k([items[slot] for slot in slots], codec.domain)


def median_full_ranking_batch(
    rankings: Sequence[PartialRanking],
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> PartialRanking:
    """Array-path :func:`~repro.aggregate.median.median_full_ranking` (Thm 11)."""
    codec, matrix = _encoded_profile(rankings)
    scores = median_scores_array(matrix, tie=tie, weights=weights)
    items = codec.items
    return PartialRanking.from_sequence(
        [items[slot] for slot in _order_slots(scores)]
    )


def median_partial_ranking_batch(
    rankings: Sequence[PartialRanking],
    tie: MedianTie = "mid",
    weights: Sequence[float] | None = None,
) -> PartialRanking:
    """Array-path :func:`~repro.aggregate.median.median_partial_ranking`.

    The Figure 1 dynamic program itself is shared with the dict path
    (:func:`repro.aggregate.dp.optimal_bucketing` over the same sorted
    score list), so Theorem 10's ``f†`` is identical by construction.
    """
    codec, matrix = _encoded_profile(rankings)
    scores = median_scores_array(matrix, tie=tie, weights=weights)
    return _partial_ranking_from_scores(codec, scores)


def _partial_ranking_from_scores(
    codec: DomainCodec, scores: npt.NDArray[np.float64]
) -> PartialRanking:
    slots = _order_slots(scores)
    result = optimal_bucketing(scores[slots].tolist())
    items = codec.items
    ordered = [items[slot] for slot in slots]
    buckets = [
        ordered[start:stop]
        for start, stop in zip(result.boundaries, result.boundaries[1:])
    ]
    return PartialRanking(buckets)


def median_fixed_type_batch(
    rankings: Sequence[PartialRanking],
    bucket_type: Sequence[int],
    tie: MedianTie = "mid",
) -> PartialRanking:
    """Array-path :func:`~repro.aggregate.median.median_fixed_type` (Cor 30)."""
    codec, matrix = _encoded_profile(rankings)
    scores = median_scores_array(matrix, tie=tie)
    if sum(bucket_type) != len(codec):
        raise AggregationError(
            f"type {tuple(bucket_type)} does not partition a domain of size {len(codec)}"
        )
    if any(size <= 0 for size in bucket_type):
        raise AggregationError("bucket sizes must be positive")
    items = codec.items
    ordered = [items[slot] for slot in _order_slots(scores)]
    buckets: list[list[Item]] = []
    start = 0
    for size in bucket_type:
        buckets.append(ordered[start : start + size])
        start += size
    return PartialRanking(buckets)
