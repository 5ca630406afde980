"""All-pairs distance kernels over a profile (the batch layer).

Computing an m×m distance matrix by calling a two-ranking metric m²/2
times re-derives the same per-ranking state m−1 times per ranking and pays
Python call overhead per pair. This module shares the precomputation once
per profile:

* one interned :class:`~repro.core.codec.DomainCodec` for the common
  domain (so the per-ranking dense arrays cached by
  :meth:`PartialRanking.dense_arrays
  <repro.core.partial_ranking.PartialRanking.dense_arrays>` are encoded
  exactly once);
* stacked ``(m, n)`` bucket-index / position matrices;
* for the Kendall family, an all-pairs pair classifier that turns the
  five pair categories into four matrix products over ±1 sign tensors
  (O(m²n²) multiply-adds, but inside BLAS), streamed over item tiles so
  the tensors stay within a memory budget; on domains too large even for
  that it runs the O(n log n) lexsort/merge kernel of
  :mod:`repro.metrics.fast` per pair instead.

The registry's ``candidate_scorer`` hooks of the four built-ins live
here too: they score many *full* rankings against a profile at once for
exact :func:`~repro.aggregate.minmax.aggregate`.

Every entry is **bit-for-bit equal** to the corresponding two-ranking
metric (``kendall``, ``footrule``, ``kendall_hausdorff``,
``footrule_hausdorff``): counts are integers, positions are multiples of
½, and every float operation here is exact (sums of half-integers, integer
gemms below 2⁵³), so there is no tolerance anywhere — the test suite
asserts equality with ``==``.

The L1 metrics — ``F_prof`` here and the weighted-footrule and
top-difference plugins — share one serial kernel, :func:`_l1_matrix`:
each ranking's row broadcast against all later rows, in cache-sized
blocks. They accept ``jobs`` only because every registry batch kernel
does, and ignore it; the temporary is never larger than the ``(m, n)``
profile.

The ``jobs`` keyword (default: serial; see :mod:`repro.parallel`) spreads
the per-pair kernels (``F_Haus`` and the per-pair Kendall classifier)
over a process pool. Each has one chunk worker, which takes the
``(m, n)`` row matrix by pickle and a chunk of index pairs; results are
reassembled in input order, so parallel runs are bit-for-bit identical
to serial ones.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np
import numpy.typing as npt

from repro import obs
from repro._util import pairs
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import PartialRanking
from repro.errors import InvalidRankingError
from repro.metrics.fast import _classify_rows
from repro.metrics.footrule import footrule
from repro.metrics.hausdorff import footrule_hausdorff, kendall_hausdorff_counts
from repro.metrics.kendall import PairCounts, kendall
from repro.metrics.kendall import kendall_naive  # repro: noqa[RP004] — registry metadata: stored as the kendall plugin's oracle for repro.verify; no serving path calls it
from repro.metrics.normalized import max_footrule, max_kendall
from repro.metrics.registry import (
    CandidateScore,
    CandidateScorer,
    MetricPlugin,
    get_metric,
    register_metric,
)
from repro.parallel import parallel_map, resolve_jobs

_R = TypeVar("_R")

__all__ = [
    "PairCountsMatrix",
    "profile_codec",
    "bucket_index_matrix",
    "position_matrix",
    "pair_counts_matrix",
    "pairwise_distance_matrix",
]

#: Sign-tensor elements materialized per GEMM tile (three float64
#: tensors of this size exist at once). A profile with m·n² at most this
#: large is classified in a single tile.
_DENSE_BUDGET = 1 << 23

#: The tiled GEMM classifier covers m·n² up to this many elements;
#: beyond it, :func:`pair_counts_matrix` uses the per-pair kernel.
_TILED_BUDGET = 1 << 27


@dataclass(frozen=True, slots=True)
class PairCountsMatrix:
    """All-pairs pair-category counts for a profile of m rankings.

    Entry ``[i, j]`` classifies the unordered item pairs between rankings
    ``i`` ("first") and ``j`` ("second"), exactly like
    :class:`~repro.metrics.kendall.PairCounts` — ``tied_first_only[i, j]``
    is |S| with ranking ``i`` in the sigma role. The matrix of |T| values
    is the transpose, so it is exposed as a property rather than stored.
    """

    discordant: npt.NDArray[np.int64]
    tied_first_only: npt.NDArray[np.int64]
    tied_both: npt.NDArray[np.int64]
    concordant: npt.NDArray[np.int64]

    @property
    def tied_second_only(self) -> npt.NDArray[np.int64]:
        """|T| with row index in the sigma role: the transpose of |S|."""
        return self.tied_first_only.T

    def pair_counts(self, i: int, j: int) -> PairCounts:
        """The scalar :class:`PairCounts` between rankings ``i`` and ``j``."""
        return PairCounts(
            discordant=int(self.discordant[i, j]),
            tied_first_only=int(self.tied_first_only[i, j]),
            tied_second_only=int(self.tied_first_only[j, i]),
            tied_both=int(self.tied_both[i, j]),
            concordant=int(self.concordant[i, j]),
        )

    def kendall(self, p: float = 0.5) -> npt.NDArray[np.float64]:
        """The ``K^(p)`` distance matrix (m×m, float64, exact)."""
        if not 0.0 <= p <= 1.0:
            raise InvalidRankingError(f"penalty parameter p={p} outside [0, 1]")
        tied_once = self.tied_first_only + self.tied_first_only.T
        return self.discordant + p * tied_once

    def kendall_hausdorff(self) -> npt.NDArray[np.int64]:
        """The ``K_Haus`` matrix via Proposition 6: |U| + max(|S|, |T|)."""
        return self.discordant + np.maximum(self.tied_first_only, self.tied_first_only.T)


def profile_codec(rankings: Sequence[PartialRanking]) -> DomainCodec:
    """The shared :class:`DomainCodec` of a profile (validates the domain)."""
    return DomainCodec.for_profile(rankings)


def bucket_index_matrix(
    rankings: Sequence[PartialRanking], codec: DomainCodec | None = None
) -> npt.NDArray[np.int64]:
    """Stacked bucket-index vectors, shape ``(m, n)``, codec slot order."""
    if codec is None:
        codec = DomainCodec.for_profile(rankings)
    return np.stack([ranking.dense_arrays(codec)[0] for ranking in rankings])


def position_matrix(
    rankings: Sequence[PartialRanking], codec: DomainCodec | None = None
) -> npt.NDArray[np.float64]:
    """Stacked position vectors, shape ``(m, n)``, codec slot order."""
    if codec is None:
        codec = DomainCodec.for_profile(rankings)
    return np.stack([ranking.dense_arrays(codec)[1] for ranking in rankings])


# ----------------------------------------------------------------------
# Pair classification
# ----------------------------------------------------------------------


def _tied_per_ranking(
    bucket_rows: npt.NDArray[np.signedinteger[Any]],
) -> npt.NDArray[np.int64]:
    """Per ranking: the number of item pairs tied in that ranking."""
    m = bucket_rows.shape[0]
    tied = np.empty(m, dtype=np.int64)
    for r in range(m):
        sizes = np.bincount(bucket_rows[r])
        tied[r] = int((sizes * (sizes - 1) // 2).sum())
    return tied


#: A chunk worker's task: the ``(m, n)`` row matrix and the (i, j) index
#: pairs to evaluate.
_Task = tuple[npt.NDArray[Any], list[tuple[int, int]]]


def _classify_chunk(task: _Task) -> list[tuple[int, int]]:
    """Pool worker: (discordant, tied_both) for a chunk of index pairs."""
    rows, index_pairs = task
    return [_classify_rows(rows[i], rows[j]) for i, j in index_pairs]


def _upper_triangle(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def _chunk(items: list[tuple[int, int]], n_chunks: int) -> list[list[tuple[int, int]]]:
    """Split into up to ``n_chunks`` contiguous, order-preserving chunks."""
    if not items:
        return []
    n_chunks = max(1, min(n_chunks, len(items)))
    step = -(-len(items) // n_chunks)
    return [items[k : k + step] for k in range(0, len(items), step)]


def _map_row_pairs(
    worker: Callable[[_Task], list[_R]],
    rows: npt.NDArray[Any],
    jobs: int | None,
) -> tuple[list[list[tuple[int, int]]], list[list[_R]]]:
    """Run a chunk worker over every row pair (i < j) of ``rows``.

    Returns the chunks and their results, in order; each pooled task
    carries the whole row matrix.
    """
    chunks = _chunk(_upper_triangle(len(rows)), resolve_jobs(jobs))
    return chunks, parallel_map(worker, [(rows, chunk) for chunk in chunks], jobs=jobs)


def _pair_counts_dense_tiled(
    bucket_rows: npt.NDArray[np.signedinteger[Any]],
    tile: int | None = None,
) -> PairCountsMatrix:
    """Classify all pairs via four sign-tensor matrix products, tiled.

    For each ranking ``r`` the flattened n×n sign tensor
    ``S[r, i·n+j] = sign(bucket_r(i) − bucket_r(j))``, its magnitude
    ``A = |S|`` and tie indicator ``Z = 1 − A`` give, writing C/D/S/T/B
    for the five pair categories over *unordered* pairs,

        S·Sᵀ = 2(C − D),   A·Aᵀ = 2(C + D),   Z·Aᵀ = 2|S|,   Z·Zᵀ = 2B + n.

    The tensors are built for ``tile`` item indices ``i`` at a time —
    by default as many as keep each partial tensor within
    ``_DENSE_BUDGET`` elements, so small profiles take one tile — and
    the four gram matrices accumulate the per-tile products. Every
    partial product is an exact integer in float64 and integer addition
    in float64 is exact below 2⁵³, so the counts are **bit-identical**
    at any tile width (``relation:tiled-gemm-agreement`` forces widths 1
    and 3 against one tile and the per-pair kernel).
    """
    m, n = bucket_rows.shape
    if tile is None:
        tile = max(1, _DENSE_BUDGET // max(1, m * n))
    g_ss = np.zeros((m, m), dtype=np.float64)
    g_aa = np.zeros((m, m), dtype=np.float64)
    g_za = np.zeros((m, m), dtype=np.float64)
    g_zz = np.zeros((m, m), dtype=np.float64)
    for start in range(0, n, tile):
        block = bucket_rows[:, start : start + tile]
        width = block.shape[1]
        sign = (
            np.sign(block[:, :, None] - bucket_rows[:, None, :])
            .reshape(m, width * n)
            .astype(np.float64)
        )
        strict = np.abs(sign)
        tied = 1.0 - strict
        g_ss += sign @ sign.T
        g_aa += strict @ strict.T
        g_za += tied @ strict.T
        g_zz += tied @ tied.T
        obs.add("metrics.batch.tiles")
    discordant = np.rint((g_aa - g_ss) / 4.0).astype(np.int64)
    concordant = np.rint((g_aa + g_ss) / 4.0).astype(np.int64)
    tied_first_only = np.rint(g_za / 2.0).astype(np.int64)
    tied_both = np.rint((g_zz - n) / 2.0).astype(np.int64)
    return PairCountsMatrix(
        discordant=discordant,
        tied_first_only=tied_first_only,
        tied_both=tied_both,
        concordant=concordant,
    )


def _pair_counts_pairs(
    bucket_rows: npt.NDArray[np.signedinteger[Any]],
    jobs: int | None,
) -> PairCountsMatrix:
    """Classify all pairs with the per-pair O(n log n) kernel."""
    m, n = bucket_rows.shape
    total = pairs(n)
    tied = _tied_per_ranking(bucket_rows)
    chunks, results = _map_row_pairs(_classify_chunk, bucket_rows, jobs)

    discordant = np.zeros((m, m), dtype=np.int64)
    tied_first_only = np.zeros((m, m), dtype=np.int64)
    tied_both = np.zeros((m, m), dtype=np.int64)
    concordant = np.full((m, m), total, dtype=np.int64)
    for chunk, counts in zip(chunks, results):
        for (i, j), (disc, both) in zip(chunk, counts):
            discordant[i, j] = discordant[j, i] = disc
            tied_both[i, j] = tied_both[j, i] = both
            tied_first_only[i, j] = tied[i] - both
            tied_first_only[j, i] = tied[j] - both
            concordant[i, j] = concordant[j, i] = (
                total - disc - tied_first_only[i, j] - tied_first_only[j, i] - both
            )
    for r in range(m):
        tied_both[r, r] = tied[r]
        concordant[r, r] = total - tied[r]
    return PairCountsMatrix(
        discordant=discordant,
        tied_first_only=tied_first_only,
        tied_both=tied_both,
        concordant=concordant,
    )


def pair_counts_matrix(
    rankings: Sequence[PartialRanking],
    *,
    jobs: int | None = None,
) -> PairCountsMatrix:
    """All-pairs pair-category counts for a profile.

    Profiles with m·n² up to ``_TILED_BUDGET`` are classified by the
    tiled sign-tensor GEMM (:func:`_pair_counts_dense_tiled`, one tile
    while m·n² stays within ``_DENSE_BUDGET``); larger ones by the
    per-pair lexsort/merge kernel (:func:`_pair_counts_pairs`), which
    ``jobs`` spreads over a process pool. Both produce identical
    matrices, bit for bit; the test suite and
    ``relation:tiled-gemm-agreement`` assert it.
    """
    bucket_rows = bucket_index_matrix(rankings)
    m, n = bucket_rows.shape
    tiled = m * n * n <= _TILED_BUDGET
    if not obs.enabled():
        if tiled:
            return _pair_counts_dense_tiled(bucket_rows)
        return _pair_counts_pairs(bucket_rows, jobs)
    strategy = "tiled" if tiled else "pairs"
    with obs.trace("metrics.batch.pair_counts_matrix", m=m, n=n, strategy=strategy):
        # both kernels classify all n-choose-2 item pairs of each of the
        # m rankings' pairings, i.e. m·n(n−1)/2 pair slots per role
        obs.add("metrics.batch.pairs", m * pairs(n))
        obs.add("metrics.batch.ranking_pairs", pairs(m))
        if tiled:
            return _pair_counts_dense_tiled(bucket_rows)
        return _pair_counts_pairs(bucket_rows, jobs)


# ----------------------------------------------------------------------
# Footrule family
# ----------------------------------------------------------------------


#: Elements per L1 broadcast block: the ``(k, n)`` temporary stays
#: cache-sized (512 KB) at any domain size.
_L1_BLOCK = 1 << 16


def _l1_matrix(rows: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """The m×m L1 distance matrix between the rows of an ``(m, n)`` matrix.

    The rows are positions for F_prof and the plugins' transformed
    position rows. Each row is broadcast against the later rows a block
    at a time, as many rows as keep the reused temporary within
    ``_L1_BLOCK`` elements (a whole-profile broadcast ran at half the
    per-pair loop's speed at 80 × 10,000, on fresh multi-megabyte
    temporaries). Every value is a dyadic rational far from 2⁵³, so each
    sum is exact in any order and equals the per-pair sum bit for bit.
    """
    m, n = rows.shape
    matrix = np.zeros((m, m), dtype=np.float64)
    step = max(1, _L1_BLOCK // max(1, n))
    buffer = np.empty((min(step, m), n), dtype=np.float64)
    for i in range(m - 1):
        for start in range(i + 1, m, step):
            stop = min(start + step, m)
            gaps = buffer[: stop - start]
            np.subtract(rows[start:stop], rows[i], out=gaps)
            np.abs(gaps, out=gaps)
            sums = gaps.sum(axis=1)
            matrix[i, start:stop] = sums
            matrix[start:stop, i] = sums
    return matrix


def _fhaus_rows(
    x: npt.NDArray[np.signedinteger[Any]], y: npt.NDArray[np.signedinteger[Any]]
) -> float:
    """``F_Haus`` between two bucket-index rows via array Theorem 5 witnesses.

    ``np.lexsort`` is stable, so residual ties break by slot index — i.e.
    by the codec's canonical order, which is exactly the default ``rho`` of
    :func:`repro.metrics.hausdorff.hausdorff_witnesses` (both sort by the
    canonical bucket key). The value is rho-independent anyway (Theorem 5),
    and all sums are integers, so this matches the object path bit for bit.
    """
    n = x.size
    ranks = np.arange(1, n + 1, dtype=np.float64)
    pos = np.empty((4, n), dtype=np.float64)
    pos[0, np.lexsort((-y, x))] = ranks  # sigma_1 = rho * tau^R * sigma
    pos[1, np.lexsort((x, y))] = ranks  # tau_1   = rho * sigma * tau
    pos[2, np.lexsort((y, x))] = ranks  # sigma_2 = rho * tau * sigma
    pos[3, np.lexsort((-x, y))] = ranks  # tau_2   = rho * sigma^R * tau
    f_1 = float(np.abs(pos[0] - pos[1]).sum())
    f_2 = float(np.abs(pos[2] - pos[3]).sum())
    return max(f_1, f_2)


def _fhaus_chunk(task: _Task) -> list[float]:
    """Pool worker: F_Haus for a chunk of index pairs of bucket rows."""
    rows, index_pairs = task
    return [_fhaus_rows(rows[i], rows[j]) for i, j in index_pairs]


def _fhaus_matrix(
    bucket_rows: npt.NDArray[np.signedinteger[Any]], jobs: int | None
) -> npt.NDArray[np.float64]:
    """The m×m F_Haus matrix: symmetric, zero diagonal, per-pair chunks."""
    m = len(bucket_rows)
    matrix = np.zeros((m, m), dtype=np.float64)
    for chunk, values in zip(*_map_row_pairs(_fhaus_chunk, bucket_rows, jobs)):
        for (i, j), value in zip(chunk, values):
            matrix[i, j] = matrix[j, i] = value
    return matrix


# ----------------------------------------------------------------------
# Full candidates against a profile (the exact-aggregation hook)
# ----------------------------------------------------------------------
#
# Each scorer below is a registry ``candidate_scorer``: prepared once per
# profile, then called on (N, n) arrays of full rankings given as 1-based
# slot positions. A full candidate has no ties, which collapses every
# metric to a closed form; all values are sums of multiples of ½ (or of
# the plugins' dyadic weights), so every entry is exact and equals the
# scalar kernel bit for bit.


def _l1_candidate_scorer(
    transform: Callable[[npt.NDArray[np.float64]], npt.NDArray[np.float64]],
) -> CandidateScorer:
    """Scorer for ``sum_x |g(pi(x)) - g(sigma(x))|`` over a position map g.

    ``transform`` maps an array of half-integer positions (last axis: the
    n codec slots) to ``g`` of each entry. The identity gives ``F_prof``;
    the plugins pass their weight tables.
    """

    def prepare(profile: Sequence[PartialRanking]) -> CandidateScore:
        voters = transform(position_matrix(profile))

        def score(ranks: npt.NDArray[np.integer[Any]]) -> npt.NDArray[np.float64]:
            values = transform(ranks.astype(np.float64))
            gaps = np.abs(values[:, None, :] - voters[None, :, :])
            distances: npt.NDArray[np.float64] = gaps.sum(axis=2)
            return distances

        return score

    return prepare


def _identity(positions: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    return positions


def _kendall_candidate_scorer(tie_cost: float) -> CandidateScorer:
    """Scorer for the Kendall family against full candidates.

    A full candidate ties no pair, so ``K^(p)`` is the discordant pairs
    plus ``p`` per pair the voter ties, and ``K_Haus`` (Proposition 6:
    |U| + max(|S|, |T|) with S empty) charges each voter-tied pair 1.
    ``cost[i·n + j, v]`` is what voter ``v`` charges a candidate placing
    slot ``i`` before slot ``j``; one GEMM of the candidates' precedence
    indicators against it scores the whole chunk.
    """

    def prepare(profile: Sequence[PartialRanking]) -> CandidateScore:
        buckets = bucket_index_matrix(profile)
        m, n = buckets.shape
        later = buckets[:, :, None] > buckets[:, None, :]
        tied = buckets[:, :, None] == buckets[:, None, :]
        cost = np.where(later, 1.0, np.where(tied, tie_cost, 0.0))
        cost = cost.reshape(m, n * n).T.copy()

        def score(ranks: npt.NDArray[np.integer[Any]]) -> npt.NDArray[np.float64]:
            before = ranks[:, :, None] < ranks[:, None, :]
            return before.reshape(len(ranks), n * n).astype(np.float64) @ cost

        return score

    return prepare


def _fhaus_candidate_scorer(profile: Sequence[PartialRanking]) -> CandidateScore:
    """Scorer for ``F_Haus`` against full candidates.

    With a full ``pi``, Theorem 5's witnesses reduce to ``pi`` itself and
    the voter's ties broken by ``pi`` or by its reverse:
    ``F_Haus(pi, sigma) = max(F(pi, sigma*pi), F(pi, sigma*pi^R))``.
    Sorting by (voter bucket, candidate position) lists the items in
    ``sigma*pi`` order, so the k-th of them sits at position k there.
    """
    buckets = bucket_index_matrix(profile)
    n = buckets.shape[1]
    # keys + r, for r in 1..n the tie-break rank, sorts by (bucket, r)
    keys = buckets * n - 1
    refined_positions = np.arange(1, n + 1, dtype=np.int64)

    def footrule_to_refinement(
        ranks: npt.NDArray[np.int64], tie_break: npt.NDArray[np.int64]
    ) -> npt.NDArray[np.int64]:
        order = np.argsort(keys[None, :, :] + tie_break[:, None, :], axis=2)
        placed = np.take_along_axis(
            np.broadcast_to(ranks[:, None, :], order.shape), order, axis=2
        )
        footrules: npt.NDArray[np.int64] = np.abs(placed - refined_positions).sum(axis=2)
        return footrules

    def score(ranks: npt.NDArray[np.integer[Any]]) -> npt.NDArray[np.float64]:
        ranks64 = ranks.astype(np.int64)
        forward = footrule_to_refinement(ranks64, ranks64)
        backward = footrule_to_refinement(ranks64, n + 1 - ranks64)
        return np.maximum(forward, backward).astype(np.float64)

    return score


# ----------------------------------------------------------------------
# The batch entry point
# ----------------------------------------------------------------------


def pairwise_distance_matrix(
    rankings: Sequence[PartialRanking],
    metric: str = "kendall",
    *,
    p: float = 0.5,
    jobs: int | None = None,
) -> npt.NDArray[np.float64]:
    """The m×m distance matrix of a profile under one of the four metrics.

    ``metric`` accepts any spelling registered in the metric plugin
    registry (:mod:`repro.metrics.registry`): the canonical names
    ``kendall`` / ``footrule`` / ``kendall_hausdorff`` /
    ``footrule_hausdorff``, the paper aliases ``k_prof`` / ``f_prof`` /
    ``k_haus`` / ``f_haus``, and every registered plugin (e.g.
    ``weighted_footrule``, ``top_difference``). Unknown names raise the
    registry's shared :class:`~repro.errors.UnknownMetricError` listing
    all registered spellings. ``p`` applies to the Kendall metric only;
    ``jobs`` spreads the per-pair code paths (``F_Haus``, per-pair
    Kendall) over a process pool (:mod:`repro.parallel`); the L1 metrics
    ignore it.

    Entries are bit-for-bit equal to the two-ranking metrics; the matrix
    is symmetric with a zero diagonal.
    """
    plugin = get_metric(metric)
    canonical = plugin.name

    if not obs.enabled():
        if plugin.builtin:
            return _pairwise_distance_matrix_impl(rankings, canonical, p=p, jobs=jobs)
        return plugin.batch(rankings, p=p, jobs=jobs)
    with obs.trace(
        "metrics.batch.pairwise_distance_matrix", metric=canonical, m=len(rankings)
    ):
        # exact invocation count: the serving layer's coalescing tests
        # assert "N requests, one matrix call" against this counter
        obs.add("metrics.batch.matrix_calls")
        if canonical in ("footrule", "footrule_hausdorff") or not plugin.builtin:
            # the Kendall family counts its ranking pairs inside
            # pair_counts_matrix; counting here too would double-book
            obs.add("metrics.batch.ranking_pairs", pairs(len(rankings)))
        if plugin.builtin:
            return _pairwise_distance_matrix_impl(rankings, canonical, p=p, jobs=jobs)
        return plugin.batch(rankings, p=p, jobs=jobs)


def _pairwise_distance_matrix_impl(
    rankings: Sequence[PartialRanking],
    canonical: str,
    *,
    p: float,
    jobs: int | None,
) -> npt.NDArray[np.float64]:
    if canonical == "kendall":
        return pair_counts_matrix(rankings, jobs=jobs).kendall(p)
    if canonical == "kendall_hausdorff":
        counts = pair_counts_matrix(rankings, jobs=jobs)
        return counts.kendall_hausdorff().astype(np.float64)
    if canonical == "footrule":
        return _l1_matrix(position_matrix(rankings))
    # footrule_hausdorff
    return _fhaus_matrix(bucket_index_matrix(rankings), jobs)


# ----------------------------------------------------------------------
# Built-in plugin registration
# ----------------------------------------------------------------------


def _builtin_batch(canonical: str) -> Any:
    """The registry-facing batch kernel of one built-in metric."""

    def call(
        profile: Sequence[PartialRanking], *, p: float = 0.5, jobs: int | None = None
    ) -> npt.NDArray[np.float64]:
        return _pairwise_distance_matrix_impl(profile, canonical, p=p, jobs=jobs)

    return call


def _kendall_hausdorff_scalar(sigma: PartialRanking, tau: PartialRanking) -> float:
    """``K_Haus`` as a float-returning scalar kernel (counts are ints)."""
    return float(kendall_hausdorff_counts(sigma, tau))


# The four paper metrics register into the plugin registry on import, so
# every name-based dispatch surface resolves them exactly like plugins.
# Their differential oracles and metamorphic relations stay hand-curated
# in repro.verify (the registry `oracle` below is the independent naive /
# object-layer reference); only non-builtin plugins get auto-contributed
# verify checks.
register_metric(
    MetricPlugin(
        name="kendall",
        aliases=("k_prof",),
        citation="K^(p) with tie penalty p (paper §2.1); near metric for p < 1/2",
        scalar=kendall,
        batch=_builtin_batch("kendall"),
        candidate_scorer=_kendall_candidate_scorer(0.5),
        oracle=kendall_naive,
        axiom_class="near-metric",
        p_range=(0.0, 1.0),
        max_value=max_kendall,
        builtin=True,
    )
)
register_metric(
    MetricPlugin(
        name="footrule",
        aliases=("f_prof",),
        citation="F_prof: L1 on position vectors (paper §2.2)",
        scalar=footrule,
        batch=_builtin_batch("footrule"),
        candidate_scorer=_l1_candidate_scorer(_identity),
        oracle=footrule,
        axiom_class="metric",
        p_range=None,
        max_value=max_footrule,
        builtin=True,
    )
)
register_metric(
    MetricPlugin(
        name="kendall_hausdorff",
        aliases=("k_haus",),
        citation="K_Haus via the Proposition 6 closed form",
        scalar=_kendall_hausdorff_scalar,
        batch=_builtin_batch("kendall_hausdorff"),
        candidate_scorer=_kendall_candidate_scorer(1.0),
        oracle=_kendall_hausdorff_scalar,
        axiom_class="metric",
        p_range=None,
        max_value=max_kendall,
        builtin=True,
    )
)
register_metric(
    MetricPlugin(
        name="footrule_hausdorff",
        aliases=("f_haus",),
        citation="F_Haus via the Theorem 5 witnesses",
        scalar=footrule_hausdorff,
        batch=_builtin_batch("footrule_hausdorff"),
        candidate_scorer=_fhaus_candidate_scorer,
        oracle=footrule_hausdorff,
        axiom_class="metric",
        p_range=None,
        max_value=max_footrule,
        builtin=True,
    )
)
