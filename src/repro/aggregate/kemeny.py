"""The pair-cost kernel and DP behind exact Kemeny-style aggregation.

The Kendall aggregation problem — find the full ranking minimizing
``sum_i K^(p)(out, sigma_i)`` — is NP-hard in general, and the paper's
footnote 4 motivates median aggregation as the *computationally simple*
alternative. For measuring true approximation ratios beyond the factorial
brute force (n ≤ 9), the library solves it exactly with the classical
algorithm:

the objective is **pairwise decomposable** — placing ``x`` before ``y``
costs ``sum_i [1 if sigma_i ranks y strictly ahead, p if it ties them]``
independently of everything else — so the optimal ranking over each item
subset ``S`` (as a prefix) satisfies the Held–Karp recurrence

    ``dp[S ∪ {x}] = dp[S] + sum_{y ∉ S ∪ {x}} cost(x before y)``

giving an exact O(2^n · n) algorithm after the per-state appendix costs
are batched into one ``(2^n, n)`` GEMM (see :func:`_held_karp`).

The solver is :func:`repro.aggregate.decompose.kemeny_decomposed`, which
runs the DP per strongly-connected component of the pairwise-dominance
digraph; :mod:`repro.aggregate.tournament` reads its Condorcet structure
off the same matrix. The matrix also yields the standard lower bound
``sum_{pairs} min(cost(x<y), cost(y<x))``, used to sanity-check
optimality and to bound ratios on instances too large to solve exactly.
Penalties beyond the scalar ``p`` plug in through
:class:`~repro.aggregate.scoring.ScoringScheme`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from repro import obs
from repro.aggregate.objective import validate_profile
from repro.aggregate.scoring import ScoringScheme, resolve_scheme
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import Item, PartialRanking
from repro.metrics.batch import bucket_index_matrix, sign_tensor
from repro.parallel import parallel_map, resolve_jobs

__all__ = [
    "pair_cost_array",
    "kemeny_lower_bound",
]

#: Cap on sign-tensor elements materialized per worker chunk (the same
#: per-tile budget the pair classifier in :mod:`repro.metrics.batch` uses).
_CHUNK_BUDGET = 1 << 23


def _pair_order_chunk(
    bucket_rows: npt.NDArray[np.int64],
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Pool worker: exact pair-order counts for a chunk of rankings.

    Shares the :func:`repro.metrics.batch.sign_tensor` encoding with the
    tiled all-pairs classifier: from the chunk's ``(c, n·n)`` sign tensor
    ``S`` and its magnitude ``|S|``, the column sums give

        ``ahead = (sum S + sum |S|) / 2``   (count of rankings with the
        column's second item strictly ahead — sign +1),
        ``tied  = c − sum |S|``.

    Both are exact small integers in float64 and are returned as int64
    ``(n, n)`` matrices, so the combination step is integer arithmetic.
    """
    count, n = bucket_rows.shape
    tensor = sign_tensor(bucket_rows)
    sign_sum = tensor.sum(axis=0)
    strict_sum = np.abs(tensor).sum(axis=0)
    ahead = np.rint((sign_sum + strict_sum) / 2.0).astype(np.int64).reshape(n, n)
    tied = count - np.rint(strict_sum).astype(np.int64).reshape(n, n)
    return ahead, tied


def pair_cost_array(
    rankings: Sequence[PartialRanking],
    p: float = 0.5,
    *,
    scheme: ScoringScheme | None = None,
    jobs: int | None = None,
) -> tuple[list[Item], npt.NDArray[np.float64]]:
    """Build the pairwise placement-cost matrix as an ``(n, n)`` ndarray.

    Returns ``(items, cost)`` where ``cost[i, j]`` is the total penalty
    across the inputs for ranking ``items[i]`` strictly before
    ``items[j]``: ``scheme.disagree`` per input that strictly disagrees,
    ``scheme.agree`` per input that strictly agrees, ``scheme.tie`` per
    input that ties the pair. Under the default Kendall scheme
    ``cost[i, j] + cost[j, i]`` is constant per pair (the pair's
    unavoidable-versus-chosen split).

    The workers accumulate *integer* strictly-ahead / tied counts via the
    shared :func:`repro.metrics.batch.sign_tensor` path, and each entry is
    computed once from those counts — so the matrix is bit-for-bit
    identical for every job count and every ``p`` (dyadic or not), and
    exactly equals the historical per-ranking accumulation for dyadic
    ``p`` (including the default ``p = 1/2``). ``jobs`` spreads the
    construction over a process pool (see :mod:`repro.parallel`).

    This is the one cost kernel every consumer uses (the DP, the lower
    bound, the SCC decomposition, the tournament diagnostics).
    """
    resolved = resolve_scheme(p, scheme)
    validate_profile(rankings)
    codec = DomainCodec.for_profile(rankings)
    items = list(codec.items)  # canonical key order, as before
    n = len(items)
    m = len(rankings)

    with obs.trace("aggregate.kemeny.pair_cost_array", m=m, n=n):
        obs.add("kemeny.cells", m * n * n)
        bucket_rows = bucket_index_matrix(rankings, codec)
        n_jobs = min(resolve_jobs(jobs), m)
        per_chunk = max(1, min(_CHUNK_BUDGET // max(1, n * n), -(-m // max(1, n_jobs))))
        chunks = [bucket_rows[a : a + per_chunk] for a in range(0, m, per_chunk)]
        obs.set_attr("chunks", len(chunks))
        ahead = np.zeros((n, n), dtype=np.int64)
        tied = np.zeros((n, n), dtype=np.int64)
        for chunk_ahead, chunk_tied in parallel_map(_pair_order_chunk, chunks, jobs=jobs):
            ahead += chunk_ahead
            tied += chunk_tied
        if resolved.is_kendall:
            # byte-for-byte the historical scalar-p expression
            cost = ahead + resolved.tie * tied
        else:
            cost = (
                resolved.disagree * ahead
                + resolved.agree * ahead.T
                + resolved.tie * tied
            )
        np.fill_diagonal(cost, 0.0)
        return items, cost


def _lower_bound_from_cost(cost: npt.NDArray[np.float64]) -> float:
    """``sum_{pairs} min(cost[x, y], cost[y, x])`` over the upper triangle."""
    i_upper, j_upper = np.triu_indices(cost.shape[0], k=1)
    return float(np.minimum(cost, cost.T)[i_upper, j_upper].sum())


def kemeny_lower_bound(
    rankings: Sequence[PartialRanking],
    p: float = 0.5,
    *,
    scheme: ScoringScheme | None = None,
    jobs: int | None = None,
) -> float:
    """``sum_{pairs} min(cost(x<y), cost(y<x))`` — a lower bound on the
    optimal full-ranking ``K^(p)`` aggregation objective.

    Tight whenever the pairwise-majority tournament is acyclic. Summation
    is exact: costs are half-integer multiples of ``p``'s resolution, and
    for dyadic ``p`` every partial sum is exactly representable.
    """
    _, cost = pair_cost_array(rankings, p, scheme=scheme, jobs=jobs)
    return _lower_bound_from_cost(cost)


def _held_karp(
    cost: npt.NDArray[np.float64], n: int
) -> tuple[list[int], float]:
    """Optimal item order (as matrix indices) plus its objective value.

    The per-state appendix costs are batched: ``S = bits @ cost.T`` gives
    ``S[mask, x] = sum_{y in mask} cost[x, y]`` for every state in one
    GEMM, so appending ``x`` to the prefix ``mask`` adds
    ``row_total[x] − S[mask, x]`` (everything still unplaced) — an O(1)
    lookup instead of the former O(n) Python generator sum, taking the DP
    from O(2^n · n²) interpreted work to O(2^n · n) plus one GEMM.
    Bit-identical to the scalar accumulation for dyadic penalties (all
    partial sums exact in float64); for non-dyadic schemes agreement is
    within one ulp per state. Transition ties keep the historical
    resolution (first-improving ``x`` in ascending index order wins).
    """
    full = 1 << n
    bits = ((np.arange(full, dtype=np.uint32)[:, None] >> np.arange(n)) & 1).astype(
        np.float64
    )
    # added[mask, x] = cost of ranking x ahead of everything outside mask
    added = cost.sum(axis=1)[None, :] - bits @ cost.T
    infinity = float("inf")
    dp = [infinity] * full
    parent = [-1] * full
    dp[0] = 0.0
    for mask in range(full):
        base = dp[mask]
        if base == infinity:
            continue
        added_row = added[mask]
        for x in range(n):
            if mask & (1 << x):
                continue
            # append x to the prefix: it is ranked before everything else
            # still unplaced
            new_mask = mask | (1 << x)
            candidate = base + added_row[x]
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
    return order, float(dp[full - 1])
