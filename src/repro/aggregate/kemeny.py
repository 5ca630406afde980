"""The pair-count kernel and DP behind exact Kemeny-style aggregation.

The Kendall aggregation problem — find the full ranking minimizing
``sum_i K^(p)(out, sigma_i)`` — is NP-hard in general, and the paper's
footnote 4 motivates median aggregation as the *computationally simple*
alternative. For measuring true approximation ratios beyond the factorial
brute force (n ≤ 9), the library solves it exactly with the classical
algorithm:

the objective is **pairwise decomposable** — placing ``x`` before ``y``
costs ``sum_i [1 if sigma_i ranks y strictly ahead, p if it ties them]``
independently of everything else. A full-ranking output pays the tie
charge ``p`` whichever way it orders a tied pair, so the optimal rankings
depend only on the integer disagreement counts ``D[x, y]`` (inputs
placing ``y`` strictly ahead of ``x``) and ``p`` only adds ``p·T``, with
``T`` the number of (input, pair) ties (docs/THEORY.md, "Kemeny
p-invariance"). The optimal ranking over each item subset ``S`` (as a
prefix) satisfies the Held–Karp recurrence

    ``dp[S ∪ {x}] = dp[S] + sum_{y ∉ S ∪ {x}} D[x, y]``

giving an exact O(2^n · n) algorithm after the per-state appendix costs
are batched into one ``(2^n, n)`` matrix product (see :func:`_held_karp`).

The solver is :func:`repro.aggregate.decompose.kemeny_decomposed`, which
runs the DP per strongly-connected component of the pairwise-dominance
digraph; :mod:`repro.aggregate.tournament` reads its Condorcet structure
off the same matrix. The matrix also yields the standard lower bound
``sum_{pairs} min(D[x, y], D[y, x]) + p·T``, used to sanity-check
optimality and to bound ratios on instances too large to solve exactly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from repro import obs
from repro.aggregate.objective import validate_penalty, validate_profile
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import Item, PartialRanking
from repro.metrics.batch import bucket_index_matrix

__all__ = [
    "pair_cost_array",
    "kemeny_lower_bound",
]

#: Cap on the boolean ``(c, n, n)`` comparison elements materialized per
#: row chunk (8 MiB).
_CHUNK_BUDGET = 1 << 23


def pair_cost_array(
    rankings: Sequence[PartialRanking],
) -> tuple[list[Item], npt.NDArray[np.int64], int]:
    """The integer pair counts every Kemeny solver runs on.

    Returns ``(items, ahead, ties)``: ``ahead[i, j]`` is the number of
    inputs ranking ``items[j]`` strictly ahead of ``items[i]`` (so the
    cost of placing ``items[i]`` before ``items[j]``, diagonal 0), and
    ``ties`` the number of (input, pair) ties. Against the profile, a
    full ranking's ``K^(p)`` objective is the sum of ``ahead`` over its
    ordered pairs plus ``p · ties``.

    One boolean comparison ``bucket_r(i) > bucket_r(j)`` per ranking,
    summed into int64 over row chunks of at most ``_CHUNK_BUDGET``
    elements. Each strictly ordered (input, pair) adds exactly one to
    ``ahead``, so ``ties`` is ``m·n(n−1)/2`` minus its total.

    This is the one cost kernel every consumer uses (the DP, the lower
    bound, the SCC decomposition, the tournament diagnostics).
    """
    validate_profile(rankings)
    codec = DomainCodec.for_profile(rankings)
    items = list(codec.items)  # canonical key order, as before
    n = len(items)
    m = len(rankings)

    with obs.trace("aggregate.kemeny.pair_cost_array", m=m, n=n):
        obs.add("kemeny.cells", m * n * n)
        bucket_rows = bucket_index_matrix(rankings, codec)
        per_chunk = max(1, _CHUNK_BUDGET // max(1, n * n))
        ahead = np.zeros((n, n), dtype=np.int64)
        for a in range(0, m, per_chunk):
            chunk = bucket_rows[a : a + per_chunk]
            ahead += (chunk[:, :, None] > chunk[:, None, :]).sum(axis=0, dtype=np.int64)
        ties = m * n * (n - 1) // 2 - int(ahead.sum())
        return items, ahead, ties


def _pairwise_minimum(ahead: npt.NDArray[np.int64]) -> int:
    """``sum_{pairs} min(ahead[x, y], ahead[y, x])`` over the upper triangle."""
    i_upper, j_upper = np.triu_indices(ahead.shape[0], k=1)
    return int(np.minimum(ahead, ahead.T)[i_upper, j_upper].sum())


def kemeny_lower_bound(rankings: Sequence[PartialRanking], p: float = 0.5) -> float:
    """``sum_{pairs} min(D[x, y], D[y, x]) + p·T`` — a lower bound on the
    optimal full-ranking ``K^(p)`` aggregation objective.

    Tight whenever the pairwise-majority tournament is acyclic. The sum is
    an exact integer; ``p`` enters only through the final ``p·T``.
    """
    validate_penalty(p)
    _, ahead, ties = pair_cost_array(rankings)
    return float(_pairwise_minimum(ahead)) + p * ties


def _held_karp(ahead: npt.NDArray[np.int64], n: int) -> tuple[list[int], int]:
    """Optimal item order (as matrix indices) plus its disagreement count.

    The per-state appendix costs are batched: ``S = bits @ ahead.T`` gives
    ``S[mask, x] = sum_{y in mask} ahead[x, y]`` for every state in one
    matrix product, so appending ``x`` to the prefix ``mask`` adds
    ``row_total[x] − S[mask, x]`` (everything still unplaced) — an O(1)
    lookup instead of an O(n) sum, taking the DP from O(2^n · n²)
    interpreted work to O(2^n · n). Every value is an exact integer (at
    most ``m·n²``), so the product runs in int64 and the DP on Python
    ints. Transition ties resolve canonically: masks ascending, ``x``
    ascending, and only a strict improvement replaces the incumbent.
    """
    full = 1 << n
    bits = (np.arange(full)[:, None] >> np.arange(n)) & 1
    # added[mask][x] = count of ranking x ahead of everything outside mask
    added = (ahead.sum(axis=1)[None, :] - bits @ ahead.T).tolist()
    unreached = int(ahead.sum()) + 1
    dp = [unreached] * full
    parent = [-1] * full
    dp[0] = 0
    for mask in range(full):
        base = dp[mask]
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
    return order, dp[full - 1]
