"""Array-based (numpy) pair classification — the large-n kernel.

A second, structurally different implementation of the pair classifier
behind ``K^(p)`` / ``K_prof`` / ``K_Haus``, over the dense bucket-index
rows of :class:`~repro.core.codec.DomainCodec`:

* tie counts fall out of run lengths of the lexicographically sorted
  ``(sigma, tau)`` bucket-index pairs;
* strict discordances are strict inversions of the ``tau`` bucket sequence
  after that sort, counted by a bottom-up merge whose *entire* per-level
  work is a handful of flat numpy calls — one ``searchsorted`` over the
  concatenated offset-keyed left runs classifies every cross-run pair of
  the level at once, with no Python-level loop over runs.

:func:`repro.metrics.kendall.pair_counts` runs this classifier at or
above a measured item-count threshold and the Fenwick tree below it (see
``_ARRAY_MIN_ITEMS`` there and the ``pair_counts_crossover`` block of
``BENCH_PR2.json``); the per-pair strategy of
:func:`repro.metrics.batch.pairwise_distance_matrix` runs it on every
row pair. Both paths are compared bit for bit by the ``pair-counts`` and
``kendall-*`` oracles of :mod:`repro.verify`.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import numpy.typing as npt

__all__ = ["count_inversions_array"]  # repro: noqa[RP011] — runs under the metrics.pair_counts and metrics.batch spans of its callers


def count_inversions_array(values: npt.ArrayLike) -> int:
    """Strict inversions of a 1-D integer/float array, fully vectorized.

    Bottom-up merge sort with no Python-level loop over runs: values are
    first dense-rank compressed to ``0..n-1``, padded with a sentinel to a
    power-of-two length, and then, at each merge level, every pair of
    adjacent runs is processed *simultaneously* — adding ``run_id * stride``
    to each element makes the concatenation of all left runs globally
    sorted, so a single flat ``searchsorted`` classifies every (left,
    right) cross-run pair of the level, and one axis-wise ``sort`` merges
    all runs for the next level. Equal values never count. O(n log² n)
    total work, all of it inside numpy.
    """
    a = np.asarray(values)
    n = int(a.size)
    if n < 2:
        return 0
    # dense-rank compression: int64 ranks in [0, n), ties share a rank
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    boundary = np.empty(n, dtype=np.int64)
    boundary[0] = 0
    boundary[1:] = ordered[1:] != ordered[:-1]
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.cumsum(boundary)
    # pad to a power of two with a sentinel larger than every rank; the
    # sentinels form a suffix, so left runs only ever hold sentinels when
    # the matching right run is pure sentinel — they add no inversions
    size = 1 << (n - 1).bit_length()
    work = np.full(size, n, dtype=np.int64)
    work[:n] = ranks
    stride = n + 1  # > every rank and the sentinel: keys of distinct runs never collide
    total = 0
    width = 1
    while width < size:
        nblocks = size // (2 * width)
        blocks = work.reshape(nblocks, 2 * width)
        offsets = np.arange(nblocks, dtype=np.int64) * stride
        left = (blocks[:, :width] + offsets[:, None]).ravel()
        right = (blocks[:, width:] + offsets[:, None]).ravel()
        # for each right element: left elements of the SAME run <= it,
        # via one flat searchsorted over all runs of the level
        not_greater = np.searchsorted(left, right, side="right")
        not_greater -= np.repeat(np.arange(nblocks, dtype=np.int64) * width, width)
        total += int(nblocks * width * width - int(not_greater.sum()))
        # merge every run pair at once: each 2*width block sorts in place
        work = np.sort(blocks, axis=1).reshape(-1)
        width *= 2
    return total


def _classify_rows(
    x: npt.NDArray[np.signedinteger[Any]], y: npt.NDArray[np.signedinteger[Any]]
) -> tuple[int, int]:
    """(discordant, tied_both) between two bucket-index rows.

    Lexicographic sort by ``(x asc, y asc)``: within equal ``x``, ``y`` is
    ascending, so strict inversions of the sorted ``y`` sequence are
    exactly the pairs strict in ``x`` and strictly reversed in ``y``, and
    runs of equal ``(x, y)`` are the pairs tied in both rows.
    """
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    n = len(xs)
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    run_lengths = np.diff(np.append(np.flatnonzero(change), n))
    tied_both = int((run_lengths * (run_lengths - 1) // 2).sum())
    return count_inversions_array(ys), tied_both
