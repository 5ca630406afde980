"""Low-level algorithmic helpers shared across the library.

This module contains the small, well-tested machinery that the metric and
aggregation code builds on:

* :class:`FenwickTree` — a binary indexed tree over prefix counts, used for
  O(n log n) discordant-pair counting.
* :func:`sorted_slice_l1` — L1 cost of moving a sorted slice of values onto a
  single point, in O(log n) per query via prefix sums (used by the optimal
  bucketing dynamic program).
* :func:`ordered_partitions` — enumeration of all bucket orders of a set
  (used by the brute-force aggregation oracles).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from itertools import accumulate
from typing import TypeVar

T = TypeVar("T")

__all__ = [
    "FenwickTree",
    "SortedSliceL1",
    "sorted_slice_l1",
    "ordered_partitions",
    "pairs",
]


class FenwickTree:
    """A Fenwick (binary indexed) tree over integer counts.

    Supports point updates and prefix-sum queries in O(log n). Indices are
    0-based on the public interface.
    """

    __slots__ = ("_tree", "_size")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self._size = size
        self._tree = [0] * (size + 1)

    def __len__(self) -> int:
        return self._size

    def add(self, index: int, delta: int = 1) -> None:
        """Add ``delta`` to the count at ``index``."""
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range for size {self._size}")
        i = index + 1
        while i <= self._size:
            self._tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Return the sum of counts at positions ``0..index`` inclusive.

        ``index = -1`` is allowed and yields 0.
        """
        if index >= self._size:
            raise IndexError(f"index {index} out of range for size {self._size}")
        total = 0
        i = index + 1
        while i > 0:
            total += self._tree[i]
            i -= i & (-i)
        return total

    def total(self) -> int:
        """Return the sum of all counts in the tree."""
        return self.prefix_sum(self._size - 1) if self._size else 0


class SortedSliceL1:
    """Precomputed prefix sums over a sorted value sequence.

    Answers "what is ``sum(|v - point| for v in values[i:j])``" in O(log n)
    per query. The constructor requires ``values`` to be sorted ascending;
    this is validated once.
    """

    __slots__ = ("_values", "_prefix")

    def __init__(self, values: Sequence[float]) -> None:
        vals = list(values)
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ValueError("values must be sorted ascending")
        self._values = vals
        self._prefix = [0.0, *accumulate(vals)]

    def __len__(self) -> int:
        return len(self._values)

    def cost(self, start: int, stop: int, point: float) -> float:
        """Return ``sum(|values[k] - point| for k in range(start, stop))``."""
        if not 0 <= start <= stop <= len(self._values):
            raise IndexError(f"bad slice [{start}:{stop}] for length {len(self._values)}")
        if start == stop:
            return 0.0
        # split the slice at the first index whose value exceeds `point`
        split = bisect_right(self._values, point, start, stop)
        below = (split - start) * point - (self._prefix[split] - self._prefix[start])
        above = (self._prefix[stop] - self._prefix[split]) - (stop - split) * point
        return below + above

    def median_cost(self, start: int, stop: int) -> float:
        """Return the minimum L1 cost of the slice to any single point.

        The minimizer is the slice median; used as a sanity baseline by the
        bucketing DP tests.
        """
        if start == stop:
            return 0.0
        mid = (start + stop - 1) // 2
        return self.cost(start, stop, self._values[mid])


def sorted_slice_l1(values: Sequence[float], start: int, stop: int, point: float) -> float:
    """One-shot convenience wrapper around :class:`SortedSliceL1`."""
    return SortedSliceL1(values).cost(start, stop, point)


def ordered_partitions(items: Sequence[T]) -> Iterator[list[list[T]]]:
    """Yield every ordered set partition (bucket order) of ``items``.

    The number of ordered partitions of an n-set is the n-th Fubini number
    (1, 1, 3, 13, 75, 541, 4683, ...), so this is only usable for small n —
    it exists as an exhaustive oracle for the aggregation and DP tests.
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in ordered_partitions(rest):
        # insert `first` into each existing bucket ...
        for i in range(len(partition)):
            grown = [list(bucket) for bucket in partition]
            grown[i].append(first)
            yield grown
        # ... or as a new singleton bucket at each position
        for i in range(len(partition) + 1):
            yield [*(list(b) for b in partition[:i]), [first], *(list(b) for b in partition[i:])]


def pairs(n: int) -> int:
    """Return ``n choose 2`` — the number of unordered pairs."""
    return n * (n - 1) // 2
