"""Incremental (online) median aggregation.

In the paper's database scenario the input rankings arrive one per user
criterion; an interactive search page adds and removes criteria without
recomputing everything. The Lemma 8 median score of an item depends only
on the multiset of that item's positions, and every position is a
half-integer in ``[1, n]``. :class:`OnlineMedianAggregator` stores each
ranking as the flat indices ``base[c] + d`` of an ``(n, 2n − 1)`` count
matrix, one per codec slot ``c`` at doubled position ``d``, and keeps the
per-item multisets in one of two forms chosen by the number ``m`` of
rankings against the number ``2n − 1`` of bins:

* **Rows** while ``m < 2n − 1`` (a few criteria over many items): an
  ``(m, n)`` matrix. An add writes one row; a removal swaps the last
  row's entries into the removed ones, per column, after an O(m·n)
  search; a query sorts each column, O(m·n·log m).
* **Counts** once ``m`` reaches ``2n − 1`` (many voters over few items,
  the serving shape): the count matrix itself. Add, discard, update and
  forget scatter ``±1`` through the flat indices, O(n); a query reads the
  two median order statistics per item from one cumulative sum, O(n²).
  The aggregator stays on counts from then on.

The switch keeps memory at O(m·n) in both forms (the count matrix is no
larger than the rows it replaces) and puts each query on the cheaper
side: a count query scans ``n·(2n − 1)`` cells whatever ``m`` is, a row
query sorts ``m·n``.

The offline and online paths are interchangeable by construction: both
forms pick the same order statistics a columnwise sort would put at
``(m − 1) // 2`` and ``m // 2``, and the score is the same
``(low + high) / 2`` over the same float64 positions, so the tests and
the ``oracle:aggregate-online-*`` checks in :mod:`repro.verify` assert the
online snapshots equal the batch results (bit for bit) after every
update.

Beyond anonymous ``add``/``discard`` (removal by value), rankings can be
keyed by *voter*: :meth:`~OnlineMedianAggregator.update` inserts or
**replaces** the ranking a voter contributed (one discard plus one add
when the voter was already present), and
:meth:`~OnlineMedianAggregator.forget` drops a voter entirely. This is
the churn shape a live serving layer sees — users re-rank, they do not
append — and :mod:`repro.serve` drives the shard aggregators exclusively
through it.

Instances pickle to a compact ``(items, tie, rows, voter rows)`` tuple of
position rows (column-sorted when expanded from counts) and rebuild on
the receiving side of a process boundary; the rebuild rejects rows that
are not positions over the domain.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

import numpy as np
import numpy.typing as npt

from repro import obs
from repro.aggregate.batch import (
    _order_slots,
    _partial_ranking_from_scores,
    _top_k_slots,
)
from repro.aggregate.median import MedianTie, _check_tie
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import Item, PartialRanking
from repro.errors import AggregationError

__all__ = ["OnlineMedianAggregator"]


class OnlineMedianAggregator:
    """Median rank aggregation with incremental inserts and removals.

    Parameters
    ----------
    domain:
        The fixed item domain every input ranking must cover.
    tie:
        Median tie rule for even input counts (see
        :func:`repro.aggregate.median.median_of`).
    """

    def __init__(self, domain: Iterable[Item], tie: MedianTie = "mid") -> None:
        items = frozenset(domain)
        if not items:
            raise AggregationError("the aggregation domain must be non-empty")
        _check_tie(tie)
        self._tie: MedianTie = tie
        self._codec = DomainCodec.for_domain(items)
        n = len(items)
        # bin = doubled position − 2, in [0, 2n − 2]
        self._bins = 2 * n - 1
        self._items = np.arange(n, dtype=np.int64)
        # flat count index of doubled position d for item c: base[c] + d
        self._base = self._items * self._bins - 2
        self._count = 0
        # the first `_count` rows are live until the counts take over
        self._rows = np.empty((0, n), dtype=np.int64)
        self._counts: npt.NDArray[np.int64] | None = None
        # voter -> the (read-only) flat count indices of that voter's ranking
        self._voters: dict[Hashable, npt.NDArray[np.int64]] = {}

    # ------------------------------------------------------------------

    @property
    def domain(self) -> frozenset[Item]:
        return self._codec.domain

    def __len__(self) -> int:
        """Number of rankings currently aggregated."""
        return self._count

    def _encode(self, ranking: PartialRanking) -> npt.NDArray[np.int64]:
        """The flat count index of each item's position in ``ranking``."""
        if ranking.domain != self._codec.domain:
            raise AggregationError("ranking domain differs from the aggregator's domain")
        positions = ranking.dense_arrays(self._codec)[1]
        return self._base + np.rint(positions * 2.0).astype(np.int64)

    def _add_flat(self, flat: npt.NDArray[np.int64]) -> None:
        """Count one encoded ranking in (no validation; callers encode first)."""
        if self._counts is None:
            self._add_matrix(flat[None, :])
        else:
            self._counts[flat] += 1
            self._count += 1
        obs.add("aggregate.online.adds")

    def add(self, ranking: PartialRanking) -> None:
        """Ingest one input ranking. O(n) amortized."""
        self._add_flat(self._encode(ranking))

    def _add_matrix(self, flat: npt.NDArray[np.int64]) -> None:
        """Add every row of a ``(k, n)`` flat-index matrix at once.

        Rows while ``m < 2n − 1``; the add that reaches ``2n − 1`` folds
        them into the count matrix, which then takes every later add.
        """
        m = self._count + flat.shape[0]
        if self._counts is None:
            live = self._rows[: self._count]
            if m < self._bins:
                if m > self._rows.shape[0]:
                    self._rows = np.empty((max(m, 2 * self._count), flat.shape[1]), np.int64)
                    self._rows[: self._count] = live
                self._rows[self._count : m] = flat
                self._count = m
                return
            flat = np.concatenate([live, flat])
            self._rows = np.empty((0, flat.shape[1]), dtype=np.int64)
            self._counts = np.zeros(self._bins * self._items.shape[0], dtype=np.int64)
        self._counts += np.bincount(flat.ravel(), minlength=self._counts.shape[0])
        self._count = m

    def _discard_flat(self, flat: npt.NDArray[np.int64]) -> None:
        """Uncount one encoded ranking (validates before mutating)."""
        if self._count == 0:
            raise AggregationError("no rankings to discard")
        live = self._rows[: self._count]  # empty on counts
        if self._counts is None:
            matches = live == flat
            present = matches.any(axis=0)
        else:
            present = self._counts[flat] > 0
        # validate fully before mutating, so a failed discard is a no-op
        if not present.all():
            slot = int(np.flatnonzero(~present)[0])
            item = self._codec.items[slot]
            raise AggregationError(
                "ranking was not previously added (position mismatch at "
                f"item {item!r})"
            )
        if self._counts is None:
            live[matches.argmax(axis=0), self._items] = live[-1].copy()
        else:
            self._counts[flat] -= 1
        self._count -= 1
        obs.add("aggregate.online.discards")

    def discard(self, ranking: PartialRanking) -> None:
        """Remove one previously added ranking (a criterion toggled off).

        Raises if the ranking's positions were never added — removal is by
        value, so adding a ranking twice requires discarding it twice.
        """
        self._discard_flat(self._encode(ranking))

    # ------------------------------------------------------------------
    # Voter-keyed churn (replace semantics)
    # ------------------------------------------------------------------

    @property
    def voters(self) -> frozenset[Hashable]:
        """The voters currently contributing a keyed ranking."""
        return frozenset(self._voters)

    def update(self, voter: Hashable, ranking: PartialRanking) -> bool:
        """Insert or **replace** the ranking keyed by ``voter``.

        O(n) on counts, O(m·n) on rows. Returns ``True`` when the voter
        was already present (their previous ranking is discarded first),
        ``False`` on first contribution. The multiset of aggregated
        rankings after ``update`` equals the one reached by
        ``discard(old); add(new)``, so every query stays bit-for-bit equal
        to the offline batch path. Validation (domain check in the encode,
        presence check for the replaced ranking) completes before the
        first mutation, so a failed update is a no-op.
        """
        flat = self._encode(ranking)
        flat.setflags(write=False)
        previous = self._voters.get(voter)
        if previous is not None:
            self._discard_flat(previous)
        self._add_flat(flat)
        self._voters[voter] = flat
        obs.add("aggregate.online.updates")
        return previous is not None

    def forget(self, voter: Hashable) -> None:
        """Remove the ranking keyed by ``voter`` (raises if unknown)."""
        previous = self._voters.get(voter)
        if previous is None:
            raise AggregationError(f"voter {voter!r} has no ranking to forget")
        self._discard_flat(previous)
        del self._voters[voter]
        obs.add("aggregate.online.forgets")

    # ------------------------------------------------------------------

    def _doubled_medians(self) -> npt.NDArray[np.int64]:
        """Per-item doubled positions at ranks ``(m − 1) // 2`` and ``m // 2``.

        Returns a ``(ranks, n)`` matrix: one row when ``m`` is odd (the
        ranks coincide), two otherwise. On counts, every item's bins sum
        to ``m``, so a running total over the flat counts first exceeds
        ``c·m + k`` at the bin of item ``c``'s k-th smallest position.
        """
        m = self._count
        if m == 0:
            raise AggregationError("no rankings have been added yet")
        ranks = [m // 2] if m % 2 else [m // 2 - 1, m // 2]
        if self._counts is None:
            flat = np.sort(self._rows[:m], axis=0)[ranks]
        else:
            targets = self._items * m + np.array(ranks, dtype=np.int64)[:, None]
            flat = np.searchsorted(np.cumsum(self._counts), targets, side="right")
        return flat - self._base

    def _score_vector(self) -> npt.NDArray[np.float64]:
        doubled = self._doubled_medians()
        if self._tie == "low":
            return doubled[0] * 0.5
        if self._tie == "high":
            return doubled[-1] * 0.5
        # (low + high) / 2, exactly: doubled positions are small integers
        return (doubled[0] + doubled[-1]) * 0.25

    def scores(self) -> dict[Item, float]:
        """The current median score function."""
        return dict(zip(self._codec.items, self._score_vector().tolist()))

    def full_ranking(self) -> PartialRanking:
        """Theorem 11 output for the current inputs."""
        items = self._codec.items
        order = _order_slots(self._score_vector())
        return PartialRanking.from_sequence([items[slot] for slot in order])

    def top_k(self, k: int) -> PartialRanking:
        """Theorem 9 output for the current inputs."""
        if not 0 < k <= len(self._codec):
            raise AggregationError(
                f"k={k} out of range for domain of size {len(self._codec)}"
            )
        items = self._codec.items
        slots = _top_k_slots(self._score_vector(), k)
        return PartialRanking.top_k([items[slot] for slot in slots], self.domain)

    def partial_ranking(self) -> PartialRanking:
        """Theorem 10 output (Figure 1 DP) for the current inputs."""
        return _partial_ranking_from_scores(self._codec, self._score_vector())

    # ------------------------------------------------------------------

    def _position_rows(self) -> npt.NDArray[np.float64]:
        """An ``(m, n)`` position matrix with the aggregated per-item multisets."""
        if self._counts is None:
            return (self._rows[: self._count] - self._base) * 0.5
        # expand only the occupied bins: O(m·n), column by column
        occupied = np.flatnonzero(self._counts)
        doubled = np.repeat(occupied % self._bins + 2, self._counts[occupied])
        return (doubled * 0.5).reshape(-1, self._count).T.copy()

    def __reduce__(
        self,
    ) -> tuple[
        object,
        tuple[
            tuple[Item, ...],
            MedianTie,
            npt.NDArray[np.float64],
            tuple[tuple[Hashable, npt.NDArray[np.float64]], ...],
        ],
    ]:
        """Pickle as (items, tie, position rows, voter rows); the codec re-interns on load."""
        return (
            _rebuild_online,
            (
                tuple(self._codec.items),
                self._tie,
                self._position_rows(),
                tuple(
                    (voter, (flat - self._base) * 0.5)
                    for voter, flat in self._voters.items()
                ),
            ),
        )


def _doubled_positions(rows: object, n: int, ndim: int) -> npt.NDArray[np.int64]:
    """Validated doubled position rows: width ``n``, values in {1, 1.5, …, n}."""
    try:
        matrix = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise AggregationError(f"position rows are not numeric: {exc}") from exc
    if matrix.ndim != ndim or matrix.shape[-1] != n:
        raise AggregationError(
            f"position rows of shape {matrix.shape} do not match a domain of {n} items"
        )
    doubled = matrix * 2.0
    valid = (doubled == np.rint(doubled)) & (doubled >= 2.0) & (doubled <= 2.0 * n)
    if not bool(valid.all()):
        raise AggregationError(
            f"position rows hold values outside {{1, 1.5, ..., {n}}}"
        )
    return np.rint(doubled).astype(np.int64)


def _rebuild_online(
    items: tuple[Item, ...],
    tie: MedianTie,
    rows: npt.NDArray[np.float64],
    voters: tuple[tuple[Hashable, npt.NDArray[np.float64]], ...] = (),
) -> OnlineMedianAggregator:
    aggregator = OnlineMedianAggregator(items, tie=tie)
    n = len(aggregator._codec)
    base = aggregator._base
    flat = base + _doubled_positions(rows, n, ndim=2)
    voter_flat = [
        (voter, base + _doubled_positions(positions, n, ndim=1))
        for voter, positions in voters
    ]
    aggregator._add_matrix(flat)
    for voter, row in voter_flat:
        row.setflags(write=False)
        aggregator._voters[voter] = row
    return aggregator
