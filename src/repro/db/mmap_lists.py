"""Memory-mapped sorted lists: the out-of-core face of the cursor layer.

:class:`~repro.db.cursor.SortedCursor` wraps in-RAM
:class:`~repro.core.partial_ranking.PartialRanking` objects; at the
paper's database scale (n ≈ 10⁶ items per list) the lists themselves no
longer belong in object memory. A :class:`SortedListStore` persists a
profile's sorted-access orders — one row per list, each row the slots of
the domain in that list's sorted-access order — as a single ``.npy``
file and reads them back **memory-mapped**: an aggregation algorithm
that touches only the top of each list faults in only the top pages,
which is exactly the sequential-access economy MEDRANK's
instance-optimality claim is about.

Layout: an ``(m, n)`` integer matrix, row-major, so each list's sorted
accesses walk one row front to back — sequential within a page and
across pages. Slots are stored in int32 when :func:`int32_fits` says
they fit (int64 otherwise); counts and totals derived from them stay in
int64.

Row ``r`` is the stable argsort of list ``r``'s bucket-index row, which
is *definitionally* :meth:`PartialRanking.items_in_order
<repro.core.partial_ranking.PartialRanking.items_in_order>` in slot
space: items ordered by bucket, canonically (= by slot) within a
bucket. :func:`repro.aggregate.medrank.medrank_out_of_core` therefore
reads exactly the same item at every (list, depth) coordinate as the
in-memory :func:`~repro.aggregate.medrank.medrank`, reaches the same
depth, and reports identical access counts — the oracle and the scale
benchmark both assert it.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

import numpy as np
import numpy.typing as npt

from repro import obs
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import PartialRanking
from repro.db.cursor import CursorExhausted
from repro.errors import InvalidRankingError

__all__ = ["SortedListStore", "MmapSortedCursor", "int32_fits"]

_INT32_MAX = 2**31 - 1


def int32_fits(n: int) -> bool:
    """True when an n-item domain fits the int32 storage mode.

    Stored slots are below n; the bound ``2n ≤ 2³¹ − 1`` also covers
    doubled positions (at most 2n), the other integer encoding of a
    ranking. This predicate is the
    *sanction* RP014 recognizes: narrowing to int32 inside the kernel
    modules is legal only downstream of this check.
    """
    return 2 * n <= _INT32_MAX


class SortedListStore:
    """m sorted-access lists over an n-slot domain, one ``.npy`` on disk.

    Build once with :meth:`build` (from rankings) or
    :meth:`from_rows` (from precomputed access-order rows, for synthetic
    scale runs); reopen any time with :meth:`open`. ``mmap=True`` (the
    default on open) maps the file instead of reading it, so access cost
    tracks pages touched, not file size.
    """

    def __init__(self, path: Path, rows: npt.NDArray) -> None:
        if rows.ndim != 2:
            raise InvalidRankingError(
                f"sorted-list store must be 2-dimensional, got shape {rows.shape}"
            )
        self._path = path
        self._rows = rows

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        path: str | Path,
        profile: Sequence[PartialRanking],
    ) -> "SortedListStore":
        """Persist a profile's sorted-access orders and reopen them mapped.

        Each row is the stable argsort of the profile's bucket-index row —
        the slot-space ``items_in_order()`` of that list.
        """
        codec = DomainCodec.for_profile(profile)
        bucket_rows = np.stack([ranking.dense_arrays(codec)[0] for ranking in profile])
        order = np.argsort(bucket_rows, axis=1, kind="stable")
        return cls.from_rows(path, order)

    @classmethod
    def from_rows(cls, path: str | Path, rows: npt.NDArray) -> "SortedListStore":
        """Persist precomputed access-order rows and reopen them mapped.

        ``rows[r]`` must be a permutation of ``0..n-1`` (list ``r``'s
        sorted-access order). Stored in the sanctioned storage dtype.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise InvalidRankingError(
                f"sorted-list rows must be 2-dimensional, got shape {rows.shape}"
            )
        n = rows.shape[1]
        if int32_fits(n):
            # sanctioned storage narrowing: slots < n fit by the guard;
            # every consumer counts and totals in int64
            stored = rows.astype(np.int32)
        else:
            stored = rows.astype(np.int64)
        target = Path(path)
        np.save(target, stored)
        written = target if target.suffix == ".npy" else target.with_suffix(
            target.suffix + ".npy"
        )
        obs.add("db.mmap.builds")
        obs.add("db.mmap.bytes", int(stored.nbytes))
        return cls.open(written)

    @classmethod
    def open(cls, path: str | Path, *, mmap: bool = True) -> "SortedListStore":
        """Reopen a persisted store, memory-mapped unless ``mmap=False``.

        ``mmap=False`` reads the whole file into RAM — the in-memory
        control the scale benchmark compares page-thrift against.
        """
        target = Path(path)
        rows = np.load(target, mmap_mode="r" if mmap else None)
        if not mmap:
            rows.setflags(write=False)
        return cls(target, rows)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def num_lists(self) -> int:
        return int(self._rows.shape[0])

    @property
    def domain_size(self) -> int:
        return int(self._rows.shape[1])

    @property
    def storage(self) -> str:
        """Storage dtype name: ``int32`` (fast path) or ``int64``."""
        return str(self._rows.dtype.name)

    @property
    def is_mmap(self) -> bool:
        return isinstance(self._rows, np.memmap)

    def cursor(self, index: int) -> "MmapSortedCursor":
        """A sorted-access cursor over list ``index``."""
        if not 0 <= index < self.num_lists:
            raise IndexError(f"list index {index} out of range for {self.num_lists} lists")
        return MmapSortedCursor(self._rows[index])

    def cursors(self) -> list["MmapSortedCursor"]:
        """One cursor per list, in list order (the round-robin front)."""
        return [MmapSortedCursor(self._rows[index]) for index in range(self.num_lists)]

    def __repr__(self) -> str:
        kind = "mmap" if self.is_mmap else "ram"
        return (
            f"SortedListStore(m={self.num_lists}, n={self.domain_size}, "
            f"storage={self.storage}, {kind})"
        )


class MmapSortedCursor:
    """Sorted access over one stored list, with exact access accounting.

    The slot-space twin of :class:`~repro.db.cursor.SortedCursor`:
    ``next_slot()`` returns domain slots in ranked order and counts every
    call (``db.mmap.accesses``). Reads walk the row front to back, so on
    a mapped store the pages faulted in are exactly the prefix touched.
    """

    __slots__ = ("_row", "_index", "_accesses")

    def __init__(self, row: npt.NDArray) -> None:
        self._row = row
        self._index = 0
        self._accesses = 0

    @property
    def accesses(self) -> int:
        """Number of sorted accesses performed so far."""
        return self._accesses

    @property
    def depth(self) -> int:
        """Number of slots consumed so far."""
        return self._index

    @property
    def exhausted(self) -> bool:
        return self._index >= self._row.shape[0]

    def next_slot(self) -> int:
        """Consume and return the next slot in sorted-access order."""
        if self.exhausted:
            raise CursorExhausted(
                f"cursor over {self._row.shape[0]} slots is exhausted"
            )
        slot = int(self._row[self._index])
        self._index += 1
        self._accesses += 1
        obs.add("db.mmap.accesses")
        return slot
