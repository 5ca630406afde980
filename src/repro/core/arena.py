"""Shared-memory profile arenas: one encoding, any number of processes.

The batch kernels already encode a profile once per *process* — the
interned :class:`~repro.core.codec.DomainCodec` plus the per-ranking
:meth:`~repro.core.partial_ranking.PartialRanking.dense_arrays` caches
collapse the m² pairwise evaluations to m encodes. What they did not
solve is the *process boundary*: every pooled code path shipped whole
``(m, n)`` matrices to each worker through pickle, which at the
million-item scale costs more than the kernels themselves.

A :class:`ProfileArena` stores the profile **once** in
:mod:`multiprocessing.shared_memory` as two ``(m, n)`` matrices — the
bucket-index matrix and the position matrix in doubled "half units"
(positions are multiples of ½, so ``2·position`` is an exact integer):

* **int32 storage mode** is auto-selected whenever the doubled positions
  fit (``2n < 2³¹``, i.e. every realistic domain), halving memory and
  bus traffic; totals derived from the arena are still accumulated in
  int64 — narrowing is a *storage* decision sanctioned by
  :func:`int32_fits`, never an accumulator one (RP014 enforces this).
* workers **map, not copy**: :func:`repro.parallel.parallel_map_arena`
  ships only the :class:`ArenaHandle` (a name and a shape) and each
  worker attaches the same physical pages. The batch kernels have one
  chunk worker per kernel shape, each taking an ``(m, n)`` matrix; on
  this path the worker reads that matrix (:attr:`~ProfileArena.bucket_rows`
  or :attr:`~ProfileArena.positions`) from its mapped arena.
* float64 positions are decoded lazily (``half · 0.5``, exact) and
  cached per attached process, so the object-layer kernels see exactly
  the floats they always saw — every arena-backed result is required to
  be bit-for-bit equal to the list-of-rankings path, and the
  ``oracle:batch-arena`` / ``oracle:aggregate-median-outputs`` checks
  assert it.

Lifecycle: arenas are refcounted per process. :meth:`from_profile` and
:meth:`attach` return an arena holding one reference; a repeated
:meth:`attach` of the same segment in the same process returns the same
object with its refcount bumped. :meth:`detach` drops one reference;
the last detach closes the mapping and — only in the creating process —
unlinks the segment. The Hypothesis suite drives interleaved
attach/detach sequences across a real pool boundary and asserts that the
segment is gone (and only gone) after the creator's last detach.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any
from weakref import WeakValueDictionary

import numpy as np
import numpy.typing as npt

from repro import obs
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import Item, PartialRanking
from repro.errors import InvalidRankingError

__all__ = ["ArenaHandle", "ProfileArena", "int32_fits", "storage_dtype"]

_INT32_MAX = 2**31 - 1


def int32_fits(n: int) -> bool:
    """True when an n-item domain fits the int32 storage mode.

    The stored quantities are bucket indices (< n) and doubled positions
    (≤ 2n), so the binding constraint is ``2n ≤ 2³¹ − 1``. This predicate
    is the *sanction* RP014 recognizes: narrowing to int32 inside the
    kernel modules is legal only downstream of this check.
    """
    return 2 * n <= _INT32_MAX


def storage_dtype(n: int) -> type[np.signedinteger[Any]]:
    """The arena storage dtype for an n-item domain (int32 when it fits)."""
    return np.int32 if int32_fits(n) else np.int64


@dataclass(frozen=True, slots=True)
class ArenaHandle:
    """A picklable address of an arena: everything a worker needs to map it.

    Deliberately tiny — a segment name and the matrix geometry — so
    handing it to a pool task costs bytes where pickling the matrices
    cost gigabytes. The handle carries no domain items; decoding slots
    back to items needs the codec and stays in the owning process.
    """

    name: str
    m: int
    n: int
    storage: str  # "int32" | "int64"

    @property
    def nbytes(self) -> int:
        """Total payload bytes of the two stored matrices."""
        return 2 * self.m * self.n * np.dtype(self.storage).itemsize

    def attach(self) -> "ProfileArena":
        """Shorthand for :meth:`ProfileArena.attach`."""
        return ProfileArena.attach(self)


def _unregister_from_tracker(shm: shared_memory.SharedMemory) -> None:
    """Detach a non-creating process from the resource tracker.

    On POSIX, ``SharedMemory(name=...)`` registers the segment with the
    attaching process's resource tracker, which would unlink it when
    *that* process exits — destroying a segment the creator still owns
    (bpo-39959; fixed by ``track=False`` only in 3.13). Ownership here is
    explicit and refcounted, so attachers must not be tracked.
    """
    if sys.platform == "win32":  # pragma: no cover - no tracker on Windows
        return
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - tracker always ships on POSIX
        return
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except (AttributeError, OSError):  # pragma: no cover - tracker internals moved
        pass


class ProfileArena:
    """A profile of m rankings over n items, resident in shared memory.

    Build with :meth:`from_profile` (or the codec-interned
    :meth:`for_profile`) in the owning process; address with
    :meth:`handle`; map in any process with :meth:`attach`. Release every
    reference with :meth:`detach` — the arena is also a context manager
    that detaches on exit.
    """

    __slots__ = (
        "_shm",
        "_buckets",
        "_half",
        "_codec",
        "_profile",
        "_positions",
        "_owner_pid",
        "_refs",
        "_m",
        "_n",
        "_storage",
        "__weakref__",
    )

    #: Process-local registry of live arenas by segment name, so repeated
    #: attaches (e.g. every task of a pool worker) share one mapping.
    _live: "WeakValueDictionary[str, ProfileArena]" = WeakValueDictionary()
    #: Codec-identity intern table for :meth:`for_profile`.
    _by_codec: "WeakValueDictionary[int, ProfileArena]" = WeakValueDictionary()

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        m: int,
        n: int,
        storage: str,
        codec: DomainCodec | None,
        profile: tuple[PartialRanking, ...] | None,
        owner_pid: int | None,
    ) -> None:
        self._shm = shm
        self._m = m
        self._n = n
        self._storage = storage
        self._codec = codec
        self._profile = profile
        self._positions: npt.NDArray[np.float64] | None = None
        self._owner_pid = owner_pid
        self._refs = 1
        dtype = np.dtype(storage)
        cells = m * n
        buckets = np.ndarray((m, n), dtype=dtype, buffer=shm.buf)
        half = np.ndarray(
            (m, n), dtype=dtype, buffer=shm.buf, offset=cells * dtype.itemsize
        )
        buckets.setflags(write=False)
        half.setflags(write=False)
        self._buckets = buckets
        self._half = half
        ProfileArena._live[shm.name] = self

    # ------------------------------------------------------------------
    # Construction and attachment
    # ------------------------------------------------------------------

    @classmethod
    def from_profile(
        cls,
        rankings: Sequence[PartialRanking],
        codec: DomainCodec | None = None,
    ) -> "ProfileArena":
        """Encode a profile into a fresh shared-memory segment.

        Validates the common domain (via the codec), writes both matrices
        directly into the segment, and returns the owning arena with one
        reference held.
        """
        if codec is None:
            codec = DomainCodec.for_profile(rankings)
        m, n = len(rankings), len(codec)
        if m == 0:
            raise InvalidRankingError("cannot build an arena for an empty profile")
        dtype = np.dtype(storage_dtype(n))
        cells = m * n
        shm = shared_memory.SharedMemory(create=True, size=2 * cells * dtype.itemsize)
        buckets = np.ndarray((m, n), dtype=dtype, buffer=shm.buf)
        half = np.ndarray(
            (m, n), dtype=dtype, buffer=shm.buf, offset=cells * dtype.itemsize
        )
        for row, ranking in enumerate(rankings):
            bucket_row, position_row = ranking.dense_arrays(codec)
            # positions are multiples of ½, so 2·position is an exact
            # integer; rint makes the cast representation-independent
            if int32_fits(n):
                # sanctioned storage narrowing: both quantities fit by the
                # guard; every consumer accumulates in int64
                buckets[row] = bucket_row.astype(np.int32)
                half[row] = np.rint(position_row * 2.0).astype(np.int32)
            else:
                buckets[row] = bucket_row
                half[row] = np.rint(position_row * 2.0).astype(np.int64)
        arena = cls(
            shm,
            m,
            n,
            dtype.name,
            codec,
            tuple(rankings),
            owner_pid=os.getpid(),
        )
        obs.add("core.arena.creates")
        obs.add("core.arena.bytes", 2 * cells * dtype.itemsize)
        return arena

    @classmethod
    def for_profile(cls, rankings: Sequence[PartialRanking]) -> "ProfileArena":
        """The interned arena for this exact profile (codec-identity keyed).

        Returns the live arena built earlier for the same codec and the
        same ranking objects (compared by identity — the arena holds
        strong references, so identity is stable), with its refcount
        bumped; otherwise builds a new one. Every return value must be
        balanced by one :meth:`detach`.
        """
        codec = DomainCodec.for_profile(rankings)
        cached = cls._by_codec.get(id(codec))
        if (
            cached is not None
            and cached.attached
            and cached._codec is codec
            and cached._profile is not None
            and len(cached._profile) == len(rankings)
            and all(a is b for a, b in zip(cached._profile, rankings))
        ):
            cached._refs += 1
            obs.add("core.arena.intern_hits")
            return cached
        arena = cls.from_profile(rankings, codec)
        cls._by_codec[id(codec)] = arena
        return arena

    @classmethod
    def attach(cls, handle: ArenaHandle) -> "ProfileArena":
        """Map an existing segment (zero-copy; memoized per process).

        In the creating process (or a forked child that inherited the
        mapping) this returns the original arena object with its refcount
        bumped; elsewhere it opens the named segment read-only. Attached
        arenas carry no codec — slot-space kernels only.
        """
        live = cls._live.get(handle.name)
        if live is not None and live.attached:
            live._refs += 1
            obs.add("core.arena.attaches")
            return live
        shm = shared_memory.SharedMemory(name=handle.name)
        _unregister_from_tracker(shm)
        arena = cls(
            shm, handle.m, handle.n, handle.storage, None, None, owner_pid=None
        )
        obs.add("core.arena.attaches")
        return arena

    def handle(self) -> ArenaHandle:
        """The picklable address of this arena."""
        self._require_attached()
        return ArenaHandle(
            name=self._shm.name, m=self._m, n=self._n, storage=self._storage
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def attached(self) -> bool:
        """Whether this process still holds at least one reference."""
        return self._refs > 0

    @property
    def refcount(self) -> int:
        return self._refs

    def detach(self) -> None:
        """Drop one reference; the last one closes (and owner-unlinks).

        Closing invalidates every array view handed out by this arena in
        this process. Only the process that created the segment unlinks
        it — a forked worker that inherited the owner object merely
        closes its mapping.
        """
        self._require_attached()
        self._refs -= 1
        obs.add("core.arena.detaches")
        if self._refs:
            return
        # drop the views before closing the buffer they borrow
        self._buckets = None  # type: ignore[assignment]
        self._half = None  # type: ignore[assignment]
        self._positions = None
        self._profile = None
        self._shm.close()
        if self._owner_pid == os.getpid():
            self._shm.unlink()
            obs.add("core.arena.unlinks")

    def __enter__(self) -> "ProfileArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.attached:
            self.detach()

    def _require_attached(self) -> None:
        if self._refs <= 0:
            raise InvalidRankingError("arena has been detached")

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of rankings (matrix rows)."""
        return self._m

    @property
    def n(self) -> int:
        """Domain size (matrix columns)."""
        return self._n

    @property
    def storage(self) -> str:
        """Storage dtype name: ``int32`` (fast path) or ``int64``."""
        return self._storage

    @property
    def nbytes(self) -> int:
        """Shared-memory payload of the two matrices."""
        return 2 * self._m * self._n * np.dtype(self._storage).itemsize

    @property
    def codec(self) -> DomainCodec | None:
        """The profile's codec; ``None`` on handle-attached arenas."""
        return self._codec

    @property
    def bucket_rows(self) -> npt.NDArray[np.signedinteger[Any]]:
        """The ``(m, n)`` bucket-index matrix, read-only, storage dtype."""
        self._require_attached()
        return self._buckets

    @property
    def half_position_rows(self) -> npt.NDArray[np.signedinteger[Any]]:
        """Doubled positions (``2·position``, exact integers), read-only.

        The int fast path: differences and sums of these stay in int64
        (consumers must accumulate with ``dtype=np.int64``) and relate to
        the float positions by an exact factor of 2.
        """
        self._require_attached()
        return self._half

    @property
    def positions(self) -> npt.NDArray[np.float64]:
        """Float64 position matrix, decoded once per process and cached.

        ``half · 0.5`` is exact (halves of integers below 2⁵³), so these
        are bit-for-bit the floats :func:`repro.metrics.batch.position_matrix`
        builds from the rankings themselves.
        """
        self._require_attached()
        cached = self._positions
        if cached is None:
            cached = self._half.astype(np.float64) * 0.5
            cached.setflags(write=False)
            self._positions = cached
            obs.add("core.arena.decodes")
        return cached

    def items(self) -> tuple[Item, ...]:
        """Slot-ordered domain items (owner-side arenas only)."""
        if self._codec is None:
            raise InvalidRankingError(
                "handle-attached arena carries no codec; decode slots in the owner"
            )
        return self._codec.items

    def __len__(self) -> int:
        return self._m

    def __repr__(self) -> str:
        state = "attached" if self.attached else "detached"
        return (
            f"ProfileArena(m={self._m}, n={self._n}, storage={self._storage}, "
            f"{state}, refs={self._refs})"
        )
