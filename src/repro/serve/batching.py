"""Request coalescing: many concurrent distance calls, one batch kernel.

Under concurrent load, distance requests over the same domain arrive
faster than the per-pair Python path can answer them one by one. The
:class:`DistanceBatcher` waits on no timer: the first request of a
``(codec, metric, p)`` group opens a *batch* and schedules its flush as
a new task, which runs only after every task already runnable on the
current event-loop tick has had its turn. Every same-group request those
tasks make joins the open batch, so an ``asyncio.gather`` of N requests
— or N connections whose reads completed together — lands in one batch,
while a lone request is answered on the next turn. On flush the batch's
distinct rankings (deduplicated by value — ranking hashes are cached on
the objects) become one profile, a **single**
:func:`repro.metrics.batch.pairwise_distance_matrix` call classifies all
pairs at once, and each waiter receives its matrix entry.

Because the batch kernels are bit-for-bit equal to the two-ranking
metrics, a coalesced answer is *identical* to the per-call answer — the
concurrency tests assert ``==`` on floats, and the
``serve.batch.coalesced`` / ``serve.batch.flushes`` counters make the
"N requests, one kernel call" claim observable.
"""

from __future__ import annotations

import asyncio
from typing import Hashable

from repro import obs
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import PartialRanking
from repro.metrics.batch import pairwise_distance_matrix

__all__ = ["DistanceBatcher"]


class _Batch:
    """One open batch for a ``(codec, metric, p)`` group."""

    __slots__ = ("rankings", "index", "waiters", "task")

    def __init__(self) -> None:
        self.rankings: list[PartialRanking] = []
        self.index: dict[PartialRanking, int] = {}
        self.waiters: list[tuple[int, int, asyncio.Future[float]]] = []
        self.task: asyncio.Task[None] | None = None

    def enlist(self, ranking: PartialRanking) -> int:
        slot = self.index.get(ranking)
        if slot is None:
            slot = len(self.rankings)
            self.index[ranking] = slot
            self.rankings.append(ranking)
        return slot


class DistanceBatcher:
    """Coalesces concurrent distance requests into batch kernel calls.

    One instance per service; requests are grouped by the interned codec
    (domain identity), the canonical metric name, and the Kendall
    penalty ``p``, so every flush is a well-formed single-domain profile.
    """

    __slots__ = ("_jobs", "_pending")

    def __init__(self, jobs: int | None = None) -> None:
        self._jobs = jobs
        self._pending: dict[Hashable, _Batch] = {}

    async def distance(
        self,
        codec: DomainCodec,
        sigma: PartialRanking,
        tau: PartialRanking,
        metric: str,
        p: float,
    ) -> float:
        """Await the distance, coalescing with concurrent same-group calls."""
        group = (codec, metric, p)
        batch = self._pending.get(group)
        if batch is None:
            batch = _Batch()
            self._pending[group] = batch
            batch.task = asyncio.ensure_future(self._flush(group, batch))
        i = batch.enlist(sigma)
        j = batch.enlist(tau)
        future: asyncio.Future[float] = asyncio.get_running_loop().create_future()
        batch.waiters.append((i, j, future))
        obs.add("serve.batch.enqueued")
        return await future

    async def _flush(self, group: Hashable, batch: _Batch) -> None:
        # the task's first turn comes after every task runnable when the
        # batch opened; close it now, so later arrivals start a fresh one
        if self._pending.get(group) is batch:
            del self._pending[group]
        _, metric, p = group
        try:
            if len(batch.rankings) == 1:
                # every waiter asked for d(sigma, sigma); the metrics are
                # metrics, so the answer is exactly 0.0 — no kernel needed
                values = {(0, 0): 0.0}
            else:
                with obs.trace(
                    "serve.batch.flush",
                    metric=metric,
                    rankings=len(batch.rankings),
                    requests=len(batch.waiters),
                ):
                    matrix = pairwise_distance_matrix(
                        batch.rankings, metric, p=p, jobs=self._jobs
                    )
                values = {
                    (i, j): float(matrix[i, j])
                    for i, j, _ in batch.waiters
                }
        except Exception as exc:  # noqa: BLE001 — every waiting request must receive the failure; swallowing here would hang clients forever
            for _, _, future in batch.waiters:
                if not future.done():
                    future.set_exception(exc)
            return
        obs.add("serve.batch.flushes")
        obs.add("serve.batch.coalesced", len(batch.waiters))
        for i, j, future in batch.waiters:
            if not future.done():
                future.set_result(values[i, j])

    def pending_groups(self) -> int:
        """Open batches right now (introspection for stats)."""
        return len(self._pending)

    async def drain(self) -> None:
        """Await every open batch (used by tests and orderly shutdown)."""
        tasks = [b.task for b in list(self._pending.values()) if b.task is not None]
        for task in tasks:
            await task
