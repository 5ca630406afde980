"""The ``serve-fanin`` workload: 512 closed-loop users on one event loop.

The users drive an in-process ``RankingService`` with the default
``ServeConfig``, so many distance requests are in flight at once and the
``DistanceBatcher`` coalesces them; ``serve.http`` is bypassed.

Voter references are resolved against the benchmark's own copy of the
voter map right before each call. The service resolves them when it
accepts the request, with no ``await`` in between, so the copy is exact
and every sampled answer can be checked afterwards.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any

from repro.core.partial_ranking import PartialRanking
from repro.serve import RankingService, ServeConfig

from answers import scalar_distance

#: Every CHECK_EVERY-th distance answer, counted over all users, is
#: checked afterwards.
CHECK_EVERY = 16


class State:
    """The service, the voter map it was loaded with, and the literal pools."""

    def __init__(self, inputs: dict[str, Any]) -> None:
        self.domains = [frozenset(items) for items in inputs["domains"]]
        self.pools = [
            [PartialRanking(buckets) for buckets in pool] for pool in inputs["pools"]
        ]
        self.voters: list[dict[str, PartialRanking]] = [{} for _ in self.domains]
        self.streams = inputs["streams"]
        self.service = RankingService(ServeConfig())

    async def replay(self, log: list) -> None:
        for d, voter, buckets in log:
            ranking = PartialRanking(buckets)
            await self.service.update(self.domains[d], voter, ranking)
            self.voters[d][voter] = ranking


def load(inputs: dict[str, Any]) -> State:
    state = State(inputs)
    asyncio.run(state.replay(inputs["replay"]))
    return state


async def _user(
    state: State,
    stream: list,
    position: int,
    deadline: float,
    record: list,
    distances: itertools.count,
    checks: list,
    failures: list,
) -> int:
    service = state.service
    while time.perf_counter() < deadline:
        op = stream[position % len(stream)]
        position += 1
        kind, d = op[0], op[1]
        domain = state.domains[d]
        t0 = time.perf_counter()
        try:
            if kind == "d":
                sigma, tau = (
                    state.voters[d][ref] if tag == "v" else state.pools[d][ref]
                    for tag, ref in (op[2], op[3])
                )
                value = await service.distance(domain, sigma, tau, metric=op[4])
                if next(distances) % CHECK_EVERY == 0:
                    checks.append((op[4], sigma, tau, value))
            elif kind == "u":
                ranking = state.pools[d][op[3]]
                await service.update(domain, op[2], ranking)
                state.voters[d][op[2]] = ranking
            else:
                await service.consensus(domain, kind=op[2], k=op[3])
        except Exception as exc:  # a failed request is counted, not fatal
            failures.append(f"{kind}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        record.append((t1, t1 - t0))
    return position


async def run_phase(state: State, seconds: float, positions: list[int]) -> dict[str, Any]:
    """All users in a closed loop for ``seconds``; returns raw samples."""
    record: list[tuple[float, float]] = []
    checks: list = []
    failures: list[str] = []
    distances = itertools.count()
    start = time.perf_counter()
    deadline = start + seconds
    ends = await asyncio.gather(
        *(
            _user(state, stream, position, deadline, record, distances, checks, failures)
            for stream, position in zip(state.streams, positions)
        )
    )
    await state.service.drain()
    positions[:] = ends
    return {
        "start": start,
        "end": deadline,
        "record": record,
        "checks": checks,
        "failures": failures,
    }


def check(checks: list) -> list[str]:
    """Sampled distance answers against the scalar two-ranking metric."""
    problems = []
    for metric, sigma, tau, value in checks:
        expected = scalar_distance(metric, sigma, tau)
        if float(value) != expected:
            problems.append(f"{metric}: served {value!r}, scalar {expected!r}")
    return problems
