"""Load generator + regression gate for the serving layer (PR 8).

Simulates 10,000+ concurrent users against an in-process
:class:`repro.serve.RankingService` — the same object the HTTP layer
wraps, so the numbers measure the serving core (batching and sharded
aggregation) without socket noise. Every user is an asyncio
task with its own deterministic RNG issuing a mix of distance queries
(75%), ranking updates (15%) and consensus queries (10%) over a shared
set of domains; a sampled subset of distance responses is checked
bit-for-bit against the direct two-ranking metric while the load runs.

Three numbers matter: **throughput** (operations/second over the whole
gather), **latency** p50/p99 (per-operation wall time, including queuing
behind the other 10k tasks), and the **mean batch size** the coalescer
achieved (requests answered per kernel call — the whole point of the
layer).

Modes:

* ``PYTHONPATH=src python benchmarks/bench_serve.py`` — run the full
  load and regenerate ``BENCH_SERVE.json`` at the repo root.
* ``PYTHONPATH=src python benchmarks/bench_serve.py --check
  BENCH_SERVE.json`` — the CI gate: re-run (smoke-sized operation count
  under ``REPRO_BENCH_SMOKE=1``, same user count) and fail on any
  bit-exactness mismatch, on throughput below
  :data:`THROUGHPUT_FLOOR` x baseline, or on the coalescer degenerating
  to un-batched execution (mean batch < :data:`MIN_MEAN_BATCH`).
"""

from __future__ import annotations

import asyncio
import os
import random
import statistics
import time

from repro import obs
from repro.errors import AggregationError
from repro.generators.random import random_bucket_order, resolve_rng
from repro.metrics.kendall import kendall
from repro.serve import RankingService, ServeConfig

#: Gate: re-measured throughput must stay above this fraction of baseline.
THROUGHPUT_FLOOR = 0.35

#: Gate: the coalescer must average at least this many requests per flush.
MIN_MEAN_BATCH = 2.0

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Simulated concurrent users (the acceptance bar is 10k+; smoke keeps it).
USERS = 10_000
#: Operations per user (total ops = USERS * OPS_PER_USER).
OPS_PER_USER = 1 if _SMOKE else 3

#: Shared workload shape: domains and the per-domain ranking pools users
#: draw queries from (pooled rankings make coalesced batches dedup well,
#: which is exactly the serving workload the batcher is built for).
DOMAIN_COUNT = 4
DOMAIN_SIZE = 8
POOL_SIZE = 40

#: Every ``VERIFY_EVERY``-th user double-checks each distance response
#: against the direct metric while the load runs.
VERIFY_EVERY = 97


def _build_pools(seed: int) -> list[tuple[frozenset, list]]:
    rng = resolve_rng(seed)
    pools = []
    for _ in range(DOMAIN_COUNT):
        pool = [random_bucket_order(DOMAIN_SIZE, rng, tie_bias=0.4) for _ in range(POOL_SIZE)]
        pools.append((frozenset(range(DOMAIN_SIZE)), pool))
    return pools


async def _user(
    service: RankingService,
    user_id: int,
    pools: list[tuple[frozenset, list]],
    latencies: list[float],
    mismatches: list[str],
) -> None:
    rng = random.Random((user_id * 0x9E3779B1 + 0xB5) & 0xFFFFFFFF)
    domain, pool = pools[user_id % len(pools)]
    voter = f"u{user_id}"
    verify = user_id % VERIFY_EVERY == 0
    for _ in range(OPS_PER_USER):
        roll = rng.random()
        start = time.perf_counter()
        if roll < 0.15:
            await service.update(domain, voter, rng.choice(pool))
        elif roll < 0.90:
            sigma, tau = rng.choice(pool), rng.choice(pool)
            value = await service.distance(domain, sigma, tau)
            if verify and value != kendall(sigma, tau, 0.5):
                mismatches.append(
                    f"user {user_id}: distance {value!r} != direct kendall"
                )
        else:
            try:
                await service.consensus(domain, kind="scores")
            except AggregationError:
                # an all-removed shard is a legal transient; not an error
                pass
        latencies.append(time.perf_counter() - start)


async def _run_load(seed: int) -> dict:
    service = RankingService(ServeConfig())
    pools = _build_pools(seed)
    # seed every domain so consensus queries have voters from the start
    for index, (domain, pool) in enumerate(pools):
        for voter in range(5):
            await service.update(domain, f"seed{voter}", pool[(voter + index) % len(pool)])
    latencies: list[float] = []
    mismatches: list[str] = []
    start = time.perf_counter()
    await asyncio.gather(
        *(
            _user(service, user_id, pools, latencies, mismatches)
            for user_id in range(USERS)
        )
    )
    wall = time.perf_counter() - start
    await service.drain()
    ordered = sorted(latencies)

    def percentile(fraction: float) -> float:
        return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]

    return {
        "users": USERS,
        "ops": len(latencies),
        "wall_s": round(wall, 4),
        "throughput_ops_per_s": round(len(latencies) / wall, 1),
        "latency_ms": {
            "p50": round(percentile(0.50) * 1e3, 3),
            "p99": round(percentile(0.99) * 1e3, 3),
            "mean": round(statistics.fmean(latencies) * 1e3, 3),
        },
        "mismatches": mismatches,
        "service_stats": service.stats(),
    }


def _measure(seed: int = 0) -> dict:
    """One full load run under a capture session (for the batch counters)."""
    with obs.capture():
        result = asyncio.run(_run_load(seed))
    counters = obs.snapshot()["counters"]
    flushes = int(counters.get("serve.batch.flushes", 0))
    coalesced = int(counters.get("serve.batch.coalesced", 0))
    result["batching"] = {
        "flushes": flushes,
        "coalesced_requests": coalesced,
        "mean_batch": round(coalesced / flushes, 2) if flushes else 0.0,
        "matrix_calls": int(counters.get("metrics.batch.matrix_calls", 0)),
    }
    # the committed baseline should not freeze per-run service internals
    result.pop("service_stats")
    return result


def _regenerate() -> int:
    from conftest import machine_info, write_baseline

    result = _measure()
    if result["mismatches"]:
        for mismatch in result["mismatches"]:
            print(f"MISMATCH: {mismatch}")
        return 1
    payload = {
        "pr": 8,
        "machine": machine_info(),
        "throughput_floor": THROUGHPUT_FLOOR,
        "min_mean_batch": MIN_MEAN_BATCH,
        **result,
    }
    write_baseline("BENCH_SERVE.json", payload)
    return 0


def _check(baseline: dict) -> int:
    from conftest import report_failures

    result = _measure()
    failures: list[str] = []
    failures.extend(f"bit-exactness: {m}" for m in result["mismatches"])
    floor = baseline.get("throughput_floor", THROUGHPUT_FLOOR)
    wanted = floor * float(baseline["throughput_ops_per_s"])
    got = float(result["throughput_ops_per_s"])
    if got < wanted:
        failures.append(
            f"throughput {got:.0f} ops/s below {floor}x baseline "
            f"({baseline['throughput_ops_per_s']} ops/s)"
        )
    mean_batch = float(result["batching"]["mean_batch"])
    if mean_batch < baseline.get("min_mean_batch", MIN_MEAN_BATCH):
        failures.append(
            f"coalescing degenerated: mean batch {mean_batch} < "
            f"{baseline.get('min_mean_batch', MIN_MEAN_BATCH)} requests/flush"
        )
    print(
        f"serve load: {result['ops']} ops by {result['users']} users, "
        f"{got:.0f} ops/s, p50 {result['latency_ms']['p50']}ms, "
        f"p99 {result['latency_ms']['p99']}ms, mean batch {mean_batch}"
    )
    return report_failures(failures, "bench_serve gate")


def main(argv: list[str] | None = None) -> int:
    from conftest import gate_main

    return gate_main(
        argv,
        description="Serving-layer load benchmark (10k concurrent simulated users)",
        check_help="re-run the load and fail on mismatches or throughput regression",
        check=_check,
        regenerate=_regenerate,
    )


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
