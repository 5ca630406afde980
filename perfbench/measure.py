"""Small statistics helpers shared by the workloads (stdlib only)."""

from __future__ import annotations

import resource
import statistics

#: Chunks a serving run's operations are split into, in completion order.
CHUNKS = 10


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def chunked(samples: list[tuple[float, float]], start: float, chunk: int) -> dict[str, float]:
    """Throughput and latency quantiles as medians over consecutive chunks.

    ``samples`` are ``(completion time, latency)`` pairs in seconds. Each
    chunk of ``chunk`` operations, in completion order, gives its own
    completions per second, median and 90th-percentile latency; each
    metric is the median over chunks. A noisy neighbour that slows a
    shared machine for a few seconds moves a few chunks, not the median.
    ``start`` is when the first chunk began.
    """
    samples = sorted(samples)
    rates, p50s, p90s = [], [], []
    previous = start
    for k in range(0, len(samples) - chunk + 1, chunk):
        part = samples[k : k + chunk]
        end = part[-1][0]
        rates.append(chunk / (end - previous))
        previous = end
        latencies = [latency for _, latency in part]
        p50s.append(statistics.median(latencies))
        p90s.append(p90(latencies))
    return {
        "ops_per_s": statistics.median(rates),
        "p50_ms": statistics.median(p50s) * 1e3,
        "p90_ms": statistics.median(p90s) * 1e3,
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
