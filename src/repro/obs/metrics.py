"""Process-wide metric counters and histograms (stdlib only).

Metrics are keyed by stable dotted names (``metrics.pairs``,
``aggregate.online.adds``, ...) so dashboards and the trace
summarizer can aggregate across runs without string munging; the full
naming scheme lives in ``docs/OBSERVABILITY.md``. The registry is
process-global and guarded by a lock, but — like every entry point of
:mod:`repro.obs` — mutation is a strict no-op unless a trace session is
active, so the disabled-mode cost in the kernels is one truthiness check.

:class:`Counter` is a monotonically increasing exact sum (ints stay
ints, so pair/cell counts admit ``==`` assertions). :class:`Histogram`
keeps count/sum/min/max plus power-of-four bucket counts — coarse, but
enough to separate "microseconds" from "milliseconds" per kernel without
reservoir sampling.
"""

from __future__ import annotations

import re
import threading

__all__ = [
    "Counter",
    "Histogram",
    "counter",
    "histogram",
    "merge_counters",
    "snapshot",
    "reset",
]

#: Metric names are dotted lowercase words — stable identifiers, not
#: free-form labels.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

#: Upper edges of the histogram buckets (power-of-four ladder). Raw
#: observations are unitless; the kernel-profiling hooks observe
#: nanoseconds, for which the ladder spans 1 µs .. ~4.4 s.
_BUCKET_EDGES: tuple[float, ...] = tuple(float(4**exp) * 1e3 for exp in range(12))


class Counter:
    """A process-wide monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (negative increments are a caller bug)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: float = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets = [0] * (len(_BUCKET_EDGES) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for index, edge in enumerate(_BUCKET_EDGES):
            if value <= edge:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def to_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": list(self.buckets),
        }


_LOCK = threading.Lock()
_COUNTERS: dict[str, Counter] = {}
_HISTOGRAMS: dict[str, Histogram] = {}


def _check_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} is not a dotted lowercase identifier "
            "(expected e.g. 'metrics.pairs')"
        )


def counter(name: str) -> Counter:
    """The process-wide counter named ``name`` (created on first use)."""
    with _LOCK:
        existing = _COUNTERS.get(name)
        if existing is None:
            _check_name(name)
            existing = _COUNTERS[name] = Counter(name)
        return existing


def histogram(name: str) -> Histogram:
    """The process-wide histogram named ``name`` (created on first use)."""
    with _LOCK:
        existing = _HISTOGRAMS.get(name)
        if existing is None:
            _check_name(name)
            existing = _HISTOGRAMS[name] = Histogram(name)
        return existing


def merge_counters(counters: dict[str, int | float]) -> None:
    """Fold a counter mapping (e.g. from a worker span) into the registry."""
    for name, value in counters.items():
        if value:
            counter(name).inc(value)


def snapshot() -> dict[str, object]:
    """A JSON-ready snapshot of every counter and histogram."""
    with _LOCK:
        return {
            "counters": {name: c.value for name, c in sorted(_COUNTERS.items())},
            "histograms": {
                name: h.to_dict() for name, h in sorted(_HISTOGRAMS.items())
            },
        }


def reset() -> None:
    """Drop every metric (test isolation; not part of the serving API)."""
    with _LOCK:
        _COUNTERS.clear()
        _HISTOGRAMS.clear()
