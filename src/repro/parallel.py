"""Process-pool plumbing shared by batch kernels and the experiment runner.

One knob, three spellings: the ``jobs`` keyword accepted by
:func:`repro.metrics.batch.pairwise_distance_matrix`, the aggregation entry
points, and :func:`repro.experiments.runner.run_experiments`; the
``--jobs`` CLI flag of ``python -m repro.experiments``; and the
``REPRO_JOBS`` environment variable consulted when neither is given.
``jobs <= 1`` (the default everywhere) means "run serially in-process" —
the pool is strictly opt-in, and every parallel code path is required by
the test suite to produce bit-for-bit the same results as the serial one.

Worker functions must be module-level (picklable); rankings cross the
process boundary via :meth:`PartialRanking.__reduce__
<repro.core.partial_ranking.PartialRanking.__reduce__>`, which ships only
the bucket tuples and lets each worker rebuild its caches locally, and
the batch kernels' ``(m, n)`` row matrices travel as plain pickled
arrays, one copy per task. Of the distance kernels only the per-pair
ones take the pool (``F_Haus`` and the per-pair Kendall classifier); the
L1 metrics are one serial array pass that accepts ``jobs`` and ignores
it.

When a :mod:`repro.obs` trace session is active in the parent, the pool
path additionally propagates span context across the process boundary:
each task runs under an in-worker ``obs.capture()`` session, the spans it
records come back pickled alongside the result, and the parent grafts
them under its ``parallel.map`` span tagged with a stable worker id (one
id per distinct worker pid, in order of first appearance). With tracing
disabled the task payloads are exactly the untouched ``fn``/``item``
pairs of the serial path.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import Any, TypeVar

from repro.obs import spans as _spans

__all__ = ["ENV_JOBS", "resolve_jobs", "parallel_map"]

ENV_JOBS = "REPRO_JOBS"

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Parsed ``REPRO_JOBS`` values, keyed by the raw string — the variable
#: is immutable for the life of a normal run, so re-reading and
#: re-parsing it (and re-warning on a typo) on every ``resolve_jobs``
#: call site was pure noise. Keying by the raw value means a test that
#: monkeypatches the environment still sees the new value parsed (and a
#: *new* malformed value warned about) exactly once.
_ENV_CACHE: dict[str, int] = {}


def _reset_jobs_cache() -> None:
    """Forget memoized ``REPRO_JOBS`` parses (test isolation only)."""
    _ENV_CACHE.clear()


def _parse_env_jobs(raw: str) -> int:
    try:
        return int(raw) if raw else 1
    except ValueError:
        warnings.warn(
            f"ignoring malformed {ENV_JOBS}={raw!r} (not an integer); "
            "running serially",
            RuntimeWarning,
            stacklevel=4,
        )
        return 1


def resolve_jobs(jobs: int | None = None) -> int:
    """Normalize a ``jobs`` request to a concrete worker count (>= 1).

    ``None`` falls back to the ``REPRO_JOBS`` environment variable, and to
    1 (serial) when that is unset. A malformed value also falls back to
    serial but emits a :class:`RuntimeWarning` naming the bad value — a
    typo in ``REPRO_JOBS`` silently disabling parallelism is exactly the
    kind of config error that otherwise goes unnoticed for months. The
    parse is memoized per distinct raw value, so the warning fires once
    per process rather than once per call site. A negative value means
    "all available CPUs". Zero is rejected: it is always a bug, not a
    plausible request.
    """
    if jobs is None:
        raw = os.environ.get(ENV_JOBS, "").strip()
        jobs = _ENV_CACHE.get(raw)
        if jobs is None:
            jobs = _ENV_CACHE[raw] = _parse_env_jobs(raw)
    if jobs == 0:
        raise ValueError("jobs=0 is invalid; use jobs=1 for serial or a negative value for all CPUs")
    if jobs < 0:
        jobs = os.cpu_count() or 1
    return jobs


def _traced_worker(payload: tuple[Callable[[_T], _R], _T]) -> tuple[_R, list[dict[str, Any]]]:
    """Run one task under an in-worker capture session.

    The capture sits on top of the worker's session stack, so spans the
    task records land here — not in a file sink inherited via
    ``REPRO_TRACE`` — and travel back to the parent as plain dicts.
    """
    fn, item = payload
    # Under the fork start method the worker inherits the parent's open
    # span stack; without this, worker spans would attach to a stale
    # copy of the parent span and never reach the capture session.
    _spans._LOCAL.stack.clear()
    with _spans.capture() as sess:
        result = fn(item)
    return result, [span.to_dict() for span in sess.roots]


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    jobs: int | None = None,
    chunksize: int = 1,
) -> list[_R]:
    """``[fn(x) for x in items]``, optionally across a process pool.

    Results come back in input order regardless of worker scheduling, so a
    caller that sums or concatenates them gets the same floating-point
    result as the serial loop. With ``jobs <= 1`` (after
    :func:`resolve_jobs`) no pool is created at all.
    """
    work: Sequence[_T] = items if isinstance(items, Sequence) else list(items)
    n_jobs = min(resolve_jobs(jobs), len(work)) if work else 1
    if n_jobs <= 1:
        return [fn(item) for item in work]
    if not _spans.enabled():
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(fn, work, chunksize=max(1, chunksize)))
    # under an active trace session each task runs through _traced_worker
    # and its spans are grafted under one parallel.map span
    with _spans.trace("parallel.map", jobs=n_jobs, items=len(work)):
        payloads = [(fn, item) for item in work]
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            shipped = list(
                pool.map(_traced_worker, payloads, chunksize=max(1, chunksize))
            )
        return _graft_worker_spans(shipped)


def _graft_worker_spans(shipped: list[tuple[_R, list[dict[str, Any]]]]) -> list[_R]:
    """Re-attach pickled worker spans under the live pool span.

    Worker pids are mapped to stable 0-based worker ids in order of first
    appearance, so trace output is deterministic across pool scheduling.
    """
    pid_to_worker: dict[int, int] = {}
    results: list[_R] = []
    for result, span_dicts in shipped:
        if span_dicts:
            pid = int(span_dicts[0].get("pid", 0))
            worker = pid_to_worker.setdefault(pid, len(pid_to_worker))
            _spans.attach_worker_spans(span_dicts, worker)
        results.append(result)
    return results
