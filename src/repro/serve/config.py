"""Serving-layer configuration (the one sanctioned ``REPRO_SERVE_*`` reader).

Environment variables are ambient global state; like ``REPRO_JOBS``
(:mod:`repro.parallel`) and ``REPRO_TRACE`` (:mod:`repro.obs.spans`),
every serving knob is read in exactly one place — this module — and
flows everywhere else through an explicit :class:`ServeConfig` value.
The RP015 analysis rule enforces that no other module under
``repro.serve`` touches ``os.environ``.

Recognized variables (all optional; see :func:`config_from_env`):

``REPRO_SERVE_HOST``
    Bind address for the HTTP server (default ``127.0.0.1``).
``REPRO_SERVE_PORT``
    TCP port (default ``8321``; ``0`` asks the OS for a free port).
``REPRO_SERVE_CACHE``
    Result-cache capacity in entries (default ``1024``; ``0`` disables
    caching).
``REPRO_SERVE_JOBS``
    Worker processes for large coalesced distance batches (default:
    serial, like every other kernel entry point).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

from repro.aggregate.median import MedianTie

__all__ = ["ServeConfig", "config_from_env"]  # repro: noqa[RP011] — pure configuration parsing; no hot path to instrument

_DEFAULT_HOST = "127.0.0.1"
_DEFAULT_PORT = 8321
_DEFAULT_CACHE_CAPACITY = 1024


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Immutable configuration for one :class:`~repro.serve.RankingService`.

    Distance batching has no knob: concurrent distance requests over the
    same codec that are runnable on the same event-loop tick are answered
    from **one** ``pairwise_distance_matrix`` call, and a lone request
    waits on no timer (see :mod:`repro.serve.batching`).
    ``cache_capacity`` bounds the LRU result cache (0 disables it).
    ``tie`` is the median tie rule every shard aggregator uses; it is
    part of the snapshot format, so restored services answer identically.
    """

    host: str = _DEFAULT_HOST
    port: int = _DEFAULT_PORT
    cache_capacity: int = _DEFAULT_CACHE_CAPACITY
    jobs: int | None = None
    tie: MedianTie = "mid"

    def __post_init__(self) -> None:
        if self.cache_capacity < 0:
            raise ValueError(f"cache_capacity must be >= 0 (got {self.cache_capacity})")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535] (got {self.port})")


def _env_int(environ: dict[str, str], name: str, default: int) -> int:
    raw = environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed {name}={raw!r} (expected a number); "
            f"using the default {default!r}",
            RuntimeWarning,
            stacklevel=3,
        )
        return default


def config_from_env(environ: dict[str, str] | None = None) -> ServeConfig:
    """Build a :class:`ServeConfig` from ``REPRO_SERVE_*`` variables.

    Malformed values warn (``RuntimeWarning``) and fall back to the
    defaults rather than silently changing behaviour — the same contract
    :func:`repro.parallel.resolve_jobs` follows for ``REPRO_JOBS``.
    """
    env = dict(os.environ) if environ is None else environ
    host = env.get("REPRO_SERVE_HOST", _DEFAULT_HOST) or _DEFAULT_HOST
    port = _env_int(env, "REPRO_SERVE_PORT", _DEFAULT_PORT)
    capacity = _env_int(env, "REPRO_SERVE_CACHE", _DEFAULT_CACHE_CAPACITY)
    jobs_raw = env.get("REPRO_SERVE_JOBS")
    jobs: int | None = None
    if jobs_raw is not None and jobs_raw.strip():
        jobs = _env_int(env, "REPRO_SERVE_JOBS", 1)
    return ServeConfig(
        host=host,
        port=port,
        cache_capacity=max(0, capacity),
        jobs=jobs,
    )
