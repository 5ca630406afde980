"""The serving core: async ranking-as-a-service over the shard map.

:class:`RankingService` is the transport-independent application object —
the HTTP layer (:mod:`repro.serve.http`), the stateful test harness and
the load benchmark all drive exactly these methods, so correctness
proven against the in-process API transfers to the wire protocol.

Request flow:

* **update / remove** mutate one shard through the voter-keyed
  aggregator API; the shard bumps its version and drops its memoized
  consensus answers (:mod:`repro.serve.shards`).
* **distance** resolves voter references against the shard *at request
  time* (snapshot semantics: a concurrent update does not retroactively
  change an enqueued query) and awaits the
  :class:`~repro.serve.batching.DistanceBatcher`, which coalesces
  concurrent requests into one ``pairwise_distance_matrix`` call.
* **consensus** answers scores/top-k/full/partial queries straight from
  the shard's online aggregator (bit-for-bit equal to the offline batch
  path), memoized on the shard until its next mutation. The ``kemeny``
  kind instead runs the SCC-condensed *exact* solver over the shard's
  current voter rankings when the instance is certifiably small (every
  dominance component within the DP cap), raising otherwise.
* **snapshot / restore** round-trip the whole shard map through the
  existing ``__reduce__`` pickle paths.

Every request runs under a ``serve.request`` span, counts into
``serve.requests`` / ``serve.requests.<route>``, and records a
``serve.latency.<route>`` histogram observation (nanoseconds) when a
trace session is armed.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager

from repro import obs
from repro.aggregate.decompose import kemeny_decomposed
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import Item, PartialRanking
from repro.errors import AggregationError
import repro.metrics.plugins  # noqa: F401 — registers the first-party metric plugins
from repro.metrics.registry import get_metric
from repro.serve.batching import DistanceBatcher
from repro.serve.config import ServeConfig
from repro.serve.shards import MemoStats, Shard, ShardMap

__all__ = ["RankingService", "CONSENSUS_KINDS"]

#: Consensus output shapes and the aggregator methods answering them.
#: ``kemeny`` is the certified-exact outlier: answered by the
#: SCC-condensed Held–Karp solver over the shard's voter map, and raising
#: (→ 409) when any dominance component exceeds the per-component DP cap.
CONSENSUS_KINDS = ("scores", "full", "partial", "topk", "kemeny")


@contextmanager
def _route(route: str) -> Iterator[None]:
    """Span + counters + latency histogram around one request."""
    if not obs.enabled():
        yield
        return
    start = time.perf_counter_ns()
    with obs.trace("serve.request", route=route):
        obs.add("serve.requests")
        obs.add(f"serve.requests.{route}")
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            obs.histogram(f"serve.latency.{route}").observe(float(elapsed))


class RankingService:
    """Sharded distance/consensus/update serving over the batch kernels."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self._config = config if config is not None else ServeConfig()
        self._shards = ShardMap(tie=self._config.tie)
        self._batcher = DistanceBatcher(jobs=self._config.jobs)

    @property
    def config(self) -> ServeConfig:
        return self._config

    @property
    def cache(self) -> MemoStats:
        """Consensus-memo counters; perfbench reads ``cache.stats``."""
        return self._shards.memo_stats

    @property
    def shards(self) -> ShardMap:
        return self._shards

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    async def update(
        self, domain: Iterable[Item], voter: str, ranking: PartialRanking
    ) -> dict[str, object]:
        """Insert or replace ``voter``'s ranking in the domain's shard."""
        with _route("update"):
            shard = self._shards.shard_for(domain, create=True)
            replaced = shard.update(voter, ranking)
            return {
                "voter": voter,
                "replaced": replaced,
                "voters": len(shard),
                "version": shard.version,
            }

    async def remove(self, domain: Iterable[Item], voter: str) -> dict[str, object]:
        """Drop ``voter`` from the domain's shard (raises if unknown)."""
        with _route("remove"):
            shard = self._shards.shard_for(domain)
            shard.remove(voter)
            return {"voter": voter, "voters": len(shard), "version": shard.version}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _resolve_ranking(
        self, shard: Shard | None, domain: frozenset[Item], value: PartialRanking | str
    ) -> PartialRanking:
        """A literal ranking, or a voter reference resolved at request time."""
        if isinstance(value, PartialRanking):
            if value.domain != domain:
                raise AggregationError(
                    "query ranking domain differs from the request domain"
                )
            return value
        if shard is None:
            raise AggregationError(
                f"voter reference {value!r} needs an existing shard for the domain"
            )
        return shard.resolve(value)

    async def distance(
        self,
        domain: Iterable[Item],
        sigma: PartialRanking | str,
        tau: PartialRanking | str,
        metric: str = "kendall",
        p: float = 0.5,
    ) -> float:
        """``d(sigma, tau)`` under ``metric`` — batched and bit-exact.

        ``sigma`` / ``tau`` are literal rankings or voter-id references
        (resolved against the shard when the request is *accepted*, so
        the answer reflects that instant even if the batch flushes after
        further churn).
        """
        with _route("distance"):
            # resolved through the metric plugin registry: every
            # registered spelling (built-in or plugin) is servable, and
            # unknown names raise the shared UnknownMetricError (→ 400)
            canonical = get_metric(metric).name
            key = frozenset(domain) if not isinstance(domain, frozenset) else domain
            if not key:
                raise AggregationError("the query domain must be non-empty")
            shard = self._shards.get(key)
            first = self._resolve_ranking(shard, key, sigma)
            second = self._resolve_ranking(shard, key, tau)
            # stateless queries (no shard yet) still share the interned codec
            codec = shard.codec if shard is not None else DomainCodec.for_domain(key)
            return await self._batcher.distance(codec, first, second, canonical, p)

    async def consensus(
        self,
        domain: Iterable[Item],
        kind: str = "full",
        k: int | None = None,
    ) -> object:
        """The current aggregate of a shard (Lemma 8 / Theorems 9–11).

        ``kind`` is one of :data:`CONSENSUS_KINDS`; ``topk`` needs ``k``.
        Returns a score ``dict`` for ``scores`` and a
        :class:`PartialRanking` otherwise. ``kemeny`` answers with the
        *certified-exact* ``K^(1/2)`` aggregation of the shard's voters
        via SCC decomposition, raising :class:`AggregationError` (HTTP
        409) when a dominance component exceeds the exact-DP cap — exact
        consensus on easy instances, an explicit refusal (fall back to
        ``full``) on hard ones. Answers are memoized on the shard until
        its next mutation; a bad ``k`` raises before anything is stored.
        """
        with _route("consensus"):
            if kind not in CONSENSUS_KINDS:
                raise AggregationError(
                    f"unknown consensus kind {kind!r}; expected one of "
                    f"{CONSENSUS_KINDS}"
                )
            if kind == "topk" and k is None:
                raise AggregationError("consensus kind 'topk' requires k")
            shard = self._shards.shard_for(domain)
            aggregator = shard.aggregator

            def compute() -> object:
                if kind == "scores":
                    return aggregator.scores()
                if kind == "full":
                    return aggregator.full_ranking()
                if kind == "partial":
                    return aggregator.partial_ranking()
                if kind == "kemeny":
                    # the voter map is the profile; require_exact certifies
                    # the answer or raises before any exponential work
                    return kemeny_decomposed(
                        tuple(shard.voters.values()), require_exact=True
                    ).ranking
                return aggregator.top_k(int(k))  # type: ignore[arg-type]

            return shard.consensus((kind, k if kind == "topk" else None), compute)

    # ------------------------------------------------------------------
    # Snapshot / restore / stats
    # ------------------------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialize the full shard map (memos and batcher are derived state)."""
        with _route("snapshot"):
            return self._shards.snapshot()

    def restore(self, blob: bytes) -> None:
        """Replace the shard map from a snapshot; memos and their counters start empty."""
        with _route("restore"):
            self._shards = ShardMap.restore(blob)

    async def drain(self) -> None:
        """Await every open distance batch (orderly shutdown)."""
        await self._batcher.drain()

    def stats(self) -> dict[str, object]:
        """Structural serving state (always available, obs or not)."""
        return {
            "shards": len(self._shards),
            "voters": self._shards.total_voters(),
            "cache": self._shards.memo_stats.stats,
            "pending_batches": self._batcher.pending_groups(),
            "config": {
                "tie": self._config.tie,
                "jobs": self._config.jobs,
            },
        }
