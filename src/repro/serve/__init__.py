"""repro.serve: ranking-as-a-service over the batch kernels.

A stdlib-asyncio HTTP/JSON serving layer exposing distance queries,
consensus queries and per-user ranking updates, backed by a shard map of
:class:`~repro.aggregate.online.OnlineMedianAggregator` instances keyed
by domain through the interned :class:`~repro.core.codec.DomainCodec`.
Concurrent distance requests coalesce into single
:func:`~repro.metrics.batch.pairwise_distance_matrix` calls, consensus
answers are memoized on their shard until its next mutation, and the
whole shard map snapshots/restores across process boundaries through the
existing ``__reduce__`` paths. Every response is bit-for-bit equal to
the serial in-process computation — the stateful test harness in
``tests/test_serve_stateful.py`` proves it operation by operation. See
``docs/SERVING.md`` for the protocol and the harness design.
"""

from repro.serve.batching import DistanceBatcher
from repro.serve.config import ServeConfig, config_from_env
from repro.serve.http import ReproServer
from repro.serve.service import CONSENSUS_KINDS, RankingService
from repro.serve.shards import Shard, ShardMap, SnapshotError

__all__ = [
    "CONSENSUS_KINDS",
    "DistanceBatcher",
    "RankingService",
    "ReproServer",
    "ServeConfig",
    "Shard",
    "ShardMap",
    "SnapshotError",
    "config_from_env",
]
