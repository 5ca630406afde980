"""The sharded state behind the service: one aggregator per domain.

A *shard* owns everything the service knows about one item domain: the
interned :class:`~repro.core.codec.DomainCodec` (shard key and encode
table), an :class:`~repro.aggregate.online.OnlineMedianAggregator`
driven exclusively through its voter-keyed ``update``/``forget`` API,
the voters' current rankings (needed to resolve voter-referenced
distance queries), and a monotonically increasing **version** — bumped
on every mutation — that the result cache uses to prove freshness.

The :class:`ShardMap` pickles through the existing ``__reduce__`` paths
(the aggregator serializes as ``(items, tie, rows, voter rows)``,
rankings as their bucket tuples), so :meth:`ShardMap.snapshot` /
:meth:`ShardMap.restore` move the whole serving state across process
boundaries byte-exactly; the codec re-interns on load.
"""

from __future__ import annotations

import pickle
from collections.abc import Iterable, Iterator

from repro import obs
from repro.aggregate.median import MedianTie, _check_tie
from repro.aggregate.online import OnlineMedianAggregator
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import Item, PartialRanking
from repro.errors import AggregationError, ReproError

__all__ = ["Shard", "ShardMap", "SnapshotError"]

#: Bumped when the pickled snapshot layout changes.
SNAPSHOT_VERSION = 1


class SnapshotError(ReproError, ValueError):
    """A snapshot blob was malformed or from an incompatible layout."""


class Shard:
    """All serving state for one item domain."""

    __slots__ = ("codec", "aggregator", "voters", "version")

    def __init__(self, domain: frozenset[Item], tie: MedianTie) -> None:
        self.codec = DomainCodec.for_domain(domain)
        self.aggregator = OnlineMedianAggregator(domain, tie=tie)
        self.voters: dict[str, PartialRanking] = {}
        self.version = 0

    def __len__(self) -> int:
        return len(self.voters)

    def update(self, voter: str, ranking: PartialRanking) -> bool:
        """Insert or replace ``voter``'s ranking; returns True on replace."""
        replaced = self.aggregator.update(voter, ranking)
        self.voters[voter] = ranking
        self.version += 1
        return replaced

    def remove(self, voter: str) -> None:
        """Drop ``voter`` entirely (raises if unknown)."""
        self.aggregator.forget(voter)
        del self.voters[voter]
        self.version += 1

    def resolve(self, voter: str) -> PartialRanking:
        """The ranking ``voter`` currently contributes (raises if unknown)."""
        try:
            return self.voters[voter]
        except KeyError:
            raise AggregationError(
                f"voter {voter!r} has no ranking in this shard"
            ) from None


class ShardMap:
    """Domain-keyed shards, created on first write, snapshot-portable."""

    __slots__ = ("_tie", "_shards")

    def __init__(self, tie: MedianTie = "mid") -> None:
        _check_tie(tie)
        self._tie: MedianTie = tie
        self._shards: dict[frozenset[Item], Shard] = {}

    def __len__(self) -> int:
        return len(self._shards)

    def __iter__(self) -> Iterator[Shard]:
        return iter(self._shards.values())

    @property
    def tie(self) -> MedianTie:
        return self._tie

    def get(self, domain: frozenset[Item]) -> Shard | None:
        """The shard of ``domain`` if one exists (no creation, no raise)."""
        return self._shards.get(domain)

    def shard_for(self, domain: Iterable[Item], *, create: bool = False) -> Shard:
        """The shard of ``domain``; created on demand for writes only."""
        key = domain if isinstance(domain, frozenset) else frozenset(domain)
        if not key:
            raise AggregationError("the shard domain must be non-empty")
        shard = self._shards.get(key)
        if shard is None:
            if not create:
                raise AggregationError(
                    f"no shard holds a domain of {len(key)} items matching the "
                    "request; write to it first with an update"
                )
            shard = Shard(key, self._tie)
            self._shards[key] = shard
            obs.add("serve.shards.created")
        return shard

    def total_voters(self) -> int:
        return sum(len(shard) for shard in self._shards.values())

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialize the whole map (every shard, voters, versions)."""
        payload = {
            "version": SNAPSHOT_VERSION,
            "tie": self._tie,
            "shards": [
                {
                    "items": tuple(shard.codec.items),
                    "aggregator": shard.aggregator,
                    "voters": dict(shard.voters),
                    "shard_version": shard.version,
                }
                for shard in self._shards.values()
            ],
        }
        obs.add("serve.snapshots")
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(cls, blob: bytes) -> "ShardMap":
        """Rebuild a map from :meth:`snapshot` output (validates the layout)."""
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            raise SnapshotError(f"snapshot blob failed to unpickle: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("version") != SNAPSHOT_VERSION:
            found = (
                payload.get("version") if isinstance(payload, dict) else type(payload).__name__
            )
            raise SnapshotError(
                f"snapshot layout version mismatch (expected {SNAPSHOT_VERSION}, got {found})"
            )
        restored = cls(tie=payload["tie"])
        for entry in payload["shards"]:
            domain = frozenset(entry["items"])
            shard = Shard(domain, restored._tie)
            shard.aggregator = entry["aggregator"]
            shard.voters = dict(entry["voters"])
            shard.version = int(entry["shard_version"])
            restored._shards[domain] = shard
        obs.add("serve.restores")
        return restored
