"""Stateful model-based verification of the serving layer.

Every response from :class:`repro.serve.RankingService` is compared
**bit-for-bit** against a serial in-process model: a plain
``voter -> ranking`` dict per domain, with distances recomputed by the
direct two-ranking metrics and consensus by the offline median
aggregators. The service may batch, memoize, shard, snapshot and restore
however it likes — the model knows nothing of any of that, so agreement
on every operation proves the serving machinery is semantically
invisible.

Two drivers share one harness:

* a Hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine`
  exploring operation interleavings (including snapshot/restore cycles
  and concurrent batched queries), and
* a deterministic scripted session of 500+ operations, the acceptance
  bar for this layer.

Error paths are part of the model: removing an unknown voter, querying
an empty shard, out-of-range ``k`` — whenever the model says "invalid",
the service must raise :class:`~repro.errors.AggregationError`.
"""

from __future__ import annotations

import asyncio
import random
from collections.abc import Coroutine
from typing import Any

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.aggregate.decompose import kemeny_decomposed
from repro.aggregate.median import (
    median_full_ranking,
    median_partial_ranking,
    median_scores,
    median_top_k,
)
from repro.core.partial_ranking import PartialRanking
from repro.errors import AggregationError
from repro.generators.random import random_bucket_order, resolve_rng
from repro.metrics.footrule import footrule
from repro.metrics.hausdorff import footrule_hausdorff, kendall_hausdorff_counts
from repro.metrics.kendall import kendall
from repro.serve import CONSENSUS_KINDS, RankingService, ServeConfig

# integer-range domains so random_bucket_order(n) draws over exactly them
DOMAINS = (frozenset(range(3)), frozenset(range(5)))
VOTERS = ("alice", "bob", "carol", "dana", "eve")
METRICS = ("kendall", "footrule", "kendall_hausdorff", "footrule_hausdorff")

#: How many snapshots the harness keeps around for restore rules.
_SAVED_LIMIT = 4


def expected_distance(
    sigma: PartialRanking, tau: PartialRanking, metric: str, p: float = 0.5
) -> float:
    """The serial ground truth the batched service must reproduce."""
    if metric == "kendall":
        return kendall(sigma, tau, p)
    if metric == "footrule":
        return footrule(sigma, tau)
    if metric == "kendall_hausdorff":
        return float(kendall_hausdorff_counts(sigma, tau))
    assert metric == "footrule_hausdorff"
    return footrule_hausdorff(sigma, tau)


Model = dict[frozenset, dict[str, PartialRanking]]


class ServeModelHarness:
    """One service instance plus the serial model it must agree with.

    Every method performs one (or, for batches, several) service
    operations *and* the matching model bookkeeping, asserting exact
    equality — including on the error paths. ``operations`` counts how
    many service calls were checked.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.loop = asyncio.new_event_loop()
        self.service = RankingService(
            config if config is not None else ServeConfig()
        )
        self.model: Model = {}
        self.saved: list[tuple[bytes, Model]] = []
        self.operations = 0

    def close(self) -> None:
        self.run(self.service.drain())
        self.loop.close()

    def run(self, coro: Coroutine[Any, Any, Any]) -> Any:
        return self.loop.run_until_complete(coro)

    @staticmethod
    def ranking_for(domain: frozenset, seed: int) -> PartialRanking:
        """A deterministic bucket order over an integer-range domain."""
        return random_bucket_order(len(domain), resolve_rng(seed), tie_bias=0.4)

    # ------------------------------------------------------------------
    # Operations (each checks service vs model)
    # ------------------------------------------------------------------

    def update(self, domain: frozenset, voter: str, ranking: PartialRanking) -> None:
        self.operations += 1
        voters = self.model.setdefault(domain, {})
        expected_replace = voter in voters
        response = self.run(self.service.update(domain, voter, ranking))
        voters[voter] = ranking
        assert response["replaced"] == expected_replace
        assert response["voters"] == len(voters)

    def remove(self, domain: frozenset, voter: str) -> None:
        self.operations += 1
        voters = self.model.get(domain, {})
        if voter not in voters:
            with pytest.raises(AggregationError):
                self.run(self.service.remove(domain, voter))
            return
        response = self.run(self.service.remove(domain, voter))
        del voters[voter]
        assert response["voters"] == len(voters)

    def distance(
        self,
        domain: frozenset,
        sigma: PartialRanking | str,
        tau: PartialRanking | str,
        metric: str = "kendall",
        p: float = 0.5,
    ) -> None:
        """One distance query; ``sigma``/``tau`` may be voter references."""
        self.operations += 1
        voters = self.model.get(domain, {})

        def resolve(value: PartialRanking | str) -> PartialRanking | None:
            return voters.get(value) if isinstance(value, str) else value

        first, second = resolve(sigma), resolve(tau)
        if first is None or second is None:
            with pytest.raises(AggregationError):
                self.run(self.service.distance(domain, sigma, tau, metric=metric, p=p))
            return
        got = self.run(self.service.distance(domain, sigma, tau, metric=metric, p=p))
        assert got == expected_distance(first, second, metric, p)

    def batch_distances(
        self,
        domain: frozenset,
        pairs: list[tuple[PartialRanking, PartialRanking]],
        metric: str = "kendall",
    ) -> None:
        """Concurrent queries through one event-loop tick (coalesced)."""
        self.operations += len(pairs)

        async def gather() -> list[float]:
            return await asyncio.gather(
                *(
                    self.service.distance(domain, sigma, tau, metric=metric)
                    for sigma, tau in pairs
                )
            )

        for value, (sigma, tau) in zip(self.run(gather()), pairs):
            assert value == expected_distance(sigma, tau, metric)

    def consensus(self, domain: frozenset, kind: str, k: int | None = None) -> None:
        self.operations += 1
        voters = self.model.get(domain, {})
        bad_k = kind == "topk" and (k is None or not 0 < k <= len(domain))
        if not voters or bad_k:
            with pytest.raises(AggregationError):
                self.run(self.service.consensus(domain, kind=kind, k=k))
            return
        got = self.run(self.service.consensus(domain, kind=kind, k=k))
        rankings = list(voters.values())
        if kind == "scores":
            assert got == median_scores(rankings)
        elif kind == "full":
            assert got == median_full_ranking(rankings)
        elif kind == "partial":
            assert got == median_partial_ranking(rankings)
        elif kind == "kemeny":
            # the certified-exact consensus: the tiny test domains are
            # always within the per-component DP cap, so the service must
            # answer (never 409) and agree with the offline solver
            expected = kemeny_decomposed(rankings, require_exact=True).ranking
            assert got == expected
        else:
            assert got == median_top_k(rankings, k)  # type: ignore[arg-type]

    def check_all_consensus(self) -> None:
        """Every consensus kind on every populated domain (post-restore)."""
        for domain, voters in self.model.items():
            if not voters:
                continue
            for kind in CONSENSUS_KINDS:
                self.consensus(domain, kind, k=1 if kind == "topk" else None)

    def snapshot(self) -> None:
        self.operations += 1
        blob = self.service.snapshot()
        self.saved.append((blob, {d: dict(v) for d, v in self.model.items()}))
        del self.saved[:-_SAVED_LIMIT]

    def restore(self, index: int) -> None:
        if not self.saved:
            return
        self.operations += 1
        blob, model = self.saved[index % len(self.saved)]
        self.service.restore(blob)
        self.model = {d: dict(v) for d, v in model.items()}


class ServeStateMachine(RuleBasedStateMachine):
    """Hypothesis-driven interleavings of every serving operation."""

    def __init__(self) -> None:
        super().__init__()
        self.harness = ServeModelHarness()

    def teardown(self) -> None:
        self.harness.close()

    _domain = st.integers(min_value=0, max_value=len(DOMAINS) - 1)
    _voter = st.sampled_from(VOTERS)
    _seed = st.integers(min_value=0, max_value=2**16)
    _metric = st.sampled_from(METRICS)

    @rule(d=_domain, voter=_voter, seed=_seed)
    def update(self, d: int, voter: str, seed: int) -> None:
        domain = DOMAINS[d]
        self.harness.update(domain, voter, self.harness.ranking_for(domain, seed))

    @rule(d=_domain, voter=_voter)
    def remove(self, d: int, voter: str) -> None:
        self.harness.remove(DOMAINS[d], voter)

    @rule(d=_domain, seed=_seed, metric=_metric)
    def distance_literals(self, d: int, seed: int, metric: str) -> None:
        domain = DOMAINS[d]
        sigma = self.harness.ranking_for(domain, seed)
        tau = self.harness.ranking_for(domain, seed + 1)
        self.harness.distance(domain, sigma, tau, metric=metric)

    @rule(d=_domain, voter=_voter, seed=_seed, metric=_metric)
    def distance_voter_reference(self, d: int, voter: str, seed: int, metric: str) -> None:
        domain = DOMAINS[d]
        self.harness.distance(
            domain, voter, self.harness.ranking_for(domain, seed), metric=metric
        )

    @rule(d=_domain, seed=_seed, metric=_metric, count=st.integers(2, 5))
    def distance_batch(self, d: int, seed: int, metric: str, count: int) -> None:
        domain = DOMAINS[d]
        pairs = [
            (
                self.harness.ranking_for(domain, seed + 2 * offset),
                self.harness.ranking_for(domain, seed + 2 * offset + 1),
            )
            for offset in range(count)
        ]
        self.harness.batch_distances(domain, pairs, metric=metric)

    @rule(d=_domain, kind=st.sampled_from(CONSENSUS_KINDS), k=st.integers(0, 6))
    def consensus(self, d: int, kind: str, k: int) -> None:
        self.harness.consensus(DOMAINS[d], kind, k=k if kind == "topk" else None)

    @rule()
    def snapshot(self) -> None:
        self.harness.snapshot()

    @rule(index=st.integers(min_value=0, max_value=_SAVED_LIMIT - 1))
    def restore(self, index: int) -> None:
        self.harness.restore(index)
        self.harness.check_all_consensus()


ServeStateMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)

TestServeStateMachine = ServeStateMachine.TestCase


class TestScriptedSession:
    """The acceptance bar: a deterministic 500+ operation session."""

    def test_five_hundred_operations_bit_for_bit(self):
        rng = random.Random(0x5EED)
        harness = ServeModelHarness()
        try:
            # seed every domain with a few voters so queries have substance
            for domain in DOMAINS:
                for voter in VOTERS[:3]:
                    harness.update(
                        domain, voter, harness.ranking_for(domain, rng.getrandbits(16))
                    )
            while harness.operations < 520:
                op = rng.randrange(10)
                domain = DOMAINS[rng.randrange(len(DOMAINS))]
                if op <= 2:
                    harness.update(
                        domain,
                        rng.choice(VOTERS),
                        harness.ranking_for(domain, rng.getrandbits(16)),
                    )
                elif op == 3:
                    harness.remove(domain, rng.choice(VOTERS))
                elif op <= 5:
                    sigma: PartialRanking | str = (
                        rng.choice(VOTERS)
                        if rng.random() < 0.4
                        else harness.ranking_for(domain, rng.getrandbits(16))
                    )
                    tau = harness.ranking_for(domain, rng.getrandbits(16))
                    harness.distance(domain, sigma, tau, metric=rng.choice(METRICS))
                elif op == 6:
                    pairs = [
                        (
                            harness.ranking_for(domain, rng.getrandbits(16)),
                            harness.ranking_for(domain, rng.getrandbits(16)),
                        )
                        for _ in range(rng.randrange(2, 5))
                    ]
                    harness.batch_distances(domain, pairs, metric=rng.choice(METRICS))
                elif op <= 8:
                    kind = rng.choice(CONSENSUS_KINDS)
                    harness.consensus(
                        domain,
                        kind,
                        k=rng.randrange(0, len(domain) + 2) if kind == "topk" else None,
                    )
                elif rng.random() < 0.5:
                    harness.snapshot()
                else:
                    harness.restore(rng.randrange(_SAVED_LIMIT))
            assert harness.operations >= 500
            harness.check_all_consensus()
        finally:
            harness.close()
