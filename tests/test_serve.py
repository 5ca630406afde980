"""Concurrency, batching, memoization and transport tests for repro.serve.

The claims under test, in the order the module proves them:

* **Coalescing**: N concurrent distance requests over one domain produce
  exactly one ``pairwise_distance_matrix`` invocation — observable via
  the ``serve.batch.coalesced`` / ``serve.batch.flushes`` and
  ``metrics.batch.matrix_calls`` counters — and every response is
  bit-for-bit equal to the direct two-ranking metric; a lone request is
  answered within a few event-loop turns, with no timer to wait on.
* **Order independence**: the same queries submitted in a different
  arrival order produce identical bits.
* **Freshness**: a mutation arriving mid-batch never causes a stale
  response — voter references resolve when the request is accepted, and
  the mutation drops the shard's memoized consensus answers.
* **Consensus memo**: an answer is computed once per shard version and
  key, a failed query stores nothing, distances never touch the memo,
  and a caller cannot edit a memoized answer through the value it got.
* **Transport**: the HTTP/JSON layer round-trips every route, maps
  errors to 400/404/409, keeps connections alive, and closes them on
  malformed ``Content-Length`` framing.
* **Snapshot portability**: a snapshot restored in a *different process*
  answers consensus queries bit-for-bit identically.
"""

from __future__ import annotations

import asyncio
import base64
import json
import pickle
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from typing import Any

import pytest

from repro import obs
from repro.aggregate.decompose import kemeny_decomposed
from repro.aggregate.median import median_scores
from repro.core.partial_ranking import PartialRanking
from repro.errors import AggregationError
from repro.generators.random import random_bucket_order, resolve_rng
from repro.metrics.footrule import footrule
from repro.metrics.kendall import kendall
from repro.metrics.plugins.weighted_footrule import weighted_footrule
from repro.obs import metrics, spans
from repro.serve import (
    RankingService,
    ReproServer,
    ServeConfig,
    SnapshotError,
    config_from_env,
)
from repro.serve.cli import build_parser, main, resolve_config
from repro.serve.shards import SNAPSHOT_VERSION
from tests.conftest import ForgedOnline

DOMAIN = frozenset(range(5))


@pytest.fixture(autouse=True)
def _isolated_obs():
    """Detach ambient obs sessions and reset counters around every test."""
    saved = spans._SESSIONS[:]
    spans._SESSIONS.clear()
    spans._LOCAL.stack.clear()
    metrics.reset()
    yield
    spans._SESSIONS[:] = saved
    spans._LOCAL.stack.clear()
    metrics.reset()


def _rankings(count: int, seed: int = 7) -> list[PartialRanking]:
    """Distinct bucket orders over DOMAIN."""
    rng = resolve_rng(seed)
    seen: list[PartialRanking] = []
    while len(seen) < count:
        candidate = random_bucket_order(len(DOMAIN), rng, tie_bias=0.4)
        if candidate not in seen:
            seen.append(candidate)
    return seen


def run(coro: Any) -> Any:
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------


class TestCoalescing:
    def test_concurrent_requests_one_matrix_call(self):
        """Nine concurrent queries -> one flush, one kernel call, exact bits."""
        service = RankingService(ServeConfig())
        rankings = _rankings(6)
        pairs = [(rankings[i], rankings[(i + 1) % 6]) for i in range(6)]
        pairs += [
            (rankings[0], rankings[3]),
            (rankings[1], rankings[4]),
            (rankings[2], rankings[5]),
        ]

        async def fire() -> list[float]:
            return await asyncio.gather(
                *(service.distance(DOMAIN, s, t) for s, t in pairs)
            )

        with obs.capture():
            values = run(fire())
        counters = obs.snapshot()["counters"]
        assert counters["serve.batch.flushes"] == 1
        assert counters["serve.batch.coalesced"] == len(pairs)
        assert counters["metrics.batch.matrix_calls"] == 1
        assert counters["serve.requests.distance"] == len(pairs)
        for value, (sigma, tau) in zip(values, pairs):
            assert value == kendall(sigma, tau, 0.5)

    def test_duplicate_queries_coalesce_and_dedup(self):
        """The same pair asked twice joins one batch of two distinct rankings."""
        service = RankingService(ServeConfig())
        sigma, tau = _rankings(2)

        async def fire() -> list[float]:
            return await asyncio.gather(
                service.distance(DOMAIN, sigma, tau),
                service.distance(DOMAIN, sigma, tau),
                service.distance(DOMAIN, tau, sigma),
            )

        with obs.capture():
            first, second, flipped = run(fire())
        counters = obs.snapshot()["counters"]
        assert counters["serve.batch.flushes"] == 1
        assert counters["serve.batch.coalesced"] == 3
        assert counters["metrics.batch.matrix_calls"] == 1
        assert first == second == flipped == kendall(sigma, tau, 0.5)

    def test_distinct_metric_groups_flush_separately(self):
        service = RankingService(ServeConfig())
        sigma, tau = _rankings(2)

        async def fire() -> list[float]:
            return await asyncio.gather(
                service.distance(DOMAIN, sigma, tau, metric="kendall"),
                service.distance(DOMAIN, sigma, tau, metric="footrule"),
            )

        with obs.capture():
            k_value, f_value = run(fire())
        counters = obs.snapshot()["counters"]
        assert counters["serve.batch.flushes"] == 2
        assert k_value == kendall(sigma, tau, 0.5)
        assert f_value == footrule(sigma, tau)

    def test_metric_aliases_share_a_batch(self):
        """k_prof and kendall are the same canonical group."""
        service = RankingService(ServeConfig())
        sigma, tau = _rankings(2)

        async def fire() -> list[float]:
            return await asyncio.gather(
                service.distance(DOMAIN, sigma, tau, metric="kendall"),
                service.distance(DOMAIN, sigma, tau, metric="k_prof"),
            )

        with obs.capture():
            values = run(fire())
        counters = obs.snapshot()["counters"]
        assert counters["serve.batch.flushes"] == 1
        assert values[0] == values[1] == kendall(sigma, tau, 0.5)

    def test_order_independence_bit_for_bit(self):
        rankings = _rankings(5)
        pairs = [(rankings[i], rankings[j]) for i in range(5) for j in range(i + 1, 5)]

        async def fire(service: RankingService, ordering: list[int]) -> dict:
            values = await asyncio.gather(
                *(service.distance(DOMAIN, *pairs[index]) for index in ordering)
            )
            return {ordering[pos]: value for pos, value in enumerate(values)}

        forward = run(fire(RankingService(ServeConfig()), list(range(len(pairs)))))
        backward = run(
            fire(RankingService(ServeConfig()), list(reversed(range(len(pairs)))))
        )
        assert forward == backward
        for index, (sigma, tau) in enumerate(pairs):
            assert forward[index] == kendall(sigma, tau, 0.5)

    def test_unknown_metric_rejected(self):
        service = RankingService(ServeConfig())
        sigma, tau = _rankings(2)
        with pytest.raises(AggregationError):
            run(service.distance(DOMAIN, sigma, tau, metric="spearman"))

    def test_lone_request_waits_on_no_timer(self):
        """One request resolves within a few event-loop turns, not a timer."""
        service = RankingService(ServeConfig())
        sigma, tau = _rankings(2)

        async def scenario() -> tuple[bool, float]:
            task = asyncio.ensure_future(service.distance(DOMAIN, sigma, tau))
            for _ in range(5):
                await asyncio.sleep(0)
            resolved = task.done()
            return resolved, await task

        resolved, value = run(scenario())
        assert resolved
        assert value == kendall(sigma, tau, 0.5)

    def test_single_ranking_batch_answers_zero_without_kernel(self):
        service = RankingService(ServeConfig())
        (sigma,) = _rankings(1)

        with obs.capture():
            value = run(service.distance(DOMAIN, sigma, sigma))
        counters = obs.snapshot()["counters"]
        assert value == 0.0
        assert "metrics.batch.matrix_calls" not in counters


# ----------------------------------------------------------------------
# Freshness under mutation
# ----------------------------------------------------------------------


class TestFreshness:
    def test_mid_batch_mutation_uses_accept_time_snapshot(self):
        """A voter reference resolves when accepted, not when flushed."""
        old, new, probe = _rankings(3)

        async def scenario() -> tuple[float, float]:
            service = RankingService(ServeConfig())
            await service.update(DOMAIN, "alice", old)
            task = asyncio.ensure_future(service.distance(DOMAIN, "alice", probe))
            await asyncio.sleep(0)  # the query is accepted, its batch is open
            # lands before the flush task's first turn
            await service.update(DOMAIN, "alice", new)
            accepted = await task
            fresh = await service.distance(DOMAIN, "alice", probe)
            await service.drain()
            return accepted, fresh

        accepted, fresh = run(scenario())
        assert accepted == kendall(old, probe, 0.5)
        assert fresh == kendall(new, probe, 0.5)

    def test_mutation_invalidates_consensus_cache(self):
        r1, r2 = _rankings(2)

        async def scenario() -> tuple[dict, dict, int]:
            service = RankingService(ServeConfig())
            await service.update(DOMAIN, "alice", r1)
            first = await service.consensus(DOMAIN, kind="scores")
            again = await service.consensus(DOMAIN, kind="scores")
            assert again == first
            hits_before_mutation = service.cache.hits
            await service.update(DOMAIN, "bob", r2)
            after = await service.consensus(DOMAIN, kind="scores")
            return first, after, hits_before_mutation

        first, after, hits = run(scenario())
        assert hits == 1  # the repeat was served from the memo...
        assert first == median_scores([r1])
        assert after == median_scores([r1, r2])  # ...and the mutation dropped it

    def test_voter_reference_follows_updates(self):
        """A reference answers for the voter's current ranking; old pairs keep theirs."""
        old, new, probe = _rankings(3)

        async def scenario() -> tuple[float, float, float]:
            service = RankingService(ServeConfig())
            await service.update(DOMAIN, "alice", old)
            by_ref_old = await service.distance(DOMAIN, "alice", probe)
            await service.update(DOMAIN, "alice", new)
            by_ref_new = await service.distance(DOMAIN, "alice", probe)
            old_pair_still = await service.distance(DOMAIN, old, probe)
            return by_ref_old, by_ref_new, old_pair_still

        by_ref_old, by_ref_new, old_pair_still = run(scenario())
        assert by_ref_old == kendall(old, probe, 0.5)
        assert by_ref_new == kendall(new, probe, 0.5)
        assert old_pair_still == by_ref_old

    def test_voter_reference_without_shard_rejected(self):
        service = RankingService(ServeConfig())
        (probe,) = _rankings(1)
        with pytest.raises(AggregationError):
            run(service.distance(DOMAIN, "nobody", probe))

    def test_restore_drops_every_cached_answer(self):
        r1, r2 = _rankings(2)

        async def scenario() -> tuple[dict, dict]:
            service = RankingService(ServeConfig())
            await service.update(DOMAIN, "alice", r1)
            blob = service.snapshot()
            await service.update(DOMAIN, "bob", r2)
            await service.consensus(DOMAIN, kind="scores")  # memoized under 2 voters
            service.restore(blob)
            restored = await service.consensus(DOMAIN, kind="scores")
            return restored, median_scores([r1])

        restored, expected = run(scenario())
        assert restored == expected


# ----------------------------------------------------------------------
# Certified-exact Kemeny consensus
# ----------------------------------------------------------------------


class TestKemenyConsensus:
    def test_matches_offline_solver(self):
        rankings = _rankings(3, seed=11)

        async def scenario() -> PartialRanking:
            service = RankingService(ServeConfig())
            for index, ranking in enumerate(rankings):
                await service.update(DOMAIN, f"v{index}", ranking)
            return await service.consensus(DOMAIN, kind="kemeny")

        got = run(scenario())
        expected = kemeny_decomposed(rankings, require_exact=True).ranking
        assert got == expected

    def test_mutation_invalidates_kemeny_cache(self):
        r1, r2, r3 = _rankings(3, seed=13)

        async def scenario() -> tuple[PartialRanking, int, PartialRanking, dict]:
            service = RankingService(ServeConfig())
            await service.update(DOMAIN, "a", r1)
            await service.update(DOMAIN, "b", r2)
            first = await service.consensus(DOMAIN, kind="kemeny")
            again = await service.consensus(DOMAIN, kind="kemeny")
            assert again == first
            hits = service.cache.hits
            await service.update(DOMAIN, "c", r3)
            after = await service.consensus(DOMAIN, kind="kemeny")
            return first, hits, after, service.cache.stats

        first, hits, after, stats = run(scenario())
        assert hits == 1  # the repeat hit; the query after the update missed
        assert stats == {"hits": 1, "misses": 2, "invalidations": 1}
        assert first == kemeny_decomposed([r1, r2], require_exact=True).ranking
        assert after == kemeny_decomposed([r1, r2, r3], require_exact=True).ranking

    def test_uncertifiable_shard_refused(self):
        # rotations over 20 items form one dominance SCC past the DP cap,
        # so the service must refuse (the HTTP layer maps this to 409)
        domain = frozenset(range(20))
        base = list(range(20))
        voters = [
            PartialRanking.from_sequence(base[shift:] + base[:shift])
            for shift in (0, 1, 2)
        ]

        async def scenario() -> None:
            service = RankingService(ServeConfig())
            for index, ranking in enumerate(voters):
                await service.update(domain, f"v{index}", ranking)
            await service.consensus(domain, kind="kemeny")

        with pytest.raises(AggregationError, match="strongly-connected"):
            run(scenario())

    def test_scc_counters_flow_through_serving(self):
        rankings = _rankings(3, seed=17)

        async def scenario() -> None:
            service = RankingService(ServeConfig())
            for index, ranking in enumerate(rankings):
                await service.update(DOMAIN, f"v{index}", ranking)
            await service.consensus(DOMAIN, kind="kemeny")

        with obs.capture():
            run(scenario())
        counters = obs.snapshot()["counters"]
        assert counters["serve.requests.consensus"] == 1
        assert counters["kemeny.scc.components"] >= 1
        assert counters["kemeny.scc.largest"] >= 1


# ----------------------------------------------------------------------
# Consensus memo
# ----------------------------------------------------------------------


async def _service_with(*rankings: PartialRanking) -> RankingService:
    service = RankingService(ServeConfig())
    for index, ranking in enumerate(rankings):
        await service.update(DOMAIN, f"v{index}", ranking)
    return service


class TestConsensusMemo:
    def test_scores_answer_is_a_copy(self):
        """Editing a returned score dict cannot change the next answer."""
        rankings = _rankings(2)

        async def scenario() -> dict:
            service = await _service_with(*rankings)
            scores = await service.consensus(DOMAIN, kind="scores")
            scores[0] = 99
            return await service.consensus(DOMAIN, kind="scores")

        assert run(scenario()) == median_scores(rankings)

    def test_k_is_ignored_outside_topk(self):
        """``full`` asked with k=2 and k=3 shares one memo entry."""

        async def scenario() -> RankingService:
            service = await _service_with(*_rankings(2))
            first = await service.consensus(DOMAIN, kind="full", k=2)
            assert await service.consensus(DOMAIN, kind="full", k=3) == first
            return service

        service = run(scenario())
        assert (service.cache.misses, service.cache.hits) == (1, 1)

    @pytest.mark.parametrize("k", [0, len(DOMAIN) + 1])
    def test_bad_k_stores_nothing(self, k):
        async def scenario() -> RankingService:
            service = await _service_with(*_rankings(2))
            with pytest.raises(AggregationError):
                await service.consensus(DOMAIN, kind="topk", k=k)
            await service.update(DOMAIN, "late", _rankings(3)[2])
            return service

        service = run(scenario())
        assert service.cache.hits == 0
        assert service.cache.invalidations == 0  # the update dropped no entry

    def test_distances_never_touch_the_counters(self):
        sigma, tau = _rankings(2)

        async def scenario() -> RankingService:
            service = await _service_with(sigma)
            await service.distance(DOMAIN, sigma, tau)
            await service.distance(DOMAIN, "v0", tau)
            await service.distance(DOMAIN, sigma, tau)
            return service

        assert run(scenario()).cache.stats == {"hits": 0, "misses": 0, "invalidations": 0}

    def test_stats_shape(self):
        """perfbench reads int hits, misses and invalidations from ``cache.stats``."""

        async def scenario() -> RankingService:
            service = await _service_with(*_rankings(2))
            await service.consensus(DOMAIN, kind="scores")
            await service.consensus(DOMAIN, kind="scores")
            await service.update(DOMAIN, "late", _rankings(3)[2])
            return service

        service = run(scenario())
        stats = service.cache.stats
        assert stats == {"hits": 1, "misses": 1, "invalidations": 1}
        assert all(type(value) is int for value in stats.values())
        assert service.stats()["cache"] == stats
        assert set(service.stats()["config"]) == {"tie", "jobs"}


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------


def _literal(ranking: PartialRanking) -> dict:
    """The JSON bucket-literal form of a ranking."""
    return {"buckets": [list(bucket) for bucket in ranking.buckets]}


async def _post(port: int, path: str, payload: dict) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await _request_on(reader, writer, "POST", path, payload)
    finally:
        writer.close()
        await writer.wait_closed()


async def _request_on(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    payload: dict | None,
) -> tuple[int, dict]:
    body = json.dumps(payload).encode() if payload is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    data = json.loads(await reader.readexactly(length)) if length else {}
    return status, data


class TestHTTP:
    def _serve(self, scenario):
        """Run an async scenario against a live ephemeral-port server."""

        async def wrapped():
            server = ReproServer(config=ServeConfig(port=0))
            await server.start()
            try:
                return await scenario(server)
            finally:
                await server.stop()

        return run(wrapped())

    def test_update_distance_consensus_roundtrip(self):
        sigma, tau = _rankings(2)
        domain = sorted(DOMAIN)

        async def scenario(server: ReproServer):
            status, body = await _post(
                server.port,
                "/v1/update",
                {"domain": domain, "voter": "alice", "ranking": _literal(sigma)},
            )
            assert status == 200
            assert body["result"]["replaced"] is False
            status, body = await _post(
                server.port,
                "/v1/distance",
                {
                    "domain": domain,
                    "sigma": {"voter": "alice"},
                    "tau": _literal(tau),
                },
            )
            assert status == 200
            assert body["result"]["distance"] == kendall(sigma, tau, 0.5)
            status, body = await _post(
                server.port, "/v1/consensus", {"domain": domain, "kind": "scores"}
            )
            assert status == 200
            expected = median_scores([sigma])
            assert {item: score for item, score in body["result"]["scores"]} == expected

        self._serve(scenario)

    def test_http_stats_carry_memo_counters(self):
        """perfbench reads int hits, misses and invalidations from /v1/stats."""
        sigma = _rankings(1)[0]
        domain = sorted(DOMAIN)

        async def scenario(server: ReproServer):
            await _post(
                server.port,
                "/v1/update",
                {"domain": domain, "voter": "a", "ranking": _literal(sigma)},
            )
            for _ in range(2):
                await _post(server.port, "/v1/consensus", {"domain": domain, "kind": "full"})
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                status, body = await _request_on(reader, writer, "GET", "/v1/stats", None)
            finally:
                writer.close()
                await writer.wait_closed()
            assert status == 200
            cache = body["stats"]["cache"]
            assert cache == {"hits": 1, "misses": 1, "invalidations": 0}
            assert all(type(cache[name]) is int for name in ("hits", "misses", "invalidations"))

        self._serve(scenario)

    def test_concurrent_http_distances_all_exact(self):
        rankings = _rankings(4)
        domain = sorted(DOMAIN)
        pairs = [(rankings[i], rankings[(i + 1) % 4]) for i in range(4)]

        async def scenario(server: ReproServer):
            responses = await asyncio.gather(
                *(
                    _post(
                        server.port,
                        "/v1/distance",
                        {
                            "domain": domain,
                            "sigma": _literal(s),
                            "tau": _literal(t),
                        },
                    )
                    for s, t in pairs
                )
            )
            for (status, body), (s, t) in zip(responses, pairs):
                assert status == 200
                assert body["result"]["distance"] == kendall(s, t, 0.5)

        self._serve(scenario)

    def test_error_mapping_and_keep_alive(self):
        domain = sorted(DOMAIN)

        async def scenario(server: ReproServer):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                # three requests on one keep-alive connection
                status, _ = await _request_on(reader, writer, "GET", "/v1/healthz", None)
                assert status == 200
                status, body = await _request_on(
                    reader, writer, "POST", "/v1/remove", {"domain": domain, "voter": "x"}
                )
                assert status == 409  # no shard for the domain yet
                status, body = await _request_on(
                    reader, writer, "POST", "/v1/distance", {"domain": domain}
                )
                assert status == 400  # missing sigma/tau
                assert "sigma" in body["error"]
            finally:
                writer.close()
                await writer.wait_closed()
            status, _ = await _post(server.port, "/v1/nope", {})
            assert status == 404
            status, body = await _post(
                server.port,
                "/v1/update",
                {"domain": domain, "voter": "a", "ranking": {"voter": "b"}},
            )
            assert status == 400  # update needs a literal ranking

        self._serve(scenario)

    def test_http_kemeny_consensus(self):
        rankings = _rankings(3, seed=19)
        domain = sorted(DOMAIN)

        async def scenario(server: ReproServer):
            for index, ranking in enumerate(rankings):
                await _post(
                    server.port,
                    "/v1/update",
                    {"domain": domain, "voter": f"v{index}", "ranking": _literal(ranking)},
                )
            status, body = await _post(
                server.port, "/v1/consensus", {"domain": domain, "kind": "kemeny"}
            )
            assert status == 200
            expected = kemeny_decomposed(rankings, require_exact=True).ranking
            assert body["result"] == _literal(expected)

        self._serve(scenario)

    def test_http_kemeny_refusal_maps_to_409(self):
        base = list(range(20))
        domain = base

        async def scenario(server: ReproServer):
            for index, shift in enumerate((0, 1, 2)):
                rotated = PartialRanking.from_sequence(base[shift:] + base[:shift])
                await _post(
                    server.port,
                    "/v1/update",
                    {"domain": domain, "voter": f"v{index}", "ranking": _literal(rotated)},
                )
            status, body = await _post(
                server.port, "/v1/consensus", {"domain": domain, "kind": "kemeny"}
            )
            assert status == 409
            assert "strongly-connected" in body["error"]

        self._serve(scenario)

    def test_http_unknown_metric_maps_to_400(self):
        sigma, tau = _rankings(2)
        domain = sorted(DOMAIN)

        async def scenario(server: ReproServer):
            status, body = await _post(
                server.port,
                "/v1/distance",
                {
                    "domain": domain,
                    "sigma": _literal(sigma),
                    "tau": _literal(tau),
                    "metric": "spearman",
                },
            )
            assert status == 400  # unresolvable name = malformed request
            assert "unknown metric" in body["error"]
            assert "kendall" in body["error"]  # the registered spellings
            # a registered plugin spelling serves fine on the same route
            status, body = await _post(
                server.port,
                "/v1/distance",
                {
                    "domain": domain,
                    "sigma": _literal(sigma),
                    "tau": _literal(tau),
                    "metric": "wf",
                },
            )
            assert status == 200
            assert body["result"]["distance"] == weighted_footrule(sigma, tau)

        self._serve(scenario)

    def _framing_scenario(self, request: bytes):
        """Send raw bytes on one connection; collect replies and loop errors."""

        async def scenario(server: ReproServer) -> tuple[bytes, list]:
            errors: list = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(request)
                await writer.drain()
                replies = await asyncio.wait_for(reader.read(), timeout=10)
            finally:
                writer.close()
                await writer.wait_closed()
            for _ in range(3):  # let the connection handler finish
                await asyncio.sleep(0)
            return replies, errors

        return self._serve(scenario)

    def test_negative_content_length_closes_connection(self):
        replies, errors = self._framing_scenario(
            b"POST /v1/distance HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        )
        assert replies == b""
        assert errors == []  # no traceback reaches the loop's handler

    def test_non_numeric_content_length_closes_connection(self):
        """The body must not run as a second request on the connection."""
        smuggled = b"GET /v1/healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
        replies, errors = self._framing_scenario(
            b"POST /v1/snapshot HTTP/1.1\r\nContent-Length: abc\r\n\r\n" + smuggled
        )
        assert replies == b""
        assert errors == []

    def test_restore_rejects_rows_outside_the_domain(self):
        """Forged aggregator rows are a 400, and the live state survives."""
        sigma = _rankings(1)[0]
        domain = sorted(DOMAIN)
        n = len(DOMAIN)

        def forged(rows: list) -> str:
            aggregator = ForgedOnline(domain, rows)
            payload = {
                "version": SNAPSHOT_VERSION,
                "tie": "mid",
                "shards": [
                    {
                        "items": tuple(domain),
                        "aggregator": aggregator,
                        "voters": {},
                        "shard_version": 1,
                    }
                ],
            }
            return base64.b64encode(pickle.dumps(payload)).decode("ascii")

        async def scenario(server: ReproServer):
            await _post(
                server.port,
                "/v1/update",
                {"domain": domain, "voter": "a", "ranking": _literal(sigma)},
            )
            for rows in ([[0.5] + [1.0] * (n - 1)], [[1.0] * (n + 1)]):
                status, body = await _post(
                    server.port, "/v1/restore", {"snapshot": forged(rows)}
                )
                assert status == 400
                assert "position rows" in body["error"]
            status, body = await _post(
                server.port, "/v1/consensus", {"domain": domain, "kind": "scores"}
            )
            assert status == 200
            expected = median_scores([sigma])
            assert {item: score for item, score in body["result"]["scores"]} == expected

        self._serve(scenario)

    def test_http_snapshot_restore(self):
        """The snapshot body is larger than one 64 KiB socket read."""
        sigma, tau = _rankings(2)
        crowd = _rankings(40, seed=3) * 15
        domain = sorted(DOMAIN)

        async def scenario(server: ReproServer):
            await _post(
                server.port,
                "/v1/update",
                {"domain": domain, "voter": "a", "ranking": _literal(sigma)},
            )
            for index, ranking in enumerate(crowd):
                await server.service.update(DOMAIN, f"v{index}", ranking)
            status, body = await _post(server.port, "/v1/snapshot", {})
            assert status == 200
            blob = body["result"]["snapshot"]
            assert len(blob) > 64 * 1024
            await _post(
                server.port,
                "/v1/update",
                {"domain": domain, "voter": "b", "ranking": _literal(tau)},
            )
            status, body = await _post(server.port, "/v1/restore", {"snapshot": blob})
            assert status == 200
            assert body["result"] == {"restored": True, "shards": 1}
            status, body = await _post(
                server.port, "/v1/consensus", {"domain": domain, "kind": "scores"}
            )
            expected = median_scores([sigma, *crowd])  # voter b is gone again
            assert {item: score for item, score in body["result"]["scores"]} == expected
            status, body = await _post(server.port, "/v1/restore", {"snapshot": "!!!"})
            assert status == 400

        self._serve(scenario)


# ----------------------------------------------------------------------
# Snapshot across a real process boundary
# ----------------------------------------------------------------------


def _consensus_in_child(blob: bytes, domain_items: tuple, k: int) -> tuple:
    """Worker: restore the snapshot in a fresh service and answer queries."""
    service = RankingService()
    service.restore(blob)
    domain = frozenset(domain_items)

    async def query() -> tuple:
        return (
            await service.consensus(domain, kind="scores"),
            await service.consensus(domain, kind="full"),
            await service.consensus(domain, kind="partial"),
            await service.consensus(domain, kind="topk", k=k),
        )

    return asyncio.run(query())


class TestSnapshotProcessBoundary:
    def test_restored_process_answers_identically(self):
        rankings = _rankings(4, seed=21)

        async def build() -> tuple[bytes, tuple]:
            service = RankingService(ServeConfig())
            for index, ranking in enumerate(rankings):
                await service.update(DOMAIN, f"v{index}", ranking)
            local = (
                await service.consensus(DOMAIN, kind="scores"),
                await service.consensus(DOMAIN, kind="full"),
                await service.consensus(DOMAIN, kind="partial"),
                await service.consensus(DOMAIN, kind="topk", k=2),
            )
            return service.snapshot(), local

        blob, local = run(build())
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(_consensus_in_child, blob, tuple(DOMAIN), 2).result()
        assert remote == local

    def test_large_domain_costs_memory_in_proportion_to_its_rows(self):
        """One 5,000-item ranking stays O(n) through update, snapshot and restore."""
        n = 5_000
        ranking = PartialRanking.from_sequence(resolve_rng(4).sample(range(n), n))

        async def scenario() -> dict:
            service = RankingService(ServeConfig())
            await service.update(range(n), "alice", ranking)
            service.restore(service.snapshot())
            return await service.consensus(range(n), kind="scores")

        tracemalloc.start()
        try:
            scores = run(scenario())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an (n, 2n - 1) int64 count matrix alone would take about 400 MB
        assert peak < 64 * 2**20
        assert scores == median_scores([ranking])

    def test_garbage_blob_rejected(self):
        service = RankingService()
        with pytest.raises(SnapshotError):
            service.restore(b"not a snapshot")

    def test_layout_version_mismatch_rejected(self):
        service = RankingService()
        blob = pickle.dumps({"version": 999, "tie": "mid", "shards": []})
        with pytest.raises(SnapshotError):
            service.restore(blob)


# ----------------------------------------------------------------------
# Config units
# ----------------------------------------------------------------------


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(port=70000)
        with pytest.raises(ValueError):
            ServeConfig(port=-1)
        with pytest.raises(ValueError, match="jobs"):
            ServeConfig(jobs=0)
        assert ServeConfig(jobs=-1).jobs == -1  # every CPU

    def test_env_roundtrip(self):
        config = config_from_env(
            {
                "REPRO_SERVE_HOST": "0.0.0.0",
                "REPRO_SERVE_PORT": "9000",
                "REPRO_SERVE_JOBS": "2",
            }
        )
        assert config == ServeConfig(host="0.0.0.0", port=9000, jobs=2)

    def test_malformed_env_warns_and_defaults(self):
        for name, raw in (
            ("REPRO_SERVE_PORT", "lots"),
            ("REPRO_SERVE_PORT", "70000"),
            ("REPRO_SERVE_JOBS", "lots"),
            ("REPRO_SERVE_JOBS", "0"),
        ):
            with pytest.warns(RuntimeWarning, match=name):
                config = config_from_env({name: raw})
            assert config == ServeConfig()

    def test_cli_flags_override_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "9000")
        monkeypatch.setenv("REPRO_SERVE_JOBS", "2")
        args = build_parser().parse_args(["--port", "0", "--jobs", "3"])
        config = resolve_config(args)
        assert config.port == 0
        assert config.jobs == 3

    @pytest.mark.parametrize("flags", [["--jobs", "0"], ["--port", "70000"]])
    def test_rejected_flag_is_a_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(flags)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err
