"""A stdlib-asyncio HTTP/1.1 JSON front end for :class:`RankingService`.

No third-party web framework: the container ships only the standard
library, and the protocol surface is deliberately tiny — five POST
routes plus two GETs, all JSON bodies, keep-alive connections with
explicit ``Content-Length`` framing. ``docs/SERVING.md`` documents every
request/response shape.

Routes
======

========  ==================  ===========================================
method    path                body
========  ==================  ===========================================
POST      /v1/update          ``{"domain", "voter", "ranking"}``
POST      /v1/remove          ``{"domain", "voter"}``
POST      /v1/distance        ``{"domain", "sigma", "tau", "metric"?, "p"?}``
POST      /v1/consensus       ``{"domain", "kind"?, "k"?}``
POST      /v1/snapshot        ``{}`` → ``{"snapshot": <base64>}``
POST      /v1/restore         ``{"snapshot": <base64>}``
GET       /v1/stats           —
GET       /v1/healthz         —
========  ==================  ===========================================

``sigma``/``tau`` are either ``{"buckets": [[...], ...]}`` literals or
``{"voter": "<id>"}`` references into the domain's shard. Domain items
and bucket items are JSON scalars (strings / numbers), which round-trip
type-stably through :class:`~repro.core.partial_ranking.PartialRanking`.

Errors map to status codes: malformed JSON / bad shapes / an unknown
metric name (:class:`~repro.errors.UnknownMetricError`, listing every
registered spelling) / a snapshot that does not restore
(:class:`~repro.serve.shards.SnapshotError`) → 400, unknown routes → 404,
:class:`~repro.errors.ReproError` (unknown voter, domain mismatch...)
→ 409, anything unexpected → 500 (the failure is re-raised into the
server log after the response is written).
"""

from __future__ import annotations

import asyncio
import base64
import json
from collections.abc import Mapping
from typing import Any

from repro import obs
from repro.core.partial_ranking import PartialRanking
from repro.errors import ReproError, UnknownMetricError
from repro.io import SerializationError, ranking_from_dict, ranking_to_dict
from repro.serve.config import ServeConfig
from repro.serve.service import RankingService
from repro.serve.shards import SnapshotError

__all__ = ["ReproServer", "BadRequest"]

_MAX_BODY = 16 * 1024 * 1024  # 16 MiB: far above any sane ranking payload

#: Per-``recv`` buffer on an accepted connection: the StreamReader's own
#: default limit, in place of the selector transport's 256 KiB.
_RECV_SIZE = 64 * 1024


class BadRequest(ValueError):
    """The request body was syntactically valid JSON but the wrong shape."""


def _require(payload: Mapping[str, Any], key: str) -> Any:
    try:
        return payload[key]
    except KeyError:
        raise BadRequest(f"request body is missing the {key!r} field") from None


def _domain_of(payload: Mapping[str, Any]) -> frozenset[Any]:
    domain = _require(payload, "domain")
    if not isinstance(domain, list) or not domain:
        raise BadRequest("'domain' must be a non-empty JSON array of items")
    return frozenset(domain)


def _ranking_of(value: Any, what: str) -> PartialRanking | str:
    """A ranking literal (``{"buckets": ...}``) or voter reference."""
    if isinstance(value, Mapping):
        if "voter" in value:
            voter = value["voter"]
            if not isinstance(voter, str):
                raise BadRequest(f"{what}.voter must be a string")
            return voter
        if "buckets" in value:
            return ranking_from_dict(value)
    raise BadRequest(
        f"{what} must be {{'buckets': [[...], ...]}} or {{'voter': '<id>'}}"
    )


def _render(value: Any) -> Any:
    """JSON-ready form of a service result."""
    if isinstance(value, PartialRanking):
        return ranking_to_dict(value)
    return value


class ReproServer:
    """The asyncio TCP server wrapping one :class:`RankingService`."""

    def __init__(
        self, service: RankingService | None = None, config: ServeConfig | None = None
    ) -> None:
        if service is None:
            service = RankingService(config)
        elif config is not None and config != service.config:
            raise ValueError("pass config through the service, not both")
        self.service = service
        self._server: asyncio.AbstractServer | None = None
        self.host = self.service.config.host
        self.port = self.service.config.port

    async def start(self) -> None:
        """Bind and start serving; ``self.port`` holds the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drain open batches, close the listener."""
        await self.service.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        transport = writer.transport
        if hasattr(transport, "max_size"):
            # The transport allocates a max_size buffer for every recv. At
            # 256 KiB that lands at the top of a small server heap, so
            # glibc trims the heap after each request and faults it back
            # in on the next: perfbench wire-mixed lost ~17% of its ops/s
            # to this once `import repro` stopped loading SciPy.
            transport.max_size = _RECV_SIZE
        try:
            while True:
                request = await _read_request(reader)
                if request is None:
                    break
                method, path, body = request
                status, payload, failure = await self._dispatch(method, path, body)
                await _write_response(writer, status, payload)
                if failure is not None:
                    # the client got its 500; surface the bug to the log
                    raise failure
        except (ConnectionResetError, asyncio.IncompleteReadError, asyncio.CancelledError):
            # torn-down connection, malformed framing, or loop shutdown —
            # nothing to answer; close the transport below
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any], BaseException | None]:
        """Route one request; returns (status, JSON payload, unexpected failure)."""
        route = (method, path)
        if route == ("GET", "/v1/healthz"):
            return 200, {"status": "ok"}, None
        if route == ("GET", "/v1/stats"):
            return 200, {"stats": self.service.stats()}, None
        handler = _ROUTES.get(route)
        if handler is None:
            obs.add("serve.http.unknown_route")
            return 404, {"error": f"no route {method} {path}"}, None
        try:
            payload = json.loads(body) if body else {}
            if not isinstance(payload, dict):
                raise BadRequest("request body must be a JSON object")
            result = await handler(self.service, payload)
            return 200, {"result": _render(result)}, None
        except (
            BadRequest,
            SerializationError,
            SnapshotError,
            UnknownMetricError,
            json.JSONDecodeError,
        ) as exc:
            # UnknownMetricError and SnapshotError before their ReproError
            # parent: a metric name that never resolves or a snapshot that
            # never restores is a malformed request (400), not a conflict
            # with the current state (409)
            return 400, {"error": str(exc)}, None
        except ReproError as exc:
            return 409, {"error": str(exc)}, None
        except Exception as exc:  # noqa: BLE001 — the 500 must reach the client before the failure is re-raised into the server log
            return 500, {"error": f"internal error: {type(exc).__name__}"}, exc


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes] | None:
    """Parse one HTTP/1.1 request; None on clean EOF between requests."""
    try:
        request_line = await reader.readline()
    except (ConnectionResetError, asyncio.LimitOverrunError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise asyncio.IncompleteReadError(request_line, None)
    method, path, _version = parts
    content_length = 0
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            # 1*DIGIT only: a negative or non-numeric length is malformed
            # framing, never 0 (which would run the body as a request)
            digits = value.strip()
            if not (digits.isascii() and digits.isdigit()):
                raise asyncio.IncompleteReadError(request_line, None)
            content_length = int(digits)
    if content_length > _MAX_BODY:
        raise asyncio.IncompleteReadError(request_line, None)
    body = await reader.readexactly(content_length) if content_length else b""
    return method.upper(), path, body


async def _write_response(
    writer: asyncio.StreamWriter, status: int, payload: dict[str, Any]
) -> None:
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 409: "Conflict"}.get(
        status, "Internal Server Error"
    )
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


# ----------------------------------------------------------------------
# Route handlers (thin JSON adapters over the service API)
# ----------------------------------------------------------------------


async def _route_update(service: RankingService, payload: dict[str, Any]) -> Any:
    domain = _domain_of(payload)
    voter = _require(payload, "voter")
    if not isinstance(voter, str):
        raise BadRequest("'voter' must be a string")
    ranking = _ranking_of(_require(payload, "ranking"), "ranking")
    if not isinstance(ranking, PartialRanking):
        raise BadRequest("'ranking' must be a bucket literal, not a voter reference")
    return await service.update(domain, voter, ranking)


async def _route_remove(service: RankingService, payload: dict[str, Any]) -> Any:
    domain = _domain_of(payload)
    voter = _require(payload, "voter")
    if not isinstance(voter, str):
        raise BadRequest("'voter' must be a string")
    return await service.remove(domain, voter)


async def _route_distance(service: RankingService, payload: dict[str, Any]) -> Any:
    domain = _domain_of(payload)
    sigma = _ranking_of(_require(payload, "sigma"), "sigma")
    tau = _ranking_of(_require(payload, "tau"), "tau")
    metric = payload.get("metric", "kendall")
    p = payload.get("p", 0.5)
    if not isinstance(metric, str):
        raise BadRequest("'metric' must be a string")
    if not isinstance(p, (int, float)) or isinstance(p, bool):
        raise BadRequest("'p' must be a number")
    value = await service.distance(domain, sigma, tau, metric=metric, p=float(p))
    return {"distance": value}


async def _route_consensus(service: RankingService, payload: dict[str, Any]) -> Any:
    domain = _domain_of(payload)
    kind = payload.get("kind", "full")
    k = payload.get("k")
    if not isinstance(kind, str):
        raise BadRequest("'kind' must be a string")
    if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
        raise BadRequest("'k' must be an integer")
    result = await service.consensus(domain, kind=kind, k=k)
    if kind == "scores" and isinstance(result, dict):
        # exact floats, [item, score] pairs in the codec's canonical
        # order (JSON object keys would coerce items to strings)
        return {
            "scores": [
                [item, score]
                for item, score in sorted(
                    result.items(),
                    key=lambda kv: (type(kv[0]).__name__, repr(kv[0])),
                )
            ]
        }
    return result


async def _route_snapshot(service: RankingService, payload: dict[str, Any]) -> Any:
    blob = service.snapshot()
    return {"snapshot": base64.b64encode(blob).decode("ascii")}


async def _route_restore(service: RankingService, payload: dict[str, Any]) -> Any:
    encoded = _require(payload, "snapshot")
    if not isinstance(encoded, str):
        raise BadRequest("'snapshot' must be a base64 string")
    try:
        blob = base64.b64decode(encoded.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise BadRequest(f"'snapshot' is not valid base64: {exc}") from exc
    service.restore(blob)
    return {"restored": True, "shards": len(service.shards)}


_ROUTES = {
    ("POST", "/v1/update"): _route_update,
    ("POST", "/v1/remove"): _route_remove,
    ("POST", "/v1/distance"): _route_distance,
    ("POST", "/v1/consensus"): _route_consensus,
    ("POST", "/v1/snapshot"): _route_snapshot,
    ("POST", "/v1/restore"): _route_restore,
}
