"""The ``wire-mixed`` workload: one generator, two keep-alive connections.

The generator (this module, in the benchmark's own process) pre-encodes
every request before the clock starts, launches the server through
``server.py``, replays the voter log over the wire, then runs a closed
loop: each connection sends its next request only after the previous
reply arrived. Requests whose two operands are both literals have an
answer that does not depend on server state; they are checked against
the scalar metric after the run.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from typing import Any

from repro.core.partial_ranking import PartialRanking

from answers import scalar_distance
from inputs import STREAMS
from tracing import Span, now_ns

CONNECTIONS = STREAMS["wire-mixed"][0]
#: Every CHECK_EVERY-th all-literal distance request is checked.
CHECK_EVERY = 2

_ROUTES = {"d": "distance", "u": "update", "c": "consensus"}


def _request(path: str, payload: Any = None) -> bytes:
    if payload is None:
        return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Plan:
    """Every request of a run, encoded once, plus what to check."""

    def __init__(self, inputs: dict[str, Any]) -> None:
        domains = inputs["domains"]
        pools = inputs["pools"]
        self.replay = [
            [
                _request(
                    "/v1/update",
                    {"domain": domains[d], "voter": voter, "ranking": {"buckets": buckets}},
                )
                for d, voter, buckets in inputs["replay"][c::CONNECTIONS]
            ]
            for c in range(CONNECTIONS)
        ]
        # per connection: (route, request bytes, check or None)
        self.streams: list[list[tuple[str, bytes, tuple | None]]] = []
        for stream in inputs["streams"]:
            encoded = []
            literal_pairs = 0
            for op in stream:
                kind, d = op[0], op[1]
                check = None
                if kind == "d":
                    operands = [
                        {"voter": ref} if tag == "v" else {"buckets": pools[d][ref]}
                        for tag, ref in (op[2], op[3])
                    ]
                    payload = {
                        "domain": domains[d],
                        "sigma": operands[0],
                        "tau": operands[1],
                        "metric": op[4],
                    }
                    if op[2][0] == "l" and op[3][0] == "l":
                        literal_pairs += 1
                        if literal_pairs % CHECK_EVERY == 0:
                            check = (op[4], pools[d][op[2][1]], pools[d][op[3][1]])
                elif kind == "u":
                    payload = {
                        "domain": domains[d],
                        "voter": op[2],
                        "ranking": {"buckets": pools[d][op[3]]},
                    }
                else:
                    payload = {"domain": domains[d], "kind": op[2]}
                    if op[3] is not None:
                        payload["k"] = op[3]
                encoded.append((_ROUTES[kind], _request(f"/v1/{_ROUTES[kind]}", payload), check))
            self.streams.append(encoded)


class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def send(self, request: bytes) -> tuple[int, bytes]:
        self.writer.write(request)
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class Server:
    """One launched server process."""

    def __init__(
        self, root: str, env: dict[str, str], cpu: int | None, spans: str | None = None
    ) -> None:
        command = [sys.executable, os.path.join(root, "perfbench", "server.py")]
        if spans is not None:
            command += ["--spans", spans]
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
        )
        if cpu is not None:
            os.sched_setaffinity(self.process.pid, {cpu})
        line = self.process.stdout.readline()
        if not line:
            self.process.wait()
            raise RuntimeError(
                f"server exited with code {self.process.returncode} before it was ready"
            )
        ready = json.loads(line)
        self.port = int(ready["port"])
        self.import_s = float(ready["import_s"])

    def stop(self) -> float:
        """Stop the server; returns its peak RSS in MiB."""
        self.process.terminate()
        out, _ = self.process.communicate(timeout=60)
        lines = [line for line in out.splitlines() if line.strip()]
        if self.process.returncode != 0 or not lines:
            raise RuntimeError(f"server exited with code {self.process.returncode}")
        return float(json.loads(lines[-1])["peak_rss_mb"])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


async def replay(port: int, plan: Plan) -> list[Connection]:
    """Replay the voter log over the load connections; returns them open."""
    connections = [await Connection.open(port) for _ in range(CONNECTIONS)]

    async def one(connection: Connection, requests: list[bytes]) -> None:
        for request in requests:
            status, body = await connection.send(request)
            if status != 200:
                raise RuntimeError(f"replay update failed: {status} {body[:200]!r}")

    await asyncio.gather(*(one(c, r) for c, r in zip(connections, plan.replay)))
    return connections


async def stats(port: int) -> dict[str, Any]:
    connection = await Connection.open(port)
    try:
        status, body = await connection.send(_request("/v1/stats"))
    finally:
        await connection.close()
    return json.loads(body)["stats"]


async def load(
    connections: list[Connection], plan: Plan, seconds: float, positions: list[int]
) -> dict[str, Any]:
    """Closed loop on every connection for ``seconds``; raw samples."""
    records: list[tuple[int, int, int, str, int]] = []  # conn, t0, t1, route, status
    checked: list[tuple[tuple, bytes]] = []
    start = now_ns()
    deadline = start + int(seconds * 1e9)

    async def one(c: int) -> None:
        connection = connections[c]
        stream = plan.streams[c]
        position = positions[c]
        while now_ns() < deadline:
            route, request, check = stream[position % len(stream)]
            position += 1
            t0 = now_ns()
            try:
                status, body = await connection.send(request)
            except (ConnectionError, asyncio.IncompleteReadError):
                # a dropped connection fails this request and ends the loop
                records.append((c, t0, now_ns(), route, 599))
                break
            records.append((c, t0, now_ns(), route, status))
            if check is not None and status == 200:
                checked.append((check, body))
        positions[c] = position

    await asyncio.gather(*(one(c) for c in range(len(connections))))
    return {"start": start, "end": deadline, "records": records, "checked": checked}


def client_spans(records: list) -> list[Span]:
    return [
        Span(k, 0, "client.request", t0, t1, {"conn": c, "route": route})
        for k, (c, t0, t1, route, _status) in enumerate(records, 1)
    ]


def check(checked: list[tuple[tuple, bytes]]) -> list[str]:
    """Served distances against the scalar two-ranking metric, bit for bit."""
    problems = []
    for (metric, sigma, tau), body in checked:
        served = json.loads(body)["result"]["distance"]
        expected = scalar_distance(metric, PartialRanking(sigma), PartialRanking(tau))
        if float(served) != expected:
            problems.append(f"{metric}: served {served!r}, scalar {expected!r}")
    return problems


def timed_setup(
    root: str, env: dict[str, str], cpu: int | None, plan: Plan, spans: str | None = None
):
    """Launch a server and replay the voters.

    Returns the server, the event loop and open connections the load
    continues on, the set-up time (launch to ready) and the replay time.
    """
    t0 = time.perf_counter()
    server = Server(root, env, cpu, spans)
    try:
        t_listening = time.perf_counter()
        loop = asyncio.new_event_loop()
        connections = loop.run_until_complete(replay(server.port, plan))
        t_ready = time.perf_counter()
    except BaseException:
        server.kill()
        raise
    return server, loop, connections, t_ready - t0, t_ready - t_listening
