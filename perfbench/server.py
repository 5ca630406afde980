"""Launcher for the ``wire-mixed`` server process.

``python3 perfbench/server.py [--spans OUT.jsonl]``

Runs ``ReproServer`` with the default ``ServeConfig`` (the one
``python -m repro serve`` builds when no ``REPRO_SERVE_*`` variable is
set) on an ephemeral port, and signals readiness itself by printing its
bound port as a JSON line on stdout. SIGTERM stops it; it then prints a
last JSON line with its peak RSS.

With ``--spans`` the launcher wraps the serving layers' entry points
and writes the recorded spans to that file at exit.
"""

from __future__ import annotations

import time

T_LAUNCH = time.perf_counter()

import asyncio  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from repro.serve import ReproServer, ServeConfig  # noqa: E402

T_IMPORTED = time.perf_counter()


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def serve() -> None:
    server = ReproServer(config=dataclasses.replace(ServeConfig(), port=0))
    await server.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    emit({"port": server.port, "import_s": T_IMPORTED - T_LAUNCH})
    await stop.wait()
    await server.stop()


def main(argv: list[str]) -> int:
    from measure import peak_rss_mb

    spans_path = argv[1] if argv[:1] == ["--spans"] else None
    if spans_path is None:
        asyncio.run(serve())
    else:
        from layers import instrument_serving
        from tracing import Tracer

        tracer = Tracer()
        instrument_serving(tracer)
        asyncio.run(serve())
        tracer.dump(spans_path)
    emit({"peak_rss_mb": peak_rss_mb()})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
