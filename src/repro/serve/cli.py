"""``python -m repro.serve`` — run the ranking service.

.. code-block:: console

    python -m repro.serve --port 8321
    python -m repro.serve --port 0 --cache 4096
    python -m repro serve --port 8321        # via the umbrella CLI

Flags override the ``REPRO_SERVE_*`` environment defaults (see
:mod:`repro.serve.config`). Distance batching takes no flag: concurrent
requests coalesce per event-loop tick and a lone request waits on no
timer (see :mod:`repro.serve.batching`). ``--trace out.jsonl`` arms a
:mod:`repro.obs` session around the whole server lifetime so every
request span and ``serve.*`` counter lands in the trace file.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
from dataclasses import replace

from repro import obs
from repro.serve.config import ServeConfig, config_from_env
from repro.serve.http import ReproServer

__all__ = ["main", "build_parser", "resolve_config"]  # repro: noqa[RP011] — argparse front end; every served request is instrumented in repro.serve.service


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve distance/consensus/update queries over HTTP/JSON.",
    )
    parser.add_argument("--host", default=None, help="bind address")
    parser.add_argument("--port", type=int, default=None, help="TCP port (0 = ephemeral)")
    parser.add_argument(
        "--cache", type=int, default=None, metavar="N", help="result-cache capacity"
    )
    parser.add_argument(
        "--jobs", type=int, default=None, help="workers for large distance batches"
    )
    parser.add_argument(
        "--trace", metavar="OUT.JSONL", default=None, help="record spans to a trace file"
    )
    return parser


def resolve_config(args: argparse.Namespace) -> ServeConfig:
    """Environment defaults, overridden by explicit flags."""
    config = config_from_env()
    overrides = {
        name: value
        for name, value in (
            ("host", args.host),
            ("port", args.port),
            ("cache_capacity", args.cache),
            ("jobs", args.jobs),
        )
        if value is not None
    }
    return replace(config, **overrides) if overrides else config


async def _run(config: ServeConfig) -> int:
    server = ReproServer(config=config)
    await server.start()
    print(f"repro.serve listening on http://{server.host}:{server.port}", file=sys.stderr)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = resolve_config(args)
    stack = contextlib.ExitStack()
    if args.trace:
        stack.enter_context(obs.session(args.trace))
    with stack:
        try:
            return asyncio.run(_run(config))
        except KeyboardInterrupt:
            return 0
