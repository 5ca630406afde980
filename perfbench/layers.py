"""Which program entry points the traced run wraps, and the per-layer
metrics it derives from the recorded spans.

Wrapped entry points, by layer (span names in brackets):

* ``serve.service`` — ``RankingService.distance/update/consensus``
  [``serve.service.<route>``];
* ``serve.batching`` — ``DistanceBatcher.distance`` [``serve.batching.enqueue``]
  and the batch kernel it calls [``serve.batching.kernel``];
* ``aggregate.online`` — ``OnlineMedianAggregator.update`` and its four
  queries [``aggregate.online.update`` / ``.query``];
* ``metrics.batch`` — ``pairwise_distance_matrix`` and the three pair
  classification strategies it can pick [``metrics.batch.strategy.<s>``];
* ``aggregate.minmax`` — ``aggregate``;
* ``aggregate.decompose`` — ``kemeny_decomposed`` and the pair-cost
  matrix it builds;
* ``aggregate.batch`` — ``median_full_ranking_batch`` and
  ``median_partial_ranking_batch``;
* ``aggregate.medrank`` — ``medrank``.

The benchmark calls every offline entry point through its module
attribute, so a wrapper installed on the module is the one it calls.
"""

from __future__ import annotations

import asyncio
import statistics
from collections import defaultdict
from importlib import import_module
from typing import Any

from tracing import Span, Tracer

#: Every per-layer metric with its unit, in report order.
PER_LAYER: dict[str, str] = {
    "serve.http.residual_p50_ms": "ms",
    "serve.service.distance_p50_ms": "ms",
    "serve.service.update_p50_ms": "ms",
    "serve.service.consensus_p50_ms": "ms",
    "serve.batching.wait_p50_ms": "ms",
    "serve.batching.flushes": "count/op",
    "serve.batching.mean_batch": "requests",
    "serve.batching.mean_rankings": "rankings",
    "serve.batching.kernel_s": "s/op",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.invalidations": "count/op",
    "aggregate.online.update_p50_ms": "ms",
    "aggregate.online.query_p50_ms": "ms",
    "metrics.batch.kendall_family_s": "s/op",
    "metrics.batch.footrule_family_s": "s/op",
    "metrics.batch.strategy.dense": "count/op",
    "metrics.batch.strategy.tiled": "count/op",
    "metrics.batch.strategy.pairs": "count/op",
    "metrics.batch.tiles": "count/op",
    "metrics.plugins.batch_s": "s/op",
    "aggregate.minmax.search_s": "s/op",
    "aggregate.minmax.candidates": "count/op",
    "aggregate.kemeny.decompose_s": "s/op",
    "aggregate.kemeny.pair_cost_s": "s/op",
    "aggregate.kemeny.dp_states": "count/op",
    "aggregate.kemeny.largest_component": "items",
    "aggregate.batch.median_s": "s/op",
    "aggregate.medrank.s": "s/op",
    "aggregate.medrank.accesses": "count/op",
    "setup.import_s": "s",
    "setup.load_s": "s",
    "tracing.overhead_frac": "ratio",
}

KENDALL_FAMILY = ("kendall", "kendall_hausdorff")
FOOTRULE_FAMILY = ("footrule", "footrule_hausdorff")
KERNEL_SPANS = ("serve.batching.kernel", "metrics.batch.pairwise_distance_matrix")
STRATEGIES = {
    "dense": "_pair_counts_dense",
    "tiled": "_pair_counts_dense_tiled",
    "pairs": "_pair_counts_pairs",
}


def _task_attr(args: tuple, kwargs: dict) -> dict:
    task = asyncio.current_task()
    return {"task": id(task) if task is not None else 0}


def _enqueue_attrs(args: tuple, kwargs: dict) -> dict:
    # DistanceBatcher.distance(self, codec, sigma, tau, metric, p)
    codec, metric, p = args[1], args[4], args[5]
    return {"group": [metric, p, hash(codec.domain)]}


def _kernel_attrs(args: tuple, kwargs: dict) -> dict:
    rankings = args[0]
    metric = args[1] if len(args) > 1 else kwargs.get("metric", "kendall")
    return {
        "metric": metric,
        "p": kwargs.get("p", 0.5),
        "m": len(rankings),
        "domain": hash(rankings[0].domain),
    }


def instrument_serving(tracer: Tracer) -> None:
    batching = import_module("repro.serve.batching")
    from repro.aggregate.online import OnlineMedianAggregator
    from repro.serve.service import RankingService

    for route in ("distance", "update", "consensus"):
        tracer.wrap(RankingService, route, f"serve.service.{route}", _task_attr)
    tracer.wrap(batching.DistanceBatcher, "distance", "serve.batching.enqueue", _enqueue_attrs)
    tracer.wrap(batching, "pairwise_distance_matrix", "serve.batching.kernel", _kernel_attrs)
    tracer.wrap(OnlineMedianAggregator, "update", "aggregate.online.update")
    for query in ("scores", "full_ranking", "partial_ranking", "top_k"):
        tracer.wrap(OnlineMedianAggregator, query, "aggregate.online.query")
    _instrument_strategies(tracer)


def instrument_offline(tracer: Tracer) -> None:
    # modules, not the same-named functions ``repro.aggregate`` re-exports
    agg_batch = import_module("repro.aggregate.batch")
    decompose = import_module("repro.aggregate.decompose")
    medrank = import_module("repro.aggregate.medrank")
    minmax = import_module("repro.aggregate.minmax")
    metrics_batch = import_module("repro.metrics.batch")

    tracer.wrap(
        metrics_batch,
        "pairwise_distance_matrix",
        "metrics.batch.pairwise_distance_matrix",
        _kernel_attrs,
    )
    _instrument_strategies(tracer)
    tracer.wrap(minmax, "aggregate", "aggregate.minmax.search")
    tracer.wrap(decompose, "kemeny_decomposed", "aggregate.kemeny.decompose")
    tracer.wrap(decompose, "pair_cost_array", "aggregate.kemeny.pair_cost")
    tracer.wrap(agg_batch, "median_full_ranking_batch", "aggregate.batch.median")
    tracer.wrap(agg_batch, "median_partial_ranking_batch", "aggregate.batch.median")
    tracer.wrap(medrank, "medrank", "aggregate.medrank")


def _instrument_strategies(tracer: Tracer) -> None:
    # ``pair_counts_matrix`` resolves ``strategy="auto"`` internally and
    # calls one of these module functions by global name; wrapping them
    # shows which one ran. A version without them reports no picks.
    metrics_batch = import_module("repro.metrics.batch")

    for strategy, function in STRATEGIES.items():
        tracer.wrap(metrics_batch, function, f"metrics.batch.strategy.{strategy}")


def batching_waits(spans: list[Span]) -> tuple[list[float], list[int], list[int]]:
    """Enqueue-to-kernel-start waits, requests per kernel call, and
    rankings per kernel call.

    The batcher closes a group's window and calls the kernel with no
    ``await`` in between, so every request of that group enqueued before
    the kernel started and not yet answered is in that kernel call.
    Requests answered without a kernel (all operands equal) drop out when
    their enqueue span ends.
    """
    events: list[tuple[int, int, Span]] = []
    for span in spans:
        if span.name == "serve.batching.enqueue":
            events.append((span.t0, 0, span))
            events.append((span.t1, 2, span))
        elif span.name == "serve.batching.kernel":
            events.append((span.t0, 1, span))
    events.sort(key=lambda e: (e[0], e[1]))
    pending: dict[tuple, dict[int, Span]] = defaultdict(dict)
    waits: list[float] = []
    sizes: list[int] = []
    rankings: list[int] = []
    for t, kind, span in events:
        if kind == 0:
            pending[tuple(span.attrs["group"])][span.id] = span
        elif kind == 2:
            pending[tuple(span.attrs["group"])].pop(span.id, None)
        else:
            group = (span.attrs["metric"], span.attrs["p"], span.attrs["domain"])
            waiting = pending.pop(group, {})
            waits.extend((t - s.t0) / 1e6 for s in waiting.values())
            sizes.append(len(waiting))
            rankings.append(span.attrs["m"])
    return waits, sizes, rankings


def http_residuals(server: list[Span], client: list[Span]) -> list[float]:
    """Client latency minus server-side ``RankingService`` time, per request.

    Each keep-alive connection is served by one server task, in order, so
    a task's service spans pair one to one with its connection's requests
    from the request that contains the task's first span onwards.
    """
    by_task: dict[int, list[Span]] = defaultdict(list)
    for span in server:
        if span.name.startswith("serve.service."):
            by_task[span.attrs["task"]].append(span)
    by_conn: dict[int, list[Span]] = defaultdict(list)
    for span in client:
        by_conn[span.attrs["conn"]].append(span)
    residuals: list[float] = []
    for task_spans in by_task.values():
        task_spans.sort(key=lambda s: s.t0)
        first = task_spans[0]
        for requests in by_conn.values():
            requests.sort(key=lambda s: s.t0)
            start = next(
                (
                    i
                    for i, r in enumerate(requests)
                    if r.t0 <= first.t0 and first.t1 <= r.t1
                ),
                None,
            )
            if start is None:
                continue
            for request, served in zip(requests[start:], task_spans):
                if served.name != "serve.service." + request.attrs["route"]:
                    break
                residuals.append(request.ms - served.ms)
            break
    return residuals


def summarize(
    spans: list[Span],
    ops: int,
    *,
    counts: dict[str, tuple[float, int]] | None = None,
    cache: dict[str, int] | None = None,
    client: list[Span] | None = None,
) -> dict[str, tuple[float, int]]:
    """Per-layer metrics as ``name -> (value, samples)``.

    ``spans`` are the measured window's spans; ``ops`` the operations
    completed in it. ``counts`` carries per-op counts read from results or
    the program's ``repro.obs`` counters, ``cache`` the result-cache
    counter deltas over the window, ``client`` the wire client's request
    spans. A layer that did not run reports ``(0.0, 0)``.
    """
    out: dict[str, tuple[float, int]] = {name: (0.0, 0) for name in PER_LAYER}
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def put_median(span_name: str, metric: str) -> None:
        selected = by_name[span_name]
        if selected:
            out[metric] = (statistics.median(s.ms for s in selected), len(selected))

    def put_per_op(selected: list[Span], metric: str, self_time: bool = False) -> None:
        if not selected:
            return
        total = sum(s.seconds for s in selected)
        if self_time:
            ids = {s.id for s in selected}
            total -= sum(c.seconds for c in spans if c.parent in ids)
        out[metric] = (total / ops, len(selected))

    for route in ("distance", "update", "consensus"):
        put_median(f"serve.service.{route}", f"serve.service.{route}_p50_ms")
    put_median("aggregate.online.update", "aggregate.online.update_p50_ms")
    put_median("aggregate.online.query", "aggregate.online.query_p50_ms")

    waits, sizes, rankings = batching_waits(spans)
    if waits:
        out["serve.batching.wait_p50_ms"] = (statistics.median(waits), len(waits))
    if sizes:
        out["serve.batching.flushes"] = (len(sizes) / ops, len(sizes))
        out["serve.batching.mean_batch"] = (statistics.fmean(sizes), len(sizes))
        out["serve.batching.mean_rankings"] = (statistics.fmean(rankings), len(rankings))
    put_per_op(by_name["serve.batching.kernel"], "serve.batching.kernel_s")

    kernels = [s for name in KERNEL_SPANS for s in by_name[name]]
    put_per_op(
        [s for s in kernels if s.attrs["metric"] in KENDALL_FAMILY],
        "metrics.batch.kendall_family_s",
    )
    put_per_op(
        [s for s in kernels if s.attrs["metric"] in FOOTRULE_FAMILY],
        "metrics.batch.footrule_family_s",
    )
    put_per_op(
        [s for s in kernels if s.attrs["metric"] not in KENDALL_FAMILY + FOOTRULE_FAMILY],
        "metrics.plugins.batch_s",
    )
    for strategy in STRATEGIES:
        picked = by_name[f"metrics.batch.strategy.{strategy}"]
        if picked:
            out[f"metrics.batch.strategy.{strategy}"] = (len(picked) / ops, len(picked))

    put_per_op(by_name["aggregate.minmax.search"], "aggregate.minmax.search_s")
    # decompose_s is kemeny_decomposed's self time: pair_cost_s is its child
    put_per_op(by_name["aggregate.kemeny.decompose"], "aggregate.kemeny.decompose_s", True)
    put_per_op(by_name["aggregate.kemeny.pair_cost"], "aggregate.kemeny.pair_cost_s")
    put_per_op(by_name["aggregate.batch.median"], "aggregate.batch.median_s")
    put_per_op(by_name["aggregate.medrank"], "aggregate.medrank.s")

    if cache is not None:
        lookups = cache["hits"] + cache["misses"]
        if lookups:
            out["serve.cache.hit_ratio"] = (cache["hits"] / lookups, lookups)
        out["serve.cache.invalidations"] = (cache["invalidations"] / ops, ops)
    if client is not None:
        residuals = http_residuals(spans, client)
        if residuals:
            out["serve.http.residual_p50_ms"] = (statistics.median(residuals), len(residuals))
    out.update(counts or {})
    return out


def cache_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, int]:
    return {k: int(after[k]) - int(before[k]) for k in ("hits", "misses", "invalidations")}
