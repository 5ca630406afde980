"""The program process of the in-process workloads.

``python3 perfbench/program.py <workload> <inputs.pkl> <spans.jsonl>``

Imports the program, loads the inputs the benchmark generated (for
``serve-fanin`` that includes replaying the voters into the service),
then prints one ``ready`` JSON line. It then reads one command from
stdin: ``exit``, or ``run <seconds> <trace>``, which warms up, measures
for ``seconds`` with tracing off and — with ``trace`` = 1 — again with
the layer wrappers installed. It prints one JSON result line and exits.
Answers are checked after the clock stops.
"""

from __future__ import annotations

import json
import pickle
import sys
import time

T_LAUNCH = time.perf_counter()


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _pass_stats(phase: dict, check) -> dict:
    """Metrics of a phase of whole passes, with its answers checked.

    Every pass repeats the same computations on the same inputs, so the
    first pass's results are checked and an op that fails there is
    counted as failed in every pass.
    """
    from measure import chunked

    samples = list(zip(phase["completions"], phase["latencies"]))
    problems = [[p for p in check(result)] for result in phase["results"]]
    failing = sum(1 for found in problems if found)
    return {
        "ops": len(samples),
        **chunked(samples, phase["start"], len(phase["results"])),
        "attempted": len(samples),
        "failed": failing * phase["passes"],
        "problems": [p for found in problems for p in found][:10],
        "checked": len(phase["results"]),
    }


def run_offline(workload: str, inputs: list, seconds: float, trace: bool, spans_path: str) -> dict:
    import offline
    from layers import instrument_offline, summarize
    from tracing import Tracer

    from measure import peak_rss_mb
    from repro import obs

    op, check, counts_of = offline.WORKLOADS[workload]
    op(inputs[0])  # warm-up: lazy imports and first-call set-up
    phase = offline.run_passes(op, inputs, seconds)
    out = {**_pass_stats(phase, check), "peak_rss_mb": peak_rss_mb()}
    if not trace:
        return out

    tracer = Tracer()
    instrument_offline(tracer)
    traced = offline.run_passes(op, inputs, seconds)
    tracer.unwrap_all()
    ops = len(traced["latencies"])
    traced_stats = _pass_stats(traced, check)
    for key in ("attempted", "failed", "problems", "checked"):
        out[key] += traced_stats[key]
    # The program's own obs counters cost ~24 us per instrumented call,
    # which would swamp the scalar-metric loops timed above, so they are
    # armed for one extra pass that only counts.
    counts: dict[str, tuple[float, int]] = {}
    with obs.capture() as session:
        before = obs.snapshot()["counters"]
        for data in inputs:
            op(data)
            session.roots.clear()
        after = obs.snapshot()["counters"]
    for counter in ("aggregate.minmax.candidates", "metrics.batch.tiles"):
        delta = after.get(counter, 0) - before.get(counter, 0)
        if delta:
            counts[counter] = (delta / len(inputs), len(inputs))
    if counts_of is not None:
        per_op = [counts_of(result) for result in traced["results"]]
        for name in per_op[0]:
            counts[name] = (sum(c[name] for c in per_op) / len(per_op), len(per_op))
    out["layers"] = summarize(tracer.spans, ops, counts=counts)
    out["traced_ops_per_s"] = traced_stats["ops_per_s"]
    tracer.dump(spans_path)
    return out


def run_fanin(state, seconds: float, trace: bool, spans_path: str) -> dict:
    import asyncio

    import fanin
    from layers import cache_delta, instrument_serving, summarize
    from tracing import Tracer

    from measure import CHUNKS, chunked, peak_rss_mb

    positions = [0] * len(state.streams)

    def stats_of(phase: dict) -> dict:
        done = [sample for sample in phase["record"] if sample[0] <= phase["end"]]
        return {
            "ops": len(phase["record"]),
            **chunked(done, phase["start"], max(1, len(done) // CHUNKS)),
        }

    async def measure() -> dict:
        await fanin.run_phase(state, 1.0, positions)  # warm-up
        phase = await fanin.run_phase(state, seconds, positions)
        out = {**stats_of(phase), "peak_rss_mb": peak_rss_mb()}
        out["attempted"] = out["ops"]
        out["checks"] = phase["checks"]
        out["failures"] = phase["failures"]
        if not trace:
            return out
        tracer = Tracer()
        instrument_serving(tracer)
        cache_before = dict(state.service.cache.stats)
        traced = await fanin.run_phase(state, seconds, positions)
        cache_after = dict(state.service.cache.stats)
        tracer.unwrap_all()
        out["attempted"] += len(traced["record"])
        out["checks"] += traced["checks"]
        out["failures"] += traced["failures"]
        out["layers"] = summarize(
            tracer.spans, len(traced["record"]), cache=cache_delta(cache_before, cache_after)
        )
        out["traced_ops_per_s"] = stats_of(traced)["ops_per_s"]
        tracer.dump(spans_path)
        return out

    out = asyncio.run(measure())
    problems = out.pop("failures") + fanin.check(out["checks"])
    out["checked"] = len(out.pop("checks"))
    out["failed"] = min(out["attempted"], len(problems))
    out["problems"] = problems[:10]
    return out


def main(argv: list[str]) -> int:
    workload, inputs_path, spans_path = argv
    if workload == "serve-fanin":
        import fanin

        t_imported = time.perf_counter()
        with open(inputs_path, "rb") as src:
            inputs = pickle.load(src)
        state = fanin.load(inputs)
    else:
        import offline  # noqa: F401 - the program's offline entry points

        t_imported = time.perf_counter()
        with open(inputs_path, "rb") as src:
            state = pickle.load(src)
    t_ready = time.perf_counter()
    emit({"ready": True, "import_s": t_imported - T_LAUNCH, "load_s": t_ready - t_imported})

    command = sys.stdin.readline().split()
    if not command or command[0] != "run":
        return 0
    seconds, trace = float(command[1]), command[2] == "1"
    if workload == "serve-fanin":
        result = run_fanin(state, seconds, trace, spans_path)
    else:
        result = run_offline(workload, state, seconds, trace, spans_path)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
