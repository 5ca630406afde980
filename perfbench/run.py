"""End-to-end benchmark of the ranking library and its server.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see README.md in this directory for why each exists):

* ``wire-mixed`` — ``ReproServer`` in its own process, two keep-alive
  connections, closed loop of distance / update / consensus requests;
* ``serve-fanin`` — the same state and mix into an in-process
  ``RankingService`` from 512 closed-loop users;
* ``profile-matrix`` — all-pairs distance matrices under the six metrics;
* ``aggregate-offline`` — exact median/minmax, decomposed Kemeny, the
  median batch kernels and MEDRANK.

Inputs are generated from ``--seed`` before the program is launched.
Set-up (launch to ready: the program's imports and state load) is
repeated several times per run and reported as a median. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run measures untraced and then traced, and carries the
per-layer metrics. Every program process runs with one BLAS thread.
"""

from __future__ import annotations

import os

#: One BLAS thread per program process. The library's own parallelism is
#: explicit ``jobs`` pools; the default thread pools only contend for the
#: two cores, and the wire generator needs one of them.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # before anything imports NumPy

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("wire-mixed", "serve-fanin", "profile-matrix", "aggregate-offline")
#: Set-ups per run; the median is reported.
SETUPS = {"wire-mixed": 3, "serve-fanin": 3, "profile-matrix": 3, "aggregate-offline": 3}
#: The end-to-end metrics of ``--trace 0``. ``p90_ms`` is printed but not
#: reported: on the wire its run-to-run spread follows the host's wake-up
#: latency (IQR/median 0.34 over ten runs on the machine in README.md),
#: wider than any bound a regression gate could use.
END_TO_END = {
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
CHILD_TIMEOUT = 120

# With two or more CPUs the generator keeps the first and every program
# process gets the second, so neither migrates or evicts the other.
_CPUS = sorted(os.sched_getaffinity(0))
GENERATOR_CPU, PROGRAM_CPU = (_CPUS[0], _CPUS[1]) if len(_CPUS) >= 2 else (None, None)


def pin(pid: int, cpu: int | None) -> None:
    if cpu is not None:
        os.sched_setaffinity(pid, {cpu})


def program_env() -> dict[str, str]:
    # no REPRO_* knob (tracing, jobs, serve settings) leaks in from outside
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = SRC
    # fixed string hashing: set and dict order, and so timings, repeat
    env["PYTHONHASHSEED"] = "0"
    return env


def make_inputs(workload: str, seed: int):
    import inputs

    if workload in inputs.STREAMS:
        return inputs.serving_inputs(seed, *inputs.STREAMS[workload])
    if workload == "profile-matrix":
        return inputs.matrix_inputs(seed)
    return inputs.offline_inputs(seed)


# ----------------------------------------------------------------------
# In-process workloads: program.py is the program process
# ----------------------------------------------------------------------


def run_inprocess(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    data = make_inputs(workload, seed)
    inputs_path = os.path.join(WORK, f"inputs-{workload}-{os.getpid()}.pkl")
    spans_path = os.path.join(WORK, f"spans-{workload}.jsonl")
    with open(inputs_path, "wb") as out:
        pickle.dump(data, out, protocol=pickle.HIGHEST_PROTOCOL)
    del data
    env = program_env()
    command = [sys.executable, os.path.join(HERE, "program.py"), workload, inputs_path, spans_path]
    setups, imports, loads = [], [], []
    process = None
    try:
        for k in range(SETUPS[workload]):
            t0 = time.perf_counter()
            process = subprocess.Popen(
                command,
                cwd=ROOT,
                env=env,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            pin(process.pid, PROGRAM_CPU)
            line = process.stdout.readline()
            t1 = time.perf_counter()
            if not line:
                process.wait(timeout=CHILD_TIMEOUT)
                raise RuntimeError(f"program exited with code {process.returncode} before ready")
            ready = json.loads(line)
            setups.append(t1 - t0)
            imports.append(ready["import_s"])
            loads.append(ready["load_s"])
            if k < SETUPS[workload] - 1:
                process.communicate("exit\n", timeout=CHILD_TIMEOUT)
        out, _ = process.communicate(f"run {seconds} {int(trace)}\n", timeout=CHILD_TIMEOUT)
        if process.returncode != 0:
            raise RuntimeError(f"program exited with code {process.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        if process is not None and process.poll() is None:
            process.kill()
            process.wait()
        os.remove(inputs_path)
    result["setup_samples"] = len(setups)
    result["setup_s"] = statistics.median(setups)
    result["import_s"] = statistics.median(imports)
    result["load_s"] = statistics.median(loads)
    return result


# ----------------------------------------------------------------------
# wire-mixed: this process is the load generator
# ----------------------------------------------------------------------


def run_wire(seed: int, seconds: int, trace: bool) -> dict:
    # the generator finishes its own imports before it launches a server
    import measure
    import wire
    from layers import cache_delta, summarize
    from tracing import Tracer, within
    from tracing import load as load_spans

    plan = wire.Plan(make_inputs("wire-mixed", seed))
    env = program_env()
    setups, imports, loads = [], [], []
    server = loop = None
    try:
        for k in range(SETUPS["wire-mixed"]):
            server, loop, connections, setup_s, load_s = wire.timed_setup(
                ROOT, env, PROGRAM_CPU, plan
            )
            setups.append(setup_s)
            imports.append(server.import_s)
            loads.append(load_s)
            if k < SETUPS["wire-mixed"] - 1:
                _close(loop, connections)
                server.stop()
                loop.close()
        positions = [0] * wire.CONNECTIONS
        loop.run_until_complete(wire.load(connections, plan, 1.0, positions))  # warm-up
        phase = loop.run_until_complete(wire.load(connections, plan, seconds, positions))
        _close(loop, connections)
        peak_rss = server.stop()
        server = None
        loop.close()
        result = _wire_stats(phase, measure)
        result["peak_rss_mb"] = peak_rss
        if trace:
            spans_path = os.path.join(WORK, "spans-wire-mixed-server.jsonl")
            server, loop, connections, _, _ = wire.timed_setup(
                ROOT, env, PROGRAM_CPU, plan, spans_path
            )
            positions = [0] * wire.CONNECTIONS
            loop.run_until_complete(wire.load(connections, plan, 1.0, positions))
            before = loop.run_until_complete(wire.stats(server.port))["cache"]
            traced = loop.run_until_complete(wire.load(connections, plan, seconds, positions))
            after = loop.run_until_complete(wire.stats(server.port))["cache"]
            _close(loop, connections)
            server.stop()
            server = None
            spans = within(load_spans(spans_path), traced["start"], traced["end"])
            client = wire.client_spans(traced["records"])
            Tracer.dump_spans(client, os.path.join(WORK, "spans-wire-mixed-client.jsonl"))
            ops = sum(1 for r in traced["records"] if r[2] <= traced["end"])
            result["layers"] = summarize(
                spans, ops, cache=cache_delta(before, after), client=client
            )
            traced_stats = _wire_stats(traced, measure)
            result["traced_ops_per_s"] = traced_stats["ops_per_s"]
            for key in ("attempted", "failed", "problems", "checked"):
                result[key] += traced_stats[key]
    finally:
        if server is not None:
            server.kill()
        if loop is not None:
            loop.close()
    result["setup_samples"] = len(setups)
    result["setup_s"] = statistics.median(setups)
    result["import_s"] = statistics.median(imports)
    result["load_s"] = statistics.median(loads)
    return result


def _close(loop, connections) -> None:
    for connection in connections:
        loop.run_until_complete(connection.close())


def _wire_stats(phase: dict, measure) -> dict:
    import wire  # already imported by run_wire

    records = phase["records"]
    done = [(t1 / 1e9, (t1 - t0) / 1e9) for _, t0, t1, _, _ in records if t1 <= phase["end"]]
    problems = [f"HTTP {status} on {route}" for _, _, _, route, status in records if status != 200]
    problems += wire.check(phase["checked"])
    return {
        "ops": len(records),
        **measure.chunked(done, phase["start"] / 1e9, max(1, len(done) // measure.CHUNKS)),
        "attempted": len(records),
        "failed": min(len(records), len(problems)),
        "problems": problems[:10],
        "checked": len(phase["checked"]),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def report(result: dict, trace: bool) -> dict:
    from layers import PER_LAYER

    print(
        f"attempted {result['attempted']}  failed {result['failed']}  "
        f"fail_frac {result['failed'] / result['attempted']:.6f}  "
        f"answers checked {result['checked']}  p90_ms {result['p90_ms']:.6f}"
    )
    for problem in result["problems"]:
        print(f"  wrong: {problem}")
    if not trace:
        metrics = {name: result[name] for name in END_TO_END}
        units = END_TO_END
        samples = {name: result["ops"] for name in END_TO_END}
        samples["setup_s"] = result["setup_samples"]
    else:
        layers = {name: tuple(value) for name, value in result["layers"].items()}
        layers["setup.import_s"] = (result["import_s"], result["setup_samples"])
        layers["setup.load_s"] = (result["load_s"], result["setup_samples"])
        overhead = (result["traced_ops_per_s"] - result["ops_per_s"]) / result["ops_per_s"]
        layers["tracing.overhead_frac"] = (overhead, None)
        metrics = {name: layers[name][0] for name in PER_LAYER}
        units = PER_LAYER
        samples = {name: layers[name][1] for name in PER_LAYER}
    for name, value in metrics.items():
        count = "" if samples[name] is None else f"  (n={samples[name]})"
        print(f"{name:40s} {value:14.6f} {units[name]}{count}")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program source (src/repro) in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    pin(0, GENERATOR_CPU)
    trace = bool(args.trace)
    if args.workload == "wire-mixed":
        result = run_wire(args.seed, args.seconds, trace)
    else:
        result = run_inprocess(args.workload, args.seed, args.seconds, trace)
    metrics = report(result, trace)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
