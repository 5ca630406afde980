"""Tests for the interprocedural flow layer and rules RP012–RP016.

Covers four layers:

* **call graph** — edge resolution through aliases, self dispatch,
  lambdas handed to ``parallel_map``, registry indirection;
* **effect summaries / fixpoint** — module-state writes (incl.
  cross-module), env reads, unordered-return and may-raise propagation;
* **rule fixtures** — one flagging, one clean, and one suppressed
  fixture per rule (the self-application guarantee: each rule catches
  its planted violation);
* **engine infrastructure** — baseline gating and SARIF output.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline, apply_baseline, write_baseline
from repro.analysis.engine import (
    Project,
    SourceFile,
    analyze_paths,
    analyze_source,
)
from repro.analysis.flow.callgraph import build_call_graph
from repro.analysis.flow.dtypes import DType, annotation_dtype, dtype_of_text
from repro.analysis.flow.fixpoint import FlowAnalysis
from repro.analysis.reporters import render_sarif

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def make_project(files: dict[str, str]) -> Project:
    """An in-memory project; keys are repo-style paths (src/repro/...)."""
    project = Project(root=REPO_ROOT)
    for name, text in files.items():
        project.files.append(SourceFile.parse(Path(name), text=text))
    return project


def flow_of(files: dict[str, str]) -> FlowAnalysis:
    return FlowAnalysis.build(make_project(files))


def codes(result) -> list[str]:
    return [finding.rule for finding in result.active]


class TestCallGraph:
    def test_direct_and_aliased_call_edges(self):
        graph = build_call_graph(
            make_project(
                {
                    "src/repro/fxp/a.py": (
                        "from repro.fxp import b as helpers\n"
                        "def caller():\n"
                        "    local()\n"
                        "    helpers.work()\n"
                        "def local():\n"
                        "    pass\n"
                    ),
                    "src/repro/fxp/b.py": "def work():\n    pass\n",
                }
            )
        )
        callees = graph.callees("repro.fxp.a.caller")
        assert "repro.fxp.a.local" in callees
        assert "repro.fxp.b.work" in callees

    def test_self_method_dispatch(self):
        graph = build_call_graph(
            make_project(
                {
                    "src/repro/fxp/c.py": (
                        "class Thing:\n"
                        "    def outer(self):\n"
                        "        self.inner()\n"
                        "    def inner(self):\n"
                        "        pass\n"
                    )
                }
            )
        )
        assert "repro.fxp.c.Thing.inner" in graph.callees("repro.fxp.c.Thing.outer")

    def test_lambda_to_parallel_map_is_a_parallel_root(self):
        graph = build_call_graph(
            make_project(
                {
                    "src/repro/fxp/d.py": (
                        "from repro.parallel import parallel_map\n"
                        "def run(xs):\n"
                        "    return parallel_map(lambda x: x + 1, xs)\n"
                    )
                }
            )
        )
        roots = [name for name in graph.parallel_roots if "<lambda" in name]
        assert roots, graph.parallel_roots

    def test_function_to_executor_map_is_a_parallel_root(self):
        graph = build_call_graph(
            make_project(
                {
                    "src/repro/fxp/e.py": (
                        "from concurrent.futures import ProcessPoolExecutor\n"
                        "def work(x):\n"
                        "    return x\n"
                        "def run(xs):\n"
                        "    with ProcessPoolExecutor() as pool:\n"
                        "        return list(pool.map(work, xs))\n"
                    )
                }
            )
        )
        assert "repro.fxp.e.work" in graph.parallel_roots
        sink, _ = graph.parallel_roots["repro.fxp.e.work"]
        assert sink == "pool.map"

    def test_registry_indirection_adds_ref_edge(self):
        graph = build_call_graph(
            make_project(
                {
                    "src/repro/fxp/f.py": (
                        "from repro.verify.oracles import OracleEntry\n"
                        "def reference(x):\n"
                        "    return x\n"
                        "def variant(x):\n"
                        "    return x\n"
                        "def build():\n"
                        "    return OracleEntry(\n"
                        "        reference=reference,\n"
                        "        variants=(('fast', variant),),\n"
                        "    )\n"
                    )
                }
            )
        )
        assert "repro.fxp.f.reference" in graph.registry_roots
        assert "repro.fxp.f.variant" in graph.registry_roots
        assert "repro.fxp.f.reference" in graph.callees("repro.fxp.f.build")

    def test_nested_def_is_a_separate_node(self):
        graph = build_call_graph(
            make_project(
                {
                    "src/repro/fxp/g.py": (
                        "def outer():\n"
                        "    def inner():\n"
                        "        pass\n"
                        "    return inner\n"
                    )
                }
            )
        )
        assert graph.functions["repro.fxp.g.outer.inner"].kind == "nested"
        assert "repro.fxp.g.outer.inner" in graph.callees("repro.fxp.g.outer")


class TestSummariesAndFixpoint:
    def test_cross_module_state_write_via_alias(self):
        flow = flow_of(
            {
                "src/repro/fxp/state.py": "_CACHE = {}\n",
                "src/repro/fxp/writer.py": (
                    "from repro.fxp import state\n"
                    "def put(key, value):\n"
                    "    state._CACHE[key] = value\n"
                ),
            }
        )
        summary = flow.summary("repro.fxp.writer.put")
        assert summary is not None
        targets = [write.target for write in summary.module_writes]
        assert "repro.fxp.state._CACHE" in targets

    def test_local_shadowing_is_not_a_module_write(self):
        flow = flow_of(
            {
                "src/repro/fxp/h.py": (
                    "_CACHE = {}\n"
                    "def pure(key):\n"
                    "    _CACHE = {}\n"
                    "    _CACHE[key] = 1\n"
                    "    return _CACHE\n"
                )
            }
        )
        summary = flow.summary("repro.fxp.h.pure")
        assert summary is not None and not summary.module_writes

    def test_env_read_forms(self):
        flow = flow_of(
            {
                "src/repro/fxp/envs.py": (
                    "import os\n"
                    "def a():\n"
                    "    return os.environ['X']\n"
                    "def b():\n"
                    "    return os.environ.get('Y')\n"
                    "def c():\n"
                    "    return os.getenv('Z')\n"
                    "def d():\n"
                    "    return 'W' in os.environ\n"
                )
            }
        )
        for fn, variable in (("a", "X"), ("b", "Y"), ("c", "Z")):
            summary = flow.summary(f"repro.fxp.envs.{fn}")
            assert summary is not None
            assert [read.variable for read in summary.env_reads] == [variable]
        summary_d = flow.summary("repro.fxp.envs.d")
        assert summary_d is not None and len(summary_d.env_reads) == 1

    def test_bare_reraise_is_not_a_raise_site(self):
        flow = flow_of(
            {
                "src/repro/fxp/i.py": (
                    "def passthrough():\n"
                    "    try:\n"
                    "        return 1\n"
                    "    except ValueError:\n"
                    "        raise\n"
                )
            }
        )
        summary = flow.summary("repro.fxp.i.passthrough")
        assert summary is not None and summary.raise_lines == ()

    def test_parallel_reachability_has_witness_chain(self):
        flow = flow_of(
            {
                "src/repro/fxp/j.py": (
                    "from repro.parallel import parallel_map\n"
                    "def leaf():\n"
                    "    pass\n"
                    "def worker(x):\n"
                    "    leaf()\n"
                    "def run(xs):\n"
                    "    parallel_map(worker, xs)\n"
                )
            }
        )
        chain = flow.parallel_chain("repro.fxp.j.leaf")
        assert chain == ["repro.fxp.j.worker", "repro.fxp.j.leaf"]
        assert flow.parallel_chain("repro.fxp.j.run") is None

    def test_unordered_return_propagates_through_call_chain(self):
        flow = flow_of(
            {
                "src/repro/fxp/k.py": (
                    "def base() -> frozenset[int]:\n"
                    "    return frozenset((1, 2))\n"
                    "def wrapper():\n"
                    "    return base()\n"
                )
            }
        )
        assert "repro.fxp.k.base" in flow.returns_unordered
        assert "repro.fxp.k.wrapper" in flow.returns_unordered

    def test_ordered_container_of_sets_is_not_unordered(self):
        flow = flow_of(
            {
                "src/repro/fxp/m.py": (
                    "def buckets() -> tuple[frozenset[int], ...]:\n"
                    "    return (frozenset((1,)),)\n"
                )
            }
        )
        assert "repro.fxp.m.buckets" not in flow.returns_unordered

    def test_may_raise_is_transitive(self):
        flow = flow_of(
            {
                "src/repro/fxp/n.py": (
                    "def check(x):\n"
                    "    if x < 0:\n"
                    "        raise ValueError('no')\n"
                    "def caller(x):\n"
                    "    check(x)\n"
                )
            }
        )
        assert "repro.fxp.n.check" in flow.may_raise
        assert "repro.fxp.n.caller" in flow.may_raise


class TestDtypeLattice:
    def test_text_classification(self):
        assert dtype_of_text("np.int64") == DType.INT64
        assert dtype_of_text("np.int32") == DType.NARROW_INT
        assert dtype_of_text("np.float64") == DType.FLOAT64
        assert dtype_of_text("np.bool_") == DType.BOOL

    def test_annotation_requires_array_type(self):
        import ast as ast_mod

        node = ast_mod.parse("def f() -> npt.NDArray[np.int64]: ...").body[0]
        assert annotation_dtype(node.returns) == DType.INT64
        plain = ast_mod.parse("def f() -> int: ...").body[0]
        assert annotation_dtype(plain.returns) == DType.UNKNOWN


RP012_FLAGGING = (
    "from repro.parallel import parallel_map\n"
    "_CACHE = {}\n"
    "def worker(x):\n"
    "    _CACHE[x] = x\n"
    "    return x\n"
    "def run(xs):\n"
    "    return parallel_map(worker, xs)\n"
)

RP012_CLEAN = (
    "from repro.parallel import parallel_map\n"
    "_CACHE = {}\n"
    "def worker(x):\n"
    "    return x + 1\n"
    "def run(xs):\n"
    "    _CACHE['last'] = parallel_map(worker, xs)\n"
    "    return _CACHE['last']\n"
)


class TestRP012ParallelSafety:
    def test_flagging_worker_writes_module_state(self):
        result = analyze_source(RP012_FLAGGING, select=["RP012"])
        assert codes(result) == ["RP012"]
        (finding,) = result.active
        assert "_CACHE" in finding.message and "worker-reachable" in finding.message

    def test_clean_parent_side_write_is_fine(self):
        assert codes(analyze_source(RP012_CLEAN, select=["RP012"])) == []

    def test_reasoned_noqa_suppresses(self):
        text = RP012_FLAGGING.replace(
            "    _CACHE[x] = x\n",
            "    _CACHE[x] = x  # repro: noqa[RP012] — per-process memo, rebuilt in each worker\n",
        )
        assert codes(analyze_source(text, select=["RP012"])) == []

    def test_bare_noqa_demands_a_reason(self):
        text = RP012_FLAGGING.replace(
            "    _CACHE[x] = x\n",
            "    _CACHE[x] = x  # repro: noqa[RP012]\n",
        )
        result = analyze_source(text, select=["RP012"])
        assert codes(result) == ["RP012"]
        assert "requires a reason" in result.active[0].message

    def test_lambda_handed_to_pool_is_flagged(self):
        result = analyze_source(
            "from repro.parallel import parallel_map\n"
            "def run(xs):\n"
            "    return parallel_map(lambda x: x + 1, xs)\n",
            select=["RP012"],
        )
        assert codes(result) == ["RP012"]
        assert "picklable" in result.active[0].message

    def test_transitive_write_through_helper(self):
        result = analyze_source(
            "from repro.parallel import parallel_map\n"
            "_SEEN = []\n"
            "def record(x):\n"
            "    _SEEN.append(x)\n"
            "def worker(x):\n"
            "    record(x)\n"
            "    return x\n"
            "def run(xs):\n"
            "    return parallel_map(worker, xs)\n",
            select=["RP012"],
        )
        assert codes(result) == ["RP012"]
        assert "worker -> record" in result.active[0].message


RP013_FLAGGING = (
    "def render(items):\n"
    "    s = set(items)\n"
    "    return list(s)\n"
)


class TestRP013Determinism:
    def test_flagging_list_over_set(self):
        result = analyze_source(RP013_FLAGGING, select=["RP013"])
        assert codes(result) == ["RP013"]

    def test_clean_sorted_wrapper(self):
        assert (
            codes(
                analyze_source(
                    "def render(items):\n"
                    "    s = set(items)\n"
                    "    return sorted(s)\n",
                    select=["RP013"],
                )
            )
            == []
        )

    def test_noqa_suppresses(self):
        text = RP013_FLAGGING.replace(
            "    return list(s)\n",
            "    return list(s)  # repro: noqa[RP013]\n",
        )
        assert codes(analyze_source(text, select=["RP013"])) == []

    def test_order_insensitive_consumers_are_fine(self):
        assert (
            codes(
                analyze_source(
                    "def stats(items):\n"
                    "    s = set(items)\n"
                    "    return len(s), sum(s), min(s), max(s)\n",
                    select=["RP013"],
                )
            )
            == []
        )

    def test_returned_comprehension_over_set_is_flagged(self):
        result = analyze_source(
            "def render(items):\n"
            "    return [x for x in set(items) if x]\n",
            select=["RP013"],
        )
        assert codes(result) == ["RP013"]

    def test_interprocedural_unordered_return(self):
        result = analyze_source(
            "def domain() -> frozenset[int]:\n"
            "    return frozenset((1, 2))\n"
            "def render():\n"
            "    return list(domain())\n",
            select=["RP013"],
        )
        assert codes(result) == ["RP013"]

    def test_accumulating_loop_over_set_is_flagged(self):
        result = analyze_source(
            "def render(items):\n"
            "    out = []\n"
            "    for x in set(items):\n"
            "        out.append(x)\n"
            "    return out\n",
            select=["RP013"],
        )
        assert codes(result) == ["RP013"]


RP014_FILE = "src/repro/aggregate/batch.py"

RP014_FLAGGING = (
    "import numpy as np\n"
    "import numpy.typing as npt\n"
    "def count(mask: npt.NDArray[np.bool_]):\n"
    "    return mask.sum(axis=0)\n"
)


class TestRP014DtypeSoundness:
    def test_flagging_bool_sum_without_dtype(self):
        result = analyze_source(RP014_FLAGGING, filename=RP014_FILE, select=["RP014"])
        assert codes(result) == ["RP014"]
        assert "default-accumulator" in result.active[0].message

    def test_clean_explicit_accumulator(self):
        text = RP014_FLAGGING.replace(
            "mask.sum(axis=0)", "mask.sum(axis=0, dtype=np.int64)"
        )
        assert codes(analyze_source(text, filename=RP014_FILE, select=["RP014"])) == []

    def test_noqa_suppresses(self):
        text = RP014_FLAGGING.replace(
            "    return mask.sum(axis=0)\n",
            "    return mask.sum(axis=0)  # repro: noqa[RP014]\n",
        )
        assert codes(analyze_source(text, filename=RP014_FILE, select=["RP014"])) == []

    def test_narrowing_astype_is_flagged(self):
        result = analyze_source(
            "import numpy as np\n"
            "import numpy.typing as npt\n"
            "def shrink(a: npt.NDArray[np.int64]):\n"
            "    return a.astype(np.int32)\n",
            filename=RP014_FILE,
            select=["RP014"],
        )
        assert codes(result) == ["RP014"]
        assert "narrowing" in result.active[0].message

    def test_unrounded_float_to_int_cast_is_flagged(self):
        result = analyze_source(
            "import numpy as np\n"
            "import numpy.typing as npt\n"
            "def halve(a: npt.NDArray[np.int64]):\n"
            "    return (a / 2).astype(np.int64)\n",
            filename=RP014_FILE,
            select=["RP014"],
        )
        assert codes(result) == ["RP014"]
        assert "unrounded-cast" in result.active[0].message

    def test_rounded_cast_is_clean(self):
        result = analyze_source(
            "import numpy as np\n"
            "import numpy.typing as npt\n"
            "def halve(a: npt.NDArray[np.int64]):\n"
            "    return np.rint(a / 2).astype(np.int64)\n",
            filename=RP014_FILE,
            select=["RP014"],
        )
        assert codes(result) == []

    def test_outside_kernel_modules_not_scanned(self):
        result = analyze_source(
            RP014_FLAGGING, filename="src/repro/fxp/free.py", select=["RP014"]
        )
        assert codes(result) == []


RP014_STORAGE_FILE = "src/repro/db/mmap_lists.py"

RP014_GUARDED_NARROWING = (
    "import numpy as np\n"
    "import numpy.typing as npt\n"
    "from repro.db.mmap_lists import int32_fits\n"
    "def store(a: npt.NDArray[np.int64], n: int):\n"
    "    if int32_fits(n):\n"
    "        return a.astype(np.int32)\n"
    "    return a\n"
)

RP014_GUARDED_REDUCTION = (
    "import numpy as np\n"
    "import numpy.typing as npt\n"
    "from repro.db.mmap_lists import int32_fits\n"
    "def total(a: npt.NDArray[np.int64], n: int):\n"
    "    if int32_fits(n):\n"
    "        narrow = a.astype(np.int32)\n"
    "        return narrow.sum()\n"
    "    return a.sum()\n"
)


class TestRP014SanctionedArenaNarrowing:
    """The int32 storage mode of the memory-mapped sorted lists (the name
    dates from the retired shared-memory arena, the guard's first user):
    narrowing guarded by ``int32_fits`` is legal, unguarded narrowing and
    narrow accumulators stay hazards."""

    def test_mmap_lists_module_is_scanned(self):
        result = analyze_source(
            RP014_FLAGGING, filename=RP014_STORAGE_FILE, select=["RP014"]
        )
        assert codes(result) == ["RP014"]

    def test_unguarded_narrowing_flags_and_names_the_guard(self):
        result = analyze_source(
            "import numpy as np\n"
            "import numpy.typing as npt\n"
            "def store(a: npt.NDArray[np.int64]):\n"
            "    return a.astype(np.int32)\n",
            filename=RP014_STORAGE_FILE,
            select=["RP014"],
        )
        assert codes(result) == ["RP014"]
        assert "int32_fits" in result.active[0].message

    def test_fit_guarded_narrowing_is_sanctioned(self):
        result = analyze_source(
            RP014_GUARDED_NARROWING, filename=RP014_STORAGE_FILE, select=["RP014"]
        )
        assert codes(result) == []

    def test_guarded_narrow_reduction_still_flags_accumulator(self):
        result = analyze_source(
            RP014_GUARDED_REDUCTION, filename=RP014_STORAGE_FILE, select=["RP014"]
        )
        assert codes(result) == ["RP014"]
        assert "default-accumulator" in result.active[0].message
        assert "accumulators stay int64" in result.active[0].message

    def test_guarded_reduction_with_int64_accumulator_is_clean(self):
        text = RP014_GUARDED_REDUCTION.replace(
            "narrow.sum()", "narrow.sum(dtype=np.int64)"
        ).replace("return a.sum()", "return a.sum(dtype=np.int64)")
        assert codes(analyze_source(text, filename=RP014_STORAGE_FILE, select=["RP014"])) == []

    def test_noqa_suppresses_guarded_reduction(self):
        text = RP014_GUARDED_REDUCTION.replace(
            "        return narrow.sum()\n",
            "        return narrow.sum()  # repro: noqa[RP014] — test fixture\n",
        )
        assert codes(analyze_source(text, filename=RP014_STORAGE_FILE, select=["RP014"])) == []


RP015_FLAGGING = (
    "import os\n"
    "def limit():\n"
    "    return os.environ.get('REPRO_LIMIT', '')\n"
)


class TestRP015EnvHygiene:
    def test_flagging_unsanctioned_read(self):
        result = analyze_source(
            RP015_FLAGGING, filename="src/repro/fxp/cfg.py", select=["RP015"]
        )
        assert codes(result) == ["RP015"]
        assert "REPRO_LIMIT" in result.active[0].message

    def test_clean_in_sanctioned_module(self):
        result = analyze_source(
            RP015_FLAGGING, filename="src/repro/parallel.py", select=["RP015"]
        )
        assert codes(result) == []

    def test_noqa_suppresses(self):
        text = RP015_FLAGGING.replace(
            "    return os.environ.get('REPRO_LIMIT', '')\n",
            "    return os.environ.get('REPRO_LIMIT', '')  # repro: noqa[RP015]\n",
        )
        result = analyze_source(
            text, filename="src/repro/fxp/cfg.py", select=["RP015"]
        )
        assert codes(result) == []


RP016_FILE = "src/repro/aggregate/fake.py"

RP016_FLAGGING = (
    "class Agg:\n"
    "    def __init__(self):\n"
    "        self._items = []\n"
    "    def add(self, item):\n"
    "        self._items.append(item)\n"
    "        if item is None:\n"
    "            raise ValueError('bad item')\n"
)


class TestRP016ValidateBeforeMutate:
    def test_flagging_raise_after_write(self):
        result = analyze_source(RP016_FLAGGING, filename=RP016_FILE, select=["RP016"])
        assert codes(result) == ["RP016"]
        assert "half-mutated" in result.active[0].message

    def test_clean_validate_then_mutate(self):
        result = analyze_source(
            "class Agg:\n"
            "    def __init__(self):\n"
            "        self._items = []\n"
            "    def add(self, item):\n"
            "        if item is None:\n"
            "            raise ValueError('bad item')\n"
            "        self._items.append(item)\n",
            filename=RP016_FILE,
            select=["RP016"],
        )
        assert codes(result) == []

    def test_noqa_suppresses(self):
        text = RP016_FLAGGING.replace(
            "            raise ValueError('bad item')\n",
            "            raise ValueError('bad item')  # repro: noqa[RP016]\n",
        )
        assert codes(analyze_source(text, filename=RP016_FILE, select=["RP016"])) == []

    def test_raising_helper_after_write_is_flagged(self):
        result = analyze_source(
            "class Agg:\n"
            "    def __init__(self):\n"
            "        self._items = []\n"
            "    def _check(self, item):\n"
            "        if item is None:\n"
            "            raise ValueError('bad item')\n"
            "    def add(self, item):\n"
            "        self._items.append(item)\n"
            "        self._check(item)\n",
            filename=RP016_FILE,
            select=["RP016"],
        )
        assert codes(result) == ["RP016"]
        assert "_check" in result.active[0].message

    def test_outside_stateful_modules_not_checked(self):
        result = analyze_source(
            RP016_FLAGGING, filename="src/repro/fxp/free.py", select=["RP016"]
        )
        assert codes(result) == []


#: One RP001 violation (exact float equality on a distance), on line 3.
RP001_VIOLATION = (
    "from repro.metrics import kendall\n"
    "def check(a, b):\n"
    "    return kendall(a, b) == 2.5\n"
)


class TestBaseline:
    def _result(self):
        return analyze_source(
            RP001_VIOLATION, filename="src/repro/fxp/bad.py", select=["RP001"]
        )

    def test_matching_entry_gates_finding(self, tmp_path):
        result = self._result()
        (finding,) = result.active
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps(
                {
                    "schema": "repro.analysis/baseline-1",
                    "entries": [
                        {
                            "rule": finding.rule,
                            "path": finding.path,
                            "message": finding.message,
                            "reason": "legacy fixture kept on purpose",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        baseline = Baseline.load(baseline_path)
        gated = apply_baseline(result, baseline)
        assert gated.active == []
        assert gated.findings[0].baselined
        assert gated.exit_code() == 0
        assert baseline.stale_entries(gated) == []

    def test_empty_reason_rejected(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps(
                {
                    "schema": "repro.analysis/baseline-1",
                    "entries": [
                        {"rule": "RP001", "path": "x.py", "message": "m", "reason": " "}
                    ],
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="no reason"):
            Baseline.load(baseline_path)

    def test_stale_entries_detected(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps(
                {
                    "schema": "repro.analysis/baseline-1",
                    "entries": [
                        {
                            "rule": "RP001",
                            "path": "gone.py",
                            "message": "never matches",
                            "reason": "obsolete",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        baseline = Baseline.load(baseline_path)
        assert len(baseline.stale_entries(self._result())) == 1

    def test_write_baseline_round_trips(self, tmp_path):
        result = self._result()
        out = tmp_path / "generated.json"
        count = write_baseline(result, out)
        assert count == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["entries"][0]["rule"] == "RP001"
        assert "TODO" in payload["entries"][0]["reason"]

    def test_shipped_baseline_has_no_stale_entries(self):
        baseline = Baseline.load(REPO_ROOT / "analysis-baseline.json")
        result = analyze_paths([SRC], root=REPO_ROOT)
        assert baseline.stale_entries(result) == []
        gated = apply_baseline(result, baseline)
        assert [f for f in gated.active if f.severity >= 2] == []


class TestSarif:
    def test_sarif_structure_and_suppressions(self):
        result = analyze_source(
            "from repro.metrics import kendall\n"
            "def check(a, b):\n"
            "    return kendall(a, b) == 2.5  # repro: noqa[RP001]\n"
            "def check_again(a, b):\n"
            "    return kendall(a, b) == 0.5\n",
            select=["RP001"],
        )
        payload = json.loads(render_sarif(result))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        assert any(rule["id"] == "RP001" for rule in run["tool"]["driver"]["rules"])
        results = run["results"]
        assert len(results) == 2
        suppressed = [r for r in results if r.get("suppressions")]
        assert len(suppressed) == 1
        assert suppressed[0]["suppressions"][0]["kind"] == "inSource"
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] >= 1


class TestSelfApplication:
    def test_own_flow_package_is_clean(self):
        result = analyze_paths([SRC / "repro" / "analysis"], root=REPO_ROOT)
        assert [f for f in result.active if f.severity >= 2] == []

    def test_every_flow_rule_catches_its_planted_fixture(self):
        planted = {
            "RP012": (RP012_FLAGGING, "<snippet>"),
            "RP013": (RP013_FLAGGING, "<snippet>"),
            "RP014": (RP014_FLAGGING, RP014_FILE),
            "RP015": (RP015_FLAGGING, "src/repro/fxp/cfg.py"),
            "RP016": (RP016_FLAGGING, RP016_FILE),
        }
        for code, (text, filename) in planted.items():
            result = analyze_source(text, filename=filename, select=[code])
            assert codes(result) == [code], code


class TestRP015ServeCoverage:
    """PR 8: only repro.serve.config may read REPRO_SERVE_* variables."""

    _PLANTED = (
        "import os\n"
        "def window():\n"
        "    return os.environ.get('REPRO_SERVE_BATCH_WINDOW', '')\n"
    )

    def test_env_read_in_non_config_serve_module_flagged(self):
        result = analyze_source(
            self._PLANTED, filename="src/repro/serve/batching.py", select=["RP015"]
        )
        assert codes(result) == ["RP015"]
        assert "REPRO_SERVE_BATCH_WINDOW" in result.active[0].message

    def test_env_read_in_serve_config_sanctioned(self):
        result = analyze_source(
            self._PLANTED, filename="src/repro/serve/config.py", select=["RP015"]
        )
        assert codes(result) == []

    def test_shipped_serve_config_is_the_only_env_reader(self):
        """Grep-level check on the real package: os.environ appears only
        in config.py (the RP015-sanctioned module)."""
        offenders = []
        for path in sorted((SRC / "repro" / "serve").glob("*.py")):
            if "os.environ" in path.read_text(encoding="utf-8") and path.name != "config.py":
                offenders.append(path.name)
        assert offenders == []
