"""Tests for the repro.analysis static-analysis subsystem.

One positive (violating) and one negative (clean) fixture per RP rule,
plus framework-level tests: noqa suppression, reporters, CLI exit codes,
and the acceptance check that the shipped tree itself is clean.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.engine import (
    Severity,
    analyze_paths,
    analyze_source,
    find_project_root,
    registered_rules,
)
from repro.analysis.reporters import render_json, render_text

REPO_ROOT = find_project_root(Path(__file__).resolve().parent)

ALL_CODES = (
    "RP001",
    "RP002",
    "RP003",
    "RP004",
    "RP006",
    "RP008",
    "RP009",
    "RP010",
    "RP011",
    "RP012",
    "RP013",
    "RP014",
    "RP015",
    "RP016",
)


def codes(result) -> list[str]:
    return [finding.rule for finding in result.active]


class TestRegistry:
    def test_all_rules_registered(self):
        assert tuple(sorted(registered_rules())) == ALL_CODES

    def test_rules_have_descriptions_and_severities(self):
        for code, rule in registered_rules().items():
            assert rule.description, code
            assert isinstance(rule.severity, Severity)

    def test_unknown_select_rejected(self):
        with pytest.raises(ValueError, match="RP999"):
            analyze_source("x = 1", select=["RP999"])


class TestRP001FloatEquality:
    def test_positive_exact_comparison_on_distance(self):
        result = analyze_source(
            "from repro.metrics import kendall\n"
            "def check(a, b):\n"
            "    return kendall(a, b) == 2.5\n",
            select=["RP001"],
        )
        assert codes(result) == ["RP001"]
        assert "kendall" in result.active[0].message

    def test_negative_tolerant_comparison_and_plain_equality(self):
        result = analyze_source(
            "import math\n"
            "from repro.metrics import kendall\n"
            "def check(a, b, n):\n"
            "    if n == 0:\n"  # plain int equality stays legal
            "        return True\n"
            "    return math.isclose(kendall(a, b), 2.5)\n",
            select=["RP001"],
        )
        assert codes(result) == []

    def test_integer_exact_distances_excluded(self):
        result = analyze_source(
            "from repro.metrics import kendall_hausdorff_counts\n"
            "def check(a, b):\n"
            "    return kendall_hausdorff_counts(a, b) == 3\n",
            select=["RP001"],
        )
        assert codes(result) == []


class TestRP002DomainValidation:
    _HEADER = (
        "from repro.core.partial_ranking import PartialRanking\n"
        "__all__ = ['my_distance']\n"
    )

    def test_positive_entry_point_without_validation(self):
        result = analyze_source(
            self._HEADER
            + "def my_distance(sigma: PartialRanking, tau: PartialRanking) -> float:\n"
            "    return 1.0\n",
            filename="src/repro/metrics/mymetric.py",
            select=["RP002"],
        )
        assert codes(result) == ["RP002"]
        assert "my_distance" in result.active[0].message

    def test_negative_direct_validation(self):
        result = analyze_source(
            self._HEADER
            + "def my_distance(sigma: PartialRanking, tau: PartialRanking) -> float:\n"
            "    if sigma.domain != tau.domain:\n"
            "        raise ValueError('mismatch')\n"
            "    return 1.0\n",
            filename="src/repro/metrics/mymetric.py",
            select=["RP002"],
        )
        assert codes(result) == []

    def test_negative_validation_via_call_graph(self):
        result = analyze_source(
            self._HEADER
            + "def _require_common_domain(sigma, tau):\n"
            "    pass\n"
            "def _inner(sigma, tau):\n"
            "    _require_common_domain(sigma, tau)\n"
            "    return 1.0\n"
            "def my_distance(sigma: PartialRanking, tau: PartialRanking) -> float:\n"
            "    return _inner(sigma, tau)\n",
            filename="src/repro/metrics/mymetric.py",
            select=["RP002"],
        )
        assert codes(result) == []

    def test_negative_contract_decorator_counts(self):
        result = analyze_source(
            "from repro.analysis.contracts import checked_metric\n"
            + self._HEADER
            + "@checked_metric()\n"
            "def my_distance(sigma: PartialRanking, tau: PartialRanking) -> float:\n"
            "    return 1.0\n",
            filename="src/repro/metrics/mymetric.py",
            select=["RP002"],
        )
        assert codes(result) == []

    def test_private_and_non_metric_functions_ignored(self):
        result = analyze_source(
            self._HEADER
            + "def _helper(sigma: PartialRanking, tau: PartialRanking) -> float:\n"
            "    return 1.0\n"
            "def my_distance(sigma: PartialRanking, tau: PartialRanking) -> bool:\n"
            "    return True\n",  # predicate: bool return is exempt
            filename="src/repro/metrics/mymetric.py",
            select=["RP002"],
        )
        assert codes(result) == []

    def test_aggregator_profile_parameter(self):
        body = (
            "from collections.abc import Sequence\n"
            "from repro.core.partial_ranking import PartialRanking\n"
            "__all__ = ['aggregate']\n"
            "def aggregate(rankings: Sequence[PartialRanking]) -> float:\n"
            "    return 0.0\n"
        )
        flagged = analyze_source(
            body, filename="src/repro/aggregate/myagg.py", select=["RP002"]
        )
        assert codes(flagged) == ["RP002"]


class TestRP003DunderAll:
    def test_positive_phantom_and_duplicate_entries(self):
        result = analyze_source(
            "__all__ = ['real', 'phantom', 'real']\n"
            "def real():\n"
            "    pass\n",
            select=["RP003"],
        )
        messages = sorted(f.message for f in result.active)
        assert len(messages) == 2
        assert any("phantom" in m for m in messages)
        assert any("twice" in m for m in messages)

    def test_public_def_missing_is_warning(self):
        result = analyze_source(
            "__all__ = ['listed']\n"
            "def listed():\n"
            "    pass\n"
            "def unlisted():\n"
            "    pass\n",
            select=["RP003"],
        )
        assert [f.severity for f in result.active] == [Severity.WARNING]

    def test_negative_consistent_module(self):
        result = analyze_source(
            "from os.path import join\n"
            "__all__ = ['api', 'join', 'CONST']\n"
            "CONST = 3\n"
            "def api():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n",
            select=["RP003"],
        )
        assert codes(result) == []

    def test_negative_pep562_lazy_module(self):
        result = analyze_source(
            "__all__ = ['lazy_name']\n"
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n",
            select=["RP003"],
        )
        assert codes(result) == []


class TestRP004OracleImports:
    def test_positive_oracle_in_serving_code(self):
        result = analyze_source(
            "from repro.metrics.kendall import kendall_naive\n",
            filename="src/repro/db/query.py",
            select=["RP004"],
        )
        assert codes(result) == ["RP004"]

    def test_negative_allowed_locations(self):
        snippet = "from repro.metrics.kendall import kendall_naive\n"
        for filename in (
            "tests/test_something.py",
            "benchmarks/bench_metrics.py",
            "src/repro/experiments/e99_new.py",
        ):
            result = analyze_source(snippet, filename=filename, select=["RP004"])
            assert codes(result) == [], filename

    def test_negative_fast_import(self):
        result = analyze_source(
            "from repro.metrics.kendall import kendall\n",
            filename="src/repro/db/query.py",
            select=["RP004"],
        )
        assert codes(result) == []


class TestRP006TheoremCitations:
    def _project(self, tmp_path: Path) -> Path:
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "THEORY.md").write_text(
            "# THEORY\n\n"
            "## Statement index\n\n"
            "* **Theorem 5** — witnesses.\n"
            "* **Proposition 13** — penalty regimes.\n"
            "* **Lemma 26** / **Lemma 27** — matchings.\n\n"
            "## Other\n\n"
            "Theorem 99 is mentioned here but is NOT in the index.\n",
            encoding="utf-8",
        )
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        return tmp_path

    def test_positive_unknown_statement(self, tmp_path):
        root = self._project(tmp_path)
        result = analyze_source(
            'def f():\n    """Implements Theorem 42."""\n',
            root=root,
            select=["RP006"],
        )
        assert codes(result) == ["RP006"]
        assert "Theorem 42" in result.active[0].message

    def test_index_section_is_authoritative(self, tmp_path):
        root = self._project(tmp_path)
        result = analyze_source(
            'def f():\n    """Uses Theorem 99."""\n',  # outside the index section
            root=root,
            select=["RP006"],
        )
        assert codes(result) == ["RP006"]

    def test_negative_known_statements_and_compact_form(self, tmp_path):
        root = self._project(tmp_path)
        result = analyze_source(
            '"""Module on Proposition 13."""\n'
            "def f():\n"
            '    """Lemma 26/27 and Theorem 5 apply."""\n',
            root=root,
            select=["RP006"],
        )
        assert codes(result) == []

    def test_skipped_without_theory_doc(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        result = analyze_source(
            'def f():\n    """Implements Theorem 42."""\n',
            root=tmp_path,
            select=["RP006"],
        )
        assert codes(result) == []


class TestRP008MetricMatrix:
    def _project(self, tmp_path: Path, test_body: str) -> Path:
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_axioms.py").write_text(test_body, encoding="utf-8")
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        return tmp_path

    _INIT = (
        "from repro.metrics.kendall import kendall\n"
        "__all__ = ['kendall', 'kendall_brandnew']\n"
        "def kendall_brandnew(a, b):\n"
        "    return kendall(a, b)\n"
    )

    def test_positive_uncovered_metric(self, tmp_path):
        root = self._project(tmp_path, "from repro.metrics import kendall\n")
        result = analyze_source(
            self._INIT,
            filename="src/repro/metrics/__init__.py",
            root=root,
            select=["RP008"],
        )
        assert codes(result) == ["RP008"]
        assert "kendall_brandnew" in result.active[0].message

    def test_negative_covered_metric(self, tmp_path):
        root = self._project(
            tmp_path,
            "from repro.metrics import kendall, kendall_brandnew\n",
        )
        result = analyze_source(
            self._INIT,
            filename="src/repro/metrics/__init__.py",
            root=root,
            select=["RP008"],
        )
        assert codes(result) == []

    def test_only_fires_on_metrics_init(self, tmp_path):
        root = self._project(tmp_path, "")
        result = analyze_source(
            self._INIT,
            filename="src/repro/metrics/kendall2.py",
            root=root,
            select=["RP008"],
        )
        assert codes(result) == []


class TestRP009PairwiseLoops:
    _NESTED = (
        "from repro.metrics import kendall\n"
        "def matrix(profile):\n"
        "    out = []\n"
        "    for sigma in profile:\n"
        "        for tau in profile:\n"
        "            out.append(kendall(sigma, tau))\n"
        "    return out\n"
    )

    def test_positive_nested_statement_loops(self):
        result = analyze_source(self._NESTED, select=["RP009"])
        assert codes(result) == ["RP009"]
        assert "pairwise_distance_matrix" in result.active[0].message
        assert result.active[0].severity is Severity.WARNING

    def test_positive_double_comprehension(self):
        result = analyze_source(
            "from repro.metrics import footrule\n"
            "def matrix(profile):\n"
            "    return [footrule(s, t) for s in profile for t in profile]\n",
            select=["RP009"],
        )
        assert codes(result) == ["RP009"]

    def test_negative_single_loop(self):
        result = analyze_source(
            "from repro.metrics import kendall\n"
            "def against_candidate(candidate, profile):\n"
            "    return [kendall(candidate, sigma) for sigma in profile]\n",
            select=["RP009"],
        )
        assert codes(result) == []

    def test_negative_non_metric_call_in_nested_loop(self):
        result = analyze_source(
            "def grid(n):\n"
            "    return [[max(i, j) for j in range(n)] for i in range(n)]\n",
            select=["RP009"],
        )
        assert codes(result) == []

    def test_negative_tests_and_benchmarks_exempt(self):
        for filename in ("tests/test_x.py", "benchmarks/bench_x.py"):
            result = analyze_source(self._NESTED, filename=filename, select=["RP009"])
            assert codes(result) == [], filename

    def test_noqa_escape(self):
        result = analyze_source(
            "from repro.metrics import kendall\n"
            "def matrix(profile):\n"
            "    return [\n"
            "        kendall(s, t)  # repro: noqa[RP009]\n"
            "        for s in profile for t in profile\n"
            "    ]\n",
            select=["RP009"],
        )
        assert codes(result) == []
        assert sum(finding.suppressed for finding in result.findings) == 1

    def test_positive_per_item_median_of(self):
        result = analyze_source(
            "from repro.aggregate.median import median_of\n"
            "def scores(profile, domain):\n"
            "    out = {}\n"
            "    for ranking in [profile]:\n"
            "        for item in domain:\n"
            "            out[item] = median_of([s[item] for s in ranking])\n"
            "    return out\n",
            select=["RP009"],
        )
        assert codes(result) == ["RP009"]
        assert "repro.aggregate.batch" in result.active[0].message

    def test_positive_cross_level_position_gather(self):
        result = analyze_source(
            "def gather(rankings, domain):\n"
            "    return {\n"
            "        item: [sigma[item] for sigma in rankings]\n"
            "        for item in domain\n"
            "    }\n",
            select=["RP009"],
        )
        assert codes(result) == ["RP009"]
        assert "sigma[item]" in result.active[0].message
        assert "(m, n) position matrix" in result.active[0].message

    def test_negative_non_ranking_container_gather(self):
        # row[name] / line[i]: generic indexing, not the paper's notation
        result = analyze_source(
            "def table(rows, names):\n"
            "    return [[row[name] for name in names] for row in rows]\n",
            select=["RP009"],
        )
        assert codes(result) == []

    def test_negative_same_level_subscript(self):
        # sigma[item] where both names come from the same loop target
        result = analyze_source(
            "def pairs(entries, domain):\n"
            "    return [\n"
            "        [sigma[item] for sigma, item in entries]\n"
            "        for _ in domain\n"
            "    ]\n",
            select=["RP009"],
        )
        assert codes(result) == []

    def test_negative_single_loop_gather(self):
        result = analyze_source(
            "def one_item(rankings, item):\n"
            "    return [sigma[item] for sigma in rankings]\n",
            select=["RP009"],
        )
        assert codes(result) == []

    def test_positive_profile_cost_kernel_in_nested_loop(self):
        # the counts do not depend on p: rebuilding them per penalty is waste
        result = analyze_source(
            "from repro.aggregate.kemeny import pair_cost_array\n"
            "def sweep(profiles, penalties):\n"
            "    out = []\n"
            "    for profile in profiles:\n"
            "        for p in penalties:\n"
            "            out.append((p, pair_cost_array(profile)))\n"
            "    return out\n",
            select=["RP009"],
        )
        assert codes(result) == ["RP009"]
        assert "profile cost kernel" in result.active[0].message
        assert "kemeny_decomposed" in result.active[0].message

    def test_positive_profile_cost_list_wrapper_too(self):
        # a two-level list comprehension nests as deeply as two loops
        result = analyze_source(
            "from repro.aggregate.kemeny import pair_cost_array\n"
            "def grid(profiles):\n"
            "    return [\n"
            "        pair_cost_array(profile)\n"
            "        for group in profiles for profile in group\n"
            "    ]\n",
            select=["RP009"],
        )
        assert codes(result) == ["RP009"]

    def test_negative_profile_cost_kernel_single_loop(self):
        # one matrix per profile in a flat loop is the intended usage
        result = analyze_source(
            "from repro.aggregate.kemeny import pair_cost_array\n"
            "def per_profile(profiles):\n"
            "    return [pair_cost_array(profile) for profile in profiles]\n",
            select=["RP009"],
        )
        assert codes(result) == []

    def test_gather_noqa_escape(self):
        result = analyze_source(
            "def gather(rankings, domain):\n"
            "    return {\n"
            "        item: [sigma[item] for sigma in rankings]  # repro: noqa[RP009]\n"
            "        for item in domain\n"
            "    }\n",
            select=["RP009"],
        )
        assert codes(result) == []
        assert sum(finding.suppressed for finding in result.findings) == 1


class TestRP010OracleCoverage:
    """Cross-file rule: metrics.__all__ vs covers=(...) in verify/oracles.py."""

    _ORACLES = (
        "ENTRIES = (\n"
        "    OracleEntry(name='kendall-p-half', covers=('kendall', 'kendall_full')),\n"
        "    OracleEntry(name='footrule', covers=('footrule',)),\n"
        ")\n"
    )

    def _project(self, tmp_path: Path, exports: str) -> Path:
        metrics = tmp_path / "src" / "repro" / "metrics"
        verify = tmp_path / "src" / "repro" / "verify"
        metrics.mkdir(parents=True)
        verify.mkdir(parents=True)
        (metrics / "__init__.py").write_text(
            f"__all__ = {exports}\n", encoding="utf-8"
        )
        (verify / "oracles.py").write_text(self._ORACLES, encoding="utf-8")
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        return tmp_path

    def test_positive_uncovered_metric(self, tmp_path):
        root = self._project(
            tmp_path, "['kendall', 'footrule', 'kendall_brandnew']"
        )
        result = analyze_paths([root / "src"], root=root, select=["RP010"])
        assert codes(result) == ["RP010"]
        assert "kendall_brandnew" in result.active[0].message
        assert result.active[0].severity is Severity.ERROR

    def test_negative_all_covered(self, tmp_path):
        root = self._project(tmp_path, "['kendall', 'kendall_full', 'footrule']")
        result = analyze_paths([root / "src"], root=root, select=["RP010"])
        assert codes(result) == []

    def test_negative_non_metric_exports_ignored(self, tmp_path):
        root = self._project(tmp_path, "['kendall', 'PairCounts', 'METRICS']")
        result = analyze_paths([root / "src"], root=root, select=["RP010"])
        assert codes(result) == []

    def test_negative_correlation_exports_exempt(self, tmp_path):
        root = self._project(
            tmp_path, "['kendall', 'kendall_tau_a', 'kendall_tau_b']"
        )
        result = analyze_paths([root / "src"], root=root, select=["RP010"])
        assert codes(result) == []

    def test_silent_when_oracles_file_absent(self, tmp_path):
        root = self._project(tmp_path, "['kendall', 'kendall_brandnew']")
        (root / "src" / "repro" / "verify" / "oracles.py").unlink()
        result = analyze_paths([root / "src"], root=root, select=["RP010"])
        assert codes(result) == []

    def test_silent_on_lone_snippet(self):
        result = analyze_source(
            "__all__ = ['kendall_brandnew']\n",
            filename="src/repro/metrics/__init__.py",
            select=["RP010"],
        )
        assert codes(result) == []

    def _add_aggregate_batch(self, root: Path, exports: str) -> None:
        aggregate = root / "src" / "repro" / "aggregate"
        aggregate.mkdir(parents=True)
        (aggregate / "batch.py").write_text(
            f"__all__ = {exports}\n", encoding="utf-8"
        )

    def test_positive_uncovered_aggregation_kernel(self, tmp_path):
        # every aggregate.batch export needs coverage, whatever its name
        root = self._project(tmp_path, "['kendall', 'footrule']")
        self._add_aggregate_batch(root, "['median_scores_batch']")
        result = analyze_paths([root / "src"], root=root, select=["RP010"])
        assert codes(result) == ["RP010"]
        assert "median_scores_batch" in result.active[0].message
        assert "dict path is the natural oracle" in result.active[0].message

    def test_negative_covered_aggregation_kernel(self, tmp_path):
        root = self._project(tmp_path, "['kendall', 'footrule']")
        self._add_aggregate_batch(root, "['median_scores_batch']")
        oracles = root / "src" / "repro" / "verify" / "oracles.py"
        oracles.write_text(
            self._ORACLES.replace(
                "covers=('footrule',)",
                "covers=('footrule', 'median_scores_batch')",
            ),
            encoding="utf-8",
        )
        result = analyze_paths([root / "src"], root=root, select=["RP010"])
        assert codes(result) == []

    def test_silent_when_aggregate_batch_absent(self, tmp_path):
        # the metrics-only project from the fixtures above stays valid
        root = self._project(tmp_path, "['kendall', 'kendall_full', 'footrule']")
        result = analyze_paths([root / "src"], root=root, select=["RP010"])
        assert codes(result) == []

    _PLUGIN_FILE = "src/repro/metrics/plugins/myplugin.py"

    def test_positive_plugin_registration_missing_oracle(self):
        result = analyze_source(
            "register_metric(MetricPlugin(\n"
            "    name='mine', aliases=(), citation='x',\n"
            "    scalar=d, batch=dm, axiom_class='metric',\n"
            "))\n",
            filename=self._PLUGIN_FILE,
            select=["RP010"],
        )
        assert codes(result) == ["RP010"]
        assert "oracle=" in result.active[0].message
        assert "differential oracle" in result.active[0].message

    def test_positive_plugin_registration_missing_axiom_class(self):
        result = analyze_source(
            "MetricPlugin(name='mine', aliases=(), citation='x',\n"
            "             scalar=d, batch=dm, oracle=d_naive)\n",
            filename=self._PLUGIN_FILE,
            select=["RP010"],
        )
        assert codes(result) == ["RP010"]
        assert "axiom_class=" in result.active[0].message

    def test_positive_plugin_missing_both_yields_two_findings(self):
        result = analyze_source(
            "registry.MetricPlugin(name='mine', scalar=d, batch=dm)\n",
            filename=self._PLUGIN_FILE,
            select=["RP010"],
        )
        assert codes(result) == ["RP010", "RP010"]

    def test_negative_plugin_registration_complete(self):
        result = analyze_source(
            "PLUGIN = register_metric(MetricPlugin(\n"
            "    name='mine', aliases=('m',), citation='x',\n"
            "    scalar=d, batch=dm, oracle=d_naive, axiom_class='metric',\n"
            "))\n",
            filename=self._PLUGIN_FILE,
            select=["RP010"],
        )
        assert codes(result) == []

    def test_negative_plugin_check_ignores_other_modules(self):
        # same incomplete call outside repro/metrics/plugins/: not this
        # rule's business (tests construct partial plugins legitimately)
        result = analyze_source(
            "MetricPlugin(name='mine', scalar=d, batch=dm)\n",
            filename="src/repro/metrics/registry.py",
            select=["RP010"],
        )
        assert codes(result) == []
        result = analyze_source(
            "MetricPlugin(name='mine', scalar=d, batch=dm)\n",
            filename="src/repro/metrics/plugins/__init__.py",
            select=["RP010"],
        )
        assert codes(result) == []

    def test_plugin_registration_noqa_suppressed(self):
        result = analyze_source(
            "MetricPlugin(name='mine', scalar=d, batch=dm, axiom_class='metric')"
            "  # repro: noqa[RP010] — oracle registered separately\n",
            filename=self._PLUGIN_FILE,
            select=["RP010"],
        )
        assert codes(result) == []
        assert [f.rule for f in result.findings] == ["RP010"]
        assert result.findings[0].suppressed


class TestRP011ObsInstrumentation:
    """Kernel modules must report into repro.obs; no bare prints in the library."""

    _KERNEL = "__all__ = ['my_kernel']\n\n\ndef my_kernel(x):\n    return x\n"

    def test_positive_uninstrumented_kernel_module(self):
        result = analyze_source(
            self._KERNEL,
            filename="src/repro/metrics/mykernel.py",
            select=["RP011"],
        )
        assert codes(result) == ["RP011"]
        assert "my_kernel" in result.active[0].message
        assert result.active[0].severity is Severity.ERROR

    def test_negative_traced_module(self):
        result = analyze_source(
            "from repro import obs\n"
            "__all__ = ['my_kernel']\n"
            "def my_kernel(x):\n"
            "    with obs.trace('metrics.my_kernel'):\n"
            "        return x\n",
            filename="src/repro/metrics/mykernel.py",
            select=["RP011"],
        )
        assert codes(result) == []

    def test_negative_counter_only_instrumentation(self):
        # exact work counters are the obs layer's cross-check currency
        result = analyze_source(
            "from repro import obs\n"
            "__all__ = ['my_kernel']\n"
            "def my_kernel(x):\n"
            "    obs.add('aggregate.my_kernel.items', len(x))\n"
            "    return x\n",
            filename="src/repro/aggregate/mykernel.py",
            select=["RP011"],
        )
        assert codes(result) == []

    def test_negative_traced_decorator_via_from_import(self):
        result = analyze_source(
            "from repro.obs import traced\n"
            "__all__ = ['my_kernel']\n"
            "@traced('db.my_kernel')\n"
            "def my_kernel(x):\n"
            "    return x\n",
            filename="src/repro/db/mykernel.py",
            select=["RP011"],
        )
        assert codes(result) == []

    def test_negative_class_only_exports(self):
        result = analyze_source(
            "__all__ = ['Container']\n\n\nclass Container:\n    pass\n",
            filename="src/repro/db/container.py",
            select=["RP011"],
        )
        assert codes(result) == []

    def test_negative_outside_kernel_packages(self):
        result = analyze_source(
            self._KERNEL,
            filename="src/repro/core/mykernel.py",
            select=["RP011"],
        )
        assert codes(result) == []

    def test_reasoned_noqa_suppresses(self):
        result = analyze_source(
            "__all__ = ['my_kernel']  # repro: noqa[RP011] — brute-force test oracle\n"
            "def my_kernel(x):\n"
            "    return x\n",
            filename="src/repro/metrics/mykernel.py",
            select=["RP011"],
        )
        assert codes(result) == []
        assert [f.rule for f in result.findings] == ["RP011"]
        assert result.findings[0].suppressed

    def test_bare_noqa_requires_a_reason(self):
        result = analyze_source(
            "__all__ = ['my_kernel']  # repro: noqa[RP011]\n"
            "def my_kernel(x):\n"
            "    return x\n",
            filename="src/repro/metrics/mykernel.py",
            select=["RP011"],
        )
        assert codes(result) == ["RP011"]
        assert "needs a reason" in result.active[0].message

    def test_positive_bare_print_in_library_code(self):
        result = analyze_source(
            "def helper(x):\n    print(x)\n    return x\n",
            filename="src/repro/metrics/helper.py",
            select=["RP011"],
        )
        assert codes(result) == ["RP011"]
        assert "print" in result.active[0].message

    def test_negative_print_with_explicit_stream(self):
        result = analyze_source(
            "import sys\n\n\ndef helper(x):\n"
            "    print(x, file=sys.stderr)\n"
            "    return x\n",
            filename="src/repro/metrics/helper.py",
            select=["RP011"],
        )
        assert codes(result) == []

    def test_negative_print_in_cli_module(self):
        result = analyze_source(
            "def report(x):\n    print(x)\n",
            filename="src/repro/somepkg/cli.py",
            select=["RP011"],
        )
        assert codes(result) == []


#: One RP001 violation (exact float equality on a distance), on line 3.
RP001_VIOLATION = (
    "from repro.metrics import kendall\n"
    "def check(a, b):\n"
    "    return kendall(a, b) == 2.5\n"
)


def rp001_marked(marker: str) -> str:
    """The RP001 violation with ``marker`` as a trailing comment on its line."""
    return RP001_VIOLATION.rstrip("\n") + f"  {marker}\n"


class TestSuppressions:
    def test_noqa_silences_a_specific_code(self):
        result = analyze_source(rp001_marked("# repro: noqa[RP001]"), select=["RP001"])
        assert codes(result) == []
        assert [f.rule for f in result.findings] == ["RP001"]
        assert result.findings[0].suppressed

    def test_noqa_with_wrong_code_does_not_silence(self):
        result = analyze_source(rp001_marked("# repro: noqa[RP002]"), select=["RP001"])
        assert codes(result) == ["RP001"]

    def test_bare_noqa_silences_everything_on_the_line(self):
        result = analyze_source(rp001_marked("# repro: noqa"), select=["RP001"])
        assert codes(result) == []

    def test_malformed_code_in_brackets_silences_nothing(self):
        result = analyze_source(rp001_marked("# repro: noqa[rp009]"), select=["RP001"])
        assert codes(result) == ["RP001"]

    def test_semicolon_separated_codes_silence_nothing(self):
        result = analyze_source(
            rp001_marked("# repro: noqa[RP002;RP009]"), select=["RP001"]
        )
        assert codes(result) == ["RP001"]


class TestReporters:
    def _result(self):
        return analyze_source(RP001_VIOLATION, select=["RP001"])

    def test_text_report_has_location_and_summary(self):
        text = render_text(self._result())
        assert "RP001" in text
        assert ":3:" in text.splitlines()[0]
        assert "1 error(s)" in text

    def test_json_report_round_trips(self):
        payload = json.loads(render_json(self._result()))
        assert payload["schema"] == "repro.analysis/1"
        assert payload["errors"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "RP001"
        assert finding["severity"] == "error"
        assert finding["suppressed"] is False


def _run_cli(*argv: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def _write_violation(tmp_path: Path) -> Path:
    bad = tmp_path / "bad.py"
    bad.write_text(RP001_VIOLATION, encoding="utf-8")
    return bad


class TestCommandLine:
    def test_shipped_tree_is_clean(self):
        """Acceptance criterion: the shipped tree has zero unbaselined
        findings under every rule."""
        completed = _run_cli("src", "--baseline", "analysis-baseline.json")
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "0 error(s)" in completed.stdout

    def test_seeded_violation_exits_nonzero(self, tmp_path):
        completed = _run_cli(str(_write_violation(tmp_path)), cwd=tmp_path)
        assert completed.returncode == 1
        assert "RP001" in completed.stdout

    def test_json_format(self, tmp_path):
        completed = _run_cli(str(_write_violation(tmp_path)), "--format", "json", cwd=tmp_path)
        assert completed.returncode == 1
        payload = json.loads(completed.stdout)
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "RP001"

    def test_fail_on_never(self, tmp_path):
        completed = _run_cli(str(_write_violation(tmp_path)), "--fail-on", "never", cwd=tmp_path)
        assert completed.returncode == 0

    def test_list_rules(self):
        completed = _run_cli("--list-rules")
        assert completed.returncode == 0
        listed = [line.split()[0] for line in completed.stdout.splitlines() if line[:2] == "RP"]
        assert tuple(listed) == ALL_CODES

    def test_select_subset(self, tmp_path):
        completed = _run_cli(str(_write_violation(tmp_path)), "--select", "RP002", cwd=tmp_path)
        assert completed.returncode == 0  # RP001 violation not selected

    def test_missing_path_is_usage_error(self):
        completed = _run_cli("no/such/path.py")
        assert completed.returncode == 2

    @pytest.mark.parametrize(
        ("payload", "field"),
        [
            ([], "JSON object"),
            ({"schema": "repro.analysis/baseline-1", "entries": 5}, "'entries'"),
            (
                {
                    "schema": "repro.analysis/baseline-1",
                    "entries": [{"rule": "RP001", "message": "m", "reason": "r"}],
                },
                "'path'",
            ),
        ],
        ids=["top-level-list", "entries-not-a-list", "entry-without-path"],
    )
    def test_malformed_baseline_is_usage_error(self, tmp_path, payload, field):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload), encoding="utf-8")
        completed = _run_cli(
            str(_write_violation(tmp_path)), "--baseline", str(baseline), cwd=tmp_path
        )
        assert completed.returncode == 2, completed.stderr
        assert "Traceback" not in completed.stderr
        assert str(baseline) in completed.stderr
        assert field in completed.stderr


class TestUnparseableFiles:
    def test_syntax_error_reported_not_crashing(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n", encoding="utf-8")
        result = analyze_paths([bad], root=tmp_path)
        assert result.parse_errors
        assert result.exit_code() == 1


class TestRP011ServeCoverage:
    """PR 8: repro.serve counts as a kernel package for RP011."""

    _PLANTED = "__all__ = ['handle']\n\n\ndef handle(x):\n    return x\n"

    def test_planted_uninstrumented_serve_module_flagged(self):
        result = analyze_source(
            self._PLANTED, filename="src/repro/serve/planted.py", select=["RP011"]
        )
        assert codes(result) == ["RP011"]
        assert "handle" in result.active[0].message

    def test_instrumented_serve_module_clean(self):
        result = analyze_source(
            "from repro import obs\n"
            "__all__ = ['handle']\n"
            "def handle(x):\n"
            "    obs.add('serve.handled')\n"
            "    return x\n",
            filename="src/repro/serve/planted.py",
            select=["RP011"],
        )
        assert codes(result) == []


class TestRP011DecomposeCoverage:
    """PR 9: aggregate/decompose.py needs obs evidence like its siblings."""

    def test_planted_uninstrumented_decompose_module_flagged(self):
        result = analyze_source(
            "__all__ = ['kemeny_decomposed']\n\n\n"
            "def kemeny_decomposed(rankings):\n"
            "    return rankings\n",
            filename="src/repro/aggregate/decompose.py",
            select=["RP011"],
        )
        assert codes(result) == ["RP011"]
        assert "kemeny_decomposed" in result.active[0].message

    def test_real_decompose_module_carries_evidence(self):
        import pathlib

        source = pathlib.Path("src/repro/aggregate/decompose.py").read_text(
            encoding="utf-8"
        )
        result = analyze_source(
            source,
            filename="src/repro/aggregate/decompose.py",
            select=["RP011"],
        )
        assert codes(result) == []

    def test_shipped_serve_modules_instrumented_or_reasoned(self):
        """The checked-in serving package passes its own coverage rule."""
        for path in sorted((REPO_ROOT / "src" / "repro" / "serve").glob("*.py")):
            result = analyze_source(
                path.read_text(encoding="utf-8"),
                filename=path.relative_to(REPO_ROOT).as_posix(),
                select=["RP011"],
            )
            assert codes(result) == [], path
