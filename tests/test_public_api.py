"""Tests for the top-level public API surface."""

from __future__ import annotations

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.aggregate.median
import repro.core.partial_ranking


class TestExports:
    def test_every_all_entry_is_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    def test_version_matches_pyproject(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackage_alls_are_importable(self):
        import repro.aggregate as aggregate
        import repro.core as core
        import repro.db as db
        import repro.generators as generators
        import repro.metrics as metrics

        for module in (core, metrics, aggregate, db, generators):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"


class TestImportFootprint:
    def test_import_leaves_graph_library_unloaded(self):
        # the Condorcet diagnostics read the dominance digraph off the
        # pair-cost matrix; no graph library is a dependency any more
        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = "import sys, repro; print('networkx' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.strip() == "False"

    def test_serving_import_leaves_csgraph_unloaded(self):
        # dominance_components imports scipy's csgraph and the footrule
        # assignment imports scipy.optimize on first use: time and memory
        # that starting a server need not pay; and no library path uses
        # shared memory
        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        modules = ("scipy.sparse.csgraph", "scipy.optimize", "multiprocessing.shared_memory")
        probe = (
            "import sys, repro.serve; "
            f"print([name for name in {modules!r} if name in sys.modules])"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.strip() == "[]"


class TestDoctests:
    @pytest.mark.parametrize(
        "module",
        [repro, repro.core.partial_ranking, repro.aggregate.median],
        ids=lambda m: m.__name__,
    )
    def test_doctests_pass(self, module):
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
        assert results.attempted > 0


class TestQuickstartFlow:
    def test_readme_flow(self):
        """The README quickstart, as an executable test."""
        from repro import MedianAggregator, PartialRanking, kendall, footrule

        by_price = PartialRanking([["thai-palace", "roma"], ["le-bistro"]])
        by_stars = PartialRanking([["le-bistro"], ["thai-palace"], ["roma"]])
        assert kendall(by_price, by_stars) == 2.5
        assert footrule(by_price, by_stars) > 0
        agg = MedianAggregator((by_price, by_stars))
        assert agg.full_ranking().items_in_order()[0] == "thai-palace"
