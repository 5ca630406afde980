"""ProfileArena: storage modes, attach/detach lifecycle, and parity.

Three families of guarantees, all exact:

* **storage** — int32 is selected iff the fit guard says doubled
  positions fit, and the decoded position matrix is bit-identical to
  :func:`repro.metrics.batch.position_matrix` either way;
* **lifecycle** — attaches are memoized per process, refcounts balance,
  and the *last* detach unlinks the segment even when worker processes
  attached it in between (the hypothesis interleaving test); a leaked
  segment would make the final re-attach succeed instead of raising;
* **parity** — every ``jobs`` level and every pair-classification kernel
  (one GEMM tile, forced narrow tiles, per-pair) computes the same bits
  from the arena as the object layer computes from the profile.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import _bucket_order_of
from repro.core import DomainCodec, PartialRanking
from repro.core.arena import ArenaHandle, ProfileArena, int32_fits, storage_dtype
from repro.errors import DomainMismatchError, InvalidRankingError
from repro.aggregate.batch import median_scores_batch
from repro.generators.workloads import mallows_profile_workload
from repro.metrics import pairwise_distance_matrix
from repro.metrics import pair_counts
from repro.metrics.batch import (
    _pair_counts_dense_tiled,
    _pair_counts_pairs,
    pair_counts_matrix,
    position_matrix,
)
from repro.parallel import parallel_map_arena

METRICS = ("kendall", "footrule", "kendall_hausdorff", "footrule_hausdorff")


def profiles(
    min_m: int = 1,
    max_m: int = 4,
    min_n: int = 1,
    max_n: int = 6,
) -> st.SearchStrategy[tuple[PartialRanking, ...]]:
    """Profiles of bucket orders over one integer domain."""

    @st.composite
    def draw_profile(draw) -> tuple[PartialRanking, ...]:
        n = draw(st.integers(min_value=min_n, max_value=max_n))
        m = draw(st.integers(min_value=min_m, max_value=max_m))
        return tuple(draw(_bucket_order_of(n)) for _ in range(m))

    return draw_profile()


def _row_half_total(task: tuple[ProfileArena, int]) -> int:
    """Worker: exact int64 total of one row's doubled half-positions."""
    arena, row = task
    return int(arena.half_position_rows[row].astype(np.int64).sum())


class TestStorageMode:
    def test_fit_guard(self) -> None:
        assert int32_fits(5)
        assert int32_fits((2**31 - 1) // 2)
        assert not int32_fits(2**31)
        assert storage_dtype(5) is np.int32
        assert storage_dtype(2**31) is np.int64

    @given(profiles())
    def test_positions_bit_identical_to_object_layer(self, profile) -> None:
        with ProfileArena.from_profile(profile) as arena:
            assert arena.storage == "int32"
            expected = position_matrix(profile)
            assert arena.positions.dtype == np.float64
            assert np.array_equal(arena.positions, expected)

    def test_empty_profile_rejected(self) -> None:
        with pytest.raises((InvalidRankingError, DomainMismatchError)):
            ProfileArena.from_profile(())

    def test_handle_roundtrips_through_pickle(self) -> None:
        import pickle

        profile = (PartialRanking([[0, 1], [2]]),)
        with ProfileArena.from_profile(profile) as arena:
            handle = arena.handle()
            clone = pickle.loads(pickle.dumps(handle))
            assert clone == handle
            assert clone.nbytes == arena.nbytes
            attached = clone.attach()
            assert attached is arena  # same process: memoized
            attached.detach()


class TestLifecycle:
    def test_for_profile_interns_by_identity(self) -> None:
        profile = (PartialRanking([[0], [1, 2]]), PartialRanking([[2, 1], [0]]))
        first = ProfileArena.for_profile(profile)
        second = ProfileArena.for_profile(profile)
        try:
            assert first is second
        finally:
            second.detach()
            first.detach()
        assert not first.attached

    def test_use_after_detach_raises(self) -> None:
        arena = ProfileArena.from_profile((PartialRanking([[0, 1]]),))
        arena.detach()
        with pytest.raises(InvalidRankingError):
            _ = arena.positions

    @settings(max_examples=8, deadline=None)
    @given(profiles(min_m=2, max_m=4, min_n=2, max_n=6), st.data())
    def test_interleaved_attach_detach_never_leaks(self, profile, data) -> None:
        """Random interleavings of re-attach, detach, and *real* pooled
        work (worker processes mapping the segment) always end with the
        segment unlinked on the last parent detach — re-attaching by name
        must fail because the file is gone."""
        arena = ProfileArena.from_profile(profile)
        handle = arena.handle()
        live = [arena]
        ops = data.draw(
            st.lists(st.sampled_from(["attach", "detach", "pool"]), max_size=5)
        )
        rows = list(range(len(profile)))
        serial = [_row_half_total((arena, row)) for row in rows]
        for op in ops:
            if op == "attach":
                live.append(ProfileArena.attach(handle))
            elif op == "detach" and len(live) > 1:
                live.pop().detach()
            elif op == "pool":
                pooled = parallel_map_arena(_row_half_total, rows, arena, jobs=2)
                assert pooled == serial
        while live:
            live.pop().detach()
        assert not arena.attached
        with pytest.raises(FileNotFoundError):
            ProfileArena.attach(handle)

    def test_unknown_segment_raises_file_not_found(self) -> None:
        bogus = ArenaHandle(name="repro-arena-does-not-exist", m=1, n=1, storage="int64")
        with pytest.raises(FileNotFoundError):
            ProfileArena.attach(bogus)


class TestJobsParity:
    @pytest.fixture(scope="class")
    def profile(self) -> tuple[PartialRanking, ...]:
        return tuple(mallows_profile_workload(10, 6, seed=13).rankings)

    @pytest.mark.parametrize("metric", METRICS)
    def test_jobs_levels_bit_identical(self, profile, metric: str) -> None:
        expected = pairwise_distance_matrix(profile, metric)
        with ProfileArena.from_profile(profile) as arena:
            matrices = [
                pairwise_distance_matrix(arena, metric, jobs=jobs)
                for jobs in (1, 2, 4)
            ]
        for matrix in matrices:
            assert np.array_equal(matrix, expected)

    @pytest.mark.parametrize("strategy", ["dense", "tiled", "pairs"])
    def test_pair_counts_strategies_match_object_layer(
        self, profile, strategy: str
    ) -> None:
        """``dense`` is one GEMM tile, ``tiled`` forces widths 1 and 3,
        ``pairs`` the per-pair kernel over the arena's pool dispatch."""
        expected = pair_counts_matrix(profile)
        with ProfileArena.from_profile(profile) as arena:
            rows = arena.bucket_rows
            if strategy == "dense":
                actuals = [_pair_counts_dense_tiled(rows)]
            elif strategy == "tiled":
                actuals = [_pair_counts_dense_tiled(rows, tile) for tile in (1, 3)]
            else:
                actuals = [_pair_counts_pairs(rows, jobs, arena) for jobs in (1, 2)]
        for actual in actuals:
            for i in range(len(profile)):
                for j in range(len(profile)):
                    assert actual.pair_counts(i, j) == expected.pair_counts(i, j)
                    assert actual.pair_counts(i, j) == pair_counts(profile[i], profile[j])

    def test_aggregation_scores_match_object_layer(self, profile) -> None:
        expected = median_scores_batch(profile)
        with ProfileArena.from_profile(profile) as arena:
            assert median_scores_batch(arena) == expected
