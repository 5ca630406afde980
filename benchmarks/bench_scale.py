"""Million-item memory-layout benchmarks + regression gate (PR 7).

Three headline claims of the memory layout at scale, measured end to
end:

* **out-of-core MEDRANK at n = 10⁶** — the majority-stopping run over a
  memory-mapped :class:`~repro.db.mmap_lists.SortedListStore` touches a
  small prefix of each list (access counts and saturation are recorded,
  not assumed), and at parity sizes selects the same winners, stops at
  the same depth, and books the same obs counters as the in-memory
  :func:`~repro.aggregate.medrank.medrank`;
* **10⁴-voter pairwise matrix** — the Kendall matrix over ten thousand
  voters, computed through the cache-blocked GEMM path (``m·n²`` beyond
  one tile's budget, so the classifier streams tiles);
* **tiled GEMM bit-for-bit** — beyond one tile's budget, the blocked
  accumulation classifies every pair identically to a single forced
  tile and to the per-pair kernel.

Two modes, via the shared gate CLI in ``conftest.py``:

* ``PYTHONPATH=src python benchmarks/bench_scale.py`` — regenerate
  ``BENCH_SCALE.json`` at the repo root (full sizes);
* ``PYTHONPATH=src python benchmarks/bench_scale.py --check
  BENCH_SCALE.json`` — re-measure and fail on any exactness violation
  (out-of-core MEDRANK parity or tiled-GEMM agreement).

``REPRO_BENCH_SMOKE=1`` shrinks every size so the CI gate stays fast;
the exactness claims are size-independent.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from repro import obs
from repro.aggregate.medrank import medrank, medrank_out_of_core
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import PartialRanking
from repro.db.mmap_lists import SortedListStore
from repro.generators.workloads import random_profile_workload
from repro.metrics.batch import (
    _pair_counts_dense_tiled,
    _pair_counts_pairs,
    bucket_index_matrix,
    pair_counts_matrix,
    pairwise_distance_matrix,
)
from repro.obs import metrics as obs_metrics

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

_MEDRANK_N = 100_000 if _SMOKE else 1_000_000
_MEDRANK_M = 8
_PARITY_N = 2_000
_PARITY_M = 9
_PARITY_K = 3
_VOTERS_M = 2_000 if _SMOKE else 10_000
_VOTERS_N = 32
_TILED_M = 24
_TILED_N = 640


def _best_of(fn, *args, repeats=3, **kwargs):
    from conftest import best_of

    return best_of(fn, *args, repeats=repeats, **kwargs)


def _captured(fn, *args, **kwargs):
    """``(result, counters)`` with obs counters isolated to this call."""
    obs_metrics.reset()
    with obs.capture():
        result = fn(*args, **kwargs)
    counters = dict(obs_metrics.snapshot()["counters"])
    obs_metrics.reset()
    return result, counters


# ----------------------------------------------------------------------
# Out-of-core MEDRANK: access counts at scale, exact parity at 2k
# ----------------------------------------------------------------------


def _synthetic_orders(n: int, m: int, seed: int, planted: bool) -> np.ndarray:
    """Sorted-access orders (slots by rank) for ``m`` synthetic lists.

    ``planted`` moves slot 0 into the top dozen positions of three
    quarters of the lists — a near-consensus winner the algorithm finds
    at trivial depth; unplanted lists are independent permutations, the
    adversarial case where MEDRANK's depth grows like n^(4/5).
    """
    rng = np.random.default_rng(seed)
    rows = np.empty((m, n), dtype=np.int64)
    for index in range(m):
        rows[index] = rng.permutation(n)
        if planted and index % 4 != 3:
            where = int(np.flatnonzero(rows[index] == 0)[0])
            top = int(rng.integers(0, 12))
            rows[index, [top, where]] = rows[index, [where, top]]
    return rows


def _medrank_at_scale(planted: bool, seed: int) -> dict:
    n, m = _MEDRANK_N, _MEDRANK_M
    rows = _synthetic_orders(n, m, seed, planted)
    with tempfile.TemporaryDirectory() as tmp:
        build_s, store = _best_of(
            SortedListStore.from_rows, Path(tmp) / "lists", rows, repeats=1
        )
        store_bytes = os.path.getsize(store.path)
        select_s, result = _best_of(medrank_out_of_core, store, repeats=1)
    log = result.access_log
    return {
        "n_items": n,
        "m_lists": m,
        "planted_winner": planted,
        "storage": store.storage,
        "store_mb": round(store_bytes / 2**20, 1),
        "build_s": round(build_s, 3),
        "select_s": round(select_s, 3),
        "winner_slot": result.winner_slots[0],
        "depth": log.depth,
        "total_accesses": log.total_accesses,
        "saturation": round(log.total_accesses / (n * m), 6),
    }


def _medrank_parity() -> dict:
    """Winners, stopping depth, and obs counters: mmap store == in-memory."""
    rng = np.random.default_rng(17)
    profile = tuple(
        PartialRanking.from_sequence(rng.permutation(_PARITY_N).tolist())
        for _ in range(_PARITY_M)
    )
    in_memory, memory_counters = _captured(medrank, profile, k=_PARITY_K)
    codec = DomainCodec.for_profile(profile)
    with tempfile.TemporaryDirectory() as tmp:
        store = SortedListStore.build(Path(tmp) / "lists", profile)
        out_of_core, store_counters = _captured(
            medrank_out_of_core, store, k=_PARITY_K
        )
    winners = tuple(codec.items[slot] for slot in out_of_core.winner_slots)
    accesses = "aggregate.medrank.accesses"
    return {
        "n_items": _PARITY_N,
        "m_lists": _PARITY_M,
        "k": _PARITY_K,
        "accesses_in_memory": memory_counters.get(accesses, 0),
        "accesses_out_of_core": store_counters.get(accesses, 0),
        "mmap_sorted_accesses": store_counters.get("db.mmap.accesses", 0),
        "identical": bool(
            winners == in_memory.winners
            and out_of_core.access_log == in_memory.access_log
            and memory_counters.get(accesses) == store_counters.get(accesses)
        ),
    }


# ----------------------------------------------------------------------
# Tiled GEMM: the 10^4-voter matrix and the bit-for-bit agreement claim
# ----------------------------------------------------------------------


def _voter_matrix() -> dict:
    """The Kendall matrix over _VOTERS_M voters, auto-tiled."""
    profile = random_profile_workload(_VOTERS_N, _VOTERS_M, seed=5).rankings
    seconds, matrix = _best_of(pairwise_distance_matrix, profile, "kendall", repeats=1)
    _, counters = _captured(pairwise_distance_matrix, profile, "kendall")
    budget_cells = _VOTERS_M * _VOTERS_N * _VOTERS_N
    return {
        "m_voters": _VOTERS_M,
        "n_items": _VOTERS_N,
        "budget_cells": budget_cells,
        "auto_strategy": "tiled" if counters.get("metrics.batch.tiles", 0) > 1 else "dense",
        "tiles": counters.get("metrics.batch.tiles", 0),
        "seconds": round(seconds, 3),
        "checksum": float(matrix.sum()),
    }


def _tiled_agreement() -> dict:
    """Beyond one tile's budget: many tiles == one tile == per-pair, exactly.

    ``dense`` forces a single tile over all items, ``tiled`` is the
    default width (several tiles at this size), ``pairs`` the per-pair
    kernel.
    """
    profile = random_profile_workload(_TILED_N, _TILED_M, seed=11).rankings
    rows = bucket_index_matrix(profile)
    kernels = {
        "dense": (_pair_counts_dense_tiled, rows, _TILED_N),
        "tiled": (_pair_counts_dense_tiled, rows),
        "pairs": (_pair_counts_pairs, rows, None),
    }
    times = {}
    matrices = {}
    for name, (kernel, *args) in kernels.items():
        times[name], matrices[name] = _best_of(kernel, *args, repeats=3)
    _, counters = _captured(pair_counts_matrix, profile)
    equal = all(
        matrices["tiled"].pair_counts(i, j) == matrices["dense"].pair_counts(i, j)
        and matrices["tiled"].pair_counts(i, j) == matrices["pairs"].pair_counts(i, j)
        for i in range(_TILED_M)
        for j in range(i + 1, _TILED_M)
    )
    return {
        "m_rankings": _TILED_M,
        "n_items": _TILED_N,
        "budget_cells": _TILED_M * _TILED_N * _TILED_N,
        "beyond_dense_cutoff": _TILED_M * _TILED_N * _TILED_N > 2**23,
        "tiles": counters.get("metrics.batch.tiles", 0),
        "dense_s": round(times["dense"], 4),
        "tiled_s": round(times["tiled"], 4),
        "pairs_s": round(times["pairs"], 4),
        "bitwise_equal": equal,
    }


# ----------------------------------------------------------------------
# Gate + regeneration via the shared CLI
# ----------------------------------------------------------------------


def _measurements() -> dict:
    return {
        "medrank_planted": _medrank_at_scale(planted=True, seed=1),
        "medrank_adversarial": _medrank_at_scale(planted=False, seed=2),
        "medrank_parity": _medrank_parity(),
        "voter_matrix": _voter_matrix(),
        "tiled_agreement": _tiled_agreement(),
    }


def check_scale(fresh: dict) -> list[str]:
    """Gate failures: any exactness violation."""
    failures = []
    if not fresh["medrank_parity"]["identical"]:
        failures.append(
            "out-of-core MEDRANK diverged from the in-memory run "
            "(winners, depth, or obs counters)"
        )
    if not fresh["tiled_agreement"]["bitwise_equal"]:
        failures.append("tiled GEMM disagrees with dense/per-pair classification")
    return failures


def _run_check(baseline: dict) -> int:
    from conftest import report_failures

    fresh = _measurements()
    print(f"{'claim':<30}{'baseline':>14}{'fresh':>14}")
    rows = (
        ("medrank accesses (planted)", "medrank_planted", "total_accesses"),
        ("medrank accesses (random)", "medrank_adversarial", "total_accesses"),
        ("voter matrix s", "voter_matrix", "seconds"),
        ("tiled GEMM s", "tiled_agreement", "tiled_s"),
    )
    for label, section, key in rows:
        print(f"{label:<30}{baseline[section][key]:>14}{fresh[section][key]:>14}")
    print(
        "parity: in-memory "
        f"{fresh['medrank_parity']['accesses_in_memory']} accesses vs "
        f"out-of-core {fresh['medrank_parity']['accesses_out_of_core']}"
    )
    return report_failures(check_scale(fresh), "scale gate")


def _regenerate() -> int:
    from conftest import machine_info, write_baseline

    payload = {
        "pr": 7,
        "smoke": _SMOKE,
        "machine": machine_info(),
        **_measurements(),
    }
    write_baseline("BENCH_SCALE.json", payload)
    planted = payload["medrank_planted"]
    random = payload["medrank_adversarial"]
    print(
        f"medrank n={planted['n_items']}: planted {planted['total_accesses']} "
        f"accesses (saturation {planted['saturation']:.2%}), adversarial "
        f"{random['total_accesses']} ({random['saturation']:.2%})"
    )
    print(
        f"voter matrix {payload['voter_matrix']['m_voters']} voters: "
        f"{payload['voter_matrix']['seconds']}s "
        f"({payload['voter_matrix']['auto_strategy']}, "
        f"{payload['voter_matrix']['tiles']} tiles)"
    )
    print(
        f"tiled agreement: bitwise_equal={payload['tiled_agreement']['bitwise_equal']}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    from conftest import gate_main

    return gate_main(
        argv,
        description=__doc__,
        check_help="re-measure and fail on exactness violations",
        check=_run_check,
        regenerate=_regenerate,
    )


if __name__ == "__main__":
    raise SystemExit(main())
