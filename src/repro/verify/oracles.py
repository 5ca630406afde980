"""The oracle registry: every public metric/aggregation entry point paired
with a *reference* implementation and its fast/batch/parallel variants.

An :class:`OracleEntry` is a differential-testing unit: one independent,
deliberately naive computation of a quantity (O(n²) loops over positions,
or the exponential Hausdorff enumeration) plus the list of production code
paths that promise to agree with it bit for bit — the Fenwick/array
kernels, the one-tile/many-tile/per-pair matrix kernels, and the
process-pool variants.
The fuzz driver (:mod:`repro.verify.fuzz`) evaluates every variant of
every entry on generated workloads and reports any disagreement.

Entries declare which ``repro.metrics.__all__`` names they ``cover``; the
RP010 analysis rule cross-references that declaration against the actual
export surface so a new public metric cannot ship without an oracle.

Entries marked ``selftest_only`` are deliberate mutants (e.g. a flipped
tie penalty) used by :mod:`repro.verify.selftest` to prove the harness
can actually catch a bug; they never run in normal fuzzing.
"""

from __future__ import annotations

import pickle
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np

from repro import obs
from repro.aggregate.batch import (
    median_fixed_type_batch,
    median_full_ranking_batch,
    median_partial_ranking_batch,
    median_scores_batch,
    median_top_k_batch,
)
from repro.aggregate.decompose import kemeny_decomposed
from repro.aggregate.kemeny import pair_cost_array
from repro.aggregate.matching import optimal_footrule_aggregation
from repro.aggregate.medrank import medrank, medrank_out_of_core
from repro.aggregate.minmax import OBJECTIVES, aggregate
from repro.aggregate.median import (
    median_fixed_type,
    median_full_ranking,
    median_partial_ranking,
    median_scores,
    median_top_k,
)
from repro.aggregate.online import OnlineMedianAggregator
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import PartialRanking
from repro.core.refine import common_full_ranking, star
from repro.db.mmap_lists import SortedListStore
from repro.metrics.batch import (
    PairCountsMatrix,
    _pair_counts_dense_tiled,
    _pair_counts_pairs,
    bucket_index_matrix,
    pair_counts_matrix,
    pairwise_distance_matrix,
)
from repro.metrics.fast import count_inversions_array
from repro.metrics.footrule import footrule, footrule_full
from repro.metrics.hausdorff import (
    footrule_hausdorff,
    footrule_hausdorff_bruteforce,
    kendall_hausdorff,
    kendall_hausdorff_bruteforce,
    kendall_hausdorff_counts,
)
from repro.metrics.kendall import (
    PairCounts,
    _pair_counts_array,
    _pair_counts_fenwick,
    kendall,
    kendall_full,
    kendall_naive,
    pair_counts,
)
from repro.metrics.normalized import (
    max_footrule,
    max_kendall,
    normalized_footrule,
    normalized_footrule_hausdorff,
    normalized_kendall,
    normalized_kendall_hausdorff,
)
from repro.metrics.registry import CandidateScorer, registered_metrics
from repro.verify.reference import (
    aggregate_exhaustive_scalar,
    footrule_assignment_broadcast,
    kemeny_monolithic,
    median_fixed_type_dict,
    median_full_ranking_dict,
    median_partial_ranking_dict,
    median_scores_dict,
    median_top_k_dict,
    pair_cost_sign_sums,
)

__all__ = [
    "Rankings",
    "OracleEntry",
    "values_equal",
    "oracle_entries",
]

#: The rankings handed to a check: a (sigma, tau) pair for ``kind="pair"``
#: entries, a whole profile for ``kind="profile"`` entries.
Rankings = tuple[PartialRanking, ...]

_OracleFn = Callable[[Rankings], object]


@dataclass(frozen=True, slots=True)
class OracleEntry:
    """One differential-testing unit: a reference plus agreeing variants."""

    name: str
    kind: str  # "pair" (takes sigma, tau) or "profile" (takes the profile)
    citation: str
    covers: tuple[str, ...]
    reference: _OracleFn
    variants: tuple[tuple[str, _OracleFn], ...]
    #: Skip (or domain-restrict) workloads larger than this — set on the
    #: exponential brute-force oracles and the Held–Karp aggregation.
    max_items: int | None = None
    #: Variant names that spawn process pools; run only on a subsample of
    #: rounds (``--expensive-every``).
    expensive: frozenset[str] = field(default=frozenset())
    #: Deliberate mutant used by the self-test; excluded from normal runs.
    selftest_only: bool = False
    #: Optional workload normalization applied before evaluation (e.g.
    #: star-refining to full rankings); must be idempotent so a replayed
    #: prepared workload is prepared to itself.
    prepare: Callable[[Rankings], Rankings] | None = None

    def variant_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variants)


def values_equal(expected: object, actual: object) -> bool:
    """Bit-for-bit equality across the value shapes oracles return.

    Handles numpy arrays (shape + element-exact), tuples/lists
    (element-wise recursion), and plain values (``==``; exact float
    equality is *intentional* here — agreement across implementations is
    promised bit for bit, not approximately).
    """
    if isinstance(expected, np.ndarray) or isinstance(actual, np.ndarray):
        a = np.asarray(expected)
        b = np.asarray(actual)
        return a.shape == b.shape and bool(np.array_equal(a, b))
    if isinstance(expected, (tuple, list)) and isinstance(actual, (tuple, list)):
        return len(expected) == len(actual) and all(
            values_equal(u, v) for u, v in zip(expected, actual)
        )
    return bool(expected == actual)


# ----------------------------------------------------------------------
# Naive reference implementations (position loops; no shared kernels)
# ----------------------------------------------------------------------


def _sorted_items(sigma: PartialRanking) -> list[object]:
    return sorted(sigma.domain, key=repr)


def _pair_counts_naive(sigma: PartialRanking, tau: PartialRanking) -> PairCounts:
    """O(n²) pair classification straight from the definitions."""
    items = _sorted_items(sigma)
    discordant = tied_first = tied_second = tied_both = concordant = 0
    for i, x in enumerate(items):
        for y in items[i + 1 :]:
            ds = sigma.position(x) - sigma.position(y)
            dt = tau.position(x) - tau.position(y)
            if ds == 0 and dt == 0:
                tied_both += 1
            elif ds == 0:
                tied_first += 1
            elif dt == 0:
                tied_second += 1
            elif (ds > 0) != (dt > 0):
                discordant += 1
            else:
                concordant += 1
    return PairCounts(
        discordant=discordant,
        tied_first_only=tied_first,
        tied_second_only=tied_second,
        tied_both=tied_both,
        concordant=concordant,
    )


def _footrule_naive(sigma: PartialRanking, tau: PartialRanking) -> float:
    """F_prof as a bare sum of |position differences| (half-integers, so
    every summation order gives the identical float)."""
    return float(
        sum(abs(sigma.position(x) - tau.position(x)) for x in _sorted_items(sigma))
    )


def _kendall_full_naive(sigma: PartialRanking, tau: PartialRanking) -> int:
    """Classical Kendall tau on full rankings: O(n²) discordance count."""
    items = _sorted_items(sigma)
    count = 0
    for i, x in enumerate(items):
        for y in items[i + 1 :]:
            ds = sigma.position(x) - sigma.position(y)
            dt = tau.position(x) - tau.position(y)
            if (ds > 0) != (dt > 0):
                count += 1
    return count


def _normalize(value: float, maximum: float) -> float:
    return 0.0 if maximum == 0 else value / maximum


def _normalized_naive(sigma: PartialRanking, tau: PartialRanking) -> tuple[float, ...]:
    """All four [0, 1]-scaled metrics from naive pieces."""
    n = len(sigma)
    counts = _pair_counts_naive(sigma, tau)
    return (
        _normalize(counts.kendall(0.5), max_kendall(n)),
        _normalize(_footrule_naive(sigma, tau), max_footrule(n)),
        _normalize(float(counts.kendall_hausdorff()), max_kendall(n)),
        _normalize(footrule_hausdorff(sigma, tau), max_footrule(n)),
    )


def _kendall_flipped_tie(sigma: PartialRanking, tau: PartialRanking) -> float:
    """Deliberate mutant of ``K^(1/2)``: also penalizes pairs tied in
    *both* rankings (which the real metric never does). Used by the
    self-test to prove the harness catches an injected bug."""
    counts = pair_counts(sigma, tau)
    return counts.discordant + 0.5 * (
        counts.tied_first_only + counts.tied_second_only + counts.tied_both
    )


# ----------------------------------------------------------------------
# Adapters: two-ranking / profile callables over the Rankings tuple
# ----------------------------------------------------------------------


def _pair(fn: Callable[[PartialRanking, PartialRanking], object]) -> _OracleFn:
    def call(rankings: Rankings) -> object:
        return fn(rankings[0], rankings[1])

    return call


def _pair_kendall(fn: Callable[..., float], p: float) -> _OracleFn:
    def call(rankings: Rankings) -> object:
        return fn(rankings[0], rankings[1], p)

    return call


def _kendall_array(sigma: PartialRanking, tau: PartialRanking, p: float) -> float:
    """``K^(p)`` through the array classifier, at any size."""
    return _pair_counts_array(sigma, tau).kendall(p)


def _kendall_hausdorff_array(sigma: PartialRanking, tau: PartialRanking) -> int:
    """``K_Haus`` (Proposition 6) through the array classifier, at any size."""
    return _pair_counts_array(sigma, tau).kendall_hausdorff()


def _pair_counts_kernel(
    kernel: str, tile: int | None = None, jobs: int | None = None
) -> Callable[[Rankings], PairCountsMatrix]:
    """All-pairs classification through one kernel, regardless of size.

    ``kernel`` is ``"public"`` (:func:`pair_counts_matrix` picks),
    ``"tiled"`` (``tile=None`` is one tile on every oracle-sized
    profile; a small ``tile`` forces many) or ``"pairs"``.
    """

    def classify(rankings: Rankings) -> PairCountsMatrix:
        if kernel == "public":
            return pair_counts_matrix(rankings, jobs=jobs)
        rows = bucket_index_matrix(rankings)
        if kernel == "pairs":
            return _pair_counts_pairs(rows, jobs)
        return _pair_counts_dense_tiled(rows, tile)

    return classify


def _matrix_entry_pair_counts(kernel: str, tile: int | None = None) -> _OracleFn:
    classify = _pair_counts_kernel(kernel, tile)

    def call(rankings: Rankings) -> object:
        return classify(rankings[:2]).pair_counts(0, 1)

    return call


def _matrix_entry_distance(metric: str) -> _OracleFn:
    def call(rankings: Rankings) -> object:
        return float(pairwise_distance_matrix(rankings[:2], metric)[0, 1])

    return call


def _kendall_full_inversions(rankings: Rankings) -> object:
    """Cover :func:`count_inversions_array`: on full rankings, discordances
    are inversions of tau's bucket sequence read in sigma's order."""
    sigma, tau = rankings[0], rankings[1]
    codec = DomainCodec.for_profile((sigma, tau))
    x, _ = sigma.dense_arrays(codec)
    y, _ = tau.dense_arrays(codec)
    return count_inversions_array(y[np.argsort(x, kind="stable")])


def _normalized_fast(rankings: Rankings) -> object:
    sigma, tau = rankings[0], rankings[1]
    return (
        normalized_kendall(sigma, tau),
        normalized_footrule(sigma, tau),
        normalized_kendall_hausdorff(sigma, tau),
        normalized_footrule_hausdorff(sigma, tau),
    )


def _refine_to_full(rankings: Rankings) -> Rankings:
    """Star-refine every ranking to a full one against the canonical rho.

    Idempotent (a full ranking refines to itself), so replaying an
    already-prepared workload is safe.
    """
    rho = common_full_ranking(rankings[0])
    return tuple(star(rho, sigma) for sigma in rankings)


def _profile_matrix_reference(
    fn: Callable[[PartialRanking, PartialRanking], float],
) -> _OracleFn:
    """Plain-Python all-pairs matrix from the object-level metric."""

    def call(rankings: Rankings) -> object:
        return np.array(
            [[float(fn(s, t)) for t in rankings] for s in rankings],
            dtype=np.float64,
        )

    return call


def _profile_matrix_variant(metric: str, jobs: int | None) -> _OracleFn:
    def call(rankings: Rankings) -> object:
        return pairwise_distance_matrix(rankings, metric, jobs=jobs)

    return call


def _kendall_matrix_kernel(
    metric: str, kernel: str, tile: int | None = None, jobs: int | None = None
) -> _OracleFn:
    """A Kendall-family matrix from one classification kernel."""
    classify = _pair_counts_kernel(kernel, tile, jobs)

    def call(rankings: Rankings) -> object:
        counts = classify(rankings)
        if metric == "kendall":
            return counts.kendall(0.5)
        return counts.kendall_hausdorff().astype(np.float64)

    return call


def _kemeny_monolithic_objective(rankings: Rankings) -> object:
    """The single-DP optimum value (no SCC condensation)."""
    _, objective = kemeny_monolithic(rankings)
    return objective


def _kemeny_decomposed_objective(rankings: Rankings) -> object:
    """The SCC-condensed optimum value.

    Only the *objective* is compared: when several full rankings are
    optimal, the monolithic DP and the per-component DPs may break the
    tie differently, but the optimum value is unique and (for dyadic
    penalties) exactly representable, so equality is bit-for-bit.
    """
    return kemeny_decomposed(rankings, require_exact=True).objective


# -- median aggregation: dict reference vs array kernels ----------------

_MEDIAN_TIES = ("low", "mid", "high")


def _deterministic_weights(count: int) -> list[float]:
    """A fixed non-uniform positive weight vector (dyadic quarters)."""
    return [1.0 + (index % 4) * 0.25 for index in range(count)]


#: The median computations under differential test: the dict reference,
#: the public entry points, and the position-matrix kernels.
_MEDIAN_PATHS = {
    "dict": (
        median_scores_dict,
        median_top_k_dict,
        median_full_ranking_dict,
        median_partial_ranking_dict,
        median_fixed_type_dict,
    ),
    "public": (
        median_scores,
        median_top_k,
        median_full_ranking,
        median_partial_ranking,
        median_fixed_type,
    ),
    "array": (
        median_scores_batch,
        median_top_k_batch,
        median_full_ranking_batch,
        median_partial_ranking_batch,
        median_fixed_type_batch,
    ),
}


def _median_scores_variant(path: str, weighted: bool) -> _OracleFn:
    """All three tie rules through one median path."""
    scores = _MEDIAN_PATHS[path][0]

    def call(rankings: Rankings) -> object:
        weights = _deterministic_weights(len(rankings)) if weighted else None
        return tuple(scores(rankings, tie=tie, weights=weights) for tie in _MEDIAN_TIES)

    return call


def _median_outputs_variant(path: str) -> _OracleFn:
    """Theorem 9/10/11 + Corollary 30 outputs through one median path."""
    _, top_k, full, partial, fixed = _MEDIAN_PATHS[path]

    def call(rankings: Rankings) -> object:
        n = len(rankings[0])
        k = (n + 1) // 2
        head = (n + 1) // 2
        bucket_type = (head, n - head) if n > head else (n,)
        return (
            top_k(rankings, k),
            full(rankings),
            partial(rankings),
            fixed(rankings, bucket_type),
        )

    return call


def _online_reference(rankings: Rankings) -> object:
    """Offline dict-reference scores after every prefix, then one discard."""
    snapshots = [
        median_scores_dict(rankings[: index + 1]) for index in range(len(rankings))
    ]
    if len(rankings) > 1:
        snapshots.append(median_scores_dict(rankings[1:]))
    return tuple(snapshots)


def _medrank_k(rankings: Rankings) -> int:
    """A deterministic k for the MEDRANK differential pair."""
    return min(2, len(rankings[0]))


def _medrank_in_memory(rankings: Rankings) -> object:
    result = medrank(rankings, k=_medrank_k(rankings))
    return (result.winners, result.access_log)


def _medrank_via_store(rankings: Rankings) -> object:
    """Out-of-core MEDRANK over a freshly built memory-mapped store.

    Winner slots map back to items through the codec (slot order IS the
    canonical item order), and the access log must match the in-memory
    run exactly — same stopping depth, same bookkeeping.
    """
    codec = DomainCodec.for_profile(rankings)
    with tempfile.TemporaryDirectory() as tmp:
        store = SortedListStore.build(Path(tmp) / "lists", rankings)
        result = medrank_out_of_core(store, k=_medrank_k(rankings))
    items = codec.items
    winners = tuple(items[slot] for slot in result.winner_slots)
    return (winners, result.access_log)


def _online_variant(through_pickle: bool) -> _OracleFn:
    def call(rankings: Rankings) -> object:
        aggregator = OnlineMedianAggregator(rankings[0].domain)
        snapshots = []
        for sigma in rankings:
            if through_pickle:
                aggregator = pickle.loads(pickle.dumps(aggregator))
            aggregator.add(sigma)
            snapshots.append(aggregator.scores())
        if len(rankings) > 1:
            aggregator.discard(rankings[0])
            snapshots.append(aggregator.scores())
        return tuple(snapshots)

    return call


def _update_voter_keys(count: int) -> list[str]:
    """Voter ids cycling over roughly half the profile, forcing replaces."""
    span = max(1, (count + 1) // 2)
    return [f"v{index % span}" for index in range(count)]


def _online_update_reference(rankings: Rankings) -> object:
    """Offline medians of the voter map after every keyed update.

    Models the serving churn shape: voters re-rank (replace) rather than
    append, then one voter is forgotten. The ground truth is simply the
    offline median over whatever each voter currently contributes.
    """
    voters: dict[str, PartialRanking] = {}
    snapshots = []
    for key, sigma in zip(_update_voter_keys(len(rankings)), rankings):
        voters[key] = sigma
        snapshots.append(median_scores_dict(list(voters.values())))
    if len(voters) > 1:
        del voters["v0"]
        snapshots.append(median_scores_dict(list(voters.values())))
    return tuple(snapshots)


def _online_update_variant(through_pickle: bool) -> _OracleFn:
    def call(rankings: Rankings) -> object:
        aggregator = OnlineMedianAggregator(rankings[0].domain)
        snapshots = []
        for key, sigma in zip(_update_voter_keys(len(rankings)), rankings):
            if through_pickle:
                aggregator = pickle.loads(pickle.dumps(aggregator))
            aggregator.update(key, sigma)
            snapshots.append(aggregator.scores())
        if len(aggregator.voters) > 1:
            aggregator.forget("v0")
            snapshots.append(aggregator.scores())
        return tuple(snapshots)

    return call


def _aggregate_metrics() -> tuple[str | Callable[[PartialRanking, PartialRanking], float], ...]:
    """Every registered metric by name, plus one custom callable.

    The callable (``footrule`` passed as a function) has no array hook,
    so it covers the scalar-call fallback of the same selection path.
    """
    return (*(plugin.name for plugin in registered_metrics()), footrule)


def _aggregate_exhaustive_reference(rankings: Rankings) -> object:
    """Scalar enumeration for every metric × objective."""
    outcomes = []
    for metric in _aggregate_metrics():
        answers = aggregate_exhaustive_scalar(rankings, metric)
        outcomes.extend((*answers[objective], True) for objective in OBJECTIVES)
    return tuple(outcomes)


def _aggregate_exhaustive_public(rankings: Rankings) -> object:
    """``aggregate()`` for every metric × objective, with its candidate count."""
    outcomes = []
    for metric in _aggregate_metrics():
        for objective in OBJECTIVES:
            # our own span collects the search span even under an outer trace
            with obs.capture(), obs.trace("verify.aggregate") as span:
                result = aggregate(rankings, objective, metric)
            assert span is not None
            (search,) = span.children
            candidates = search.counters["aggregate.minmax.candidates"]
            outcomes.append((result.ranking, result.objective, candidates, result.exact))
    return tuple(outcomes)


def _candidate_matrix_reference(
    scalar: Callable[[PartialRanking, PartialRanking], float],
) -> _OracleFn:
    """Scalar distances of every full ranking (slot order) to each voter."""

    def call(rankings: Rankings) -> object:
        items = DomainCodec.for_profile(rankings).items
        return np.array(
            [
                [scalar(PartialRanking([items[slot]] for slot in perm), sigma) for sigma in rankings]
                for perm in permutations(range(len(items)))
            ],
            dtype=np.float64,
        )

    return call


def _candidate_matrix_hook(scorer: CandidateScorer) -> _OracleFn:
    """The registry hook on the same full rankings, given as slot positions."""

    def call(rankings: Rankings) -> object:
        orders = np.array(list(permutations(range(len(rankings[0])))), dtype=np.int8)
        ranks = (np.argsort(orders, axis=1) + 1).astype(np.int8)
        return scorer(rankings)(ranks)

    return call


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------


def _build_entries() -> tuple[OracleEntry, ...]:
    return (
        OracleEntry(
            name="pair-counts",
            kind="pair",
            citation="Proposition 6 pair categories (U, S, T)",
            covers=("pair_counts", "pair_counts_matrix"),
            reference=_pair(_pair_counts_naive),
            variants=(
                ("fenwick", _pair(_pair_counts_fenwick)),
                ("array", _pair(_pair_counts_array)),
                ("matrix", _matrix_entry_pair_counts("public")),
                ("matrix-one-tile", _matrix_entry_pair_counts("tiled")),
                ("matrix-tile-1", _matrix_entry_pair_counts("tiled", tile=1)),
                ("matrix-pairs", _matrix_entry_pair_counts("pairs")),
            ),
        ),
        OracleEntry(
            name="kendall-p-half",
            kind="pair",
            citation="K^(p) at p = 1/2 (K_prof)",
            covers=("kendall",),
            reference=_pair_kendall(kendall_naive, 0.5),
            variants=(
                ("object", _pair_kendall(kendall, 0.5)),
                ("array", _pair_kendall(_kendall_array, 0.5)),
                ("matrix", _matrix_entry_distance("kendall")),
            ),
        ),
        OracleEntry(
            name="kendall-p-quarter",
            kind="pair",
            citation="K^(p) in the near-metric regime p = 1/4 (Proposition 13)",
            covers=("kendall",),
            reference=_pair_kendall(kendall_naive, 0.25),
            variants=(
                ("object", _pair_kendall(kendall, 0.25)),
                ("array", _pair_kendall(_kendall_array, 0.25)),
            ),
        ),
        OracleEntry(
            name="kendall-p-one",
            kind="pair",
            citation="K^(p) at p = 1 (ties fully penalized)",
            covers=("kendall",),
            reference=_pair_kendall(kendall_naive, 1.0),
            variants=(
                ("object", _pair_kendall(kendall, 1.0)),
                ("array", _pair_kendall(_kendall_array, 1.0)),
            ),
        ),
        OracleEntry(
            name="kendall-full",
            kind="pair",
            citation="classical Kendall tau on full rankings",
            covers=("kendall_full", "count_inversions_array"),
            reference=_pair(_kendall_full_naive),
            variants=(
                ("object", _pair(kendall_full)),
                ("inversions-array", _kendall_full_inversions),
            ),
            prepare=_refine_to_full,
        ),
        OracleEntry(
            name="footrule",
            kind="pair",
            citation="F_prof: L1 distance on positions",
            covers=("footrule",),
            reference=_pair(_footrule_naive),
            variants=(
                ("object", _pair(footrule)),
                ("matrix", _matrix_entry_distance("footrule")),
            ),
        ),
        OracleEntry(
            name="footrule-full",
            kind="pair",
            citation="classical Spearman footrule on full rankings",
            covers=("footrule_full",),
            reference=_pair(_footrule_naive),
            variants=(("object", _pair(footrule_full)),),
            prepare=_refine_to_full,
        ),
        OracleEntry(
            name="kendall-hausdorff",
            kind="pair",
            citation="K_Haus: Theorem 5 witnesses vs Proposition 6 closed form",
            covers=("kendall_hausdorff", "kendall_hausdorff_counts"),
            reference=_pair(kendall_hausdorff),
            variants=(
                ("counts", _pair(kendall_hausdorff_counts)),
                ("array", _pair(_kendall_hausdorff_array)),
                ("matrix", _matrix_entry_distance("kendall_hausdorff")),
            ),
        ),
        OracleEntry(
            name="kendall-hausdorff-bruteforce",
            kind="pair",
            citation="K_Haus: exhaustive max-min over full refinements",
            covers=("kendall_hausdorff_counts",),
            reference=_pair(kendall_hausdorff_bruteforce),
            variants=(("counts", _pair(kendall_hausdorff_counts)),),
            max_items=5,
        ),
        OracleEntry(
            name="footrule-hausdorff",
            kind="pair",
            citation="F_Haus: Theorem 5 witness construction",
            covers=("footrule_hausdorff",),
            reference=_pair(footrule_hausdorff),
            variants=(("matrix", _matrix_entry_distance("footrule_hausdorff")),),
        ),
        OracleEntry(
            name="footrule-hausdorff-bruteforce",
            kind="pair",
            citation="F_Haus: exhaustive max-min over full refinements",
            covers=("footrule_hausdorff",),
            reference=_pair(footrule_hausdorff_bruteforce),
            variants=(("witnesses", _pair(footrule_hausdorff)),),
            max_items=5,
        ),
        OracleEntry(
            name="normalized",
            kind="pair",
            citation="[0, 1]-scaled variants of all four metrics",
            covers=(
                "normalized_kendall",
                "normalized_footrule",
                "normalized_kendall_hausdorff",
                "normalized_footrule_hausdorff",
            ),
            reference=_pair(_normalized_naive),
            variants=(("fast", _normalized_fast),),
        ),
        OracleEntry(
            name="batch-kendall",
            kind="profile",
            citation="all-pairs K_prof matrix vs the per-pair object metric",
            covers=("pairwise_distance_matrix", "pair_counts_matrix"),
            reference=_profile_matrix_reference(kendall),
            variants=(
                ("public", _profile_matrix_variant("kendall", None)),
                ("one-tile", _kendall_matrix_kernel("kendall", "tiled")),
                ("tile-1", _kendall_matrix_kernel("kendall", "tiled", tile=1)),
                ("tile-3", _kendall_matrix_kernel("kendall", "tiled", tile=3)),
                ("pairs", _kendall_matrix_kernel("kendall", "pairs")),
                ("pairs-jobs2", _kendall_matrix_kernel("kendall", "pairs", jobs=2)),
            ),
            expensive=frozenset({"pairs-jobs2"}),
        ),
        OracleEntry(
            name="batch-footrule",
            kind="profile",
            citation="all-pairs F_prof matrix vs the per-pair object metric",
            covers=("pairwise_distance_matrix",),
            reference=_profile_matrix_reference(footrule),
            variants=(
                ("serial", _profile_matrix_variant("footrule", None)),
                ("jobs2", _profile_matrix_variant("footrule", 2)),
            ),
            expensive=frozenset({"jobs2"}),
        ),
        OracleEntry(
            name="batch-kendall-hausdorff",
            kind="profile",
            citation="all-pairs K_Haus matrix vs the per-pair closed form",
            covers=("pairwise_distance_matrix",),
            reference=_profile_matrix_reference(kendall_hausdorff_counts),
            variants=(
                ("public", _profile_matrix_variant("kendall_hausdorff", None)),
                ("tile-3", _kendall_matrix_kernel("kendall_hausdorff", "tiled", tile=3)),
                ("pairs", _kendall_matrix_kernel("kendall_hausdorff", "pairs")),
            ),
        ),
        OracleEntry(
            name="batch-footrule-hausdorff",
            kind="profile",
            citation="all-pairs F_Haus matrix vs the per-pair witness metric",
            covers=("pairwise_distance_matrix",),
            reference=_profile_matrix_reference(footrule_hausdorff),
            variants=(
                ("serial", _profile_matrix_variant("footrule_hausdorff", None)),
                ("jobs2", _profile_matrix_variant("footrule_hausdorff", 2)),
            ),
            expensive=frozenset({"jobs2"}),
        ),
        OracleEntry(
            name="aggregate-footrule-matching",
            kind="profile",
            citation="optimal footrule aggregation: per-ranking cost rows vs one broadcast",
            covers=(),
            reference=footrule_assignment_broadcast,
            variants=(("public", optimal_footrule_aggregation),),
        ),
        OracleEntry(
            name="aggregate-kemeny",
            kind="profile",
            citation="Kemeny pair counts: boolean comparison vs sign-tensor sums",
            covers=(),
            reference=pair_cost_sign_sums,
            variants=(("public", pair_cost_array),),
        ),
        OracleEntry(
            name="aggregate-kemeny-decomposed",
            kind="profile",
            citation="SCC-condensed exact K^(p) optimum == monolithic Held-Karp optimum",
            covers=(),
            reference=_kemeny_monolithic_objective,
            variants=(("decomposed", _kemeny_decomposed_objective),),
            max_items=7,
        ),
        OracleEntry(
            name="aggregate-median-scores",
            kind="profile",
            citation="Lemma 8 median score function: dict gathers vs matrix kernel",
            covers=("median_scores_array", "median_scores_batch"),
            reference=_median_scores_variant("dict", weighted=False),
            variants=(("public", _median_scores_variant("public", weighted=False)),),
        ),
        OracleEntry(
            name="aggregate-median-weighted",
            kind="profile",
            citation="Lemma 8W weighted-voter medians, all tie rules",
            covers=("median_scores_batch",),
            reference=_median_scores_variant("dict", weighted=True),
            variants=(
                ("public", _median_scores_variant("public", weighted=True)),
                ("array", _median_scores_variant("array", weighted=True)),
            ),
        ),
        OracleEntry(
            name="aggregate-median-outputs",
            kind="profile",
            citation="Theorems 9-11 / Corollary 30 outputs: dict reference vs array kernels",
            covers=(
                "median_top_k_batch",
                "median_full_ranking_batch",
                "median_partial_ranking_batch",
                "median_fixed_type_batch",
            ),
            reference=_median_outputs_variant("dict"),
            variants=(
                ("public", _median_outputs_variant("public")),
                ("array", _median_outputs_variant("array")),
            ),
        ),
        OracleEntry(
            name="aggregate-online-median",
            kind="profile",
            citation="online add/discard snapshots vs offline Lemma 8 medians",
            covers=(),
            reference=_online_reference,
            variants=(
                ("online", _online_variant(through_pickle=False)),
                ("online-pickled", _online_variant(through_pickle=True)),
            ),
        ),
        OracleEntry(
            name="aggregate-online-update",
            kind="profile",
            citation="voter-keyed replace churn vs offline medians of the voter map",
            covers=(),
            reference=_online_update_reference,
            variants=(
                ("update", _online_update_variant(through_pickle=False)),
                ("update-pickled", _online_update_variant(through_pickle=True)),
            ),
        ),
        OracleEntry(
            name="aggregate-exhaustive",
            kind="profile",
            citation="exact median/minmax aggregate(): array candidate pass vs scalar enumeration",
            covers=(),
            reference=_aggregate_exhaustive_reference,
            variants=(("public", _aggregate_exhaustive_public),),
            max_items=5,
        ),
        OracleEntry(
            name="medrank-out-of-core",
            kind="profile",
            citation="MEDRANK over memory-mapped sorted lists vs the in-memory loop",
            covers=(),
            reference=_medrank_in_memory,
            variants=(("mmap-store", _medrank_via_store),),
        ),
        OracleEntry(
            name="selftest-kendall-flipped-tie",
            kind="pair",
            citation="deliberate mutant: tie penalty applied to tied-both pairs",
            covers=(),
            reference=_pair_kendall(kendall_naive, 0.5),
            variants=(("mutant", _pair(_kendall_flipped_tie)),),
            selftest_only=True,
        ),
    )


#: The hand-curated entries. Static: the built-in metrics keep their
#: richly cross-covered entries above, authored once at import time.
_STATIC_ENTRIES: tuple[OracleEntry, ...] = _build_entries()


def _plugin_batch_variant(
    batch: Callable[..., np.ndarray], jobs: int | None
) -> _OracleFn:
    def call(rankings: Rankings) -> object:
        return batch(rankings, jobs=jobs)

    return call


def _plugin_entries() -> tuple[OracleEntry, ...]:
    """Auto-contributed entries for the registered metric plugins.

    Every :class:`~repro.metrics.registry.MetricPlugin` ships an O(n²)
    reference oracle; registering a non-builtin plugin therefore buys a
    differential check for free — the plain-Python all-pairs matrix
    from the oracle against the scalar kernel, the batch kernel, and
    the batch kernel over a 2-process pool. Every plugin with a
    ``candidate_scorer`` (built-ins included) also gets a
    ``candidates-<name>`` entry: the hook's matrix over all full
    rankings of the (≤ 4-item) domain against the scalar kernel. Rebuilt
    on each call so plugins registered after import (third-party,
    tests) are picked up by ``--list-checks`` and the fuzz loop
    automatically.
    """
    # Imported lazily: force first-party plugin registration without a
    # module-level verify -> plugins import edge.
    import repro.metrics.plugins  # noqa: F401

    entries = []
    for plugin in registered_metrics():
        if plugin.candidate_scorer is not None:
            entries.append(
                OracleEntry(
                    name=f"candidates-{plugin.name}",
                    kind="profile",
                    citation=f"{plugin.citation}: full-candidate hook vs scalar kernel",
                    covers=(),
                    reference=_candidate_matrix_reference(plugin.scalar),
                    variants=(("hook", _candidate_matrix_hook(plugin.candidate_scorer)),),
                    max_items=4,
                )
            )
        if plugin.builtin:
            continue
        entries.append(
            OracleEntry(
                name=f"plugin-{plugin.name}",
                kind="profile",
                citation=plugin.citation,
                covers=(),
                reference=_profile_matrix_reference(plugin.oracle),
                variants=(
                    ("scalar", _profile_matrix_reference(plugin.scalar)),
                    ("batch", _plugin_batch_variant(plugin.batch, None)),
                    ("batch-jobs2", _plugin_batch_variant(plugin.batch, 2)),
                ),
                expensive=frozenset({"batch-jobs2"}),
            )
        )
    return tuple(entries)


def oracle_entries() -> tuple[OracleEntry, ...]:
    """Every registered oracle entry (including self-test mutants).

    Static hand-curated entries first, then the auto-contributed
    per-plugin entries.
    """
    return _STATIC_ENTRIES + _plugin_entries()
