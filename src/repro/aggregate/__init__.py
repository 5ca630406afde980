"""Rank aggregation algorithms (paper §6) and baselines.

The centerpiece is median rank aggregation, which the paper proves is a
constant-factor approximation with respect to all four partial-ranking
metrics:

* :func:`median_scores` / :class:`MedianAggregator` — the median score
  function and its top-k / full-ranking / fixed-type / partial-ranking
  outputs (Theorems 9, 10, 11 and their generalizations).
* :mod:`repro.aggregate.batch` — the position-matrix kernel layer every
  median output runs on: one ``(m, n)`` encode, bit-for-bit equal to the
  dict reference in :mod:`repro.verify.reference`.
* :func:`optimal_bucketing` — the Figure 1 dynamic program producing the
  partial ranking closest in L1 to an arbitrary score function.
* :func:`medrank` / :func:`nra_median` — sequential-access algorithms with
  access accounting (the database-friendly instantiation of §6).
* :mod:`repro.aggregate.baselines` — Borda, MC4, pick-a-perm, best-input.
* :func:`optimal_footrule_aggregation` — the exact (matching-based)
  comparator the paper contrasts the median algorithm with.
* :mod:`repro.aggregate.exact` — brute-force optima for small domains.
* :func:`kemeny_decomposed` — SCC-condensed exact ``K^(p)`` aggregation
  (per-component Held–Karp over the :func:`pair_cost_array` dominance
  digraph, solved once on integer disagreement counts at every ``p``;
  ``require_exact=True`` certifies the optimum). The Condorcet
  diagnostics (:func:`is_condorcet_consistent`, :func:`condorcet_winner`,
  :func:`topological_aggregation`) read the same digraph.
* :func:`aggregate` — the registry-aware entry point: median *or*
  minmax (egalitarian, arXiv 1701.08305) objective under any metric
  registered in the plugin registry, with the :class:`AggregateResult`
  certification flag.
"""

from repro.aggregate.batch import (
    median_fixed_type_batch,
    median_full_ranking_batch,
    median_partial_ranking_batch,
    median_scores_array,
    median_scores_batch,
    median_top_k_batch,
)
from repro.aggregate.decompose import DecomposedResult, kemeny_decomposed
from repro.aggregate.dp import bucketing_cost, optimal_bucketing, optimal_partial_ranking
from repro.aggregate.kemeny import kemeny_lower_bound, pair_cost_array
from repro.aggregate.matching import optimal_footrule_aggregation
from repro.aggregate.median import (
    MedianAggregator,
    median_fixed_type,
    median_full_ranking,
    median_partial_ranking,
    median_scores,
    median_top_k,
)
from repro.aggregate.medrank import (
    AccessLog,
    SlotMedrankResult,
    medrank,
    medrank_out_of_core,
    nra_median,
)
from repro.aggregate.minmax import AggregateResult, aggregate
from repro.aggregate.objective import max_distance, resolve_metric, total_distance
from repro.aggregate.online import OnlineMedianAggregator
from repro.aggregate.tournament import (
    condorcet_winner,
    is_condorcet_consistent,
    topological_aggregation,
)

__all__ = [
    "median_scores",
    "median_top_k",
    "median_full_ranking",
    "median_partial_ranking",
    "median_fixed_type",
    "median_scores_array",
    "median_scores_batch",
    "median_top_k_batch",
    "median_full_ranking_batch",
    "median_partial_ranking_batch",
    "median_fixed_type_batch",
    "MedianAggregator",
    "OnlineMedianAggregator",
    "optimal_bucketing",
    "optimal_partial_ranking",
    "bucketing_cost",
    "medrank",
    "medrank_out_of_core",
    "nra_median",
    "AccessLog",
    "SlotMedrankResult",
    "optimal_footrule_aggregation",
    "kemeny_lower_bound",
    "kemeny_decomposed",
    "DecomposedResult",
    "pair_cost_array",
    "condorcet_winner",
    "is_condorcet_consistent",
    "topological_aggregation",
    "total_distance",
    "max_distance",
    "resolve_metric",
    "aggregate",
    "AggregateResult",
]
