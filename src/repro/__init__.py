"""repro — Comparing and Aggregating Rankings with Ties.

A complete implementation of Fagin, Kumar, Mahdian, Sivakumar, Vee,
*Comparing and Aggregating Rankings with Ties* (PODS 2004):

* :class:`PartialRanking` — bucket orders with the paper's position
  semantics, refinement algebra (the ``*`` operator), and top-k lists;
* the four metrics — ``K_prof`` (:func:`kendall`), ``F_prof``
  (:func:`footrule`), ``K_Haus`` (:func:`kendall_hausdorff`), ``F_Haus``
  (:func:`footrule_hausdorff`) — all in O(n log n);
* median rank aggregation with the paper's approximation guarantees
  (:class:`MedianAggregator`), the Figure 1 dynamic program
  (:func:`optimal_partial_ranking`), and the sequential-access MEDRANK /
  NRA algorithms (:func:`medrank`, :func:`nra_median`);
* a database substrate (:class:`Relation`, :class:`PreferenceQuery`)
  reproducing the paper's motivating catalog-search scenario;
* baselines, exact brute-force optima, synthetic workloads, and the
  experiment harness behind EXPERIMENTS.md.

Quickstart
----------
>>> from repro import PartialRanking, MedianAggregator, kendall
>>> by_price = PartialRanking([["thai-palace", "roma"], ["le-bistro"]])
>>> by_stars = PartialRanking([["le-bistro"], ["thai-palace"], ["roma"]])
>>> kendall(by_price, by_stars)
2.5
>>> MedianAggregator((by_price, by_stars)).full_ranking().items_in_order()
['thai-palace', 'le-bistro', 'roma']
"""

from repro.aggregate import (
    MedianAggregator,
    OnlineMedianAggregator,
    kemeny_decomposed,
    median_full_ranking,
    median_partial_ranking,
    median_scores,
    median_top_k,
    medrank,
    nra_median,
    optimal_bucketing,
    optimal_footrule_aggregation,
    optimal_partial_ranking,
    total_distance,
)
from repro.core import (
    PartialRanking,
    full_refinements,
    is_refinement,
    star,
    star_chain,
)
from repro.db import (
    AttributePreference,
    PreferenceQuery,
    Relation,
    flight_catalog,
    restaurant_catalog,
)
from repro.errors import (
    AggregationError,
    DomainMismatchError,
    InvalidRankingError,
    ReproError,
)
from repro.metrics import (
    footrule,
    footrule_full,
    footrule_hausdorff,
    kendall,
    kendall_full,
    kendall_hausdorff,
)

__version__ = "1.0.0"

__all__ = [
    # core
    "PartialRanking",
    "star",
    "star_chain",
    "is_refinement",
    "full_refinements",
    # metrics
    "kendall",
    "kendall_full",
    "footrule",
    "footrule_full",
    "kendall_hausdorff",
    "footrule_hausdorff",
    # aggregation
    "MedianAggregator",
    "OnlineMedianAggregator",
    "kemeny_decomposed",
    "median_scores",
    "median_top_k",
    "median_full_ranking",
    "median_partial_ranking",
    "optimal_bucketing",
    "optimal_partial_ranking",
    "medrank",
    "nra_median",
    "optimal_footrule_aggregation",
    "total_distance",
    # database substrate
    "Relation",
    "AttributePreference",
    "PreferenceQuery",
    "restaurant_catalog",
    "flight_catalog",
    # errors
    "ReproError",
    "InvalidRankingError",
    "DomainMismatchError",
    "AggregationError",
    "__version__",
]
