"""The four partial-ranking metrics of the paper, plus analysis tools.

Public names:

* :func:`kendall` / :func:`kendall_full` — ``K^(p)`` with penalty parameter
  ``p`` (default 1/2, i.e. ``K_prof``) and the classical Kendall tau on full
  rankings.
* :func:`footrule` / :func:`footrule_full` — ``F_prof`` (L1 on positions)
  and the classical Spearman footrule.
* :func:`kendall_hausdorff` / :func:`footrule_hausdorff` — the Hausdorff
  metrics via the Theorem 5 characterization.
* :mod:`repro.metrics.profiles` — explicit profile vectors (test oracles).
* :mod:`repro.metrics.axioms` — metric / near-metric property checking.
* :mod:`repro.metrics.equivalence` — the Theorem 7 constant-factor bounds.
* :mod:`repro.metrics.related` — tau-b, Goodman–Kruskal gamma, Spearman
  rho, Baggerly footrule (the Related Work section, executable).
* :mod:`repro.metrics.normalized` — [0, 1]-scaled variants.
* :mod:`repro.metrics.topk_fks` — the varying-active-domain top-k scenario
  of Fagin–Kumar–Sivakumar (Appendix A.3).
* :mod:`repro.metrics.fast` / :mod:`repro.metrics.batch` — the array pair
  classifier :func:`pair_counts` switches to on large domains, and the
  all-pairs batch layer (:func:`pairwise_distance_matrix`); see
  ``docs/PERFORMANCE.md``.
* :mod:`repro.metrics.registry` — the metric plugin registry: every
  name-based dispatch surface resolves through it, and third-party
  distances plug in by registering a :class:`MetricPlugin`; see
  ``docs/METRICS.md``.
* :mod:`repro.metrics.plugins` — first-party plugins: the weighted
  Spearman footrule and the weighted top-difference distance.
"""

from repro.metrics.batch import (
    PairCountsMatrix,
    pair_counts_matrix,
    pairwise_distance_matrix,
)
from repro.metrics.fast import count_inversions_array
from repro.metrics.footrule import footrule, footrule_full
from repro.metrics.hausdorff import (
    footrule_hausdorff,
    hausdorff_witnesses,
    kendall_hausdorff,
    kendall_hausdorff_counts,
)
from repro.metrics.kendall import (
    kendall,
    kendall_full,
    pair_counts,
)
from repro.metrics.normalized import (
    normalized_footrule,
    normalized_footrule_hausdorff,
    normalized_kendall,
    normalized_kendall_hausdorff,
)
from repro.metrics.registry import (
    MetricPlugin,
    canonical_metric,
    get_metric,
    metric_names,
    register_metric,
    registered_metrics,
)
from repro.metrics.related import (
    UndefinedCorrelationError,
    goodman_kruskal_gamma,
    kendall_tau_a,
    kendall_tau_b,
    spearman_rho,
)

# Imported last: registers the first-party plugins (the built-ins
# registered when repro.metrics.batch was imported above).
from repro.metrics.plugins import (
    top_difference,
    top_difference_matrix,
    weighted_footrule,
    weighted_footrule_matrix,
)

__all__ = [
    "kendall",
    "kendall_full",
    "pair_counts",
    "count_inversions_array",
    "PairCountsMatrix",
    "pair_counts_matrix",
    "pairwise_distance_matrix",
    "footrule",
    "footrule_full",
    "kendall_hausdorff",
    "kendall_hausdorff_counts",
    "footrule_hausdorff",
    "hausdorff_witnesses",
    "normalized_kendall",
    "normalized_footrule",
    "normalized_kendall_hausdorff",
    "normalized_footrule_hausdorff",
    "kendall_tau_a",
    "kendall_tau_b",
    "goodman_kruskal_gamma",
    "spearman_rho",
    "UndefinedCorrelationError",
    "MetricPlugin",
    "register_metric",
    "registered_metrics",
    "metric_names",
    "canonical_metric",
    "get_metric",
    "weighted_footrule",
    "weighted_footrule_matrix",
    "top_difference",
    "top_difference_matrix",
]
