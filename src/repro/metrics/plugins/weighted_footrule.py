"""Position-weighted Spearman footrule (arXiv 1207.2541), as a plugin.

The classical footrule treats a swap at the top of a ranking the same as
a swap at the bottom. The weighted footrule of Kumar–Vassilvitskii-style
position weighting fixes that: each integer rank ``k`` carries a positive
weight ``w_k`` (by default harmonic, ``w_k ~ 1/k``), ranks are mapped
through the cumulative transform ``W(k) = w_1 + ... + w_k``, and the
distance is the L1 gap of the transformed positions:

    ``WF(sigma, tau) = sum_x |W(sigma(x)) - W(tau(x))|``.

Partial rankings place tied buckets at half-integer positions, so ``W``
is extended to the half grid by midpoint interpolation:
``W(k + 1/2) = (W(k) + W(k + 1)) / 2``. ``W`` is strictly increasing
(weights are positive), so the transform is injective on the half grid
and ``WF`` inherits the metric axioms from L1 — a genuine metric on
partial rankings (see THEORY.md, "Weighted footrule regularity").

**Exactness.** Weights are quantized to the dyadic grid ``2^-20`` (and
clamped positive), making every table entry, every |difference|, and
every partial sum an exact multiple of ``2^-21`` well below the 2^53
integer ceiling. Every summation order therefore yields the *same*
float64 — the scalar kernel, the vectorized batch kernel, and the
plain-Python oracle agree bit for bit, and the verify harness asserts it
with ``==``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from repro import obs
from repro.analysis.contracts import checked_metric
from repro.core.partial_ranking import PartialRanking
from repro.errors import DomainMismatchError, InvalidRankingError
from repro._util import pairs
from repro.metrics.batch import _l1_candidate_scorer, _l1_matrix, position_matrix
from repro.metrics.registry import MetricPlugin, register_metric

__all__ = [
    "WEIGHT_SCALE",
    "harmonic_weights",
    "weight_table",
    "weighted_footrule",
    "weighted_footrule_naive",
    "weighted_footrule_matrix",
    "max_weighted_footrule",
    "WEIGHTED_FOOTRULE_PLUGIN",
]

#: Weights are quantized to integer multiples of ``1 / WEIGHT_SCALE``
#: (dyadic rationals), the exactness backbone of this module.
WEIGHT_SCALE = 1 << 20


def _weight_units(n: int, weights: npt.ArrayLike | None) -> npt.NDArray[np.int64]:
    """Per-rank weights as positive integer units of ``1/WEIGHT_SCALE``.

    ``None`` selects the harmonic default ``w_k ~ 1/k``. Explicit weights
    are validated (length n, finite, positive) and quantized to the grid;
    the quantized profile must keep every distance below ``2^53`` units
    so float64 arithmetic stays exact.
    """
    if weights is None:
        w = np.asarray(WEIGHT_SCALE, dtype=np.float64) / np.arange(
            1, n + 1, dtype=np.float64
        )
    else:
        w = np.asarray(weights, dtype=np.float64) * WEIGHT_SCALE
        if w.shape != (n,):
            raise InvalidRankingError(
                f"weights must have shape ({n},), got {w.shape}"
            )
        if not np.all(np.isfinite(w)) or not np.all(w > 0):
            raise InvalidRankingError("weights must be finite and positive")
    units = np.maximum(np.rint(w), 1.0).astype(np.int64)
    if n and 2 * n * int(units.sum()) >= 2**53:
        raise InvalidRankingError(
            "weights too large for exact float64 arithmetic; scale them down"
        )
    return units


def harmonic_weights(n: int) -> npt.NDArray[np.float64]:
    """The default weights ``w_k ~ 1/k``, quantized to the dyadic grid."""
    return _weight_units(n, None).astype(np.float64) / WEIGHT_SCALE


def weight_table(n: int, weights: npt.ArrayLike | None = None) -> npt.NDArray[np.float64]:
    """``W`` tabulated over the half grid: index ``2*pos - 2`` for position ``pos``.

    Even slots hold ``W(k) = w_1 + ... + w_k`` for integer ranks, odd
    slots the midpoints ``(W(k) + W(k+1)) / 2`` for the half-integer
    positions tied buckets occupy. Built in integer half-units, so every
    entry is exact.
    """
    units = _weight_units(n, weights)
    cum2 = 2 * np.cumsum(units)  # W in double units: even, exact
    table2 = np.empty(max(2 * n - 1, 0), dtype=np.int64)
    if n:
        table2[0::2] = cum2
        table2[1::2] = (cum2[:-1] + cum2[1:]) // 2
    return table2.astype(np.float64) / (2 * WEIGHT_SCALE)


def _value_rows(
    positions: npt.NDArray[np.float64], table: npt.NDArray[np.float64]
) -> npt.NDArray[np.float64]:
    """Map half-integer positions through the tabulated transform."""
    return table[(2.0 * positions).astype(np.int64) - 2]


def _default_values(positions: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """``W`` (default weights) of positions whose last axis is the domain."""
    return _value_rows(positions, weight_table(positions.shape[-1]))


@checked_metric()
def weighted_footrule(
    sigma: PartialRanking,
    tau: PartialRanking,
    weights: npt.ArrayLike | None = None,
) -> float:
    """The weighted footrule ``WF`` between two partial rankings. O(n).

    ``weights`` is the per-rank weight vector (harmonic by default),
    quantized dyadically — see the module docstring for the exactness
    contract.
    """
    if sigma.domain != tau.domain:
        raise DomainMismatchError(
            f"rankings must share a domain (sizes {len(sigma)} and {len(tau)})"
        )
    table = weight_table(len(sigma), weights)
    if not obs.enabled():
        return float(
            sum(abs(table[int(2 * sigma[x]) - 2] - table[int(2 * tau[x]) - 2]) for x in sigma.domain)
        )
    with obs.trace("metrics.plugins.weighted_footrule", n=len(sigma)):
        obs.add("metrics.plugins.weighted_footrule.items", len(sigma))
        return float(
            sum(abs(table[int(2 * sigma[x]) - 2] - table[int(2 * tau[x]) - 2]) for x in sigma.domain)
        )


def weighted_footrule_naive(
    sigma: PartialRanking,
    tau: PartialRanking,
    weights: npt.ArrayLike | None = None,
) -> float:
    """Plain-Python reference: rebuild ``W`` by hand in integer units.

    Deliberately shares no array code with the kernels — a Python loop
    over ranks accumulates the cumulative transform in exact integer
    double-units, and the distance is a Python ``sum``. Used as the
    auto-contributed verify oracle for this plugin.
    """
    if sigma.domain != tau.domain:
        raise DomainMismatchError("rankings must share a domain")
    n = len(sigma)
    if weights is None:
        # Python round() and np.rint share half-to-even semantics and the
        # division is the same IEEE float64 op, so these units match
        # _weight_units exactly without sharing its code.
        units = [max(1, round(WEIGHT_SCALE / k)) for k in range(1, n + 1)]
    else:
        units = [int(u) for u in _weight_units(n, weights)]
    cums: list[int] = []
    running = 0
    for u in units:
        running += u
        cums.append(running)
    # W over the half grid in exact integer double-units: even slots
    # hold 2*W(k), odd slots W(k) + W(k+1) (the midpoint, doubled)
    table2: list[int] = []
    for k in range(n):
        table2.append(2 * cums[k])
        if k + 1 < n:
            table2.append(cums[k] + cums[k + 1])
    total2 = sum(
        abs(table2[int(2 * sigma[x]) - 2] - table2[int(2 * tau[x]) - 2])
        for x in sigma.domain
    )
    return total2 / (2 * WEIGHT_SCALE)


def weighted_footrule_matrix(
    profile: Sequence[PartialRanking],
    *,
    weights: npt.ArrayLike | None = None,
    p: float = 0.5,
    jobs: int | None = None,
) -> npt.NDArray[np.float64]:
    """The m×m weighted-footrule matrix of a profile (the batch kernel).

    One cumulative-sum weight table and one ``(m, n)`` transformed-value
    matrix are built for the whole profile, then pairs reduce to
    vectorized L1 gaps — the per-pair scalar path rebuilds the table and
    walks the domain in Python every call, which is what the ≥5× batch
    bar in ``BENCH_PLUGINS.json`` measures. ``p`` and ``jobs`` are
    accepted for dispatch uniformity and ignored: the shared L1 kernel
    is serial (blocked row broadcasts), and every summation order
    is exact (dyadic units), so it equals the per-pair sums bit for bit.
    """
    positions = position_matrix(profile)
    m, n = positions.shape
    table = weight_table(n, weights)
    value_rows = _value_rows(positions, table)
    if not obs.enabled():
        return _l1_matrix(value_rows)
    with obs.trace("metrics.plugins.weighted_footrule_matrix", m=m, n=n):
        obs.add("metrics.plugins.weighted_footrule.pairs", pairs(m))
        return _l1_matrix(value_rows)


def max_weighted_footrule(n: int) -> float:
    """Proven upper bound on ``WF`` (default weights) over an n-item domain.

    Every transformed position lies in ``[W(1), W(n)]``, so
    ``WF <= n * (W(n) - W(1))`` — term by term. Unlike the unweighted
    footrule, the supremum is **not** attained at a full ranking and its
    reverse (tied buckets can exceed that pair under non-uniform
    weights), so this normalizer guarantees the [0, 1] scale without
    claiming tightness; the test suite verifies the bound dominates the
    exhaustive maximum on small domains.
    """
    table = weight_table(n)
    if n == 0:
        return 0.0
    integer_values = table[0::2]
    return float(n * (integer_values[-1] - integer_values[0]))


WEIGHTED_FOOTRULE_PLUGIN = register_metric(
    MetricPlugin(
        name="weighted_footrule",
        aliases=("wf", "weighted_f"),
        citation="position-weighted Spearman footrule (arXiv 1207.2541)",
        scalar=weighted_footrule,
        batch=weighted_footrule_matrix,
        oracle=weighted_footrule_naive,
        axiom_class="metric",
        p_range=None,
        max_value=max_weighted_footrule,
        candidate_scorer=_l1_candidate_scorer(_default_values),
    )
)
