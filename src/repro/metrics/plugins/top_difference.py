"""The weighted top-difference distance (arXiv 2403.15198), as a plugin.

Two rankings are close when they agree about *who is at the top*. The
weighted top-difference distance makes that precise: for each prefix
depth ``k`` compare the top-k sets and charge the symmetric difference,

    ``TD(sigma, tau) = sum_{k=1}^{n-1} alpha_k |top_k(sigma) DELTA top_k(tau)|``,

with positive depth weights ``alpha_k`` (harmonic by default, so
disagreements near the top dominate). On partial rankings an item
belongs to ``top_k`` when at least half of its bucket fits into the
first ``k`` slots — concretely ``ceil(sigma(x)) <= k``, where
``sigma(x)`` is the half-integer bucket position.

**Prefix-sum collapse.** Item ``x`` flips membership exactly for depths
between its two ceilings, so with ``A`` the prefix sums of ``alpha``
(``A_0 = 0``):

    ``TD(sigma, tau) = sum_x |A[ceil(sigma(x)) - 1] - A[ceil(tau(x)) - 1]|``

— an O(n) kernel after one cumulative sum; the O(n²) loop over depths is
kept as the naive oracle and the verify harness asserts bit-for-bit
agreement. The ceiling vector determines the bucket order uniquely
(consecutive bucket ceilings are strictly increasing), so with strictly
positive ``alpha`` this is a genuine metric on partial rankings (see
THEORY.md, "Top-difference distance").

**Exactness.** ``alpha`` is quantized to the dyadic ``2^-20`` grid like
the weighted-footrule weights, so every prefix sum, |difference|, and
accumulation is exact in float64 and all kernel/summation orders agree
bit for bit.
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
    "ALPHA_SCALE",
    "harmonic_alphas",
    "alpha_prefix",
    "top_difference",
    "top_difference_naive",
    "top_difference_matrix",
    "max_top_difference",
    "TOP_DIFFERENCE_PLUGIN",
]

#: Depth weights are quantized to integer multiples of ``1/ALPHA_SCALE``.
ALPHA_SCALE = 1 << 20


def _alpha_units(n: int, alphas: npt.ArrayLike | None) -> npt.NDArray[np.int64]:
    """Depth weights ``alpha_1 .. alpha_{n-1}`` as positive integer units."""
    depths = max(n - 1, 0)
    if alphas is None:
        a = np.asarray(ALPHA_SCALE, dtype=np.float64) / np.arange(
            1, depths + 1, dtype=np.float64
        )
    else:
        a = np.asarray(alphas, dtype=np.float64) * ALPHA_SCALE
        if a.shape != (depths,):
            raise InvalidRankingError(
                f"alphas must have shape ({depths},), got {a.shape}"
            )
        if not np.all(np.isfinite(a)) or not np.all(a > 0):
            raise InvalidRankingError("alphas must be finite and positive")
    units = np.maximum(np.rint(a), 1.0).astype(np.int64)
    if depths and n * int(units.sum()) >= 2**53:
        raise InvalidRankingError(
            "alphas too large for exact float64 arithmetic; scale them down"
        )
    return units


def harmonic_alphas(n: int) -> npt.NDArray[np.float64]:
    """The default depth weights ``alpha_k ~ 1/k``, dyadically quantized."""
    return _alpha_units(n, None).astype(np.float64) / ALPHA_SCALE


def alpha_prefix(n: int, alphas: npt.ArrayLike | None = None) -> npt.NDArray[np.float64]:
    """``A`` with ``A[j] = alpha_1 + ... + alpha_j`` for ``j = 0 .. n-1``.

    Item ``x`` with ceiling ``c`` contributes through ``A[c - 1]``; all
    entries are exact dyadic rationals.
    """
    units = _alpha_units(n, alphas)
    prefix = np.zeros(max(n, 0), dtype=np.int64)
    if n > 1:
        prefix[1:] = np.cumsum(units)
    return prefix.astype(np.float64) / ALPHA_SCALE


def _ceil_position(position: float) -> int:
    """``ceil`` of a half-integer position, exactly, via doubled integers."""
    doubled = int(2 * position)
    return (doubled + 1) // 2


@checked_metric()
def top_difference(
    sigma: PartialRanking,
    tau: PartialRanking,
    alphas: npt.ArrayLike | None = None,
) -> float:
    """The weighted top-difference ``TD`` between two partial rankings. O(n).

    ``alphas`` are the per-depth weights (harmonic by default),
    quantized dyadically — see the module docstring for the exactness
    contract.
    """
    if sigma.domain != tau.domain:
        raise DomainMismatchError(
            f"rankings must share a domain (sizes {len(sigma)} and {len(tau)})"
        )
    table = alpha_prefix(len(sigma), alphas)
    if not obs.enabled():
        return float(
            sum(
                abs(table[_ceil_position(sigma[x]) - 1] - table[_ceil_position(tau[x]) - 1])
                for x in sigma.domain
            )
        )
    with obs.trace("metrics.plugins.top_difference", n=len(sigma)):
        obs.add("metrics.plugins.top_difference.items", len(sigma))
        return float(
            sum(
                abs(table[_ceil_position(sigma[x]) - 1] - table[_ceil_position(tau[x]) - 1])
                for x in sigma.domain
            )
        )


def top_difference_naive(
    sigma: PartialRanking,
    tau: PartialRanking,
    alphas: npt.ArrayLike | None = None,
) -> float:
    """O(n²) plain-Python reference: literally sum over prefix depths.

    For every depth ``k`` the top-k sets are materialized from the
    ceiling rule and the symmetric difference is counted — no prefix
    sums, no arrays. Accumulates in exact integer units, so it agrees
    with the collapsed kernels bit for bit. Used as the auto-contributed
    verify oracle for this plugin.
    """
    if sigma.domain != tau.domain:
        raise DomainMismatchError("rankings must share a domain")
    n = len(sigma)
    if alphas is None:
        units = [max(1, round(ALPHA_SCALE / k)) for k in range(1, n)]
    else:
        units = [int(u) for u in _alpha_units(n, alphas)]
    ceil_sigma = {x: _ceil_position(sigma[x]) for x in sigma.domain}
    ceil_tau = {x: _ceil_position(tau[x]) for x in tau.domain}
    total_units = 0
    for k in range(1, n):
        top_sigma = {x for x, c in ceil_sigma.items() if c <= k}
        top_tau = {x for x, c in ceil_tau.items() if c <= k}
        total_units += units[k - 1] * len(top_sigma ^ top_tau)
    return total_units / ALPHA_SCALE


def _ceiling_values(
    positions: npt.NDArray[np.float64], table: npt.NDArray[np.float64]
) -> npt.NDArray[np.float64]:
    """``A[ceil(pos) - 1]`` of half-integer positions, via doubled integers."""
    return table[((2.0 * positions).astype(np.int64) + 1) // 2 - 1]


def _default_values(positions: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """``A[ceil(pos) - 1]`` (default alphas); the last axis is the domain."""
    return _ceiling_values(positions, alpha_prefix(positions.shape[-1]))


def top_difference_matrix(
    profile: Sequence[PartialRanking],
    *,
    alphas: npt.ArrayLike | None = None,
    p: float = 0.5,
    jobs: int | None = None,
) -> npt.NDArray[np.float64]:
    """The m×m top-difference matrix of a profile (the batch kernel).

    One prefix-sum table and one ``(m, n)`` ceiling-value matrix serve
    the whole profile; pairs reduce to vectorized L1 gaps. The per-pair
    scalar path re-derives the table and the ceilings per call — the gap
    the ≥5× batch bar in ``BENCH_PLUGINS.json`` measures. ``p`` and
    ``jobs`` are accepted for dispatch uniformity and ignored: the shared
    L1 kernel is serial (blocked row broadcasts), and exact dyadic
    sums make every order agree bit for bit.
    """
    positions = position_matrix(profile)
    m, n = positions.shape
    table = alpha_prefix(n, alphas)
    value_rows = _ceiling_values(positions, table)
    if not obs.enabled():
        return _l1_matrix(value_rows)
    with obs.trace("metrics.plugins.top_difference_matrix", m=m, n=n):
        obs.add("metrics.plugins.top_difference.pairs", pairs(m))
        return _l1_matrix(value_rows)


def max_top_difference(n: int) -> float:
    """Proven upper bound on ``TD`` (default weights) over an n-item domain.

    Every ceiling value lies in ``[A_0, A_{n-1}] = [0, alpha_1 + ... +
    alpha_{n-1}]``, so ``TD <= n * A_{n-1}`` term by term. The supremum
    is not attained at a full ranking and its reverse (disjoint leading
    buckets can beat it), so this normalizer guarantees the [0, 1] scale
    without claiming tightness; the test suite verifies the bound
    dominates the exhaustive maximum on small domains.
    """
    if n == 0:
        return 0.0
    table = alpha_prefix(n)
    return float(n * table[-1])


TOP_DIFFERENCE_PLUGIN = register_metric(
    MetricPlugin(
        name="top_difference",
        aliases=("td", "top_diff"),
        citation="weighted top-difference distance (arXiv 2403.15198)",
        scalar=top_difference,
        batch=top_difference_matrix,
        oracle=top_difference_naive,
        axiom_class="metric",
        p_range=None,
        max_value=max_top_difference,
        candidate_scorer=_l1_candidate_scorer(_default_values),
    )
)
