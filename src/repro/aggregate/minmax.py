"""Registry-aware aggregation with median and minmax objectives.

The paper aggregates by the *median* rule: minimize the total distance
``sum_i d(candidate, sigma_i)``. The egalitarian alternative (multiclass
minmax aggregation, arXiv 1701.08305) minimizes the *worst* voter's
distance ``max_i d(candidate, sigma_i)`` instead — no input ranking is
left arbitrarily far from the consensus. :func:`aggregate` solves either
objective under **any metric registered in the plugin registry**
(built-ins and plugins alike), searching full rankings of the common
domain:

* domains up to ``max_exact`` items are solved *exactly*: every full
  ranking is scored, in canonical-lexicographic order (deterministic
  tie-breaking: the first optimum wins), certifying ``exact=True``;
* larger domains fall back to a Borda-seeded adjacent-swap local search
  — the same certification-flag convention as
  :class:`~repro.aggregate.decompose.DecomposedResult`: the result
  carries ``exact=False`` and ``require_exact=True`` raises instead.

Candidates are scored as arrays, not one ranking at a time. The n! full
rankings form a small-int table (built chunk by chunk, each chunk capped
at about ``_CHUNK_ELEMENTS`` intermediate elements), and the metric's
registry ``candidate_scorer`` turns a chunk into its (candidates ×
voters) distance matrix in one pass. Metrics without that hook, and
custom callables, fill the same matrix with scalar calls, so there is
one selection path. Every hook entry equals the scalar kernel bit for
bit; the scalar enumerator lives on as the ``oracle:aggregate-exhaustive``
reference in :mod:`repro.verify.reference`.

Minmax local search ranks candidates by the tuple ``(max, total)`` — the
total objective breaks plateaus the flat ``max`` objective cannot see,
while never overriding a strict minmax improvement. See docs/THEORY.md,
"Minmax (egalitarian) aggregation", for why minmax and median optima
genuinely differ and how the 2-approximation bound carries over.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import permutations
from math import factorial
from typing import Any

import numpy as np
import numpy.typing as npt

from repro import obs
from repro.aggregate.objective import validate_max_exact, validate_profile
from repro.core.codec import DomainCodec
from repro.core.partial_ranking import Item, PartialRanking
from repro.errors import AggregationError
from repro.metrics.batch import position_matrix  # also registers the built-in metrics
from repro.metrics.registry import CandidateScore, get_metric

__all__ = ["AggregateResult", "aggregate", "OBJECTIVES", "DEFAULT_MAX_EXACT"]

#: Supported objective kinds.
OBJECTIVES = ("median", "minmax")

#: Exhaustive-search ceiling: 7! = 5040 candidate rankings per call. The
#: array scorers take milliseconds there; beyond it n! outgrows any
#: interactive budget (10! is 720× more), so larger domains go to the
#: local search unless the caller raises the cap.
DEFAULT_MAX_EXACT = 7

#: Upper bound on the elements of any per-chunk intermediate: a chunk of
#: N candidates over n items and m voters builds arrays of at most about
#: N·n·max(n, m) elements (the Kendall precedence indicators, the L1 and
#: F_Haus gaps).
_CHUNK_ELEMENTS = 1 << 22

_MetricFn = Callable[[PartialRanking, PartialRanking], float]


@dataclass(frozen=True, slots=True)
class AggregateResult:
    """An aggregated ranking plus its certification evidence."""

    #: The aggregated full ranking (optimal over full rankings iff
    #: ``exact``).
    ranking: PartialRanking
    #: The achieved objective value (total for median, max for minmax).
    objective: float
    #: Which objective was optimized: ``"median"`` or ``"minmax"``.
    kind: str
    #: Canonical metric name (or the callable's ``__name__``).
    metric: str
    #: True iff the search was exhaustive, certifying ``ranking`` as
    #: optimal among full rankings of the domain.
    exact: bool


def _full(order: Sequence[Item]) -> PartialRanking:
    return PartialRanking([item] for item in order)


def _scalar_scorer(
    metric_fn: _MetricFn, rankings: Sequence[PartialRanking], items: Sequence[Item]
) -> CandidateScore:
    """The hook's contract met by scalar calls, candidate by candidate."""

    def score(ranks: npt.NDArray[np.integer[Any]]) -> npt.NDArray[np.float64]:
        matrix = np.empty((len(ranks), len(rankings)), dtype=np.float64)
        for c, order in enumerate(np.argsort(ranks, axis=1)):
            candidate = _full([items[slot] for slot in order])
            for v, sigma in enumerate(rankings):
                matrix[c, v] = metric_fn(candidate, sigma)
        return matrix

    return score


def _resolve_scorer(
    metric: str | _MetricFn, rankings: Sequence[PartialRanking], items: Sequence[Item]
) -> tuple[str, CandidateScore]:
    """(metric name, candidate scorer) for a registry name or a callable."""
    if isinstance(metric, str):
        plugin = get_metric(metric)
        if plugin.candidate_scorer is not None:
            return plugin.name, plugin.candidate_scorer(rankings)
        return plugin.name, _scalar_scorer(plugin.scalar, rankings, items)
    if callable(metric):
        name = getattr(metric, "__name__", "custom")
        return name, _scalar_scorer(metric, rankings, items)
    raise AggregationError(
        f"metric must be a registered metric name or a callable, got {metric!r}"
    )


def aggregate(
    rankings: Sequence[PartialRanking],
    objective: str = "median",
    metric: str | _MetricFn = "f_prof",
    *,
    max_exact: int = DEFAULT_MAX_EXACT,
    require_exact: bool = False,
) -> AggregateResult:
    """Aggregate a profile under a named objective and registry metric.

    ``objective`` is ``"median"`` (minimize the total distance) or
    ``"minmax"`` (minimize the worst voter's distance). ``metric`` is any
    spelling registered in the metric plugin registry — unknown names
    raise the registry's shared :class:`~repro.errors.UnknownMetricError`
    — or a custom scalar callable; anything else, and a distance that is
    NaN or infinite, raises :class:`AggregationError`. ``K^(p)`` runs at
    its default ``p = 1/2``.

    Domains of at most ``max_exact`` items (an ``int`` ≥ 1) are solved
    exhaustively (``exact=True``); larger domains use a Borda-seeded
    adjacent-swap local search unless ``require_exact`` is set, in which
    case an :class:`AggregationError` is raised — the
    :mod:`~repro.aggregate.decompose` certification convention.
    """
    if objective not in OBJECTIVES:
        raise AggregationError(
            f"unknown objective {objective!r}; expected one of {list(OBJECTIVES)}"
        )
    validate_max_exact(max_exact)
    validate_profile(rankings)
    items = DomainCodec.for_profile(rankings).items
    metric_name, score = _resolve_scorer(metric, rankings, items)
    n = len(items)

    with obs.trace(
        "aggregate.minmax.search", n=n, m=len(rankings), kind=objective
    ):
        if n <= max_exact:
            search = _search_exhaustive
            exact = True
        elif require_exact:
            raise AggregationError(
                f"exact {objective} aggregation refused: {n} items exceed "
                f"the exhaustive-search cap of {max_exact}; drop "
                "require_exact for the Borda-seeded local search"
            )
        else:
            search = _search_local
            exact = False
        slots, worst, total, candidates = search(
            _Scoring(score, metric_name, objective), rankings, n
        )
        obs.add("aggregate.minmax.candidates", candidates)

    return AggregateResult(
        ranking=_full([items[slot] for slot in slots]),
        objective=worst if objective == "minmax" else total,
        kind=objective,
        metric=metric_name,
        exact=exact,
    )


@dataclass(frozen=True, slots=True)
class _Scoring:
    """Scores candidate chunks and picks each chunk's best row."""

    score: CandidateScore
    metric: str
    kind: str

    def best(
        self, orders: npt.NDArray[np.integer[Any]]
    ) -> tuple[tuple[float, float], int, float, float]:
        """``(key, row, worst, total)`` of the first row minimizing the key.

        ``orders[c]`` lists candidate ``c``'s slots from first to last.
        The key is ``(primary, secondary)``: ``(worst, total)`` for
        minmax, ``(total, worst)`` for median. Totals add the voters'
        distances left to right and the worst starts at 0.0, exactly as
        a scalar loop over the voters would.
        """
        count, n = orders.shape
        ranks = np.empty_like(orders)
        ranks[np.arange(count)[:, None], orders] = np.arange(1, n + 1)
        distances = self.score(ranks)
        if not np.isfinite(distances).all():
            raise AggregationError(
                f"metric {self.metric!r} returned a non-finite distance "
                "(NaN or infinity); aggregation needs finite distances"
            )
        total = np.zeros(count, dtype=np.float64)
        worst = np.zeros(count, dtype=np.float64)
        for column in distances.T:
            total += column
            worst = np.where(column > worst, column, worst)
        primary, secondary = (worst, total) if self.kind == "minmax" else (total, worst)
        ties = np.flatnonzero(primary == primary.min())
        row = int(ties[np.argmin(secondary[ties])])
        key = (float(primary[row]), float(secondary[row]))
        return key, row, float(worst[row]), float(total[row])


def _permutation_table(k: int) -> npt.NDArray[np.int8]:
    """All k! permutations of ``range(k)``, one per row, lexicographic.

    Row order matches :func:`itertools.permutations`: block ``f`` holds
    the rows starting with ``f``, followed by the (k−1)-table relabelled
    to skip ``f`` — a monotone relabelling, so each block stays sorted.
    """
    table = np.zeros((1, 0), dtype=np.int8)
    for size in range(1, k + 1):
        rows = len(table)
        grown = np.empty((rows * size, size), dtype=np.int8)
        for first in range(size):
            block = grown[first * rows : (first + 1) * rows]
            block[:, 0] = first
            block[:, 1:] = table + (table >= first)
        table = grown
    return table


def _candidate_chunks(n: int, m: int) -> Iterator[npt.NDArray[np.int8]]:
    """Every full ranking of n slots, lexicographic, in bounded chunks.

    A chunk is all rankings sharing one prefix: the longest suffix whose
    s! rows keep ``rows · n · max(n, m)`` within ``_CHUNK_ELEMENTS``
    (at least one row). The prefixes run in lexicographic order, so the
    concatenated chunks list the rankings in ``permutations`` order.
    """
    width = n * max(n, m)
    suffix = n
    while suffix > 1 and factorial(suffix) * width > _CHUNK_ELEMENTS:
        suffix -= 1
    tail = _permutation_table(suffix)
    head = n - suffix
    for prefix in permutations(range(n), head):
        rest = np.array(sorted(set(range(n)) - set(prefix)), dtype=np.int8)
        chunk = np.empty((len(tail), n), dtype=np.int8)
        chunk[:, :head] = prefix
        chunk[:, head:] = rest[tail]
        yield chunk


def _search_exhaustive(
    scoring: _Scoring, rankings: Sequence[PartialRanking], n: int
) -> tuple[tuple[int, ...], float, float, int]:
    """The optimal full ranking over all n! candidates; deterministic.

    Candidates run in lexicographic order of the canonical slot order,
    and a later chunk replaces the incumbent only on a *strict*
    improvement, so ties resolve to the canonically-first optimum.
    """
    best: tuple[tuple[float, float], tuple[int, ...], float, float] | None = None
    for orders in _candidate_chunks(n, len(rankings)):
        key, row, worst, total = scoring.best(orders)
        if best is None or key < best[0]:
            best = (key, tuple(int(slot) for slot in orders[row]), worst, total)
    assert best is not None  # a validated profile has a nonempty domain
    return best[1], best[2], best[3], factorial(n)


def _borda_seed(rankings: Sequence[PartialRanking], n: int) -> list[int]:
    """Slots by ascending sum of positions across voters, slot tie-break."""
    position_totals = np.zeros(n, dtype=np.float64)
    for positions in position_matrix(rankings):
        position_totals += positions
    return sorted(range(n), key=lambda slot: (position_totals[slot], slot))


def _search_local(
    scoring: _Scoring, rankings: Sequence[PartialRanking], n: int
) -> tuple[tuple[int, ...], float, float, int]:
    """Borda seed plus adjacent-swap descent on the objective tuple.

    Each pass scans left to right and keeps a swap only when the full
    objective tuple strictly improves (the local-Kemenization move of
    Dwork et al., driven by the global objective instead of pair costs).
    Deterministic: seed tie-breaks canonically, passes cap at ``n``.
    """
    order = _borda_seed(rankings, n)

    def evaluate() -> tuple[tuple[float, float], float, float]:
        key, _, worst, total = scoring.best(np.array([order], dtype=np.int64))
        return key, worst, total

    best_key, worst, total = evaluate()
    candidates = 1
    for _ in range(n):
        changed = False
        for i in range(n - 1):
            order[i], order[i + 1] = order[i + 1], order[i]
            key, swapped_worst, swapped_total = evaluate()
            candidates += 1
            if key < best_key:
                best_key = key
                worst, total = swapped_worst, swapped_total
                changed = True
            else:
                order[i], order[i + 1] = order[i + 1], order[i]
        if not changed:
            break
    return tuple(order), worst, total, candidates
