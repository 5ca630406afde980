"""SCC-condensed exact Kemeny: divide-and-conquer over the dominance digraph.

The ParCons observation (Andrieu et al.'s ``corankcolight``): build the
*dominance digraph* — edge ``x → y`` whenever fewer inputs rank ``y``
strictly ahead of ``x`` than the opposite — and
condense it into strongly-connected components. Between two distinct
SCCs every edge points the same way (two opposing edges would merge the
components through the paths inside them), so ordering the condensation
topologically attains the pairwise *minimum* on every cross-component
pair. The global objective therefore splits: concatenating an optimal
ranking of each component, components in condensation-topological order,
is a globally optimal full ranking (docs/THEORY.md, "SCC decomposition
soundness"). The NP-hard core shrinks from one exponential DP over ``n``
items to independent DPs over the component sizes — on sparse-conflict
profiles that turns instances refused outright by the monolithic solver
into milliseconds.

Components up to ``max_exact`` (default 16) items are solved exactly by
the vectorized Held–Karp DP; larger ones fall back to a Borda-seeded
adjacent-swap local search unless ``require_exact`` is set, and the
result's ``exact`` flag reports whether the global optimum is certified.
Everything runs on the integer counts of
:func:`~repro.aggregate.kemeny.pair_cost_array`, so the ranking, the
components and the certification are the same at every ``p``; ``p`` is
added only to the reported objective and lower bound (docs/THEORY.md,
"Kemeny p-invariance").
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro import obs
from repro.aggregate.kemeny import _held_karp, _pairwise_minimum, pair_cost_array
from repro.aggregate.objective import validate_max_exact, validate_penalty
from repro.core.partial_ranking import Item, PartialRanking
from repro.errors import AggregationError

__all__ = ["DecomposedResult", "kemeny_decomposed", "dominance_components"]

#: Default per-component Held–Karp cap (at most ``2^16`` DP states per
#: component).
_MAX_EXACT = 16


@dataclass(frozen=True, slots=True)
class DecomposedResult:
    """The decomposed solver's answer plus its certification evidence."""

    #: The aggregated full ranking (optimal iff ``exact``).
    ranking: PartialRanking
    #: Its ``K^(p)``-style objective value against the profile.
    objective: float
    #: True iff every component was solved by the exact DP, certifying
    #: ``ranking`` as a global optimum.
    exact: bool
    #: Items per strongly-connected component, condensation-topological
    #: order (the order they appear in ``ranking``).
    components: tuple[tuple[Item, ...], ...]
    #: ``sum_{pairs} min(D[x, y], D[y, x]) + p·T`` for the whole instance.
    lower_bound: float
    #: Total Held–Karp states evaluated (``sum 2^|C|`` over DP-solved
    #: components) — the work the condensation did *not* have to do is
    #: ``2^n`` minus this.
    dp_states: int

    @property
    def largest_component(self) -> int:
        return max((len(c) for c in self.components), default=0)


def dominance_components(
    ahead: npt.NDArray[np.int64],
) -> list[list[int]]:
    """SCCs of the dominance digraph, condensation-topological order.

    ``ahead`` is a :func:`~repro.aggregate.kemeny.pair_cost_array` count
    matrix; the digraph has an edge ``i → j`` iff ``ahead[i, j] <
    ahead[j, i]`` (equal counts produce no edge — either relative order
    is then pairwise optimal). The condensation is sorted by Kahn's
    algorithm with a min-heap keyed by each component's smallest member
    (vertices are canonical codec slots), so among simultaneously
    available components the one holding the canonically first item comes
    first — the order is a function of the count matrix alone. Each
    returned component lists its vertices ascending.
    """
    # imported here: csgraph costs ~0.3 s and ~33 MB on first import,
    # which `import repro.serve` should not pay
    from scipy.sparse.csgraph import connected_components

    dominates = ahead < ahead.T
    count, labels = connected_components(dominates, directed=True, connection="strong")
    members: list[list[int]] = [[] for _ in range(count)]
    for vertex, label in enumerate(labels.tolist()):
        members[label].append(vertex)
    # the condensation's edges, grouped by tail: successors of component c
    # are successors[starts[c] : starts[c + 1]]
    sources, targets = np.nonzero(dominates)
    between = np.zeros((count, count), dtype=bool)
    between[labels[sources], labels[targets]] = True
    np.fill_diagonal(between, False)
    tails, heads = np.nonzero(between)
    starts = np.searchsorted(tails, np.arange(count + 1)).tolist()
    successors = heads.tolist()
    indegree = np.bincount(heads, minlength=count).tolist()
    ready = [(members[label][0], label) for label in range(count) if indegree[label] == 0]
    heapq.heapify(ready)
    ordered: list[list[int]] = []
    while ready:
        _, label = heapq.heappop(ready)
        ordered.append(members[label])
        for successor in successors[starts[label] : starts[label + 1]]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(ready, (members[successor][0], successor))
    return ordered


def _borda_local_search(sub: npt.NDArray[np.int64]) -> list[int]:
    """Heuristic order for one oversized component (indices into ``sub``).

    Seeded by the generalized Borda order under the disagreement counts —
    ascending row sum, i.e. ascending number of inputs that rank the rest
    of the component ahead of the item — then improved by adjacent-swap
    passes (swap whenever the swapped order is strictly cheaper) to a
    local optimum, the local-Kemenization move of Dwork et al. [8].
    Deterministic: the seed breaks ties by index and each pass scans left
    to right.
    """
    size = sub.shape[0]
    row_totals = sub.sum(axis=1).tolist()
    counts = sub.tolist()
    order = sorted(range(size), key=lambda i: (row_totals[i], i))
    for _ in range(size):
        changed = False
        for i in range(size - 1):
            ahead, behind = order[i], order[i + 1]
            if counts[behind][ahead] < counts[ahead][behind]:
                order[i], order[i + 1] = behind, ahead
                changed = True
        if not changed:
            break
    return order


def kemeny_decomposed(
    rankings: Sequence[PartialRanking],
    p: float = 0.5,
    *,
    max_exact: int = _MAX_EXACT,
    require_exact: bool = False,
) -> DecomposedResult:
    """Solve the ``K^(p)`` aggregation by SCC divide-and-conquer.

    Builds the pair-count matrix once, condenses the dominance digraph,
    and solves each strongly-connected component independently on a slice
    of that one matrix: the exact Held–Karp DP up to ``max_exact`` items,
    a Borda-seeded local search above it. ``require_exact=True`` raises
    :class:`AggregationError` instead of falling back, guaranteeing the
    returned ranking is a certified global optimum (``exact=True``).

    The concatenation of per-component solutions in condensation order is
    globally optimal whenever every component is solved exactly — see the
    soundness statement in docs/THEORY.md. ``max_exact`` must be an
    ``int`` ≥ 1 (not a bool), as for :func:`~repro.aggregate.minmax.aggregate`;
    anything else raises :class:`AggregationError`, as does ``p`` outside
    [0, 1]. The solve never sees ``p``: the objective is the integer
    optimum plus ``p·T``.
    """
    validate_max_exact(max_exact)
    validate_penalty(p)
    items, ahead, ties = pair_cost_array(rankings)
    n = len(items)
    with obs.trace("aggregate.kemeny.decompose", n=n):
        components = dominance_components(ahead)
        largest = max(len(component) for component in components)
        obs.add("kemeny.scc.components", len(components))
        obs.add("kemeny.scc.largest", largest)
        obs.set_attr("largest", largest)

        sequence: list[int] = []
        dp_states = 0
        exact = True
        for component in components:
            size = len(component)
            if size == 1:
                sequence.extend(component)
                continue
            idx = np.asarray(component)
            sub = ahead[np.ix_(idx, idx)]
            if size <= max_exact:
                dp_states += 1 << size
                local, _ = _held_karp(sub, size)
            elif require_exact:
                raise AggregationError(
                    f"exact Kemeny refused: a strongly-connected component "
                    f"of {size} items exceeds the DP cap of {max_exact}; "
                    "drop require_exact for a heuristic fallback or use "
                    "median aggregation"
                )
            else:
                exact = False
                local = _borda_local_search(sub)
            sequence.extend(component[i] for i in local)
        if dp_states:
            obs.add("kemeny.dp_states", dp_states)

        seq = np.asarray(sequence)
        placed = ahead[np.ix_(seq, seq)]
        upper_i, upper_j = np.triu_indices(n, k=1)
        disagreements = int(placed[upper_i, upper_j].sum())
        ranking = PartialRanking.from_sequence([items[x] for x in sequence])
        return DecomposedResult(
            ranking=ranking,
            objective=float(disagreements) + p * ties,
            exact=exact,
            components=tuple(
                tuple(items[x] for x in component) for component in components
            ),
            lower_bound=float(_pairwise_minimum(ahead)) + p * ties,
            dp_states=dp_states,
        )
