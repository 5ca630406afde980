"""SCC-condensed exact Kemeny: divide-and-conquer over the dominance digraph.

The ParCons observation (Andrieu et al.'s ``corankcolight``): build the
*dominance digraph* — edge ``x → y`` whenever placing ``x`` before ``y``
is strictly cheaper than the opposite under the pair-cost matrix — and
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
Penalty vectors plug in through
:class:`~repro.aggregate.scoring.ScoringScheme` exactly as in
:mod:`repro.aggregate.kemeny`.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro import obs
from repro.aggregate.kemeny import (
    _held_karp,
    _lower_bound_from_cost,
    pair_cost_array,
)
from repro.aggregate.objective import validate_max_exact
from repro.aggregate.scoring import ScoringScheme
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
    #: ``sum_{pairs} min(cost(x<y), cost(y<x))`` for the whole instance.
    lower_bound: float
    #: Total Held–Karp states evaluated (``sum 2^|C|`` over DP-solved
    #: components) — the work the condensation did *not* have to do is
    #: ``2^n`` minus this.
    dp_states: int

    @property
    def largest_component(self) -> int:
        return max((len(c) for c in self.components), default=0)


def _strongly_connected(adjacency: list[list[int]]) -> list[list[int]]:
    """Tarjan's SCC algorithm, iterative (no recursion-depth ceiling).

    The recursive algorithm's post-call low-link update is modeled with an
    explicit work stack of ``(vertex, next-neighbor-index)`` frames: a
    frame is re-examined after each child completes, folding the child's
    low link in. Components come out in reverse condensation-topological
    order; callers wanting a canonical forward order should use
    :func:`_condensation_order` rather than relying on that.
    """
    n = len(adjacency)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            vertex, edge_pos = work.pop()
            if edge_pos == 0:
                index[vertex] = low[vertex] = counter
                counter += 1
                stack.append(vertex)
                on_stack[vertex] = True
            advanced = False
            neighbors = adjacency[vertex]
            while edge_pos < len(neighbors):
                successor = neighbors[edge_pos]
                edge_pos += 1
                if index[successor] == -1:
                    work.append((vertex, edge_pos))
                    work.append((successor, 0))
                    advanced = True
                    break
                if on_stack[successor]:
                    low[vertex] = min(low[vertex], index[successor])
            if advanced:
                continue
            if low[vertex] == index[vertex]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == vertex:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[vertex])
    return components


def _condensation_order(
    components: list[list[int]], adjacency: list[list[int]]
) -> list[list[int]]:
    """Topologically sort the condensation, ties broken canonically.

    Kahn's algorithm over the component DAG with a min-heap keyed by each
    component's smallest member vertex (vertices are canonical codec
    slots), so among simultaneously available components the one holding
    the canonically first item is emitted first — the decomposed ranking
    is a deterministic function of the cost matrix alone.
    """
    component_of = [0] * len(adjacency)
    for label, component in enumerate(components):
        for vertex in component:
            component_of[vertex] = label
    indegree = [0] * len(components)
    successors: list[set[int]] = [set() for _ in components]
    for vertex, neighbors in enumerate(adjacency):
        for successor in neighbors:
            a, b = component_of[vertex], component_of[successor]
            if a != b and b not in successors[a]:
                successors[a].add(b)
                indegree[b] += 1
    keys = [min(component) for component in components]
    ready = [(keys[label], label) for label in range(len(components)) if indegree[label] == 0]
    heapq.heapify(ready)
    ordered: list[list[int]] = []
    while ready:
        _, label = heapq.heappop(ready)
        ordered.append(sorted(components[label]))
        for successor in sorted(successors[label]):
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(ready, (keys[successor], successor))
    return ordered


def dominance_components(
    cost: npt.NDArray[np.float64],
) -> list[list[int]]:
    """SCCs of the dominance digraph, condensation-topological order.

    ``cost`` is a :func:`~repro.aggregate.kemeny.pair_cost_array` matrix;
    the digraph has an edge ``i → j`` iff ``cost[i, j] < cost[j, i]``
    (cost ties produce no edge — either relative order is then pairwise
    optimal). Each returned component lists its vertices ascending.
    """
    dominates = cost < cost.T
    adjacency = [np.flatnonzero(row).tolist() for row in dominates]
    return _condensation_order(_strongly_connected(adjacency), adjacency)


def _borda_local_search(sub: npt.NDArray[np.float64]) -> list[int]:
    """Heuristic order for one oversized component (indices into ``sub``).

    Seeded by the generalized Borda order under the pair costs — ascending
    row sum, i.e. ascending total cost of placing the item ahead of the
    rest of the component — then improved by adjacent-swap passes (swap
    whenever the swapped order is strictly cheaper) to a local optimum,
    the local-Kemenization move of Dwork et al. [8]. Deterministic: the
    seed breaks ties by index and each pass scans left to right.
    """
    size = sub.shape[0]
    row_totals = sub.sum(axis=1)
    order = sorted(range(size), key=lambda i: (row_totals[i], i))
    for _ in range(size):
        changed = False
        for i in range(size - 1):
            ahead, behind = order[i], order[i + 1]
            if sub[behind, ahead] < sub[ahead, behind]:
                order[i], order[i + 1] = behind, ahead
                changed = True
        if not changed:
            break
    return order


def kemeny_decomposed(
    rankings: Sequence[PartialRanking],
    p: float = 0.5,
    *,
    scheme: ScoringScheme | None = None,
    jobs: int | None = None,
    max_exact: int = _MAX_EXACT,
    require_exact: bool = False,
) -> DecomposedResult:
    """Solve the ``K^(p)`` aggregation by SCC divide-and-conquer.

    Builds the pair-cost matrix once, condenses the dominance digraph,
    and solves each strongly-connected component independently on a slice
    of that one matrix: the exact Held–Karp DP up to ``max_exact`` items,
    a Borda-seeded local search above it. ``require_exact=True`` raises
    :class:`AggregationError` instead of falling back, guaranteeing the
    returned ranking is a certified global optimum (``exact=True``).

    The concatenation of per-component solutions in condensation order is
    globally optimal whenever every component is solved exactly — see the
    soundness statement in docs/THEORY.md. ``max_exact`` must be an
    ``int`` ≥ 1 (not a bool), as for :func:`~repro.aggregate.minmax.aggregate`;
    anything else raises :class:`AggregationError`.
    """
    validate_max_exact(max_exact)
    items, cost = pair_cost_array(rankings, p, scheme=scheme, jobs=jobs)
    n = len(items)
    with obs.trace("aggregate.kemeny.decompose", n=n):
        components = dominance_components(cost)
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
            sub = cost[np.ix_(idx, idx)]
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
        placed = cost[np.ix_(seq, seq)]
        upper_i, upper_j = np.triu_indices(n, k=1)
        objective = float(placed[upper_i, upper_j].sum())
        ranking = PartialRanking.from_sequence([items[x] for x in sequence])
        return DecomposedResult(
            ranking=ranking,
            objective=objective,
            exact=exact,
            components=tuple(
                tuple(items[x] for x in component) for component in components
            ),
            lower_bound=_lower_bound_from_cost(cost),
            dp_states=dp_states,
        )
