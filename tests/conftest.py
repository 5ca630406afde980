"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.aggregate.online import _rebuild_online
from repro.core.partial_ranking import PartialRanking

# the exponential brute-force oracles (Hausdorff max-min, Fubini-number
# enumerations) legitimately take longer than hypothesis' default 200ms
# deadline on some draws; correctness, not latency, is what these verify
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# the CI `serve` job runs the stateful serving harness under this fixed
# profile: derandomized so every CI run replays the identical operation
# sequences (a red run is reproducible locally with
# `--hypothesis-profile=serve-ci`), deadline disabled because a stateful
# step's cost depends on the accumulated shard state, not the step
settings.register_profile(
    "serve-ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


class ForgedOnline:
    """Pickles as an online aggregator rebuilt from arbitrary rows.

    The tuple matches what ``OnlineMedianAggregator.__reduce__`` emits, so
    ``pickle.loads`` runs the same rebuild a stored snapshot does.
    """

    def __init__(self, items, rows, voters=()):
        self._args = (
            tuple(items),
            "mid",
            np.asarray(rows, dtype=np.float64),
            tuple((voter, np.asarray(row, dtype=np.float64)) for voter, row in voters),
        )

    def __reduce__(self):
        return (_rebuild_online, self._args)


def bucket_orders(
    min_size: int = 1,
    max_size: int = 7,
) -> st.SearchStrategy[PartialRanking]:
    """Strategy drawing random bucket orders over integer domains.

    The domain is ``0..n-1``; a permutation plus a boundary mask determines
    the buckets, which covers every bucket order of the domain.
    """

    @st.composite
    def draw_bucket_order(draw) -> PartialRanking:
        n = draw(st.integers(min_value=min_size, max_value=max_size))
        order = draw(st.permutations(list(range(n))))
        if n == 1:
            return PartialRanking([order])
        mask = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        buckets: list[list[int]] = [[order[0]]]
        for item, boundary in zip(order[1:], mask):
            if boundary:
                buckets.append([item])
            else:
                buckets[-1].append(item)
        return PartialRanking(buckets)

    return draw_bucket_order()


def full_rankings(
    min_size: int = 1,
    max_size: int = 8,
) -> st.SearchStrategy[PartialRanking]:
    """Strategy drawing random full rankings over integer domains."""
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.permutations(list(range(n))).map(PartialRanking.from_sequence)
    )


def bucket_order_pairs(
    min_size: int = 1,
    max_size: int = 6,
) -> st.SearchStrategy[tuple[PartialRanking, PartialRanking]]:
    """Pairs of bucket orders over the same integer domain."""

    @st.composite
    def draw_pair(draw) -> tuple[PartialRanking, PartialRanking]:
        n = draw(st.integers(min_value=min_size, max_value=max_size))
        return (
            draw(_bucket_order_of(n)),
            draw(_bucket_order_of(n)),
        )

    return draw_pair()


def bucket_order_triples(
    min_size: int = 1,
    max_size: int = 5,
) -> st.SearchStrategy[tuple[PartialRanking, PartialRanking, PartialRanking]]:
    """Triples of bucket orders over the same integer domain."""

    @st.composite
    def draw_triple(draw) -> tuple[PartialRanking, PartialRanking, PartialRanking]:
        n = draw(st.integers(min_value=min_size, max_value=max_size))
        return (
            draw(_bucket_order_of(n)),
            draw(_bucket_order_of(n)),
            draw(_bucket_order_of(n)),
        )

    return draw_triple()


def _bucket_order_of(n: int) -> st.SearchStrategy[PartialRanking]:
    @st.composite
    def draw(draw_fn) -> PartialRanking:
        order = draw_fn(st.permutations(list(range(n))))
        if n == 1:
            return PartialRanking([order])
        mask = draw_fn(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        buckets: list[list[int]] = [[order[0]]]
        for item, boundary in zip(order[1:], mask):
            if boundary:
                buckets.append([item])
            else:
                buckets[-1].append(item)
        return PartialRanking(buckets)

    return draw()
