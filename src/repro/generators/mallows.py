"""Mallows-model ranking noise.

The Mallows model is the standard generative model for "noisy copies of a
ground-truth ranking": a permutation ``pi`` is drawn with probability
proportional to ``phi ** K(pi, pi0)`` for a reference ranking ``pi0`` and a
dispersion ``phi in (0, 1]``. We use the repeated-insertion construction
(Doignon et al.), which samples exactly in O(n²).

For partial-ranking workloads, :func:`bucketized_mallows` draws a Mallows
permutation and then coarsens it with a random type — modelling a database
attribute that agrees noisily with a latent total order but exposes only
a few distinct values.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Sequence

from repro.core.partial_ranking import Item, PartialRanking
from repro.errors import InvalidRankingError
from repro.generators.random import random_type, resolve_rng

__all__ = ["mallows_full_ranking", "bucketized_mallows"]


def _insertion_offsets(count: int, phi: float, rng: random.Random) -> list[int]:
    """Insertion offsets *from the end* for prefixes of length 0..count−1.

    Offset ``j`` creates exactly ``j`` new inversions against the reference
    order, so its weight is ``phi ** j``; offset 0 (append at the end)
    keeps the reference order. Step ``s`` draws ``u · C[s]`` against the
    cumulative weights ``C[j] = phi**0 + … + phi**j``, built once with
    sequential ``+=``, and takes the first ``j ≤ s`` with the draw at most
    ``C[j]`` (``s`` on floating-point slack). The offsets equal those of
    the per-step loop that re-summed ``s + 1`` weights with ``sum()``
    only because CPython 3.11's float ``sum()`` adds sequentially, as
    ``+=`` does; 3.12's compensated ``sum()`` rounds the totals
    differently. CI pins 3.11.
    """
    if phi == 1.0:
        return [rng.randrange(step + 1) for step in range(count)]
    cumulative: list[float] = []
    running = 0.0
    for j in range(count):
        running += phi**j
        cumulative.append(running)
    return [
        min(bisect_left(cumulative, rng.random() * cumulative[step], 0, step + 1), step)
        for step in range(count)
    ]


def mallows_full_ranking(
    reference: PartialRanking | Sequence[Item],
    phi: float,
    rng: random.Random | int | None = None,
) -> PartialRanking:
    """Draw one full ranking from the Mallows model around ``reference``.

    ``phi`` close to 0 concentrates on the reference; ``phi = 1`` is the
    uniform distribution. The reference may be a full ranking or any
    ordered sequence of items.
    """
    if not 0.0 < phi <= 1.0:
        raise InvalidRankingError(f"dispersion phi={phi} must lie in (0, 1]")
    if isinstance(reference, PartialRanking):
        if not reference.is_full:
            raise InvalidRankingError("Mallows reference must be a full ranking")
        base = reference.items_in_order()
    else:
        base = list(reference)
    if not base:
        raise InvalidRankingError("Mallows reference must be non-empty")
    generator = resolve_rng(rng)

    order: list[Item] = []
    offsets = _insertion_offsets(len(base), phi, generator)
    for step, (item, offset) in enumerate(zip(base, offsets)):
        # insert the next reference item near the end of the prefix, with
        # geometric slippage toward the front controlled by phi
        order.insert(step - offset, item)
    return PartialRanking.from_sequence(order)


def bucketized_mallows(
    reference: PartialRanking | Sequence[Item],
    phi: float,
    rng: random.Random | int | None = None,
    max_bucket: int | None = None,
) -> PartialRanking:
    """A Mallows draw coarsened into a random-type bucket order.

    Models a few-valued database attribute correlated with a latent total
    order: the latent permutation is Mallows noise around ``reference``,
    and consecutive runs of it collapse into buckets of a random type.
    """
    full = mallows_full_ranking(reference, phi, rng)
    generator = resolve_rng(rng) if not isinstance(rng, random.Random) else rng
    sizes = random_type(len(full), generator, max_bucket=max_bucket)
    order = full.items_in_order()
    buckets: list[list[Item]] = []
    start = 0
    for size in sizes:
        buckets.append(order[start : start + size])
        start += size
    return PartialRanking(buckets)
