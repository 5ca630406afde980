"""Seeded input generation for every workload (NumPy only).

Inputs are plain Python data — items are ints, a ranking is a list of
buckets — so they can be made before the program is imported and handed
to it unchanged. The same seed always gives the same inputs.

Rankings are Mallows draws (repeated-insertion model, vectorised
truncated-geometric offsets) cut into random-size buckets, so every
profile has ties and a shared central order.
"""

from __future__ import annotations

import numpy as np

#: Canonical names of the six registered metrics, in rotation order.
METRICS = (
    "kendall",
    "footrule",
    "kendall_hausdorff",
    "footrule_hausdorff",
    "weighted_footrule",
    "top_difference",
)
CONSENSUS_KINDS = ("full", "partial", "scores", "topk")

# serving state: 4 domains x 16 items x 2,500 voters
DOMAINS = 4
DOMAIN_ITEMS = 16
VOTERS = 2500
#: Literal rankings per domain that distance queries and updates draw from.
POOL = 128
#: Request mix: share of distance, update (the rest is consensus).
DISTANCE_SHARE = 0.75
UPDATE_SHARE = 0.15
#: Share of distance operands sent as voter references (the rest literals).
VOTER_REF_SHARE = 0.5
TOPK = 5
#: Request streams: one per simulated user (``serve-fanin``) or per
#: keep-alive connection (``wire-mixed``), cycled by the closed loop.
STREAMS = {"serve-fanin": (512, 64), "wire-mixed": (2, 4096)}


def mallows_order(rng: np.random.Generator, n: int, phi: float) -> list[int]:
    """One Mallows permutation of ``0..n-1`` around the identity."""
    steps = np.arange(n)
    u = rng.random(n)
    if phi < 1.0:
        offsets = np.floor(
            np.log1p(-u * (1.0 - phi ** (steps + 1))) / np.log(phi)
        ).astype(np.int64)
        offsets = np.minimum(offsets, steps)
    else:
        offsets = np.floor(u * (steps + 1)).astype(np.int64)
    order: list[int] = []
    for step in range(n):
        order.insert(step - int(offsets[step]), step)
    return order


def bucketed(
    rng: np.random.Generator, order: list[int], max_bucket: int, items: list[int]
) -> list[list[int]]:
    """Cut ``order`` (indices into ``items``) into buckets of 1..max_bucket."""
    buckets = []
    start = 0
    while start < len(order):
        size = int(rng.integers(1, max_bucket + 1))
        buckets.append([items[i] for i in order[start : start + size]])
        start += size
    return buckets


def profile(
    rng: np.random.Generator, m: int, n: int, phi: float, max_bucket: int
) -> list[list[list[int]]]:
    """``m`` bucketed Mallows rankings of items ``0..n-1`` around a shared
    random centre."""
    centre = [int(x) for x in rng.permutation(n)]
    return [bucketed(rng, mallows_order(rng, n, phi), max_bucket, centre) for _ in range(m)]


def serving_inputs(seed: int, streams: int, stream_length: int) -> dict:
    """State replay log, literal pools and per-client request streams.

    Every request stream is a list of operations:

    * ``("d", domain, sigma, tau, metric)`` — distance; an operand is
      ``("l", pool_index)`` (literal) or ``("v", voter)`` (reference);
    * ``("u", domain, voter, pool_index)`` — replace a voter's ranking;
    * ``("c", domain, kind, k)`` — consensus.
    """
    rng = np.random.default_rng([seed, 1])
    domains = [
        [d * 100 + i for i in range(DOMAIN_ITEMS)] for d in range(DOMAINS)
    ]
    per_domain = [
        profile(rng, VOTERS + POOL, DOMAIN_ITEMS, 0.8, 3) for _ in range(DOMAINS)
    ]
    # the replay log interleaves domains, voter by voter
    replay = [
        (d, f"v{v}", [[domains[d][i] for i in b] for b in per_domain[d][v]])
        for v in range(VOTERS)
        for d in range(DOMAINS)
    ]
    pools = [
        [[[domains[d][i] for i in b] for b in r] for r in per_domain[d][VOTERS:]]
        for d in range(DOMAINS)
    ]
    all_streams = []
    for s in range(streams):
        ops = []
        metric_turn = s
        kind_turn = s
        for _ in range(stream_length):
            d = int(rng.integers(DOMAINS))
            roll = rng.random()
            if roll < DISTANCE_SHARE:
                operands = []
                for _side in range(2):
                    if rng.random() < VOTER_REF_SHARE:
                        operands.append(("v", f"v{int(rng.integers(VOTERS))}"))
                    else:
                        operands.append(("l", int(rng.integers(POOL))))
                ops.append(("d", d, operands[0], operands[1], METRICS[metric_turn % 6]))
                metric_turn += 1
            elif roll < DISTANCE_SHARE + UPDATE_SHARE:
                ops.append(("u", d, f"v{int(rng.integers(VOTERS))}", int(rng.integers(POOL))))
            else:
                kind = CONSENSUS_KINDS[kind_turn % len(CONSENSUS_KINDS)]
                ops.append(("c", d, kind, TOPK if kind == "topk" else None))
                kind_turn += 1
        all_streams.append(ops)
    return {"domains": domains, "replay": replay, "pools": pools, "streams": all_streams}


# profile-matrix: 80 x 200 through all six metrics, plus 24 x 640 under
# kendall (m * n^2 above the dense-GEMM budget, so ``auto`` goes tiled)
MATRIX_OPS = 3


def matrix_inputs(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    return [
        {
            "wide": profile(rng, 80, 200, 0.9, 3),
            "long": profile(rng, 24, 640, 0.95, 3),
        }
        for _ in range(MATRIX_OPS)
    ]


# aggregate-offline: exact median/minmax at n = 6, Kemeny at n = 12 and
# n = 300, and the median batch + MEDRANK on 80 x 300
OFFLINE_OPS = 5


def offline_inputs(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    return [
        {
            "small": profile(rng, 15, 6, 0.7, 2),
            "kemeny12": profile(rng, 7, 12, 1.0, 2),
            "kemeny300": profile(rng, 9, 300, 0.5, 2),
            "median": profile(rng, 80, 300, 0.9, 3),
        }
        for _ in range(OFFLINE_OPS)
    ]
