"""The fuzz driver: draw workloads, run every check, collect discrepancies.

One *round* is fully determined by its ``round_seed``: a workload family
is picked (random bucket orders, bucketized Mallows, db-derived attribute
sorts, or adversarial tie structures — one giant bucket, all singletons,
top-k with a huge tail), a profile is drawn from
:mod:`repro.generators`, and every selected check is evaluated on samples
from it. Workloads for size-capped checks (the exponential brute-force
oracles, Held–Karp aggregation) are domain-restricted rather than
skipped, so every check runs every round.

Rounds are independent, so ``--jobs`` distributes them over a process
pool (:mod:`repro.parallel`); results are identical for any job count
because each round derives everything from its own seed.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from repro import obs
from repro.generators import (
    adversarial_profile_workload,
    db_profile_workload,
    mallows_profile_workload,
    random_profile_workload,
)
from repro.generators.random import random_bucket_order
from repro.parallel import parallel_map
from repro.verify.oracles import Rankings
from repro.verify.registry import CheckInfo, find_check, run_check

__all__ = [
    "Discrepancy",
    "FuzzReport",
    "draw_profile",
    "run_round",
    "run_fuzz",
]

#: Pairs sampled per round for each two-ranking check.
_PAIR_SAMPLES = 2

_DB_CATALOGS = ("restaurants", "flights", "bibliography")


@dataclass(frozen=True, slots=True)
class Discrepancy:
    """One observed disagreement, with enough provenance to replay it."""

    check_id: str
    detail: str
    rankings: Rankings
    round_index: int
    round_seed: int
    workload: str

    def describe(self) -> str:
        sizes = f"n={len(self.rankings[0])}, m={len(self.rankings)}"
        return (
            f"[round {self.round_index}, seed {self.round_seed}, "
            f"{self.workload}, {sizes}] {self.check_id}: {self.detail}"
        )


@dataclass(frozen=True, slots=True)
class FuzzReport:
    """Aggregate outcome of a fuzz run."""

    rounds: int
    seed: int
    check_ids: tuple[str, ...]
    discrepancies: tuple[Discrepancy, ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.discrepancies)} DISCREPANCIES"
        return (
            f"{self.rounds} rounds x {len(self.check_ids)} checks "
            f"(seed {self.seed}): {status}"
        )


def draw_profile(rng: random.Random) -> tuple[str, Rankings]:
    """Draw one workload: (family description, rankings over a common domain)."""
    family = rng.choice(("random", "mallows", "db", "adversarial"))
    if family == "random":
        n = rng.randint(2, 24)
        m = rng.randint(2, 6)
        tie_bias = rng.choice((0.0, 0.2, 0.5, 0.8))
        workload = random_profile_workload(
            n, m, seed=rng.randrange(2**31), tie_bias=tie_bias
        )
    elif family == "mallows":
        n = rng.randint(3, 20)
        m = rng.randint(2, 5)
        phi = rng.choice((0.1, 0.3, 0.7))
        workload = mallows_profile_workload(n, m, phi=phi, seed=rng.randrange(2**31))
    elif family == "db":
        workload = db_profile_workload(
            n=rng.randint(8, 24),
            seed=rng.randrange(2**31),
            catalog=rng.choice(_DB_CATALOGS),
        )
    else:
        workload = adversarial_profile_workload(
            n=rng.randint(4, 24), seed=rng.randrange(2**31)
        )
    return workload.name, workload.rankings


def _restrict_to_max_items(rankings: Rankings, max_items: int) -> Rankings:
    domain = sorted(rankings[0].domain, key=repr)
    if len(domain) <= max_items:
        return rankings
    return tuple(sigma.restricted_to(domain[:max_items]) for sigma in rankings)


def _samples_for(
    info: CheckInfo, profile: Rankings, rng: random.Random
) -> list[Rankings]:
    """Workload samples for one check: the whole profile for profile
    checks, sampled tuples for pair/relation checks (padded with extra
    random bucket orders when the profile is smaller than the arity)."""
    if info.arity == 0:
        samples = [profile]
    else:
        domain = sorted(profile[0].domain, key=repr)
        samples = []
        for _ in range(_PAIR_SAMPLES):
            pool = list(profile)
            while len(pool) < info.arity:
                pool.append(random_bucket_order(domain, rng))
            samples.append(tuple(rng.sample(pool, info.arity)))
    if info.max_items is not None:
        samples = [_restrict_to_max_items(sample, info.max_items) for sample in samples]
    return samples


def run_round(
    round_index: int,
    round_seed: int,
    checks: Sequence[CheckInfo],
    *,
    include_expensive: bool = True,
) -> list[Discrepancy]:
    """Run every check on one freshly drawn workload."""
    rng = random.Random(round_seed)
    workload_name, profile = draw_profile(rng)
    discrepancies: list[Discrepancy] = []
    with obs.trace("verify.round", index=round_index, workload=workload_name):
        obs.add("verify.rounds")
        _run_round_checks(
            round_index,
            round_seed,
            checks,
            workload_name,
            profile,
            rng,
            include_expensive,
            discrepancies,
        )
    return discrepancies


def _run_round_checks(
    round_index: int,
    round_seed: int,
    checks: Sequence[CheckInfo],
    workload_name: str,
    profile: Rankings,
    rng: random.Random,
    include_expensive: bool,
    discrepancies: list[Discrepancy],
) -> None:
    for info in checks:
        for sample in _samples_for(info, profile, rng):
            obs.add("verify.checks")
            try:
                failures = run_check(
                    info.check_id, sample, include_expensive=include_expensive
                )
            except Exception as exc:  # noqa: BLE001 — a crash IS a finding
                failures = [f"raised {type(exc).__name__}: {exc}"]
            if failures:
                obs.add("verify.discrepancies", len(failures))
            for detail in failures:
                discrepancies.append(
                    Discrepancy(
                        check_id=info.check_id,
                        detail=detail,
                        rankings=sample,
                        round_index=round_index,
                        round_seed=round_seed,
                        workload=workload_name,
                    )
                )


#: Worker task: (round_index, round_seed, check ids, include_expensive).
_RoundTask = tuple[int, int, tuple[str, ...], bool]


def _round_task(task: _RoundTask) -> list[Discrepancy]:
    """Module-level pool worker (picklable); resolves checks by id."""
    round_index, round_seed, check_ids, include_expensive = task
    checks = [find_check(check_id) for check_id in check_ids]
    return run_round(
        round_index, round_seed, checks, include_expensive=include_expensive
    )


def run_fuzz(
    rounds: int,
    seed: int = 0,
    *,
    checks: Sequence[CheckInfo],
    jobs: int | None = None,
    expensive_every: int = 10,
) -> FuzzReport:
    """Run ``rounds`` independent fuzz rounds; returns the full report.

    Round seeds derive deterministically from ``seed``, and each round is
    self-contained, so the report is identical for any ``jobs`` value.
    Pool-spawning variants run only on every ``expensive_every``-th round.
    """
    if rounds <= 0:
        raise ValueError(f"rounds={rounds} must be positive")
    if expensive_every <= 0:
        raise ValueError(f"expensive_every={expensive_every} must be positive")
    base = random.Random(seed)
    check_ids = tuple(info.check_id for info in checks)
    tasks: list[_RoundTask] = [
        (index, base.randrange(2**63), check_ids, index % expensive_every == 0)
        for index in range(rounds)
    ]
    per_round = parallel_map(_round_task, tasks, jobs=jobs)
    discrepancies = tuple(
        discrepancy for round_result in per_round for discrepancy in round_result
    )
    return FuzzReport(
        rounds=rounds,
        seed=seed,
        check_ids=check_ids,
        discrepancies=discrepancies,
    )
