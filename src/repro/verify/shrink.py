"""Greedy shrinking of failing workloads to minimal reproducers.

Two reduction moves, applied to a fixpoint under an evaluation budget:

* drop whole rankings from a profile workload (never below two);
* remove single items from the common domain via
  :meth:`PartialRanking.restricted_to` (never below two items), which
  preserves the relative order and tie structure of the survivors.

A candidate reduction is kept only when the check still fails on it, so
the result is a locally minimal case that reproduces the original
discrepancy — small enough to eyeball the bucket structures directly.
"""

from __future__ import annotations

from repro import obs
from repro.core.partial_ranking import Item
from repro.verify.oracles import Rankings
from repro.verify.registry import find_check, run_check

__all__ = ["shrink_case"]

_MIN_ITEMS = 2
_MIN_RANKINGS = 2


def _still_fails(check_id: str, rankings: Rankings, include_expensive: bool) -> bool:
    try:
        return bool(
            run_check(check_id, rankings, include_expensive=include_expensive)
        )
    except Exception:  # noqa: BLE001 — a crash is a failure to preserve
        return True


def _restrict_all(rankings: Rankings, keep: list[Item]) -> Rankings:
    return tuple(sigma.restricted_to(keep) for sigma in rankings)


def shrink_case(
    check_id: str,
    rankings: Rankings,
    *,
    include_expensive: bool = True,
    max_evaluations: int = 300,
) -> Rankings:
    """Greedily minimize a failing workload; returns the reduced workload.

    If the original workload does not actually fail (e.g. the bug is
    nondeterministic), it is returned unchanged.
    """
    info = find_check(check_id)
    evaluations = 0

    def fails(candidate: Rankings) -> bool:
        nonlocal evaluations
        evaluations += 1
        obs.add("verify.shrink.steps")
        return _still_fails(check_id, candidate, include_expensive)

    with obs.trace("verify.shrink", check=check_id):
        if not fails(rankings):
            return rankings

        current = rankings
        improved = True
        while improved and evaluations < max_evaluations:
            improved = False
            # move 1: drop whole rankings (profile workloads only)
            if info.arity == 0:
                for index in range(len(current)):
                    if len(current) <= _MIN_RANKINGS:
                        break
                    candidate = current[:index] + current[index + 1 :]
                    if evaluations >= max_evaluations:
                        return current
                    if fails(candidate):
                        current = candidate
                        improved = True
                        break
                if improved:
                    continue
            # move 2: remove one domain item at a time
            domain = sorted(current[0].domain, key=repr)
            for item in domain:
                if len(domain) <= _MIN_ITEMS:
                    break
                keep = [other for other in domain if other != item]
                if evaluations >= max_evaluations:
                    return current
                candidate = _restrict_all(current, keep)
                if fails(candidate):
                    current = candidate
                    improved = True
                    break
        return current
