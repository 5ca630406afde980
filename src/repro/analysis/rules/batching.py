"""RP009 — per-pair / per-item aggregation work inside nested loops.

Calling a two-ranking metric (``kendall``, ``footrule``, ``pair_counts``,
…) from doubly nested loops is the classic way to build an all-pairs
distance matrix — and it re-derives per-ranking state m−1 times per
ranking and pays Python overhead per pair.
:func:`repro.metrics.batch.pairwise_distance_matrix` computes the same
matrix bit for bit from shared precomputation (see ``docs/PERFORMANCE.md``).

The same anti-pattern exists on the *aggregation* side: computing the
median score function with a per-item :func:`repro.aggregate.median.median_of`
call, or gathering ``sigma[item]`` position vectors item by item, inside
nested loops re-reads the profile n times.
:mod:`repro.aggregate.batch` derives every §6 output from one ``(m, n)``
position-matrix encode, bit-for-bit equal to the dict path — so both
shapes are flagged:

* a call to ``median_of`` at loop depth >= 2;
* a call to ``pair_cost_array`` at loop depth >= 2 — each call is a
  full O(n^2 m) profile scan, so nested loops
  re-derive the same matrix over and over;
  :func:`repro.aggregate.decompose.kemeny_decomposed` builds it once and
  slices per component instead;
* a subscript ``sigma[item]`` at loop depth >= 2 where both names are
  bound as loop/comprehension targets of *different* enclosing levels and
  the container follows the paper's ranking notation (``sigma``/``tau``/
  ``pi``/``rho``/``*ranking*`` — the convention the codebase uses for
  :class:`~repro.core.partial_ranking.PartialRanking` values), i.e. the
  ``sigma[item] for sigma in rankings for item in domain`` gather.

The rule is a *warning*, not an error: quadratic loops over tiny fixtures
are fine, and tests/benchmarks (where they are usually oracle
cross-checks) are exempt entirely. Genuine exceptions in serving code —
e.g. the retained dict reference implementations — carry
``# repro: noqa[RP009]``.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.analysis.engine import Finding, Project, Rule, Severity, SourceFile, register

__all__ = [
    "PairwiseLoopRule",
    "PER_PAIR_METRIC_NAMES",
    "PER_ITEM_AGGREGATION_NAMES",
    "PROFILE_COST_KERNEL_NAMES",
]

#: Two-ranking distance entry points with a batch equivalent.
PER_PAIR_METRIC_NAMES = frozenset(
    {
        "kendall",
        "footrule",
        "kendall_hausdorff",
        "kendall_hausdorff_counts",
        "footrule_hausdorff",
        "pair_counts",
    }
)

#: Per-item aggregation entry points with a position-matrix equivalent.
PER_ITEM_AGGREGATION_NAMES = frozenset({"median_of"})

#: The full-profile cost-matrix builder: one call scans the whole profile,
#: so calling it from nested loops repeats an O(n^2 m) kernel per
#: iteration. Slice one matrix instead (repro.aggregate.decompose does).
PROFILE_COST_KERNEL_NAMES = frozenset({"pair_cost_array"})

#: Container names treated as "a ranking" for the gather pattern — the
#: paper's notation, which the codebase follows for PartialRanking values.
#: Keeps the subscript heuristic away from generic dict/row indexing.
_RANKING_NAME_RE = re.compile(r"^(?:sigma|tau|pi|rho)\d*$|ranking")

#: Path fragments where per-pair loops are oracle checks, not serving code.
#: ``repro/verify/`` builds reference matrices by definition — per-pair
#: loops there are the oracle side of the differential test.
_ALLOWED_FRAGMENTS = ("tests/", "benchmarks/", "repro/verify/", "conftest")


def _is_allowed_location(source: SourceFile) -> bool:
    posix = source.posix
    return any(fragment in posix for fragment in _ALLOWED_FRAGMENTS)


def _called_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _target_names(target: ast.expr) -> set[str]:
    """Names bound by a loop/comprehension target (handles tuple unpacking)."""
    return {child.id for child in ast.walk(target) if isinstance(child, ast.Name)}


class _NestedLoopCallVisitor(ast.NodeVisitor):
    """Collect per-pair / per-item work whose enclosing loop depth is >= 2.

    ``for``/``while`` statements and every comprehension generator count
    one level each, so ``[f(s, t) for s in P for t in P]`` is depth 2 just
    like the statement form. Each level also records the names its target
    binds, so the cross-level ``sigma[item]`` gather can be told apart
    from same-level indexing like ``sequence[depth]``.
    """

    def __init__(self) -> None:
        self.depth = 0
        self.calls: list[tuple[ast.Call, str, str]] = []
        self.gathers: list[tuple[ast.Subscript, str]] = []
        self._levels: list[set[str]] = []

    def _visit_loop(self, node: ast.For | ast.AsyncFor | ast.While) -> None:
        bound = _target_names(node.target) if isinstance(node, (ast.For, ast.AsyncFor)) else set()
        self.depth += 1
        self._levels.append(bound)
        self.generic_visit(node)
        self._levels.pop()
        self.depth -= 1

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop

    def _visit_comprehension(
        self, node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp
    ) -> None:
        for generator in node.generators:
            self.depth += 1
            self._levels.append(_target_names(generator.target))
        self.generic_visit(node)
        for _ in node.generators:
            self._levels.pop()
            self.depth -= 1

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _binding_level(self, name: str) -> int | None:
        for level in range(len(self._levels) - 1, -1, -1):
            if name in self._levels[level]:
                return level
        return None

    def visit_Call(self, node: ast.Call) -> None:
        if self.depth >= 2:
            name = _called_name(node)
            if name is not None and name in PER_PAIR_METRIC_NAMES:
                self.calls.append((node, name, "pair"))
            elif name is not None and name in PER_ITEM_AGGREGATION_NAMES:
                self.calls.append((node, name, "aggregation"))
            elif name is not None and name in PROFILE_COST_KERNEL_NAMES:
                self.calls.append((node, name, "profile-cost"))
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (
            self.depth >= 2
            and isinstance(node.value, ast.Name)
            and isinstance(node.slice, ast.Name)
            and node.value.id != node.slice.id
            and _RANKING_NAME_RE.search(node.value.id)
        ):
            value_level = self._binding_level(node.value.id)
            index_level = self._binding_level(node.slice.id)
            if value_level is not None and index_level is not None and value_level != index_level:
                self.gathers.append((node, f"{node.value.id}[{node.slice.id}]"))
        self.generic_visit(node)


@register
class PairwiseLoopRule(Rule):
    """RP009 — nested-loop work that should use a batch kernel layer."""

    code = "RP009"
    name = "per-pair-metric-in-nested-loop"
    severity = Severity.WARNING
    description = (
        "Two-ranking metric, per-item median_of call, or cross-level "
        "sigma[item] gather inside nested loops; the batch layers "
        "(repro.metrics.batch, repro.aggregate.batch) compute the same "
        "results from shared precomputation."
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        if _is_allowed_location(source):
            return
        visitor = _NestedLoopCallVisitor()
        visitor.visit(source.tree)
        for call, name, kind in visitor.calls:
            if kind == "pair":
                yield self.finding(
                    source,
                    call,
                    f"per-pair metric {name!r} called at loop depth >= 2; "
                    "consider repro.metrics.batch.pairwise_distance_matrix "
                    "(bit-for-bit equal, shared precomputation)",
                )
            elif kind == "profile-cost":
                yield self.finding(
                    source,
                    call,
                    f"profile cost kernel {name!r} called at loop depth >= 2 "
                    "(each call is a full O(n^2 m) profile scan); build the "
                    "matrix once and slice per component, as "
                    "repro.aggregate.decompose.kemeny_decomposed does",
                )
            else:
                yield self.finding(
                    source,
                    call,
                    f"per-item {name!r} called at loop depth >= 2; "
                    "consider the repro.aggregate.batch position-matrix "
                    "kernels (bit-for-bit equal, one profile encode)",
                )
        for subscript, description in visitor.gathers:
            yield self.finding(
                source,
                subscript,
                f"per-item position gather {description!r} at loop depth >= 2; "
                "consider repro.aggregate.batch, which encodes the profile "
                "once into an (m, n) position matrix",
            )
