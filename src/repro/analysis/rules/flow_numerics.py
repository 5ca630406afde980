"""RP014 — dtype soundness in the exact-integer kernel modules.

The batch kernels promise bit-for-bit equality with the object layer
(tier-1 tests assert it on this platform). That equality is a property
of staying inside the int64 lattice; three silent escapes break it only
*elsewhere* — a different OS, a larger n — which is exactly where a
test suite cannot see:

* ``(a / 4).astype(np.int64)`` — float64 round-trip truncated without
  explicit rounding, exact only while the intermediate is small enough;
* ``astype(np.int32)`` / ``dtype=np.int32`` — overflows past ~65k item
  pairs (``n*(n-1)/2`` exceeds int32 at n ≈ 65 536);
* ``mask.sum()`` with no ``dtype=`` — numpy's bool accumulator defaults
  to the *platform* integer, int32 on Windows.

The rule runs the :mod:`repro.analysis.flow.dtypes` inference over every
function in the numeric kernel modules, with interprocedural return
dtypes from annotations (``npt.NDArray[np.int64]``) resolved through the
call graph. Scope is deliberately limited to the kernel allowlist:
dtype discipline is a *contract* there and merely a style question
everywhere else.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import Finding, Project, Rule, Severity, register
from repro.analysis.flow.dtypes import scan_function_dtypes

__all__ = ["DtypeSoundnessRule"]

#: Modules where the int64 lattice is a contract, not a preference.
#: The mmap-list module is included because it is exactly where the
#: *sanctioned* int32 storage mode lives: narrowing is legal there only in
#: functions that consult ``int32_fits`` (the dtype scan suppresses
#: guarded narrowing; accumulator hazards remain unconditional).
_KERNEL_MODULES = frozenset(
    {
        "repro.metrics.batch",
        "repro.metrics.fast",
        "repro.aggregate.batch",
        "repro.aggregate.online",
        "repro.db.mmap_lists",
    }
)


@register
class DtypeSoundnessRule(Rule):
    """RP014 — int64-lattice escapes in the exact-integer kernels."""

    code = "RP014"
    name = "dtype-unsound"
    severity = Severity.ERROR
    description = (
        "A numeric kernel module leaves the int64 lattice implicitly: a "
        "float64 intermediate cast to int64 without explicit rounding, a "
        "narrowing to int32/int16, or a reduction over a bool/narrow "
        "array without dtype= (platform-int accumulator). Exactness then "
        "depends on the platform and the input size."
    )

    def finish(self, project: Project) -> Iterator[Finding]:
        flow = project.flow()
        for qualname in sorted(flow.graph.functions):
            info = flow.graph.functions[qualname]
            if info.module not in _KERNEL_MODULES:
                continue
            if isinstance(info.node, ast.Lambda):
                continue
            resolver = flow.resolver(info)
            scan = scan_function_dtypes(
                info.node,
                return_dtypes=flow.return_dtypes,
                resolve=resolver.resolve,
            )
            for issue in scan.issues:
                yield self.finding(
                    info.source,
                    issue.line,
                    f"[{issue.kind}] {issue.message}",
                )
