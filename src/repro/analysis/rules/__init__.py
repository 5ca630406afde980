"""The shipped RPxxx rules. Importing this package registers every rule
with :mod:`repro.analysis.engine`.

=====  ====================================  =========================================
Code   Module                                What it enforces
=====  ====================================  =========================================
RP001  :mod:`~repro.analysis.rules.numerics`       no exact float equality on distances
RP002  :mod:`~repro.analysis.rules.contracts_xref` entry points validate their domain
RP003  :mod:`~repro.analysis.rules.api_surface`    ``__all__`` matches real bindings
RP004  :mod:`~repro.analysis.rules.oracles`        naive oracles stay out of serving code
RP006  :mod:`~repro.analysis.rules.theory`         paper citations exist in THEORY.md
RP008  :mod:`~repro.analysis.rules.api_surface`    exported metrics have axiom coverage
RP009  :mod:`~repro.analysis.rules.batching`       all-pairs loops use the batch layer
RP010  :mod:`~repro.analysis.rules.verify_xref`    exported metrics have a fuzz oracle
RP011  :mod:`~repro.analysis.rules.obs_xref`       kernel modules report into repro.obs
RP012  :mod:`~repro.analysis.rules.flow_safety`    worker-reachable code is state-pure
RP013  :mod:`~repro.analysis.rules.flow_safety`    no order-sensitive set iteration
RP014  :mod:`~repro.analysis.rules.flow_numerics`  kernels stay in the int64 lattice
RP015  :mod:`~repro.analysis.rules.flow_hygiene`   env reads only at sanctioned sites
RP016  :mod:`~repro.analysis.rules.flow_hygiene`   validate before the first self-write
=====  ====================================  =========================================

RP012–RP016 are *interprocedural*: they query the whole-program
:class:`~repro.analysis.flow.fixpoint.FlowAnalysis` built lazily per
run from the call graph and effect summaries in
:mod:`repro.analysis.flow`.
"""

from repro.analysis.rules.api_surface import DunderAllRule, MetricTestMatrixRule
from repro.analysis.rules.batching import PairwiseLoopRule
from repro.analysis.rules.contracts_xref import DomainValidationRule
from repro.analysis.rules.flow_hygiene import EnvHygieneRule, ValidateBeforeMutateRule
from repro.analysis.rules.flow_numerics import DtypeSoundnessRule
from repro.analysis.rules.flow_safety import ParallelSafetyRule, UnorderedIterationRule
from repro.analysis.rules.numerics import FloatDistanceComparisonRule
from repro.analysis.rules.obs_xref import ObsInstrumentationRule
from repro.analysis.rules.oracles import OracleImportRule
from repro.analysis.rules.theory import TheoremCitationRule
from repro.analysis.rules.verify_xref import OracleCoverageRule

__all__ = [
    "FloatDistanceComparisonRule",
    "DomainValidationRule",
    "DunderAllRule",
    "OracleImportRule",
    "TheoremCitationRule",
    "MetricTestMatrixRule",
    "PairwiseLoopRule",
    "OracleCoverageRule",
    "ObsInstrumentationRule",
    "ParallelSafetyRule",
    "UnorderedIterationRule",
    "DtypeSoundnessRule",
    "EnvHygieneRule",
    "ValidateBeforeMutateRule",
]
