"""The metamorphic relation library: paper theorems as executable checks.

Each :class:`Relation` takes ``arity`` rankings over a common domain and
returns ``None`` (the relation holds) or a human-readable violation
description. Unlike the differential oracles (:mod:`repro.verify.oracles`),
which only say two implementations *agree*, these say the implementations
agree with the *mathematics*: a harness bug that broke reference and
variant identically would still be caught here.

The catalog (see :func:`relations`):

* identities every metric must satisfy — symmetry, ``d(x, x) = 0``,
  invariance under reversing both arguments;
* the ``*``-refinement contraction of Lemma 3 / Lemma 4;
* the Theorem 5 witness structure and its rho-independence, with the
  Proposition 6 closed form and the Lemma 25 profile counterpart;
* the Theorem 7 equivalence band (Theorem 20, Theorem 24, Lemma 25) plus
  the classical Diaconis–Graham inequalities on full refinements;
* the Proposition 13 triangle / near-triangle inequalities;
* monotonicity of ``K^(p)`` in the penalty parameter;
* soundness of the SCC-condensed exact Kemeny decomposition (the
  divide-and-conquer optimum equals the monolithic Held–Karp optimum),
  and its independence of the tie penalty ``p``.

Exact (``!=``) comparisons below are deliberate: every quantity involved
is a half- or quarter-integer, exactly representable in float64, and the
equalities are proved identities, not approximations. Inequalities that
mix proved bounds use a 1e-9 absolute tolerance, matching
:mod:`repro.metrics.equivalence`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.aggregate.decompose import kemeny_decomposed
from repro.aggregate.kemeny import pair_cost_array
from repro.aggregate.median import median_scores
from repro.aggregate.objective import total_distance
from repro.core.partial_ranking import PartialRanking
from repro.core.refine import common_full_ranking, is_refinement, star
from repro.metrics.equivalence import check_proved_bounds, metric_bundle
from repro.metrics.footrule import footrule, footrule_full
from repro.metrics.hausdorff import (
    footrule_hausdorff,
    hausdorff_witnesses,
    kendall_hausdorff_counts,
)
from repro.metrics.batch import (
    _pair_counts_dense_tiled,
    _pair_counts_pairs,
    bucket_index_matrix,
)
from repro.metrics.kendall import kendall, kendall_full, pair_counts
from repro.verify.oracles import Rankings
from repro.verify.reference import kemeny_monolithic, median_scores_dict

__all__ = ["Relation", "relations"]

_TOL = 1e-9

_CheckFn = Callable[[Rankings], str | None]

#: The four metrics as (name, distance) pairs used by the identity checks.
_METRICS: tuple[tuple[str, Callable[[PartialRanking, PartialRanking], float]], ...] = (
    ("k_prof", kendall),
    ("f_prof", footrule),
    ("k_haus", kendall_hausdorff_counts),
    ("f_haus", footrule_hausdorff),
)


@dataclass(frozen=True, slots=True)
class Relation:
    """One executable metamorphic property of the metric family."""

    name: str
    arity: int
    citation: str
    check: _CheckFn


def _check_symmetry(rankings: Rankings) -> str | None:
    sigma, tau = rankings[0], rankings[1]
    for name, metric in _METRICS:
        forward = metric(sigma, tau)
        backward = metric(tau, sigma)
        if forward != backward:
            return f"{name} not symmetric: d(s,t)={forward} but d(t,s)={backward}"
    return None


def _check_regularity(rankings: Rankings) -> str | None:
    sigma = rankings[0]
    for name, metric in _METRICS:
        value = metric(sigma, sigma)
        if value != 0:
            return f"{name}(s, s) = {value}, expected 0"
    return None


def _check_reversal(rankings: Rankings) -> str | None:
    sigma, tau = rankings[0], rankings[1]
    for name, metric in _METRICS:
        plain = metric(sigma, tau)
        reversed_both = metric(sigma.reverse(), tau.reverse())
        if plain != reversed_both:
            return (
                f"{name} not reversal-invariant: d(s,t)={plain} but "
                f"d(s^R,t^R)={reversed_both}"
            )
    return None


def _check_star_contraction(rankings: Rankings) -> str | None:
    """Lemma 3 / Lemma 4: refining sigma by tau removes exactly the
    sigma-only tie penalty — ``K^(p)(tau*sigma, tau) = K^(p)(sigma, tau)
    - p |S|`` — and the refinement relation holds."""
    sigma, tau = rankings[0], rankings[1]
    refined = star(tau, sigma)
    if not is_refinement(refined, sigma):
        return f"star(tau, sigma) = {refined!r} does not refine sigma"
    tied_sigma_only = pair_counts(sigma, tau).tied_first_only
    for p in (0.25, 0.5, 1.0):
        before = kendall(sigma, tau, p)
        after = kendall(refined, tau, p)
        expected = before - p * tied_sigma_only
        if after != expected:
            return (
                f"K^({p})(tau*sigma, tau) = {after}, expected "
                f"{before} - {p}*{tied_sigma_only} = {expected}"
            )
    return None


def _check_witnesses(rankings: Rankings) -> str | None:
    """Theorem 5 structure: witnesses are full rankings refining their
    sides, attain the Proposition 6 closed form, and the Hausdorff values
    do not depend on the choice of rho."""
    sigma, tau = rankings[0], rankings[1]
    w = hausdorff_witnesses(sigma, tau)
    for label, witness, side in (
        ("sigma_1", w.sigma_1, sigma),
        ("sigma_2", w.sigma_2, sigma),
        ("tau_1", w.tau_1, tau),
        ("tau_2", w.tau_2, tau),
    ):
        if not witness.is_full:
            return f"witness {label} is not a full ranking: {witness!r}"
        if not is_refinement(witness, side):
            return f"witness {label} does not refine its side"
    from_witnesses = max(
        kendall_full(w.sigma_1, w.tau_1), kendall_full(w.sigma_2, w.tau_2)
    )
    closed_form = kendall_hausdorff_counts(sigma, tau)
    if from_witnesses != closed_form:
        return (
            f"K_Haus from witnesses = {from_witnesses}, Proposition 6 "
            f"closed form = {closed_form}"
        )
    rho_alt = common_full_ranking(sigma).reverse()
    w2 = hausdorff_witnesses(sigma, tau, rho_alt)
    k_alt = max(kendall_full(w2.sigma_1, w2.tau_1), kendall_full(w2.sigma_2, w2.tau_2))
    if k_alt != from_witnesses:
        return f"K_Haus depends on rho: {from_witnesses} vs {k_alt}"
    f_default = max(
        footrule_full(w.sigma_1, w.tau_1), footrule_full(w.sigma_2, w.tau_2)
    )
    f_alt = max(
        footrule_full(w2.sigma_1, w2.tau_1), footrule_full(w2.sigma_2, w2.tau_2)
    )
    if f_default != f_alt:
        return f"F_Haus depends on rho: {f_default} vs {f_alt}"
    return None


def _check_closed_forms(rankings: Rankings) -> str | None:
    """Proposition 6 (``K_Haus = |U| + max(|S|, |T|)``) and Lemma 25
    (``K_prof = |U| + (|S| + |T|)/2``) from independently derived counts."""
    sigma, tau = rankings[0], rankings[1]
    counts = pair_counts(sigma, tau)
    k_haus = kendall_hausdorff_counts(sigma, tau)
    expected_haus = counts.discordant + max(
        counts.tied_first_only, counts.tied_second_only
    )
    if k_haus != expected_haus:
        return f"K_Haus = {k_haus}, Proposition 6 predicts {expected_haus}"
    k_prof = kendall(sigma, tau)
    expected_prof = counts.discordant + (
        counts.tied_first_only + counts.tied_second_only
    ) / 2
    if k_prof != expected_prof:
        return f"K_prof = {k_prof}, Lemma 25 predicts {expected_prof}"
    return None


def _check_equivalence_band(rankings: Rankings) -> str | None:
    """The Theorem 7 constant-factor band (Theorem 20, Theorem 24,
    Lemma 25), delegated to :func:`repro.metrics.equivalence.check_proved_bounds`."""
    bundle = metric_bundle(rankings[0], rankings[1])
    failures = check_proved_bounds(bundle)
    return "; ".join(failures) if failures else None


def _check_diaconis_graham(rankings: Rankings) -> str | None:
    """The classical ``K <= F <= 2K`` on the full refinements obtained by
    star-refining both sides with a common rho."""
    rho = common_full_ranking(rankings[0])
    sigma_full = star(rho, rankings[0])
    tau_full = star(rho, rankings[1])
    k = kendall_full(sigma_full, tau_full)
    f = footrule_full(sigma_full, tau_full)
    if k > f + _TOL or f > 2 * k + _TOL:
        return f"Diaconis-Graham violated on full refinements: K={k}, F={f}"
    return None


def _check_near_triangle(rankings: Rankings) -> str | None:
    """Proposition 13: ``K^(p)`` satisfies the triangle inequality for
    p >= 1/2 and the c-relaxed version with ``c = 1/(2p)`` below; the
    other three metrics are genuine metrics (c = 1)."""
    a, b, c = rankings[0], rankings[1], rankings[2]
    for name, metric in _METRICS:
        direct = metric(a, c)
        detour = metric(a, b) + metric(b, c)
        if direct > detour + _TOL:
            return f"{name} triangle violated: d(a,c)={direct} > {detour}"
    for p, constant in ((0.25, 2.0), (0.5, 1.0), (1.0, 1.0)):
        direct_p = kendall(a, c, p)
        detour_p = kendall(a, b, p) + kendall(b, c, p)
        if direct_p > constant * detour_p + _TOL:
            return (
                f"K^({p}) near-triangle violated: d(a,c)={direct_p} > "
                f"{constant} * {detour_p}"
            )
    return None


def _check_penalty_monotone(rankings: Rankings) -> str | None:
    """``K^(p)`` is nondecreasing (indeed linear) in p: larger tie
    penalties can only increase the distance."""
    sigma, tau = rankings[0], rankings[1]
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    values = [kendall(sigma, tau, p) for p in grid]
    for (p_lo, lo), (p_hi, hi) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if lo > hi + _TOL:
            return f"K^(p) decreasing in p: K^({p_lo})={lo} > K^({p_hi})={hi}"
    return None


def _check_refinement_distance_drop(rankings: Rankings) -> str | None:
    """Refining sigma toward tau never increases any of the four
    distances to tau (the contraction direction of Lemma 3 / Lemma 4)."""
    sigma, tau = rankings[0], rankings[1]
    refined = star(tau, sigma)
    for name, metric in _METRICS:
        before = metric(sigma, tau)
        after = metric(refined, tau)
        if after > before + _TOL:
            return (
                f"{name} increased under refinement toward tau: "
                f"{before} -> {after}"
            )
    return None


def _check_weighted_uniform_median(rankings: Rankings) -> str | None:
    """Weighted median with uniform weights equals the unweighted median.

    With every voter weight equal to a constant ``c > 0`` the weighted L1
    objective is ``c`` times the unweighted one, so the minimizer sets
    coincide — for every tie rule, and bitwise on both the dict reference
    and the library path (the prefix-weight crossings happen at the same
    indices).
    """
    paths = (("dict reference", median_scores_dict), ("library", median_scores))
    for constant in (1.0, 0.5):
        weights = [constant] * len(rankings)
        for tie in ("low", "mid", "high"):
            plain = median_scores_dict(rankings, tie=tie)
            for path, scores in paths:
                if scores(rankings, tie=tie, weights=weights) != plain:
                    return (
                        f"uniform weights {constant} changed the {tie} median "
                        f"on the {path} path"
                    )
    return None


#: Forced tile widths: one item per tile, and a width that leaves a
#: ragged last tile on most domains.
_FORCED_TILES = (1, 3)


def _check_tiled_gemm_agreement(rankings: Rankings) -> str | None:
    """The GEMM classifier agrees with itself at every tile width, with the
    per-pair kernel, and with the object metric.

    On fuzz-sized profiles the default tile covers every item, so the
    check forces widths 1 and 3 to exercise the multi-tile accumulation,
    then compares each against the one-tile result, the per-pair kernel,
    and the object-level :func:`pair_counts` — integer quantities
    throughout, so every comparison is exact."""
    rows = bucket_index_matrix(rankings)
    one_tile = _pair_counts_dense_tiled(rows)
    others = {
        f"{tile}-wide tiles": _pair_counts_dense_tiled(rows, tile)
        for tile in _FORCED_TILES
    }
    others["per-pair kernel"] = _pair_counts_pairs(rows, None)
    for i in range(len(rankings)):
        for j in range(i + 1, len(rankings)):
            reference = one_tile.pair_counts(i, j)
            for name, matrix in others.items():
                other = matrix.pair_counts(i, j)
                if other != reference:
                    return (
                        f"pair ({i},{j}): the {name} gave {other}, "
                        f"one GEMM tile gave {reference}"
                    )
            objectwise = pair_counts(rankings[i], rankings[j])
            if reference != objectwise:
                return (
                    f"pair ({i},{j}): GEMM classifies {reference}, the "
                    f"object metric {objectwise}"
                )
    return None


#: Domain cap for the Kemeny relations: every component DP is at most
#: 2^10 states, so the checks stay cheap on every fuzzed profile.
_DECOMPOSE_MAX_ITEMS = 10


def _kemeny_sized(rankings: Rankings) -> Rankings:
    """The profile restricted to its first :data:`_DECOMPOSE_MAX_ITEMS` items."""
    domain = sorted(rankings[0].domain, key=repr)
    if len(domain) <= _DECOMPOSE_MAX_ITEMS:
        return rankings
    keep = domain[:_DECOMPOSE_MAX_ITEMS]
    return tuple(sigma.restricted_to(keep) for sigma in rankings)


def _check_scc_decomposition(rankings: Rankings) -> str | None:
    """The decomposed solver certifies the monolithic optimum.

    On a (self-restricted) instance small enough to cross-check:

    * the SCC components partition the domain and the returned ranking
      places them in an order where every cross-component pair sits at
      its pairwise-minimum cost (the soundness precondition);
    * the decomposed objective equals the monolithic Held–Karp optimum
      *exactly* (both are an integer optimum plus ``p·T``), and
      independently re-evaluating the returned ranking against the
      profile reproduces it;
    * the reported lower bound never exceeds the optimum.
    """
    rankings = _kemeny_sized(rankings)
    result = kemeny_decomposed(rankings, require_exact=True)
    if not result.exact:
        return "require_exact=True returned a result with exact=False"
    _, monolithic = kemeny_monolithic(rankings)
    if result.objective != monolithic:
        return (
            f"decomposed optimum {result.objective} != monolithic "
            f"Held-Karp optimum {monolithic}"
        )
    reevaluated = total_distance(result.ranking, rankings, "k_prof")
    if reevaluated != result.objective:
        return (
            f"reported objective {result.objective} but the ranking costs "
            f"{reevaluated} against the profile"
        )
    covered = [item for component in result.components for item in component]
    if sorted(covered, key=repr) != sorted(rankings[0].domain, key=repr) or len(
        covered
    ) != len(set(covered)):
        return "SCC components do not partition the domain"
    items, ahead, _ = pair_cost_array(rankings)
    slot = {item: i for i, item in enumerate(items)}
    for a, earlier in enumerate(result.components):
        for later in result.components[a + 1 :]:
            for x in earlier:
                for y in later:
                    forward = ahead[slot[x], slot[y]]
                    backward = ahead[slot[y], slot[x]]
                    if forward > backward:
                        return (
                            f"components misordered: placing {x!r} before "
                            f"{y!r} costs {forward} > {backward}"
                        )
    if result.lower_bound > result.objective + _TOL:
        return (
            f"pairwise lower bound {result.lower_bound} exceeds the "
            f"optimum {result.objective}"
        )
    return None


#: Tie penalties whose multiples are exact in float64, plus one that is
#: not: there a float solve could break a tie among optima by rounding.
_DYADIC_PENALTIES = (0.5, 1.0)
_NON_DYADIC_PENALTY = 0.1


def _check_kemeny_p_invariance(rankings: Rankings) -> str | None:
    """The decomposed solve does not depend on the tie penalty ``p``.

    On the (self-restricted) instance, against the solve at ``p = 0``,
    for ``p`` in {0.1, 1/2, 1}:

    * the ranking and the components are identical;
    * the objective equals ``objective(0) + p·T`` exactly, ``T`` being
      the number of (input, pair) ties;
    * at dyadic ``p`` the objective equals the monolithic Held–Karp
      optimum bit for bit.
    """
    rankings = _kemeny_sized(rankings)
    _, _, ties = pair_cost_array(rankings)
    base = kemeny_decomposed(rankings, 0.0)
    for p in (_NON_DYADIC_PENALTY, *_DYADIC_PENALTIES):
        result = kemeny_decomposed(rankings, p)
        if result.ranking != base.ranking:
            return f"ranking at p={p} {result.ranking!r} != at p=0 {base.ranking!r}"
        if result.components != base.components:
            return f"components at p={p} differ from those at p=0"
        if result.objective != base.objective + p * ties:
            return (
                f"objective at p={p} is {result.objective}, expected "
                f"{base.objective} + {p}*{ties}"
            )
        if p in _DYADIC_PENALTIES:
            _, monolithic = kemeny_monolithic(rankings, p)
            if result.objective != monolithic:
                return (
                    f"objective at p={p} is {result.objective}, monolithic "
                    f"Held-Karp optimum {monolithic}"
                )
    return None


_RELATIONS: tuple[Relation, ...] = (
    Relation("symmetry", 2, "metric axiom (Proposition 13)", _check_symmetry),
    Relation("regularity", 1, "metric axiom: d(x, x) = 0", _check_regularity),
    Relation("reversal-invariance", 2, "relabeling invariance", _check_reversal),
    Relation("star-contraction", 2, "Lemma 3 / Lemma 4", _check_star_contraction),
    Relation("hausdorff-witnesses", 2, "Theorem 5 / Proposition 6", _check_witnesses),
    Relation("closed-forms", 2, "Proposition 6 / Lemma 25", _check_closed_forms),
    Relation("equivalence-band", 2, "Theorem 7 (Theorem 20, Theorem 24)", _check_equivalence_band),
    Relation("diaconis-graham", 2, "classical K <= F <= 2K on full rankings", _check_diaconis_graham),
    Relation("near-triangle", 3, "Proposition 13", _check_near_triangle),
    Relation("penalty-monotonicity", 2, "K^(p) linear in p", _check_penalty_monotone),
    Relation(
        "refinement-monotonicity", 2, "Lemma 3 / Lemma 4", _check_refinement_distance_drop
    ),
    Relation(
        "tiled-gemm-agreement",
        0,
        "Proposition 6 pair categories: many GEMM tiles == one tile == per-pair",
        _check_tiled_gemm_agreement,
    ),
    Relation(
        "kemeny-scc-decomposition",
        0,
        "ParCons condensation: decomposed optimum == monolithic Held-Karp optimum",
        _check_scc_decomposition,
    ),
    Relation(
        "kemeny-p-invariance",
        0,
        "Kemeny p-invariance: one integer solve, objective = optimum + p*T",
        _check_kemeny_p_invariance,
    ),
    Relation(
        "median-weighted-uniform",
        0,
        "Lemma 8 / Lemma 8W: uniform voter weights reduce to the plain median",
        _check_weighted_uniform_median,
    ),
)


def _plugin_symmetry_check(
    name: str, metric: Callable[[PartialRanking, PartialRanking], float]
) -> _CheckFn:
    def check(rankings: Rankings) -> str | None:
        sigma, tau = rankings[0], rankings[1]
        forward = metric(sigma, tau)
        backward = metric(tau, sigma)
        if forward != backward:
            return f"{name} not symmetric: d(s,t)={forward} but d(t,s)={backward}"
        return None

    return check


def _plugin_regularity_check(
    name: str, metric: Callable[[PartialRanking, PartialRanking], float]
) -> _CheckFn:
    def check(rankings: Rankings) -> str | None:
        sigma = rankings[0]
        value = metric(sigma, sigma)
        if value != 0:
            return f"{name}(s, s) = {value}, expected 0"
        return None

    return check


def _plugin_relations() -> tuple[Relation, ...]:
    """Auto-contributed symmetry + regularity checks per metric plugin.

    Each registered non-builtin plugin claims an ``axiom_class``; the
    bare minimum either class implies is symmetry and ``d(x, x) = 0``,
    so every plugin gets both relations for free (mirroring
    :func:`_check_symmetry` / :func:`_check_regularity`, which keep
    covering the four built-ins). Rebuilt per call so late-registered
    plugins propagate to ``--list-checks`` and the fuzz loop.
    """
    # Imported lazily: force first-party plugin registration without a
    # module-level verify -> plugins import edge.
    import repro.metrics.plugins  # noqa: F401
    from repro.metrics.registry import registered_metrics

    rels = []
    for plugin in registered_metrics():
        if plugin.builtin:
            continue
        rels.append(
            Relation(
                f"symmetry-{plugin.name}",
                2,
                f"metric axiom ({plugin.axiom_class}): {plugin.citation}",
                _plugin_symmetry_check(plugin.name, plugin.scalar),
            )
        )
        rels.append(
            Relation(
                f"regularity-{plugin.name}",
                1,
                f"metric axiom ({plugin.axiom_class}): {plugin.citation}",
                _plugin_regularity_check(plugin.name, plugin.scalar),
            )
        )
    return tuple(rels)


def relations() -> tuple[Relation, ...]:
    """The full metamorphic relation catalog.

    The static catalog plus auto-contributed symmetry/regularity
    relations for every registered non-builtin metric plugin.
    """
    return _RELATIONS + _plugin_relations()
