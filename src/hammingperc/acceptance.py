"""The eleven gate checks behind `hamming-perc verify`.

Each criterion function is self-contained, uses a frozen master seed, and
returns a CriterionResult; the test suite and the CLI both consume these.
Checks against exact oracles run at 3 standard errors, finite-size bands
come from the calibration module, and every result carries the observed
numbers in its details string.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from hammingperc import calibration
from hammingperc.branching import (
    GWSpec,
    compute_gw_tail,
    survival_probability,
    tail_probability,
)
from hammingperc.bruteforce import exact_expectation
from hammingperc.graph import HammingGraph
from hammingperc.percolation import (
    PercolationConfig,
    connected_components,
    sample_configuration,
)
from hammingperc.sprinkling import two_round_exposure
from hammingperc.stats import (
    Estimate,
    estimate_chi,
    estimate_cluster_tail,
    giant_lln_report,
    replica_summaries,
    z_concentration_report,
)

__all__ = ["ALL_CRITERIA", "CriterionResult"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict} criterion {self.number:2d} "
                f"[{self.seconds:7.1f}s] {self.name}: {self.details}")


# replicas summarized at a time by _small_graph_mc, which bounds the memory
# its per-replica summaries take
_MC_CHUNK = 10_000


def _small_graph_mc(epsilon: float, seed: int, replicas: int, ks):
    """Full-configuration Monte Carlo on H(2,3): cmax, chi, and tails."""
    g = HammingGraph(2, 3)
    V = g.num_vertices
    cfg = PercolationConfig(g, epsilon=epsilon, seed=seed)
    # per replica: cmax, then Z_{>=k} at every k = 1..V, whose sum is the sum
    # of squared component sizes
    rows = []
    for lo in range(0, replicas, _MC_CHUNK):
        streams = range(lo, min(lo + _MC_CHUNK, replicas))
        rows += [(s.cmax, *map(itemgetter(1), s.z_geq_table))
                 for s in replica_summaries(cfg, streams, ks=range(1, V + 1))]
    table = np.array(rows, dtype=float)
    return (
        Estimate.from_samples(table[:, 0]),
        Estimate.from_samples(table[:, 1:].sum(axis=1) / V),
        {k: Estimate.from_samples(table[:, k] / V) for k in ks},
    )


def criterion_1_small_graph_exact() -> CriterionResult:
    """Monte Carlo on H(2,3) within 3 std errors of exhaustive enumeration."""
    t0 = time.perf_counter()
    g = HammingGraph(2, 3)
    ks = (2, 4, 6)
    replicas = 100_000
    worst = 0.0
    for p in (0.1, 0.25, 0.5):
        eps = p * g.degree - 1.0
        mc_cmax, mc_chi, mc_tails = _small_graph_mc(eps, seed=101,
                                                    replicas=replicas, ks=ks)
        checks = [(mc_cmax, exact_expectation(g, p, "cmax")),
                  (mc_chi, exact_expectation(g, p, "chi"))]
        checks += [
            (mc_tails[k], exact_expectation(g, p, "cluster_tail", k=k))
            for k in ks
        ]
        for est, exact in checks:
            worst = max(worst, abs(est.mean - exact) / est.std_error)
    return CriterionResult(
        1, "small-graph exact agreement", worst <= 3.0,
        f"worst deviation {worst:.2f} std errors (limit 3) over "
        f"3 probabilities x 5 quantities, {replicas} replicas each",
        time.perf_counter() - t0,
    )


def criterion_2_progeny_mass() -> CriterionResult:
    """Summed progeny masses converge to the extinction probability."""
    t0 = time.perf_counter()
    spec = GWSpec(2000, 1.05 / 2000)
    tail = compute_gw_tail(spec, 1_000_000)
    a = tail.extinction_prob
    total = float(tail.pmf_prefix[-1])
    overshoot = float(np.max(tail.pmf_prefix) - a)
    ok = abs(total - a) <= 1e-6 and overshoot <= 1e-9
    return CriterionResult(
        2, "progeny mass vs extinction fixed point", ok,
        f"|sum - a| = {abs(total - a):.2e} (limit 1e-06), "
        f"max overshoot {overshoot:.2e} (limit 1e-09)",
        time.perf_counter() - t0,
    )


def criterion_3_tail_band() -> CriterionResult:
    """Near-critical tail stays within 2*eps up to explicit error terms."""
    t0 = time.perf_counter()
    eps = 0.05
    ell = 10_000
    value = tail_probability(GWSpec(2000, (1 + eps) / 2000), ell)
    limit = 3.0 * eps * eps + 2.0 / math.sqrt(ell)
    gap = abs(value - 2.0 * eps)
    return CriterionResult(
        3, "near-critical tail band", gap <= limit,
        f"|tail({ell}) - 2eps| = {gap:.5f} (limit {limit:.5f})",
        time.perf_counter() - t0,
    )


def criterion_4_survival_asymptotic() -> CriterionResult:
    """Survival probability equals 2*eps up to a quadratic band."""
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for eps in (0.005, 0.01, 0.02, 0.05):
        zeta = survival_probability(GWSpec(10_000, (1 + eps) / 10_000))
        gap = abs(zeta - 2.0 * eps)
        ok = ok and gap <= 5.0 * eps * eps
        worst = max(worst, gap / (eps * eps))
    return CriterionResult(
        4, "survival asymptotic band", ok,
        f"max |zeta - 2eps| / eps^2 = {worst:.2f} (limit 5)",
        time.perf_counter() - t0,
    )


def criterion_5_giant_lln() -> CriterionResult:
    """Median largest-component fraction tracks both references."""
    t0 = time.perf_counter()
    cfg = PercolationConfig(HammingGraph(2, 300), epsilon=0.15, seed=3)
    report = giant_lln_report(cfg, replicas=30)
    s = report.summary
    lo, hi = calibration.GIANT_RATIO_BRACKET
    return CriterionResult(
        5, "largest-component law of large numbers", bool(report.passed),
        f"median/survival = {s['ratio_to_survival']:.4f} "
        f"(band 1 +- {calibration.GIANT_MEDIAN_BAND}), "
        f"median/(2 eps) = {s['ratio_to_two_eps']:.4f} "
        f"(bracket [{lo}, {hi}])",
        time.perf_counter() - t0,
    )


def criterion_6_cluster_tail() -> CriterionResult:
    """Exploration tail matches survival and never beats the upper bound."""
    t0 = time.perf_counter()
    g = HammingGraph(2, 300)
    eps = 0.15
    eta = math.sqrt(eps) * g.num_vertices ** (-1.0 / 6.0)
    cap = math.ceil(eta * g.num_vertices)
    cfg = PercolationConfig(g, epsilon=eps, seed=8)
    spec = GWSpec(g.degree, cfg.p)
    zeta = survival_probability(spec)
    bound = tail_probability(spec, cap)
    est = estimate_cluster_tail(cfg, k=cap, samples=10_000)
    rel = abs(est.mean / zeta - 1.0)
    excess = (est.mean - bound) / est.std_error
    ok = rel <= 0.10 and excess <= 3.0
    return CriterionResult(
        6, "cluster tail vs survival reference", ok,
        f"estimate {est.mean:.4f} vs zeta {zeta:.4f} "
        f"(relative gap {rel:.4f}, limit 0.10); "
        f"excess over upper bound {excess:+.2f} std errors (limit +3)",
        time.perf_counter() - t0,
    )


@lru_cache(maxsize=1)
def _sprinkle_runs():
    """The 20 frozen two-round runs shared by criteria 7 and 8."""
    g = HammingGraph(2, 500)
    eps = 0.1
    eta = math.sqrt(eps) * g.num_vertices ** (-1.0 / 6.0)
    cfg = PercolationConfig(g, epsilon=eps, seed=10)
    return tuple(
        two_round_exposure(cfg, eta=eta, stream=s) for s in range(20)
    )


def criterion_7_sprinkling() -> CriterionResult:
    """The sprinkle welds the large first-round clusters into one."""
    t0 = time.perf_counter()
    runs = _sprinkle_runs()
    merged = sum(r.merged_after for r in runs)
    covered = all(
        r.cmax_after >= 0.99 * r.z_prime for r in runs if r.merged_after
    )
    frac = merged / len(runs)
    ok = frac >= calibration.SPRINKLE_MERGE_FRACTION and covered
    return CriterionResult(
        7, "two-round merge", ok,
        f"merged in {merged}/{len(runs)} replicas "
        f"(need >= {calibration.SPRINKLE_MERGE_FRACTION:.0%}), "
        f"post-merge cover >= 0.99 z' in all merged: {covered}",
        time.perf_counter() - t0,
    )


def criterion_8_good_lines() -> CriterionResult:
    """Large first-round clusters spread over most horizontal lines."""
    t0 = time.perf_counter()
    runs = _sprinkle_runs()
    n = 500
    good = sum(
        len(r.clusters_before) >= 1
        and all(c >= 3 * n // 4 for c in r.good_lines_before)
        for r in runs
    )
    frac = good / len(runs)
    return CriterionResult(
        8, "good-line coverage", frac >= calibration.GOOD_LINE_REPLICA_FRACTION,
        f"all large clusters spread over >= {3 * n // 4} lines in "
        f"{good}/{len(runs)} replicas "
        f"(need >= {calibration.GOOD_LINE_REPLICA_FRACTION:.0%})",
        time.perf_counter() - t0,
    )


def criterion_9_subcritical_chi() -> CriterionResult:
    """Subcritical mean cluster size approaches 1/|eps|."""
    t0 = time.perf_counter()
    cfg = PercolationConfig(HammingGraph(2, 300), epsilon=-0.2, seed=6)
    est = estimate_chi(cfg, samples=10_000)
    reference = 1.0 / 0.2
    rel = abs(est.mean / reference - 1.0)
    tol = calibration.CHI_SUBCRITICAL_TOLERANCE
    return CriterionResult(
        9, "subcritical mean cluster size", rel <= tol,
        f"chi estimate {est.mean:.3f} vs {reference}, relative gap "
        f"{rel:.4f} (limit {tol})",
        time.perf_counter() - t0,
    )


def criterion_10_critical_window() -> CriterionResult:
    """At eps = 0 the largest component lives on the V^(2/3) scale."""
    t0 = time.perf_counter()
    g = HammingGraph(2, 300)
    cfg = PercolationConfig(g, epsilon=0.0, seed=9)
    scale = g.num_vertices ** (2.0 / 3.0)
    lo, hi = calibration.CRITICAL_WINDOW_BRACKET
    multiples = np.array([
        connected_components(sample_configuration(cfg, stream=s)).cmax / scale
        for s in range(30)
    ])
    inside = float(np.mean((multiples >= lo) & (multiples <= hi)))
    need = calibration.CRITICAL_WINDOW_FRACTION
    return CriterionResult(
        10, "critical-window scale", inside >= need,
        f"cmax/V^(2/3) in [{lo}, {hi}] for {inside:.0%} of 30 replicas "
        f"(need >= {need:.0%}); median multiple "
        f"{float(np.median(multiples)):.2f}",
        time.perf_counter() - t0,
    )


def criterion_11_concentration() -> CriterionResult:
    """Z_{>=k} concentrates: its spread is small next to eps*V."""
    t0 = time.perf_counter()
    g = HammingGraph(2, 300)
    k = math.ceil(g.num_vertices ** (2.0 / 3.0))
    cfg = PercolationConfig(g, epsilon=0.15, seed=3)
    report = z_concentration_report(cfg, k=k, replicas=30)
    sd = report.summary["normalized_sd"]
    return CriterionResult(
        11, "large-component count concentration", bool(report.passed),
        f"sd(Z_k)/(eps V) = {sd:.4f} "
        f"(limit {calibration.Z_CONCENTRATION_THRESHOLD})",
        time.perf_counter() - t0,
    )


ALL_CRITERIA = (
    criterion_1_small_graph_exact,
    criterion_2_progeny_mass,
    criterion_3_tail_band,
    criterion_4_survival_asymptotic,
    criterion_5_giant_lln,
    criterion_6_cluster_tail,
    criterion_7_sprinkling,
    criterion_8_good_lines,
    criterion_9_subcritical_chi,
    criterion_10_critical_window,
    criterion_11_concentration,
)
