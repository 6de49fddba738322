"""Monte-Carlo estimation layer over configurations and explorations.

Every estimator pulls one RNG stream per replica index, so two quantities
computed at the same (seed, replica) reuse the same randomness.  Tail
estimates at nested caps are coupled monotone for that reason: the k-th
success indicator is a nonincreasing function of k along a fixed stream.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from hammingperc import calibration
from hammingperc.branching import GWSpec, survival_probability
from hammingperc.exploration import ExplorationEngine
from hammingperc.graph import DomainError
from hammingperc.percolation import (
    UNION_FIND_MAX_VERTICES,
    ClusterStats,
    PercolationConfig,
    batch_components,
    connected_components,
    sample_configuration,
    sample_edges,
)
from hammingperc.rng import stream_rng, stream_rngs

__all__ = [
    "Estimate",
    "ReplicaSummary",
    "Report",
    "duality_diagnostic",
    "estimate_chi",
    "estimate_cluster_tail",
    "giant_lln_report",
    "replica_summaries",
    "replica_summary",
    "wilson_interval",
    "z_concentration_report",
]


def wilson_interval(successes: int, trials: int,
                    z: float = 1.96) -> tuple[float, float]:
    """Score interval for a Bernoulli mean; behaves sanely near 0 and 1."""
    if trials < 1 or not 0 <= successes <= trials:
        raise DomainError(f"bad Bernoulli counts {successes}/{trials}")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials
                    + z * z / (4.0 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its spread and a 95% interval."""

    mean: float
    std_error: float
    n_samples: int
    ci95_low: float
    ci95_high: float

    @classmethod
    def from_samples(cls, values) -> "Estimate":
        """Sample mean with a normal-approximation interval."""
        xs = np.asarray(values, dtype=float)
        if xs.size < 1:
            raise DomainError("need at least one sample")
        mean = float(xs.mean())
        se = (
            float(xs.std(ddof=1) / math.sqrt(xs.size)) if xs.size > 1 else 0.0
        )
        return cls(mean, se, int(xs.size), mean - 1.96 * se, mean + 1.96 * se)

    @classmethod
    def bernoulli(cls, successes: int, trials: int) -> "Estimate":
        """Fraction of successes with a Wilson interval (tails sit near 0)."""
        lo, hi = wilson_interval(successes, trials)
        phat = successes / trials
        se = math.sqrt(phat * (1.0 - phat) / trials)
        return cls(phat, se, trials, lo, hi)


@dataclass(frozen=True)
class ReplicaSummary:
    """Component statistics of one full-configuration replica."""

    seed: int  # stream index the replica was drawn from
    cmax: int
    c2: int
    z_geq_table: tuple  # ((k, Z_{>=k}), ...) with k strictly increasing

    def __post_init__(self):
        if self.cmax < self.c2:
            raise DomainError("cmax smaller than the second component")
        ks, zs = zip(*self.z_geq_table) if self.z_geq_table else ((), ())
        if any(map(operator.ge, ks, ks[1:])):
            raise DomainError("thresholds must increase strictly")
        if any(map(operator.lt, zs, zs[1:])):
            raise DomainError("Z values cannot increase with k")


def replica_summary(cfg: PercolationConfig, replica: int, ks=(),
                    stats: ClusterStats | None = None) -> ReplicaSummary:
    """Summarize the configuration on stream ``replica``: sample it and take
    its components, or use ``stats`` when they are already known."""
    if stats is None:
        stats = connected_components(sample_configuration(cfg, stream=replica))
    ks = sorted(set(map(int, ks)))
    if ks and ks[0] < 1:
        raise DomainError(f"need k >= 1, got {ks[0]}")
    zs = []
    if ks:
        # only the sizes >= the smallest k count, and they lead the sizes
        # (largest first); over them in ascending order, Z_{>=k} is the
        # total minus one prefix sum, found by bisection
        s = stats.sizes
        head = s[:s.size - int(s[::-1].searchsorted(ks[0]))].tolist()
        head.reverse()
        below = list(itertools.accumulate(head, initial=0))
        zs = [below[-1] - below[bisect.bisect_left(head, k)] for k in ks]
    return ReplicaSummary(
        seed=replica,
        cmax=stats.cmax,
        c2=stats.c2,
        z_geq_table=tuple(zip(ks, zs)),
    )


def replica_summaries(cfg: PercolationConfig, streams,
                      ks=()) -> list[ReplicaSummary]:
    """``[replica_summary(cfg, r, ks) for r in streams]``, with the same draws.

    On graphs of at most UNION_FIND_MAX_VERTICES vertices, where a
    components call costs more in fixed overhead than in work, the
    configurations are sampled on one re-keyed generator and their
    components taken in batches by :func:`batch_components`.
    """
    streams = list(streams)
    g = cfg.graph
    if g.num_vertices > UNION_FIND_MAX_VERTICES:
        return [replica_summary(cfg, r, ks) for r in streams]
    configs = (sample_edges(g, cfg.p, rng)
               for rng in stream_rngs(cfg.seed, streams))
    return [replica_summary(cfg, r, ks, stats=stats)
            for r, stats in zip(streams, batch_components(configs))]


def estimate_chi(cfg: PercolationConfig, samples: int,
                 stream_base: int = 0) -> Estimate:
    """Mean cluster size of a uniformly random vertex, explored to cap V.

    The graph is vertex-transitive, so the origin does not matter for the
    law; random origins just decorrelate the replica streams.  The cap V is
    exact, never a truncation.
    """
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples}")
    g = cfg.graph
    engine = ExplorationEngine(cfg)
    sizes = np.empty(samples)
    for r in range(samples):
        rng = stream_rng(cfg.seed, stream_base + r)
        origin = g.vertex_coords(int(rng.integers(g.num_vertices)))
        sizes[r] = engine.run(origin, cap=g.num_vertices,
                              rng=rng).cluster_size_capped
    return Estimate.from_samples(sizes)


def estimate_cluster_tail(cfg: PercolationConfig, k: int, samples: int,
                          stream_base: int = 0) -> Estimate:
    """P(|C(v)| >= k) as the fraction of explorations reaching size k.

    Runs are capped at k, which leaves the reach-k indicator exact, and at
    a fixed stream the indicator is nonincreasing in k.
    """
    g = cfg.graph
    if not 1 <= k <= g.num_vertices:
        raise DomainError(f"need 1 <= k <= {g.num_vertices}, got {k}")
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples}")
    engine = ExplorationEngine(cfg)
    hits = 0
    for r in range(samples):
        rng = stream_rng(cfg.seed, stream_base + r)
        origin = g.vertex_coords(int(rng.integers(g.num_vertices)))
        hits += engine.run(origin, cap=k, rng=rng).cluster_size_capped >= k
    return Estimate.bernoulli(int(hits), samples)


@dataclass
class Report:
    """Replica-level outcome: per-replica rows, a summary and a verdict."""

    per_replica: list
    summary: dict
    passed: bool | None  # None marks a purely informational report


def z_concentration_report(cfg: PercolationConfig, k: int,
                           replicas: int) -> Report:
    """Across-replica spread of Z_{>=k}, normalized by eps*V."""
    if replicas < 2:
        raise DomainError(f"need replicas >= 2, got {replicas}")
    summaries = replica_summaries(cfg, range(replicas), ks=(k,))
    zs = np.array([s.z_geq_table[0][1] for s in summaries], dtype=float)
    V = cfg.graph.num_vertices
    eps = cfg.epsilon
    sd = float(zs.std(ddof=1))
    normalized = sd / (abs(eps) * V) if eps != 0.0 else None
    limit = calibration.Z_CONCENTRATION_THRESHOLD
    return Report(
        per_replica=[
            {"replica": s.seed, "z": s.z_geq_table[0][1]} for s in summaries
        ],
        summary={"z_mean": float(zs.mean()), "z_sd": sd,
                 "normalized_sd": normalized},
        passed=None if normalized is None else bool(normalized <= limit),
    )


def giant_lln_report(cfg: PercolationConfig, replicas: int) -> Report:
    """Median largest-component fraction against its two references.

    The refined reference is the survival probability of the matching
    branching process; the leading-order reference is 2*eps.
    """
    if cfg.epsilon <= 0.0:
        raise DomainError("the largest-component law needs epsilon > 0")
    if replicas < 1:
        raise DomainError(f"need replicas >= 1, got {replicas}")
    summaries = replica_summaries(cfg, range(replicas))
    V = cfg.graph.num_vertices
    eps = cfg.epsilon
    fractions = np.array([s.cmax / V for s in summaries])
    zeta = survival_probability(GWSpec(cfg.graph.degree, cfg.p))
    median = float(np.median(fractions))
    band = calibration.GIANT_MEDIAN_BAND
    lo, hi = calibration.GIANT_RATIO_BRACKET
    ratio_zeta = median / zeta
    ratio_two_eps = median / (2.0 * eps)
    return Report(
        per_replica=[
            {"replica": s.seed, "cmax": s.cmax, "c2": s.c2,
             "cmax_fraction": s.cmax / V}
            for s in summaries
        ],
        summary={
            "median_fraction": median,
            "survival_reference": zeta,
            "ratio_to_survival": ratio_zeta,
            "ratio_to_two_eps": ratio_two_eps,
            "replica_fraction_within_survival_band": float(
                np.mean(np.abs(fractions / zeta - 1.0) <= band)),
            "replica_fraction_within_two_eps_bracket": float(
                np.mean((fractions / (2.0 * eps) >= lo)
                        & (fractions / (2.0 * eps) <= hi))),
        },
        passed=bool(abs(ratio_zeta - 1.0) <= band
                    and lo <= ratio_two_eps <= hi),
    )


def duality_diagnostic(cfg: PercolationConfig, replicas: int) -> Report:
    """Second-component sizes scaled by eps^2 / (2 log(eps^3 V)).

    Purely informational: the scaling is a conjectured law, so the report
    never carries a pass/fail verdict.
    """
    eps = cfg.epsilon
    V = cfg.graph.num_vertices
    if eps <= 0.0 or eps ** 3 * V <= 1.0:
        raise DomainError(
            "the second-component diagnostic needs eps > 0 and eps^3 V > 1"
        )
    if replicas < 1:
        raise DomainError(f"need replicas >= 1, got {replicas}")
    summaries = replica_summaries(cfg, range(replicas))
    scale = eps * eps / (2.0 * math.log(eps ** 3 * V))
    ratios = np.array([s.c2 * scale for s in summaries])
    return Report(
        per_replica=[
            {"replica": s.seed, "c2": s.c2, "scaled_c2": float(r)}
            for s, r in zip(summaries, ratios)
        ],
        summary={
            "median_scaled_c2": float(np.median(ratios)),
            "mean_scaled_c2": float(ratios.mean()),
        },
        passed=None,
    )
