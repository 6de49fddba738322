"""Galton-Watson trees with Binomial(N, p) offspring.

The total progeny F of such a tree is the idealized cluster size of
percolation on a degree-N graph, and everything here is exact given the
hitting-time identity

    P(F = k) = (1/k) * P(Bin(k*N, p) = k - 1),

so tails and interval masses are finite sums of binomial point masses.
Extinction probabilities come from the fixed point of the generating
function, reached by monotone iteration from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hammingperc.calibration import TAIL_DIFFERENCE_CONSTANT
from hammingperc.graph import DomainError
from hammingperc.rng import stream_rng

__all__ = [
    "GWSpec",
    "GWTail",
    "TailDifference",
    "extinction_probability",
    "interval_probability",
    "progeny_pmf",
    "progeny_pmf_array",
    "simulate_gw_batch",
    "survival_probability",
    "tail_difference",
    "tail_probability",
]


@dataclass(frozen=True)
class GWSpec:
    """Offspring law Bin(N, p); mean lam = N*p, criticality epsilon = lam - 1."""

    N: int
    p: float

    def __post_init__(self):
        if self.N < 1:
            raise DomainError(f"need N >= 1, got {self.N}")
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"offspring probability {self.p} outside [0, 1]")

    @property
    def lam(self) -> float:
        return self.N * self.p

    @property
    def epsilon(self) -> float:
        return self.lam - 1.0


def progeny_pmf_array(spec: GWSpec, ks: np.ndarray) -> np.ndarray:
    """P(F = k) for an integer array of sizes k >= 1."""
    # imported here, its one use: scipy.stats adds about 38 MB and half a
    # second to importing the package
    from scipy.stats import binom

    ks = np.asarray(ks, dtype=np.float64)
    if ks.size and ks.min() < 1:
        raise DomainError("total progeny sizes start at k = 1")
    with np.errstate(divide="ignore"):
        logp = binom.logpmf(ks - 1.0, ks * spec.N, spec.p) - np.log(ks)
    return np.exp(logp)


def progeny_pmf(spec: GWSpec, k: int) -> float:
    """P(F = k), the probability the tree has exactly k vertices in total."""
    return float(progeny_pmf_array(spec, np.array([k]))[0])


def extinction_probability(spec: GWSpec, tol: float = 1e-14,
                           max_iter: int = 10**6) -> float:
    """Smallest root a of a = (1 - p*(1-a))**N.

    Subcritical and critical laws die out surely, so lam <= 1 returns 1.0
    exactly.  Otherwise iterate a -> f(a) from a = 0; f is increasing, so the
    iterates climb monotonically to the smallest fixed point.  Stops once an
    increment falls below ``tol``.
    """
    if spec.lam <= 1.0:
        return 1.0
    a = 0.0
    for _ in range(max_iter):
        # (1 - p(1-a))**N, evaluated in log space to keep precision near 1
        x = -spec.p * (1.0 - a)
        nxt = math.exp(spec.N * math.log1p(x)) if x > -1.0 else 0.0
        if nxt - a < tol:
            return nxt
        a = nxt
    raise RuntimeError(f"extinction fixed point did not converge for {spec}")


def survival_probability(spec: GWSpec) -> float:
    return 1.0 - extinction_probability(spec)


@dataclass(frozen=True)
class GWTail:
    """Prefix sums of the total-progeny law up to a recorded cutoff K.

    ``pmf_prefix[k-1]`` is P(F <= k); every prefix is bounded by the
    extinction probability, which the full sum approaches as K grows.
    """

    spec: GWSpec
    K: int
    pmf_prefix: np.ndarray
    extinction_prob: float
    survival_prob: float


def compute_gw_tail(spec: GWSpec, K: int) -> GWTail:
    if K < 1:
        raise DomainError(f"need cutoff K >= 1, got {K}")
    pmf = progeny_pmf_array(spec, np.arange(1, K + 1, dtype=np.int64))
    a = extinction_probability(spec)
    return GWTail(
        spec=spec,
        K=K,
        pmf_prefix=np.cumsum(pmf),
        extinction_prob=a,
        survival_prob=1.0 - a,
    )


def tail_probability(spec: GWSpec, ell: int) -> float:
    """P(F >= ell): one minus the compensated sum of the pmf below ell."""
    if ell < 1:
        raise DomainError(f"need ell >= 1, got {ell}")
    if ell == 1:
        return 1.0
    pmf = progeny_pmf_array(spec, np.arange(1, ell, dtype=np.int64))
    return 1.0 - math.fsum(pmf)


def interval_probability(spec: GWSpec, ell: int) -> float:
    """P(ell <= F <= 2*ell)."""
    if ell < 1:
        raise DomainError(f"need ell >= 1, got {ell}")
    pmf = progeny_pmf_array(spec, np.arange(ell, 2 * ell + 1, dtype=np.int64))
    return math.fsum(pmf)


@dataclass(frozen=True)
class TailDifference:
    """Exact tail gap of two offspring laws, with its theoretical ceiling."""

    value: float
    bound: float


def tail_difference(spec_a: GWSpec, spec_b: GWSpec, ell: int) -> TailDifference:
    """|P_a(F >= ell) - P_b(F >= ell)| for two supercritical laws sharing p,
    with N_a >= N_b, next to the ceiling C*(|eps_a - eps_b| + 1/(N_a*sqrt(ell))
    + 1/ell**3)."""
    if spec_a.p != spec_b.p:
        raise DomainError("tail comparison assumes a common edge probability p")
    if spec_a.N < spec_b.N:
        raise DomainError("expected N_a >= N_b")
    if spec_a.epsilon <= 0.0 or spec_b.epsilon <= 0.0:
        raise DomainError("tail comparison is for supercritical laws only")
    value = abs(tail_probability(spec_a, ell) - tail_probability(spec_b, ell))
    bound = TAIL_DIFFERENCE_CONSTANT * (
        abs(spec_a.epsilon - spec_b.epsilon)
        + 1.0 / (spec_a.N * math.sqrt(ell))
        + 1.0 / ell**3
    )
    return TailDifference(value=value, bound=bound)


def simulate_gw_batch(spec: GWSpec, cap: int, samples: int, seed: int) -> np.ndarray:
    """Capped total progeny of ``samples`` independent trees.

    Generation sizes are simulated directly: the children of a generation of
    g individuals are one Bin(g*N, p) draw.
    """
    if cap < 1:
        raise DomainError(f"need cap >= 1, got {cap}")
    rng = stream_rng(seed, 0)
    total = np.ones(samples, dtype=np.int64)
    current = np.ones(samples, dtype=np.int64)
    active = np.arange(samples)
    while active.size:
        draw = rng.binomial(current[active] * spec.N, spec.p)
        total[active] += draw
        current[active] = draw
        keep = (draw > 0) & (total[active] < cap)
        active = active[keep]
    return np.minimum(total, cap)
