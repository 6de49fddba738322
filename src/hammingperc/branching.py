"""Galton-Watson trees with Binomial(N, p) offspring.

The total progeny F of such a tree is the idealized cluster size of
percolation on a degree-N graph, and everything here is exact given the
hitting-time identity

    P(F = k) = (1/k) * P(Bin(k*N, p) = k - 1),

so tails are finite sums of binomial point masses.
Extinction probabilities come from the fixed point of the generating
function, reached by monotone iteration from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hammingperc.graph import DomainError

__all__ = [
    "GWSpec",
    "GWTail",
    "extinction_probability",
    "progeny_pmf_array",
    "survival_probability",
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
