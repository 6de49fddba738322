import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hammingperc.calibration import (
    INTERVAL_SQRT_CONSTANT,
    TAIL_DIFFERENCE_CONSTANT,
)
from hammingperc.graph import DomainError
from hammingperc.branching import (
    GWSpec,
    compute_gw_tail,
    extinction_probability,
    progeny_pmf_array,
    survival_probability,
    tail_probability,
)
from hammingperc.rng import stream_rng


def _tree_pmf(N, p, kmax):
    """Total progeny law by explicit convolution over subtree sizes.

    Exact rationals, and deliberately a different route than the hitting-time
    identity used by the implementation: a tree of size k has j children
    whose subtrees partition the remaining k-1 vertices.
    """
    z = [Fraction(comb(N, j)) * p**j * (1 - p) ** (N - j) for j in range(N + 1)]
    q = [Fraction(0)] * (kmax + 1)
    q[1] = z[0]
    for k in range(2, kmax + 1):
        total = Fraction(0)
        sums = [Fraction(1)] + [Fraction(0)] * (k - 1)  # zero subtrees
        for j in range(1, min(N, k - 1) + 1):
            nxt = [Fraction(0)] * k
            for m in range(j, k):
                nxt[m] = sum(q[t] * sums[m - t] for t in range(1, m - j + 2))
            sums = nxt
            total += z[j] * sums[k - 1]
        q[k] = total
    return q


def _interval_probability(spec, ell):
    """P(ell <= F <= 2*ell)."""
    return math.fsum(progeny_pmf_array(spec, np.arange(ell, 2 * ell + 1)))


def _tail_difference(spec_a, spec_b, ell):
    """|P_a(F >= ell) - P_b(F >= ell)| for two supercritical laws sharing p,
    with N_a >= N_b, and its ceiling
    C*(|eps_a - eps_b| + 1/(N_a*sqrt(ell)) + 1/ell**3)."""
    assert spec_a.p == spec_b.p and spec_a.N >= spec_b.N
    assert spec_a.epsilon > 0.0 and spec_b.epsilon > 0.0
    value = abs(tail_probability(spec_a, ell) - tail_probability(spec_b, ell))
    bound = TAIL_DIFFERENCE_CONSTANT * (
        abs(spec_a.epsilon - spec_b.epsilon)
        + 1.0 / (spec_a.N * math.sqrt(ell))
        + 1.0 / ell**3
    )
    return value, bound


def _simulate_progeny(spec, cap, samples, rng):
    """Total progeny of ``samples`` independent trees, capped at ``cap``.

    Generation sizes are simulated directly: the children of a generation
    of g individuals are one Bin(g*N, p) draw.
    """
    total = np.ones(samples, dtype=np.int64)
    current = np.ones(samples, dtype=np.int64)
    active = np.arange(samples)
    while active.size:
        draw = rng.binomial(current[active] * spec.N, spec.p)
        total[active] += draw
        current[active] = draw
        active = active[(draw > 0) & (total[active] < cap)]
    return np.minimum(total, cap)


def test_pmf_matches_tree_enumeration():
    q = _tree_pmf(4, Fraction(1, 4), 6)
    # frozen from the enumeration oracle
    assert q[3] == Fraction(649539, 8388608)
    pmf = progeny_pmf_array(GWSpec(4, 0.25), np.arange(1, 7))
    for k in range(1, 7):
        assert pmf[k - 1] == pytest.approx(float(q[k]), abs=1e-14)


def test_pmf_degenerate_offspring():
    dead = GWSpec(3, 0.0)
    assert progeny_pmf_array(dead, np.array([1, 5])).tolist() == [1.0, 0.0]
    eternal = GWSpec(2, 1.0)  # every tree is infinite
    assert (progeny_pmf_array(eternal, np.arange(1, 6)) == 0.0).all()


def test_pmf_accuracy_against_high_precision():
    mp = pytest.importorskip("mpmath")
    spec = GWSpec(2000, 1.05 / 2000)

    def oracle(k):
        with mp.workdps(40):
            n = mp.mpf(k) * spec.N
            lg = (
                mp.loggamma(n + 1)
                - mp.loggamma(mp.mpf(k))
                - mp.loggamma(n - k + 2)
            )
            lp = lg + (k - 1) * mp.log(mp.mpf(spec.p))
            lp += (n - k + 1) * mp.log1p(-mp.mpf(spec.p))
            return float(mp.exp(lp) / k)

    ks = (1, 2, 10, 100, 1000, 10**5, 10**7)
    for k, got in zip(ks, progeny_pmf_array(spec, np.array(ks))):
        assert abs(got - oracle(k)) <= 1e-12


def test_pmf_rejects_sizes_below_one():
    with pytest.raises(DomainError):
        progeny_pmf_array(GWSpec(4, 0.25), np.array([0]))


def test_spec_validation():
    with pytest.raises(DomainError):
        GWSpec(0, 0.5)
    with pytest.raises(DomainError):
        GWSpec(4, 1.0001)
    s = GWSpec(2000, 1.05 / 2000)
    assert s.lam == pytest.approx(1.05)
    assert s.epsilon == pytest.approx(0.05)


def test_extinction_is_one_up_to_criticality():
    assert extinction_probability(GWSpec(50, 0.01)) == 1.0
    assert extinction_probability(GWSpec(50, 0.02)) == 1.0  # lam == 1 exactly


def test_extinction_against_poisson_bisection():
    # large N, fixed lam: the offspring law is nearly Poisson, whose survival
    # can be bisected from s = 1 - exp(-lam*s), a fully independent route
    lam = 1.1
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if 1.0 - math.exp(-lam * mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    zeta_poisson = (lo + hi) / 2
    N = 10**6
    assert survival_probability(GWSpec(N, lam / N)) == pytest.approx(
        zeta_poisson, abs=1e-4
    )


def test_extinction_monotone_in_lambda():
    N = 500
    vals = [
        extinction_probability(GWSpec(N, lam / N))
        for lam in (0.9, 1.0, 1.01, 1.1, 1.5, 2.5)
    ]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[0] == vals[1] == 1.0
    assert vals[-1] < 0.2


@pytest.mark.parametrize("eps", [0.005, 0.01, 0.02, 0.05])
def test_survival_tracks_two_epsilon(eps):
    N = 10**4
    s = survival_probability(GWSpec(N, (1 + eps) / N))
    assert abs(s - 2 * eps) <= 5 * eps**2


def test_tail_trivial_and_closed_form():
    spec = GWSpec(30, 0.02)
    assert tail_probability(spec, 1) == 1.0
    # F >= 2 means the root had at least one child
    assert tail_probability(spec, 2) == pytest.approx(
        1 - (1 - 0.02) ** 30, abs=1e-12
    )
    with pytest.raises(DomainError):
        tail_probability(spec, 0)


def test_tail_monotone_and_bounded_by_survival():
    spec = GWSpec(2000, 1.05 / 2000)
    surv = survival_probability(spec)
    tails = [tail_probability(spec, ell) for ell in (1, 3, 10, 100, 3000)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert all(t >= surv - 1e-12 for t in tails)


def test_prefix_sums_stay_below_extinction():
    spec = GWSpec(2000, 1.05 / 2000)
    tail = compute_gw_tail(spec, 10**5)
    assert tail.K == 10**5
    assert tail.pmf_prefix.shape == (10**5,)
    assert (np.diff(tail.pmf_prefix) >= 0).all()
    assert tail.pmf_prefix[-1] <= tail.extinction_prob + 1e-9
    assert tail.extinction_prob + tail.survival_prob == pytest.approx(1.0)
    with pytest.raises(DomainError):
        compute_gw_tail(spec, 0)


def test_interval_trivials():
    dead = GWSpec(5, 0.0)
    assert _interval_probability(dead, 1) == 1.0
    assert _interval_probability(dead, 2) == 0.0


def test_interval_sqrt_ceiling():
    spec = GWSpec(2000, 1.05 / 2000)
    for ell in (100, 1000, 10000):
        value = _interval_probability(spec, ell)
        assert value * math.sqrt(ell) <= INTERVAL_SQRT_CONSTANT


def test_tail_difference_example():
    p = 1.05 / 2000
    a, b = GWSpec(2000, p), GWSpec(1990, p)
    value, bound = _tail_difference(a, b, 1000)
    assert value <= bound
    # looser sanity ceiling on the same comparison
    assert value <= 10 * (abs(a.epsilon - b.epsilon) + 1 / (2000 * math.sqrt(1000)))
    assert _tail_difference(a, b, 1)[0] == 0.0


def test_near_critical_cayley_asymptotic():
    # P(F=k) against (k**(k-1) e**-k / k!) * exp(-(k-1)(lam-1)**2 / 2)
    N, eps = 10**4, 0.02
    spec = GWSpec(N, (1 + eps) / N)
    ks = (10, 30, 100, 300, 1000)
    for k, pmf in zip(ks, progeny_pmf_array(spec, np.array(ks))):
        log_asy = (
            (k - 1) * math.log(k)
            - k
            - math.lgamma(k + 1)
            - 0.5 * (k - 1) * eps**2
        )
        ratio = pmf / math.exp(log_asy)
        assert 0.9 <= ratio <= 1.1


def test_simulate_degenerate_and_capped():
    # the closed forms of the simulator behind the pmf check below
    rng = stream_rng(3, 0)
    assert (_simulate_progeny(GWSpec(5, 0.0), cap=10, samples=4, rng=rng)
            == 1).all()
    # N=1, p=1 is an endless chain: every generation adds one vertex
    assert (_simulate_progeny(GWSpec(1, 1.0), cap=57, samples=4, rng=rng)
            == 57).all()


def test_simulated_progeny_matches_pmf():
    spec = GWSpec(100, 1.05 / 100)
    cap = 21
    samples = 10**6
    totals = _simulate_progeny(spec, cap=cap, samples=samples,
                               rng=stream_rng(2026, 0))
    counts = np.bincount(totals, minlength=cap + 1)
    pmf = progeny_pmf_array(spec, np.arange(1, 21))
    for k in range(1, 21):
        want = pmf[k - 1]
        got = counts[k] / samples
        se = math.sqrt(want * (1 - want) / samples)
        assert abs(got - want) <= 4 * se + 1e-12, f"k={k}"
