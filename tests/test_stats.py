"""Estimator checks against exact oracles and closed-form references."""

import math

import numpy as np
import pytest

from hammingperc.branching import GWSpec, tail_probability
from hammingperc.bruteforce import exact_expectation
from hammingperc.graph import DomainError, HammingGraph
from hammingperc.percolation import (
    PercolationConfig,
    connected_components,
    sample_configuration,
    z_geq,
)
from hammingperc.stats import (
    Estimate,
    ReplicaSummary,
    duality_diagnostic,
    estimate_chi,
    estimate_cluster_tail,
    giant_lln_report,
    replica_summaries,
    replica_summary,
    wilson_interval,
    z_concentration_report,
)


def test_estimate_from_samples_hand_computed():
    est = Estimate.from_samples([1.0, 2.0, 3.0, 4.0])
    assert est.mean == pytest.approx(2.5)
    sd = math.sqrt(((1.5 ** 2) * 2 + (0.5 ** 2) * 2) / 3)
    assert est.std_error == pytest.approx(sd / 2.0)
    assert est.ci95_low == pytest.approx(2.5 - 1.96 * est.std_error)
    assert est.ci95_high == pytest.approx(2.5 + 1.96 * est.std_error)
    assert est.n_samples == 4


def test_estimate_degenerate_sizes():
    assert Estimate.from_samples([7.0]).std_error == 0.0
    with pytest.raises(DomainError):
        Estimate.from_samples([])


def test_wilson_interval_hand_computed():
    lo, hi = wilson_interval(50, 100)
    z2 = 1.96 ** 2
    half = 1.96 * math.sqrt(0.25 / 100 + z2 / 40000) / (1 + z2 / 100)
    assert lo == pytest.approx(0.5 - half)
    assert hi == pytest.approx(0.5 + half)
    assert wilson_interval(0, 20)[0] == 0.0
    assert wilson_interval(20, 20)[1] == 1.0
    with pytest.raises(DomainError):
        wilson_interval(5, 4)


def test_bernoulli_estimate_fields():
    est = Estimate.bernoulli(30, 120)
    assert est.mean == pytest.approx(0.25)
    assert est.std_error == pytest.approx(math.sqrt(0.25 * 0.75 / 120))
    assert 0.0 < est.ci95_low < 0.25 < est.ci95_high < 1.0


def test_replica_summary_invariants():
    ReplicaSummary(seed=0, cmax=5, c2=3, z_geq_table=((2, 9), (4, 5)))
    with pytest.raises(DomainError):
        ReplicaSummary(seed=0, cmax=2, c2=3, z_geq_table=())
    with pytest.raises(DomainError):
        ReplicaSummary(seed=0, cmax=5, c2=3, z_geq_table=((2, 4), (4, 5)))
    with pytest.raises(DomainError):
        ReplicaSummary(seed=0, cmax=5, c2=3, z_geq_table=((4, 5), (2, 9)))


def test_chi_at_p_zero_is_one():
    cfg = PercolationConfig(HammingGraph(2, 8), epsilon=-1.0, seed=4)
    est = estimate_chi(cfg, samples=50)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_chi_matches_exhaustive_enumeration():
    # H(2,3) at p = 0.25 has an exactly enumerable mean cluster size
    cfg = PercolationConfig(HammingGraph(2, 3), epsilon=0.0, seed=12)
    exact = exact_expectation(cfg.graph, 0.25, "chi")
    est = estimate_chi(cfg, samples=4000)
    assert abs(est.mean - exact) <= 3.0 * est.std_error


def test_tail_matches_exhaustive_enumeration():
    cfg = PercolationConfig(HammingGraph(2, 3), epsilon=0.0, seed=12)
    exact = exact_expectation(cfg.graph, 0.25, "cluster_tail", k=4)
    est = estimate_cluster_tail(cfg, k=4, samples=4000)
    assert abs(est.mean - exact) <= 3.0 * est.std_error


def test_tail_at_k_one_is_exactly_one():
    cfg = PercolationConfig(HammingGraph(2, 12), epsilon=0.2, seed=2)
    est = estimate_cluster_tail(cfg, k=1, samples=40)
    assert est.mean == 1.0


def test_tail_is_nonincreasing_in_k_on_shared_streams():
    # identical streams couple the runs, so the reach-k indicators are
    # pointwise monotone and the estimates cannot cross
    cfg = PercolationConfig(HammingGraph(2, 20), epsilon=0.2, seed=5)
    means = [
        estimate_cluster_tail(cfg, k=k, samples=400).mean
        for k in (2, 5, 10, 50)
    ]
    assert all(a >= b for a, b in zip(means, means[1:]))


def test_empirical_tail_never_beats_branching_upper_bound():
    # the exploration tree is stochastically dominated by the branching
    # process, so the graph tail minus 3 std errors stays below it
    g = HammingGraph(2, 150)
    cfg = PercolationConfig(g, epsilon=0.1, seed=14)
    spec = GWSpec(g.degree, cfg.p)
    for ell in (10, 100, 1000):
        est = estimate_cluster_tail(cfg, k=ell, samples=2000)
        assert est.mean - 3.0 * est.std_error <= tail_probability(spec, ell)


def test_estimator_input_validation():
    cfg = PercolationConfig(HammingGraph(2, 5), epsilon=0.1, seed=0)
    with pytest.raises(DomainError):
        estimate_chi(cfg, samples=0)
    with pytest.raises(DomainError):
        estimate_cluster_tail(cfg, k=0, samples=10)
    with pytest.raises(DomainError):
        estimate_cluster_tail(cfg, k=26, samples=10)


def test_z_concentration_trivial_at_p_zero():
    cfg = PercolationConfig(HammingGraph(2, 6), epsilon=-1.0, seed=3)
    rep = z_concentration_report(cfg, k=2, replicas=4)
    assert all(row["z"] == 0 for row in rep.per_replica)
    assert rep.summary["z_sd"] == 0.0
    assert rep.summary["normalized_sd"] == 0.0
    assert rep.passed is True
    singles = z_concentration_report(cfg, k=1, replicas=3)
    assert all(row["z"] == 36 for row in singles.per_replica)
    assert singles.summary["z_sd"] == 0.0


def test_z_concentration_needs_two_replicas():
    cfg = PercolationConfig(HammingGraph(2, 6), epsilon=0.1, seed=3)
    with pytest.raises(DomainError):
        z_concentration_report(cfg, k=2, replicas=1)


def test_giant_report_trivial_at_p_one():
    g = HammingGraph(2, 12)
    cfg = PercolationConfig(g, epsilon=g.degree - 1.0, seed=1)
    rep = giant_lln_report(cfg, replicas=3)
    assert [row["cmax_fraction"] for row in rep.per_replica] == [1.0] * 3
    assert rep.summary["median_fraction"] == 1.0
    assert rep.summary["survival_reference"] == pytest.approx(1.0)


def test_giant_report_needs_supercritical_epsilon():
    cfg = PercolationConfig(HammingGraph(2, 12), epsilon=-0.1, seed=1)
    with pytest.raises(DomainError):
        giant_lln_report(cfg, replicas=2)


def test_duality_trivial_at_p_one():
    g = HammingGraph(2, 12)
    cfg = PercolationConfig(g, epsilon=g.degree - 1.0, seed=1)
    rep = duality_diagnostic(cfg, replicas=3)
    assert rep.summary["median_scaled_c2"] == 0.0
    assert rep.passed is None


def test_duality_preconditions():
    with pytest.raises(DomainError):
        duality_diagnostic(
            PercolationConfig(HammingGraph(2, 12), epsilon=-0.1), replicas=2
        )
    with pytest.raises(DomainError):
        # eps^3 V barely misses 1
        duality_diagnostic(
            PercolationConfig(HammingGraph(2, 10), epsilon=0.01), replicas=2
        )


def test_z_concentration_report_shape():
    cfg = PercolationConfig(HammingGraph(2, 6), epsilon=-1.0, seed=3)
    rep = z_concentration_report(cfg, k=2, replicas=3)
    # p = 0: every component is a single vertex, so Z_{>=2} is 0 throughout
    assert rep.per_replica == [{"replica": r, "z": 0} for r in range(3)]
    assert rep.summary == {"z_mean": 0.0, "z_sd": 0.0, "normalized_sd": 0.0}
    assert rep.passed is True


def test_replica_summary_function_consistency():
    cfg = PercolationConfig(HammingGraph(2, 10), epsilon=0.3, seed=9)
    summary = replica_summary(cfg, replica=4, ks=(1, 3, 7))
    assert summary.seed == 4
    assert summary.z_geq_table[0] == (1, 100)
    assert summary.cmax >= summary.c2
    again = replica_summary(cfg, replica=4, ks=(1, 3, 7))
    assert again.z_geq_table == summary.z_geq_table
    assert (again.cmax, again.c2) == (summary.cmax, summary.c2)


@pytest.mark.parametrize("d, n, eps", [(2, 3, 0.0), (2, 3, 3.0), (3, 4, 0.4),
                                       (2, 33, 0.2)])
def test_replica_summaries_equal_one_summary_per_replica(d, n, eps):
    # H(2,33) has 1,089 vertices and takes the unbatched path
    cfg = PercolationConfig(HammingGraph(d, n), epsilon=eps, seed=29)
    R = 6 if n == 33 else 60
    for ks in ((), (2, 4, 6), (9, 1, 4, 4)):
        assert replica_summaries(cfg, range(R), ks) == [
            replica_summary(cfg, r, ks) for r in range(R)]
    # the table against the one-threshold reference z_geq
    V = cfg.graph.num_vertices
    ks = tuple(sorted({1, 2, 3, 5, 8, V - 1, V, V + 1}))
    for r, summary in enumerate(replica_summaries(cfg, range(R), ks)):
        stats = connected_components(sample_configuration(cfg, stream=r))
        assert summary.z_geq_table == tuple((k, z_geq(stats, k)) for k in ks)
        assert (summary.cmax, summary.c2) == (stats.cmax, stats.c2)
    streams = [5, 2**63, 3]
    assert replica_summaries(cfg, streams, (1, 2)) == [
        replica_summary(cfg, r, (1, 2)) for r in streams]
    assert replica_summaries(cfg, range(0)) == []
