"""Two-round exposure checks.

The combined configuration must be plain Bernoulli(p) percolation, so its
per-line law is compared against exact product probabilities, and the
complement mapping gets an independent oracle in numpy set arithmetic.
"""

import math

import numpy as np
import pytest

from hammingperc import sprinkling
from hammingperc.calibration import (
    GOOD_LINE_REPLICA_FRACTION,
    SPRINKLE_MERGE_FRACTION,
)
from hammingperc.graph import DomainError, HammingGraph
from hammingperc.percolation import (
    PercolationConfig,
    _skip_sample,
    connected_components,
    sample_configuration,
)
from hammingperc.rng import stream_rng
from hammingperc.sprinkling import _complement_slots, two_round_exposure


def _combined_configurations(monkeypatch) -> list:
    """Spy on the components calls of two_round_exposure: per exposure the
    first gets round one and the second the combined configuration."""
    seen = []
    real = sprinkling.connected_components

    def spy(occ):
        seen.append(occ)
        return real(occ)

    monkeypatch.setattr(sprinkling, "connected_components", spy)
    return seen


def test_complement_mapping_matches_set_arithmetic():
    # rate 1 picks every vacant slot, so the mapped slots must equal the
    # complement computed independently by numpy
    gen = np.random.default_rng(99)
    for trial in range(300):
        M = int(gen.integers(1, 40))
        k = int(gen.integers(0, M + 1))
        occ = np.sort(gen.choice(M, size=k, replace=False)).astype(np.int64)
        picks = _skip_sample(stream_rng(0, trial), M - k, 1.0)
        got = _complement_slots(occ, picks)
        np.testing.assert_array_equal(got, np.setdiff1d(np.arange(M), occ))


def test_partial_complement_picks_avoid_occupied_slots():
    gen = np.random.default_rng(7)
    for trial in range(200):
        M = int(gen.integers(5, 60))
        occ = np.sort(
            gen.choice(M, size=int(gen.integers(0, M)), replace=False)
        ).astype(np.int64)
        picks = _skip_sample(stream_rng(1, trial), M - len(occ), 0.5)
        got = _complement_slots(occ, picks)
        assert np.all(np.diff(got) > 0)
        assert got.size == 0 or (got[0] >= 0 and got[-1] < M)
        assert not np.intersect1d(got, occ).size


def test_eta_zero_reduces_to_plain_percolation(monkeypatch):
    seen = _combined_configurations(monkeypatch)
    cfg = PercolationConfig(HammingGraph(2, 6), epsilon=0.3, seed=11)
    rep = two_round_exposure(cfg, eta=0.0, stream=3)
    base = sample_configuration(cfg, stream=3)
    assert rep.p_minus == cfg.p
    assert len(seen) == 2
    assert np.array_equal(seen[1].slots, base.slots)
    assert rep.occupied_after == rep.occupied_before == base.total_occupied
    stats = connected_components(base)
    assert rep.cmax_after == stats.cmax
    # with eta == 0 every component counts as large and nothing is added,
    # so the merge flag just says whether round one was already connected
    assert np.array_equal(rep.clusters_before, stats.sizes)
    assert rep.z_prime == cfg.graph.num_vertices
    assert rep.merged_after == (stats.sizes.size <= 1)


def test_rejects_out_of_range_rates():
    cfg = PercolationConfig(HammingGraph(2, 10), epsilon=0.0, seed=0)
    with pytest.raises(DomainError):
        two_round_exposure(cfg, eta=-0.1)
    with pytest.raises(DomainError):
        two_round_exposure(cfg, eta=1.5)  # eta/degree above p
    full = PercolationConfig(HammingGraph(2, 10), epsilon=17.0, seed=0)
    with pytest.raises(DomainError):
        two_round_exposure(full, eta=18.0)  # rate would reach 1


def test_report_is_internally_consistent():
    cfg = PercolationConfig(HammingGraph(2, 40), epsilon=0.5, seed=5)
    threshold = math.ceil(0.1 * cfg.graph.num_vertices)
    for stream in range(30):
        rep = two_round_exposure(cfg, eta=0.1, stream=stream)
        assert rep.eta == 0.1
        assert 0.0 < rep.p_minus < cfg.p
        assert len(rep.clusters_before) >= 1
        assert (rep.clusters_before >= threshold).all()
        assert (np.diff(rep.clusters_before) <= 0).all()
        assert rep.z_prime == int(rep.clusters_before.sum())
        assert len(rep.good_lines_before) == len(rep.clusters_before)
        assert (rep.good_lines_before <= cfg.graph.n).all()
        assert rep.occupied_after >= rep.occupied_before
        assert rep.cmax_after >= rep.clusters_before[0]


def test_combined_line_distribution_matches_product_law(monkeypatch):
    # H(2, 3) with p = 0.3 split as p_minus = 0.125 plus rate 0.2: the
    # occupancy pattern of one fixed line must follow the Bernoulli(p)
    # product law over its 3 slots
    g = HammingGraph(2, 3)
    p = PercolationConfig(g, epsilon=0.2).p
    assert p == pytest.approx(0.3)
    runs = 4000
    counts: dict[tuple, int] = {}
    seen = _combined_configurations(monkeypatch)
    for seed in range(runs):
        cfg = PercolationConfig(g, epsilon=0.2, seed=seed)
        seen.clear()
        two_round_exposure(cfg, eta=0.8, stream=0)
        assert len(seen) == 2
        slots = seen[1].slots
        pattern = tuple(slots[slots < 3].tolist())  # line 0: slot = rank
        counts[pattern] = counts.get(pattern, 0) + 1
    for bits in range(8):
        pattern = tuple(i for i in range(3) if bits >> i & 1)
        prob = p ** len(pattern) * (1.0 - p) ** (3 - len(pattern))
        se = math.sqrt(runs * prob * (1.0 - prob))
        assert abs(counts.get(pattern, 0) - runs * prob) <= 4.0 * se


def test_mean_total_occupancy_is_binomial():
    g = HammingGraph(2, 50)
    cfg_p = PercolationConfig(g, epsilon=0.1).p
    edges = g.edge_count
    runs = 1200
    total = 0
    for seed in range(runs):
        rep = two_round_exposure(
            PercolationConfig(g, epsilon=0.1, seed=seed), eta=0.6, stream=0
        )
        total += rep.occupied_after
    se = math.sqrt(edges * cfg_p * (1.0 - cfg_p) / runs)
    assert abs(total / runs - edges * cfg_p) <= 4.0 * se


def test_supercritical_runs_have_good_lines_and_merge():
    # a comfortably supercritical first round spreads each large cluster
    # over most horizontal lines, and the sprinkle welds everything large
    n = 300
    g = HammingGraph(2, n)
    eps = 0.15
    eta = math.sqrt(eps) * g.num_vertices ** (-1.0 / 6.0)
    cfg = PercolationConfig(g, epsilon=eps, seed=20250814)
    replicas = 30
    spread = 0
    merged = 0
    for stream in range(replicas):
        rep = two_round_exposure(cfg, eta=eta, stream=stream)
        assert len(rep.clusters_before) >= 1
        if all(c >= 3 * n // 4 for c in rep.good_lines_before):
            spread += 1
        merged += rep.merged_after
    assert spread / replicas >= GOOD_LINE_REPLICA_FRACTION
    assert merged / replicas >= SPRINKLE_MERGE_FRACTION
