import math

import numpy as np
import pytest

from hammingperc import percolation
from hammingperc.bruteforce import _canonical_edges
from hammingperc.graph import DomainError, HammingGraph
from hammingperc.percolation import (
    ClusterStats,
    OccupiedEdgeSet,
    PercolationConfig,
    _skip_sample,
    batch_components,
    connected_components,
    pair_rank,
    ranks_to_positions,
    sample_configuration,
    sample_edges,
    z_geq,
)
from hammingperc.rng import stream_rng


G23 = HammingGraph(2, 3)


def test_config_probability():
    assert PercolationConfig(G23, epsilon=0.0).p == 0.25
    assert PercolationConfig(G23, epsilon=-1.0).p == 0.0
    assert PercolationConfig(G23, epsilon=3.0).p == 1.0
    for eps in (-1.001, 3.0001):
        with pytest.raises(DomainError):
            PercolationConfig(G23, epsilon=eps)


def test_pair_rank_roundtrip():
    n = 12
    ranks = []
    for b in range(n):
        for a in range(b):
            ranks.append(pair_rank(a, b))
    assert ranks == list(range(n * (n - 1) // 2))
    assert pair_rank(5, 2) == pair_rank(2, 5)
    a, b = ranks_to_positions(np.arange(n * (n - 1) // 2))
    assert all(pair_rank(int(x), int(y)) == m for m, (x, y) in enumerate(zip(a, b)))
    with pytest.raises(DomainError):
        pair_rank(3, 3)


def test_degenerate_probabilities():
    empty = sample_configuration(PercolationConfig(G23, epsilon=-1.0, seed=5))
    assert empty.total_occupied == 0
    stats = connected_components(empty)
    assert stats.cmax == 1 and stats.c2 == 1
    assert (stats.sizes == 1).all() and stats.sizes.sum() == 9
    assert z_geq(stats, 1) == 9
    assert z_geq(stats, 2) == 0

    full = sample_configuration(PercolationConfig(G23, epsilon=3.0, seed=5))
    assert full.total_occupied == G23.edge_count
    stats = connected_components(full)
    assert stats.cmax == 9 and stats.c2 == 0
    assert list(stats.sizes) == [9]


@pytest.mark.parametrize("p", [1e-300, 5e-324])
def test_tiny_probability_gaps_do_not_wrap(p):
    # such a p draws gaps near 2**63, whose running sum used to wrap around
    # to negative ranks
    rng = np.random.default_rng(0)
    for M in (1, 3, 190):
        assert len(percolation._skip_sample(rng, M, p)) == 0


def test_sampling_deterministic_per_stream():
    cfg = PercolationConfig(HammingGraph(2, 30), epsilon=0.2, seed=11)
    a = sample_configuration(cfg, stream=3)
    b = sample_configuration(cfg, stream=3)
    assert np.array_equal(a.slots, b.slots)
    c = sample_configuration(cfg, stream=4)
    assert not np.array_equal(a.slots, c.slots)


def test_edge_set_well_formed():
    g = HammingGraph(2, 20)
    cfg = PercolationConfig(g, epsilon=0.5, seed=7)
    occ = sample_configuration(cfg)
    M = 20 * 19 // 2
    slots = occ.slots
    assert slots.dtype == np.int64
    assert (np.diff(slots) > 0).all()  # sorted, no duplicates
    assert slots.size == 0 or (0 <= slots[0] and slots[-1] < g.num_lines() * M)
    for pos in range(g.num_lines()):
        pairs = occ.pairs_by_line(pos)
        assert (pairs[:, 0] < pairs[:, 1]).all()
        for u, v in pairs.tolist():
            cu, cv = g.vertex_coords(u), g.vertex_coords(v)
            assert sum(x != y for x, y in zip(cu, cv)) == 1
    assert occ.all_pairs().shape == (occ.total_occupied, 2)


def test_mean_occupancy_matches_binomial():
    # d=2, n=100 at eps=0: total_occupied is Binomial(edge_count, p)
    g = HammingGraph(2, 100)
    cfg = PercolationConfig(g, epsilon=0.0, seed=2026)
    p = cfg.p
    E = g.edge_count
    seeds = 1000
    totals = [
        sample_configuration(cfg, stream=r).total_occupied for r in range(seeds)
    ]
    want = E * p
    se_mean = math.sqrt(E * p * (1 - p) / seeds)
    assert abs(np.mean(totals) - want) <= 4 * se_mean


def test_per_line_law_is_bernoulli_product():
    # n=3 lines have 3 slots; compare the empirical law of line 0 against the
    # exact product law over all eight subsets
    cfg = PercolationConfig(G23, epsilon=0.2, seed=99)  # p = 0.3
    p = cfg.p
    seeds = 4000
    counts = {}
    for r in range(seeds):
        occ = sample_configuration(cfg, stream=r)
        key = tuple(occ.slots[occ.slots < 3].tolist())  # line 0: slot = rank
        counts[key] = counts.get(key, 0) + 1
    for subset, got in counts.items():
        k = len(subset)
        want = p**k * (1 - p) ** (3 - k)
        se = math.sqrt(want * (1 - want) / seeds)
        assert abs(got / seeds - want) <= 4 * se, subset


def test_explicit_edge_list_components():
    # two occupied edges: (0,0)-(1,0) in a vertical line, (1,0)-(1,2) in a
    # horizontal one; they chain three vertices together
    occ = OccupiedEdgeSet.from_pairs(G23, [((0, 0), (1, 0)), ((1, 0), (1, 2))])
    assert occ.total_occupied == 2
    stats = connected_components(occ)
    assert stats.cmax == 3
    assert stats.c2 == 1
    assert stats.sizes.sum() == 9
    members = {
        G23.vertex_index((0, 0)),
        G23.vertex_index((1, 0)),
        G23.vertex_index((1, 2)),
    }
    roots = {stats.labels[v] for v in members}
    assert len(roots) == 1


def test_from_pairs_rejects_malformed():
    with pytest.raises(DomainError):
        OccupiedEdgeSet.from_pairs(G23, [((0, 0), (1, 1))])  # diagonal
    with pytest.raises(DomainError):
        OccupiedEdgeSet.from_pairs(G23, [((0, 0), (0, 0))])  # loop
    with pytest.raises(DomainError):
        OccupiedEdgeSet.from_pairs(G23, [((0, 0), (1, 0)), ((1, 0), (0, 0))])


def test_text_roundtrip():
    cfg = PercolationConfig(HammingGraph(2, 6), epsilon=0.4, seed=31)
    occ = sample_configuration(cfg)
    text = occ.to_text()
    back = OccupiedEdgeSet.from_text(occ.graph, text)
    assert back.total_occupied == occ.total_occupied
    assert np.array_equal(occ.slots, back.slots)
    for row in text.splitlines():
        axis, index, u, v = map(int, row.split())
        assert 0 <= axis < 2 and 0 <= index < 6
        assert 0 <= u < v < 36


@pytest.mark.parametrize("d, n", [(2, 3), (3, 2), (2, 4)])
def test_slots_follow_the_oracle_edge_order(d, n):
    g = HammingGraph(d, n)
    edges = _canonical_edges(g)
    occ = OccupiedEdgeSet.from_pairs(g, edges)
    np.testing.assert_array_equal(occ.slots, np.arange(g.edge_count))
    assert occ.all_pairs().tolist() == [list(e) for e in edges]


def test_component_sizes_partition_vertices():
    g = HammingGraph(2, 25)
    for seed in (1, 2, 3):
        occ = sample_configuration(PercolationConfig(g, epsilon=0.1, seed=seed))
        stats = connected_components(occ)
        assert stats.sizes.sum() == g.num_vertices
        assert stats.cmax >= stats.c2


def test_z_geq_monotone():
    g = HammingGraph(2, 25)
    occ = sample_configuration(PercolationConfig(g, epsilon=0.3, seed=8))
    stats = connected_components(occ)
    values = [z_geq(stats, k) for k in range(1, g.num_vertices + 1)]
    assert values[0] == g.num_vertices
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(DomainError):
        z_geq(stats, 0)


def test_cluster_stats_requires_descending():
    with pytest.raises(DomainError):
        ClusterStats(sizes=np.array([2, 5, 1]), cmax=5, c2=2)


@pytest.mark.parametrize("d, n, eps", [(2, 17, 0.4), (3, 9, 0.3), (2, 2, 1.0)])
def test_all_pairs_matches_per_line_decode(d, n, eps):
    # the one-pass decode must reproduce the per-line reference, in order
    cfg = PercolationConfig(HammingGraph(d, n), epsilon=eps, seed=13)
    for stream in range(3):
        occ = sample_configuration(cfg, stream=stream)
        want = np.concatenate(
            [occ.pairs_by_line(pos) for pos in range(cfg.graph.num_lines())])
        got = occ.all_pairs()
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def _same_partition(x, y) -> bool:
    joint = np.unique(np.stack([x, y], axis=1), axis=0)
    return len(joint) == len(np.unique(x)) == len(np.unique(y))


def _union_find_roots(occ: OccupiedEdgeSet) -> np.ndarray:
    """Root of every vertex, joined line by line over the per-line decode:
    no code shared with connected_components."""
    parent = list(range(occ.graph.num_vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for pos in range(occ.graph.num_lines()):
        for u, v in occ.pairs_by_line(pos).tolist():
            parent[find(u)] = find(v)
    return np.array([find(v) for v in range(len(parent))])


@pytest.mark.parametrize("d, n", [(2, 20), (3, 10), (2, 60), (3, 15)])
def test_union_find_and_csgraph_paths_agree(d, n):
    # the package's csgraph path against the test-local union-find
    cfg = PercolationConfig(HammingGraph(d, n), epsilon=0.2, seed=41)
    for stream in range(4):
        occ = sample_configuration(cfg, stream=stream)
        roots = _union_find_roots(occ)
        stats = connected_components(occ)
        want = np.sort(np.unique(roots, return_counts=True)[1])[::-1]
        np.testing.assert_array_equal(stats.sizes, want)
        assert stats.sizes.sum() == cfg.graph.num_vertices
        assert _same_partition(roots, stats.labels)


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                  (3, 2), (3, 3), (3, 4)])
@pytest.mark.parametrize("p", [1e-12, 0.1, 0.5, 0.999, 1.0])
def test_one_matrix_sampler_matches_the_per_line_sampler(d, n, p):
    # these lines are short enough to clear in one chunk of gaps, which is
    # when sample_edges draws them all as one matrix
    g = HammingGraph(d, n)
    M = n * (n - 1) // 2
    for stream in range(10):
        got = sample_edges(g, p, stream_rng(7, stream)).slots
        rng = stream_rng(7, stream)
        want = np.concatenate([_skip_sample(rng, M, p) + line * M
                               for line in range(g.num_lines())])
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("d, n", [(2, 3), (3, 3), (2, 12), (2, 40)])
def test_batch_components_matches_one_call_per_config(d, n, monkeypatch):
    g = HammingGraph(d, n)
    empty = OccupiedEdgeSet(graph=g, slots=np.empty(0, dtype=np.int64))
    configs = [empty]
    for p in (0.5 / g.degree, 1.5 / g.degree, 0.5, 1.0):
        configs += [sample_edges(g, p, stream_rng(3, s)) for s in range(12)]
    configs.append(empty)
    # one batch, and batches that split the list, down to one config each
    for cap in (percolation.BATCH_MAX_VERTICES, 5 * g.num_vertices, 1):
        monkeypatch.setattr(percolation, "BATCH_MAX_VERTICES", cap)
        got = batch_components(iter(configs))
        assert len(got) == len(configs)
        for occ, stats in zip(configs, got):
            want = connected_components(occ)
            np.testing.assert_array_equal(stats.sizes, want.sizes)
            assert (stats.cmax, stats.c2) == (want.cmax, want.c2)
            assert type(stats.cmax) is int and type(stats.c2) is int
    assert batch_components([]) == []
    with pytest.raises(DomainError):
        batch_components([empty, sample_edges(HammingGraph(2, 4), 0.5,
                                              stream_rng(3, 0))])
