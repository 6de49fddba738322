import math

import numpy as np
import pytest

from hammingperc.bruteforce import exact_expectation
from hammingperc.calibration import LINE_OCCUPANCY_CEILING
from hammingperc.graph import DomainError, HammingGraph
from hammingperc.percolation import PercolationConfig
from hammingperc.exploration import ExplorationEngine
from hammingperc.rng import stream_rng


def _explore(cfg, origin, **kwargs):
    """One run of a fresh engine on stream 0 of the configuration's seed."""
    rng = stream_rng(cfg.seed, 0)
    return ExplorationEngine(cfg).run(origin, rng, **kwargs)


def test_empty_configuration():
    cfg = PercolationConfig(HammingGraph(2, 5), epsilon=-1.0, seed=1)
    res = _explore(cfg, (2, 3))
    assert res.T == 1
    assert res.cluster_size_capped == 1
    assert res.died_out
    assert res.horiz_counts[2] == 1 and res.horiz_counts.sum() == 1
    assert res.vert_counts[3] == 1 and res.vert_counts.sum() == 1


def test_full_configuration():
    g = HammingGraph(2, 5)
    cfg = PercolationConfig(g, epsilon=g.degree - 1.0, seed=1)
    res = _explore(cfg, (0, 0))
    assert res.cluster_size_capped == g.num_vertices
    assert res.died_out and res.T == g.num_vertices
    assert (res.horiz_counts == 5).all() and (res.vert_counts == 5).all()

    # one exploration step of a full configuration reveals both lines
    res = _explore(cfg, (1, 2), cap=1)
    assert res.T == 1
    assert not res.died_out
    assert res.cluster_size_capped == 1 + 2 * 4
    # the origin's own row is full, every other row holds one vertex
    assert (res.horiz_counts == [1, 5, 1, 1, 1]).all()


def test_argument_validation():
    cfg = PercolationConfig(HammingGraph(2, 4), epsilon=0.1, seed=0)
    with pytest.raises(DomainError):
        _explore(cfg, (0, 0), cap=0)
    with pytest.raises(DomainError):
        _explore(cfg, (0, 4))
    with pytest.raises(DomainError):
        ExplorationEngine(PercolationConfig(HammingGraph(3, 3), epsilon=0.1))
    with pytest.raises(TypeError):  # no default stream
        ExplorationEngine(cfg).run((0, 0), cap=3)


def test_counts_partition_cluster():
    cfg = PercolationConfig(HammingGraph(2, 30), epsilon=0.4, seed=17)
    eng = ExplorationEngine(cfg)
    for r in range(40):
        res = eng.run((r % 30, (2 * r) % 30), cap=100, rng=stream_rng(17, r))
        assert res.horiz_counts.sum() == res.cluster_size_capped
        assert res.vert_counts.sum() == res.cluster_size_capped
        assert res.horiz_counts.max() <= 30
        assert res.T <= 100
        assert res.cluster_size_capped >= res.T
        if res.died_out:
            assert res.cluster_size_capped == res.T


def test_members_match_counts():
    g = HammingGraph(2, 12)
    cfg = PercolationConfig(g, epsilon=0.6, seed=3)
    res = _explore(cfg, (4, 4), cap=40, keep_members=True)
    assert res.members is not None
    assert len(res.members) == res.cluster_size_capped
    assert (np.diff(res.members) > 0).all()
    firsts = np.bincount(res.members % 12, minlength=12)
    seconds = np.bincount(res.members // 12, minlength=12)
    assert (firsts == res.horiz_counts).all()
    assert (seconds == res.vert_counts).all()


def test_engine_reuse_is_deterministic():
    cfg = PercolationConfig(HammingGraph(2, 40), epsilon=0.3, seed=7)
    eng = ExplorationEngine(cfg)
    first = eng.run((0, 0), cap=200, rng=stream_rng(7, 5))
    again = eng.run((0, 0), cap=200, rng=stream_rng(7, 5))
    fresh = ExplorationEngine(cfg).run((0, 0), cap=200, rng=stream_rng(7, 5))
    for other in (again, fresh):
        assert first.T == other.T
        assert first.cluster_size_capped == other.cluster_size_capped
        assert (first.horiz_counts == other.horiz_counts).all()
        assert (first.vert_counts == other.vert_counts).all()


@pytest.mark.parametrize(
    "n,p,runs",
    [(3, 0.1, 60000), (3, 0.3, 60000), (3, 0.7, 40000), (2, 0.3, 40000)],
)
def test_cluster_size_law_matches_enumeration(n, p, runs):
    # the capped process explores the same cluster the configuration model
    # grows; compare the full |C(v0)| law against exhaustive enumeration
    g = HammingGraph(2, n)
    V = g.num_vertices
    eps = p * g.degree - 1.0
    cfg = PercolationConfig(g, epsilon=eps, seed=505)
    assert cfg.p == pytest.approx(p)
    eng = ExplorationEngine(cfg)
    counts = np.zeros(V + 1, dtype=np.int64)
    for r in range(runs):
        res = eng.run((0, 0), rng=stream_rng(505, r))
        counts[res.cluster_size_capped] += 1
    tails = [
        exact_expectation(g, p, "cluster_tail", k=s, vertex=0)
        for s in range(1, V + 2)
    ]
    tails[-1] = 0.0  # nothing exceeds V vertices
    for s in range(1, V + 1):
        want = tails[s - 1] - tails[s]
        se = math.sqrt(want * (1 - want) / runs)
        assert abs(counts[s] / runs - want) <= 4 * se + 1e-9, f"size {s}"


def test_tail_example_against_enumeration():
    # P(|C(v0)| >= 3) at p = 0.25 over a large seeded batch
    g = HammingGraph(2, 3)
    cfg = PercolationConfig(g, epsilon=0.0, seed=808)
    eng = ExplorationEngine(cfg)
    runs = 200000
    hits = 0
    for r in range(runs):
        res = eng.run((0, 0), cap=3, rng=stream_rng(808, r))
        hits += res.cluster_size_capped >= 3
    want = exact_expectation(g, 0.25, "cluster_tail", k=3)
    se = math.sqrt(want * (1 - want) / runs)
    assert abs(hits / runs - want) <= 3 * se


def test_nested_caps_are_coupled():
    # the same stream explores the same trajectory whatever the cap, so the
    # per-run tail indicators are monotone in the threshold
    cfg = PercolationConfig(HammingGraph(2, 40), epsilon=0.2, seed=23)
    eng = ExplorationEngine(cfg)
    caps = (5, 20, 80, 400)
    for r in range(150):
        rng_runs = [eng.run((0, 0), cap=c, rng=stream_rng(23, r)) for c in caps]
        indicators = [
            res.cluster_size_capped >= c for res, c in zip(rng_runs, caps)
        ]
        assert all(a >= b for a, b in zip(indicators, indicators[1:]))
        for res, c in zip(rng_runs, caps):
            assert res.T == min(rng_runs[-1].T, c) or not rng_runs[-1].died_out


@pytest.mark.parametrize("n,p,eps,bits,replayed", [
    (2, 0.9, None, "philox", True),  # p > 0.5: numpy inverts at 1 - p
    (3, 0.8, None, "philox", True),
    (40, None, 0.15, "philox", True),
    (4, 0.0, None, "philox", False),  # numpy draws nothing at p = 0
    (4, 1.0, None, "philox", True),
    (70, None, 60.0, "philox", False),  # eps > 59: numpy's BTPE branch
    (40, None, 0.15, "PCG64", False),
    (40, None, 0.15, "MT19937", False),  # no 32-bit half-word buffer
])
def test_replay_matches_generator_path(n, p, eps, bits, replayed):
    # the engine's own choice of draws against the Generator calls, which
    # are the reference: same runs, and the stream left at the same place
    g = HammingGraph(2, n)
    if eps is None:
        eps = p * g.degree - 1.0
    cfg = PercolationConfig(g, epsilon=eps, seed=41)
    engine = ExplorationEngine(cfg)
    reference = ExplorationEngine(cfg)
    reference._tables = None  # always draws through the Generator
    assert (engine._tables is not None and bits == "philox") == replayed

    def stream(r):
        if bits == "philox":
            return stream_rng(41, r)
        return np.random.Generator(getattr(np.random, bits)([41, r]))

    for r in range(40):
        a, b = stream(r), stream(r)
        # the estimators draw the origin first, which buffers a 32-bit half
        origin = g.vertex_coords(int(a.integers(g.num_vertices)))
        b.integers(g.num_vertices)
        cap = (None, 1, 7, 50)[r % 4]
        got = engine.run(origin, a, cap=cap, keep_members=True)
        want = reference.run(origin, b, cap=cap, keep_members=True)
        assert got.T == want.T
        assert got.cluster_size_capped == want.cluster_size_capped
        assert got.died_out == want.died_out
        assert np.array_equal(got.horiz_counts, want.horiz_counts)
        assert np.array_equal(got.vert_counts, want.vert_counts)
        assert np.array_equal(got.members, want.members)
        assert a.random() == b.random()
        assert a.integers(7) == b.integers(7)


def test_line_occupancy_stays_within_ceiling():
    # capped supercritical explorations spread over lines: the fullest
    # horizontal line stays below a fixed multiple of eta*n
    n = 300
    V = n * n
    eps = 0.04
    eta = math.sqrt(eps) * V ** (-1 / 6.0)
    cap = math.ceil(eta * V)
    cfg = PercolationConfig(HammingGraph(2, n), epsilon=eps, seed=314159)
    eng = ExplorationEngine(cfg)
    runs = 10000
    exceed = 0
    for r in range(runs):
        rng = stream_rng(314159, r)
        v0 = int(rng.integers(0, V))
        res = eng.run(v0, cap=cap, rng=rng)
        exceed += res.horiz_counts.max() >= LINE_OCCUPANCY_CEILING * eta * n
    assert exceed / runs <= 1e-2
