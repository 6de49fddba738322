"""Property checks of the rank codec, the vertex-pair round trip of sampled
configurations, the sprinkle complement map, the re-keyed random streams and
the exploration's replay of numpy draws over generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hammingperc.exploration import _inversion_tables, _philox_draws
from hammingperc.graph import HammingGraph
from hammingperc.percolation import (
    OccupiedEdgeSet,
    _skip_sample,
    pair_rank,
    ranks_to_positions,
    sample_edges,
)
from hammingperc.rng import stream_rng, stream_rngs
from hammingperc.sprinkling import _complement_slots


@st.composite
def position_pairs(draw, max_n=10_000):
    """n and a list of distinct-position pairs (a, b) on a line of length n."""
    n = draw(st.integers(2, max_n))
    pos = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(pos, pos).filter(lambda t: t[0] != t[1]),
                          min_size=1, max_size=50))
    return n, pairs


@given(position_pairs())
def test_pair_rank_round_trips_through_ranks_to_positions(case):
    n, pairs = case
    ranks = np.array([pair_rank(a, b) for a, b in pairs])
    assert (ranks < n * (n - 1) // 2).all()
    a, b = ranks_to_positions(ranks)
    assert [(int(x), int(y)) for x, y in zip(a, b)] == [
        (min(p), max(p)) for p in pairs
    ]


@given(st.integers(2, 10_000).flatmap(
    lambda n: st.lists(st.integers(0, n * (n - 1) // 2 - 1), min_size=1,
                       max_size=50)))
def test_ranks_to_positions_inverts_pair_rank(ranks):
    a, b = ranks_to_positions(np.array(ranks))
    assert (a < b).all() and (a >= 0).all()
    assert [pair_rank(int(x), int(y)) for x, y in zip(a, b)] == ranks


@settings(max_examples=50, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(2, 6),
       p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_pairs_round_trip(d, n, p, seed):
    g = HammingGraph(d, n)
    occ = sample_edges(g, p, np.random.default_rng(seed))
    back = OccupiedEdgeSet.from_pairs(g, occ.all_pairs())
    assert np.array_equal(back.slots, occ.slots)


@st.composite
def occupied_lines(draw):
    """L lines of M slots each and a sorted set of occupied slots among them."""
    L = draw(st.integers(1, 4))
    M = draw(st.integers(1, 200))
    occ = draw(st.sets(st.integers(0, L * M - 1), max_size=L * M))
    return L, M, np.array(sorted(occ), dtype=np.int64)


@given(occupied_lines(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_complement_ranks_are_sorted_vacant_slots(lines, rate, seed):
    L, M, occ = lines
    rng = np.random.default_rng(seed)
    # draw line by line, numbering the picks of a line after the vacant
    # slots of the lines before it
    picks, line_of_pick, vacant_before = [], [], 0
    for i in range(L):
        vacant = M - int(((occ >= i * M) & (occ < (i + 1) * M)).sum())
        drawn = _skip_sample(rng, vacant, rate)
        picks.append(drawn + vacant_before)
        line_of_pick += [i] * len(drawn)
        vacant_before += vacant
    got = _complement_slots(occ, np.concatenate(picks))
    assert (np.diff(got) > 0).all()
    assert ((got >= 0) & (got < L * M)).all()
    assert (got // M).tolist() == line_of_pick
    assert not np.isin(got, occ).any()
    if rate == 1.0:
        assert np.array_equal(got, np.setdiff1d(np.arange(L * M), occ))


# one draw of each kind the package makes: sampling (geometric), exploration
# (binomial, bounded integers, which buffer 32-bit halves) and floats
DRAWS = {
    "geometric": lambda rng, x: rng.geometric(0.05 + 0.9 * x, size=3),
    "binomial": lambda rng, x: rng.binomial(int(40 * x), 0.3, size=2),
    "integers": lambda rng, x: rng.integers(1 + int(1000 * x), size=3),
    "integer": lambda rng, x: rng.integers(2 + int(1000 * x)),
    "random": lambda rng, x: rng.random(2),
}
seeds = st.one_of(st.integers(-2**64, 2**64 + 5),
                  st.integers(2**63 - 2, 2**63 + 2), st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, streams=st.lists(seeds, min_size=1, max_size=6),
       draws=st.lists(st.tuples(st.sampled_from(sorted(DRAWS)),
                                st.floats(0.0, 1.0)), min_size=1, max_size=8))
def test_rekeyed_streams_draw_what_fresh_streams_draw(seed, streams, draws):
    # every stream, however the one before it left the generator, starts
    # where a freshly keyed Philox starts
    for stream, rekeyed in zip(streams, stream_rngs(seed, streams)):
        fresh = stream_rng(seed, stream)
        for kind, x in draws:
            np.testing.assert_array_equal(DRAWS[kind](rekeyed, x),
                                          DRAWS[kind](fresh, x))


@st.composite
def replay_cases(draw):
    """p, a table size n and a mixed list of binomial(w) trial counts and
    integers(m) ranges that numpy draws by inversion and by Lemire."""
    p = draw(st.one_of(st.floats(1e-9, 0.5), st.floats(0.5, 1.0),
                       st.sampled_from([0.5, 1.0, 1e-3, 0.75])))
    rate = min(p, 1.0 - p)
    n = 401
    while rate * (n - 1) > 30.0:  # numpy's own inversion condition
        n -= 1
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("binomial"), st.integers(0, n - 1)),
        st.tuples(st.just("integers"), st.one_of(
            st.integers(1, 400),
            # about a quarter of these draws hit Lemire's rejection
            st.integers(2**31, 2**32 - 1),
            st.integers(1, 2**32 - 1),
        )),
    ), min_size=1, max_size=40))
    return p, n, ops


@settings(max_examples=150, deadline=None)
@given(seed=seeds, stream=seeds, halves=st.integers(0, 5),
       case=replay_cases())
def test_replayed_draws_match_numpy(seed, stream, halves, case):
    # the replay gives numpy's values and leaves the stream where numpy
    # would, from any 32-bit half-word position
    p, n, ops = case
    numpy_rng, replay_rng = stream_rng(seed, stream), stream_rng(seed, stream)
    for rng in (numpy_rng, replay_rng):
        for _ in range(halves):
            rng.integers(2**32, dtype=np.uint32)  # one 32-bit half each
        assert rng.bit_generator.state["has_uint32"] == halves % 2
    binomial, integers, finish = _philox_draws(replay_rng, p,
                                               *_inversion_tables(p, n))
    for kind, x in ops:
        if kind == "binomial":
            assert binomial(x) == numpy_rng.binomial(x, p)
        else:
            assert integers(x) == numpy_rng.integers(0, x)
    finish()
    assert replay_rng.random() == numpy_rng.random()
    assert replay_rng.integers(7) == numpy_rng.integers(7)
