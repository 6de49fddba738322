"""Bond percolation configurations on H(d, n) and their components.

Edges live inside coordinate lines, each line a complete graph on n
vertices.  The pair of positions a < b on line i has rank b*(b-1)/2 + a and
slot i*M + rank, M = n(n-1)/2; a configuration is its sorted occupied slots.
Sampling walks each line's ranks with geometric gaps, which reproduces
independent Bernoulli(p) edges exactly while doing work proportional to the
number of occupied edges only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph, csr_array

from hammingperc.graph import DomainError, HammingGraph
from hammingperc.rng import stream_rng

__all__ = [
    "ClusterStats",
    "OccupiedEdgeSet",
    "PercolationConfig",
    "batch_components",
    "connected_components",
    "sample_configuration",
    "sample_edges",
    "z_geq",
]


@dataclass(frozen=True)
class PercolationConfig:
    """Percolation on H(d, n) at edge probability p = (1 + epsilon)/degree."""

    graph: HammingGraph
    epsilon: float
    seed: int = 0

    def __post_init__(self):
        omega = self.graph.degree
        if not -1.0 <= self.epsilon <= omega - 1.0:
            raise DomainError(
                f"epsilon={self.epsilon} puts p outside [0, 1]; "
                f"valid range is [-1, {omega - 1}]"
            )

    @property
    def p(self) -> float:
        return (1.0 + self.epsilon) / self.graph.degree


def pair_rank(a: int, b: int) -> int:
    """Canonical rank of the within-line position pair {a, b}."""
    if a == b:
        raise DomainError("a pair needs two distinct positions")
    if a > b:
        a, b = b, a
    return b * (b - 1) // 2 + a


def ranks_to_positions(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert pair_rank for an array of ranks; returns (a, b) with a < b."""
    r = np.asarray(ranks, dtype=np.int64)
    b = (0.5 + np.sqrt(2.0 * r + 0.25)).astype(np.int64)
    # one-step correction guards against float rounding at bucket edges
    b -= b * (b - 1) // 2 > r
    b += (b + 1) * b // 2 <= r
    return r - b * (b - 1) // 2, b


def _gap_count(M: int, p: float) -> int:
    """Geometric gaps drawn per chunk: enough to clear M slots at rate p in
    one chunk almost always."""
    return int(M * p + 4.0 * math.sqrt(M * p) + 16.0)


# below this p the gaps come near 2**63 and their sum wraps around; any gap
# past M ends a line's sample, so capping gaps at M + 1 changes no rank
_CAP_GAPS_BELOW = 1e-9


def _skip_sample(rng, M: int, p: float) -> np.ndarray:
    """Sorted ranks of occupied slots among M independent Bernoulli(p) slots."""
    if p <= 0.0 or M == 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(M, dtype=np.int64)
    chunks = []
    pos = -1
    size = _gap_count(M, p)
    cap_gaps = p < _CAP_GAPS_BELOW
    while True:
        gaps = rng.geometric(p, size=size)
        if cap_gaps:
            np.minimum(gaps, M + 1, out=gaps)
        # ndarray methods: np.cumsum and np.searchsorted add a Python
        # wrapper call each, which shows on graphs with many short lines
        ranks = pos + gaps.cumsum()
        cut = int(ranks.searchsorted(M))
        if cut < ranks.size:
            chunks.append(ranks[:cut])
            break
        chunks.append(ranks)
        pos = int(ranks[-1])
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


@dataclass(frozen=True)
class OccupiedEdgeSet:
    """Occupied edges of one configuration as sorted slots, lines ordered
    as in :meth:`HammingGraph.lines`: slot k is the k-th edge of H(d, n)
    taken line by line and rank by rank.  Vertex pairs are decoded on demand.
    """

    graph: HammingGraph
    slots: np.ndarray

    @property
    def total_occupied(self) -> int:
        return len(self.slots)

    def pairs_by_line(self, pos: int) -> np.ndarray:
        """(m, 2) array of occupied global vertex pairs of one line, u < v,
        decoded through its :class:`Line` (the reference for all_pairs)."""
        g = self.graph
        M = g.n * (g.n - 1) // 2
        lo, hi = np.searchsorted(self.slots, [pos * M, (pos + 1) * M])
        a, b = ranks_to_positions(self.slots[lo:hi] - pos * M)
        members = g.line(*divmod(pos, g.n ** (g.d - 1))).members
        return np.stack([members[a], members[b]], axis=1)

    def all_pairs(self) -> np.ndarray:
        """(E, 2) array of every occupied vertex pair, u < v, in slot order,
        decoded in one pass over all lines."""
        g = self.graph
        n = g.n
        pos, ranks = np.divmod(self.slots, n * (n - 1) // 2)
        axis, index = np.divmod(np.arange(g.num_lines()), n ** (g.d - 1))
        # per line: the frozen coordinates below ``axis`` keep their place
        # value, those above it move up by one factor of n
        stride = n ** axis
        above, below = np.divmod(index, stride)
        anchor = below + above * (stride * n)
        pairs = np.stack(ranks_to_positions(ranks), axis=1)
        pairs *= stride[pos, None]
        pairs += anchor[pos, None]
        return pairs

    def to_text(self) -> str:
        """Debug serialization, one occupied edge per line: "axis index u v"."""
        n = self.graph.n
        axis, index = np.divmod(self.slots // (n * (n - 1) // 2),
                                n ** (self.graph.d - 1))
        return "\n".join(
            f"{a} {i} {u} {v}" for a, i, (u, v)
            in zip(axis.tolist(), index.tolist(), self.all_pairs().tolist()))

    @classmethod
    def from_pairs(cls, graph: HammingGraph, pairs) -> "OccupiedEdgeSet":
        """Build from explicit vertex pairs (indices or coordinate tuples)."""
        per_axis = graph.n ** (graph.d - 1)
        M = graph.n * (graph.n - 1) // 2
        slots = []
        for u, v in pairs:
            if not isinstance(u, (int, np.integer)):
                u = graph.vertex_index(u)
            if not isinstance(v, (int, np.integer)):
                v = graph.vertex_index(v)
            cu, cv = graph.vertex_coords(u), graph.vertex_coords(v)
            axes = [j for j in range(graph.d) if cu[j] != cv[j]]
            if len(axes) != 1:
                raise DomainError(f"vertices {cu} and {cv} are not adjacent")
            axis = axes[0]
            pos = axis * per_axis + graph.line_index_of(u, axis)
            slots.append(pos * M + pair_rank(cu[axis], cv[axis]))
        slots = np.sort(np.array(slots, dtype=np.int64))
        repeated = slots[1:][np.diff(slots) == 0]
        if repeated.size:
            raise DomainError(f"duplicate edge in line position {repeated[0] // M}")
        return cls(graph=graph, slots=slots)

    @classmethod
    def from_text(cls, graph: HammingGraph, text: str) -> "OccupiedEdgeSet":
        pairs = []
        for row in text.splitlines():
            if not row.strip():
                continue
            _axis, _index, u, v = row.split()
            pairs.append((int(u), int(v)))
        return cls.from_pairs(graph, pairs)


@functools.lru_cache(maxsize=64)
def _line_starts(L: int, M: int) -> np.ndarray:
    """Column of line offsets i*M - 1, read-only: it is shared by every
    matrix-sampled configuration of one shape."""
    starts = np.arange(-1, L * M - 1, M)[:, None]
    starts.flags.writeable = False
    return starts


def sample_edges(g: HammingGraph, p: float, rng) -> OccupiedEdgeSet:
    """Independent Bernoulli(p) edges of H(d, n) drawn from ``rng``."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"edge probability {p} outside [0, 1]")
    M = g.n * (g.n - 1) // 2
    L = g.num_lines()
    size = _gap_count(M, p)
    if 0.0 < p < 1.0 and size > M:
        # every gap is at least 1, so each line clears in its first chunk of
        # `size` gaps: the lines' draws are exactly the rows of one matrix
        gaps = rng.geometric(p, size=(L, size))
        if p < _CAP_GAPS_BELOW:
            np.minimum(gaps, M + 1, out=gaps)
        ends = gaps.cumsum(axis=1, out=gaps)  # rank + 1 within the line
        inside = ends <= M
        ends += _line_starts(L, M)
        return OccupiedEdgeSet(graph=g, slots=ends[inside])
    ranks = [_skip_sample(rng, M, p) for _ in range(L)]
    slots = np.concatenate(ranks)
    slots += np.arange(0, L * M, M).repeat([len(r) for r in ranks])
    return OccupiedEdgeSet(graph=g, slots=slots)


def sample_configuration(cfg: PercolationConfig, stream: int = 0) -> OccupiedEdgeSet:
    """Draw one configuration: every edge occupied independently with
    probability p, via geometric skips along each line's pair order."""
    return sample_edges(cfg.graph, cfg.p, stream_rng(cfg.seed, stream))


# Unused by the package; kept as bench/run.py's tracer wraps it by name.
class UnionFind:
    """Disjoint sets over range(V), path halving plus union by size."""

    def __init__(self, num_items: int):
        self.parent = list(range(num_items))
        self.size = [1] * num_items

    def union_pairs(self, pairs) -> None:
        """Merge along an iterable of (u, v) pairs (hot path, inlined finds)."""
        parent = self.parent
        size = self.size
        for u, v in pairs:
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u != v:
                if size[u] < size[v]:
                    u, v = v, u
                parent[v] = u
                size[u] += size[v]

    def component_sizes(self) -> np.ndarray:
        """All component sizes, largest first."""
        parent = self.parent
        size = self.size
        out = sorted((size[v] for v in range(len(parent)) if parent[v] == v),
                     reverse=True)
        return np.array(out, dtype=np.int64)


@dataclass(frozen=True)
class ClusterStats:
    """Component sizes of one configuration, largest first."""

    sizes: np.ndarray
    cmax: int
    c2: int
    # a component label per vertex, equal labels meaning the same component;
    # None only from batch_components
    labels: np.ndarray | None = None

    def __post_init__(self):
        if np.count_nonzero(self.sizes[1:] > self.sizes[:-1]):
            raise DomainError("sizes must be sorted descending")


def connected_components(occupied: OccupiedEdgeSet) -> ClusterStats:
    """Components of one configuration, labels included, from scipy's
    csgraph."""
    V = occupied.graph.num_vertices
    pairs = occupied.all_pairs()
    adjacency = csr_array(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(V, V))
    _, labels = csgraph.connected_components(adjacency, directed=False)
    sizes = np.sort(np.bincount(labels))[::-1]
    return ClusterStats(
        sizes=sizes,
        cmax=int(sizes[0]),
        c2=int(sizes[1]) if sizes.size > 1 else 0,
        labels=labels,
    )


# Most vertices stacked into one csgraph call by batch_components.  A batch
# peaks at about 72 bytes per stacked vertex, results included (tracemalloc
# at H(2,3) and H(2,32)), so 4.7 MB here; batches of 2**14 to 2**20
# vertices take the same time per replica (see CHANGES.md).
BATCH_MAX_VERTICES = 2**16


def batch_components(configs) -> list[ClusterStats]:
    """Components of many configurations of one graph: the ClusterStats,
    without labels, that :func:`connected_components` gives one by one.

    Replica r's vertices are offset by r*V, so a batch is one block-diagonal
    graph: one decode, one csgraph call and one sort serve all of it, which
    pays csgraph's fixed cost once per batch instead of once per replica.
    ``configs`` may be any iterable; it is consumed one batch of at most
    BATCH_MAX_VERTICES stacked vertices at a time.
    """
    configs = iter(configs)
    first = next(configs, None)
    if first is None:
        return []
    g = first.graph
    per_batch = max(1, BATCH_MAX_VERTICES // g.num_vertices)
    configs = itertools.chain([first], configs)
    out = []
    while batch := list(itertools.islice(configs, per_batch)):
        if any(c.graph is not g and c.graph != g for c in batch):
            raise DomainError("batched configurations must share one graph")
        out += _components_of_batch(batch)
    return out


def _components_of_batch(configs) -> list[ClusterStats]:
    g = configs[0].graph
    V = g.num_vertices
    R = len(configs)
    counts = [c.total_occupied for c in configs]
    pairs = OccupiedEdgeSet(
        graph=g, slots=np.concatenate([c.slots for c in configs])).all_pairs()
    pairs += np.arange(0, R * V, V).repeat(counts)[:, None]
    adjacency = csr_array((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                          shape=(R * V, R * V))
    num, labels = csgraph.connected_components(adjacency, directed=False)
    sizes = np.bincount(labels)
    owner = np.empty(num, dtype=np.int64)
    owner[labels] = np.arange(R * V) // V
    # by replica, then largest first
    sizes = sizes[np.lexsort((-sizes, owner))]
    per_replica = np.bincount(owner, minlength=R)
    ends = per_replica.cumsum()
    starts = ends - per_replica
    cmax = sizes[starts]
    c2 = np.where(per_replica > 1,
                  sizes[np.minimum(starts + 1, sizes.size - 1)], 0)
    return [
        ClusterStats(sizes=sizes[a:b], cmax=m, c2=c)
        for a, b, m, c in zip(starts.tolist(), ends.tolist(), cmax.tolist(),
                              c2.tolist())
    ]


def z_geq(stats: ClusterStats, k: int) -> int:
    """Number of vertices lying in components of size at least k."""
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    s = stats.sizes
    return int(s[s >= k].sum())
