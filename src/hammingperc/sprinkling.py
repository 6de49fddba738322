"""Two-round edge exposure: a thinned first round plus a sprinkle.

Splitting Bernoulli(p) edges into two independent rounds leaves the combined
configuration exactly Bernoulli(p) per edge: round one keeps an edge with
probability p_minus = (p - s) / (1 - s), round two occupies each still-vacant
edge with probability s = eta / degree, and the union is occupied with
probability p_minus + (1 - p_minus) * s = p.  The report records the large
first-round clusters, how widely each spreads over horizontal lines, and
whether the sprinkle welds all of them into a single component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hammingperc.graph import DomainError
from hammingperc.percolation import (
    OccupiedEdgeSet,
    PercolationConfig,
    _skip_sample,
    connected_components,
    sample_edges,
)
from hammingperc.rng import stream_rng

__all__ = ["SprinklingReport", "two_round_exposure"]


@dataclass(frozen=True)
class SprinklingReport:
    """Outcome of one two-round exposure.

    A first-round cluster counts as large when it holds at least
    ceil(eta * V) vertices (at least 1 when eta == 0), and a horizontal line
    is good for a cluster when it carries at least eta * V / (4n) of its
    vertices.
    """

    p_minus: float
    eta: float
    clusters_before: np.ndarray = field(compare=False)  # large sizes, desc
    z_prime: int  # vertices covered by the large clusters
    good_lines_before: np.ndarray | None = field(compare=False)  # d=2 only
    merged_after: bool
    cmax_after: int
    occupied_before: int
    occupied_after: int
    edges_after: OccupiedEdgeSet | None = field(default=None, compare=False)


def _complement_slots(occ: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Slot of each vacant slot in ``picks``, the vacant slots being
    numbered in slot order around the sorted occupied slots ``occ``.

    Vacant slot q is slot q + j, with j the number of occupied slots below
    it: the occupied slots o_i with o_i - i <= q.
    """
    return picks + np.searchsorted(occ - np.arange(len(occ)), picks,
                                   side="right")


def two_round_exposure(cfg: PercolationConfig, eta: float, stream: int = 0,
                       keep_edges: bool = False) -> SprinklingReport:
    """Expose one configuration in two rounds and report the merge outcome.

    Round one samples every edge at the reduced probability p_minus and its
    components are measured; round two sprinkles each vacant edge at rate
    eta / degree and the large first-round clusters are checked for having
    merged.  Both rounds consume the single stream ``stream`` of cfg.seed,
    so a report is reproducible from (cfg, eta, stream) alone.  With
    ``keep_edges`` the combined configuration is returned as well.
    """
    g = cfg.graph
    V = g.num_vertices
    n = g.n
    p = cfg.p
    if eta < 0.0:
        raise DomainError(f"eta must be nonnegative, got {eta}")
    rate = eta / g.degree
    if rate >= 1.0 or rate > p:
        raise DomainError(
            f"sprinkle rate eta/degree = {rate:.6g} must stay below 1 "
            f"and at most p = {p:.6g}"
        )
    p_minus = (p - rate) / (1.0 - rate)

    rng = stream_rng(cfg.seed, stream)
    first = sample_edges(g, p_minus, rng)
    labels = connected_components(first).labels
    counts = np.bincount(labels)

    # large clusters by size, largest first, ties by label
    threshold = max(1, math.ceil(eta * V))
    large = np.flatnonzero(counts >= threshold)
    large = large[np.argsort(-counts[large], kind="stable")]
    clusters_before = counts[large]
    rank = np.full(counts.size, -1, dtype=np.int64)
    rank[large] = np.arange(large.size)
    vertex_rank = rank[labels]
    in_large = vertex_rank >= 0

    good_lines = None
    if g.d == 2:
        # vertices per (large cluster, first coordinate) in one count
        first_coord = np.arange(V, dtype=np.int64) % n
        per_line = np.bincount(
            vertex_rank[in_large] * n + first_coord[in_large],
            minlength=large.size * n,
        ).reshape(large.size, n)
        good_lines = (per_line >= eta * V / (4.0 * n)).sum(axis=1)

    # round two: sprinkle the vacant slots of every line, same stream; the
    # picks of line i are numbered after the vacant slots of lines < i
    M = n * (n - 1) // 2
    occ = first.slots
    vacant = M - np.bincount(occ // M, minlength=g.num_lines())
    picks = [_skip_sample(rng, w, rate) for w in vacant.tolist()]
    offsets = np.repeat(np.cumsum(vacant) - vacant, [len(q) for q in picks])
    extra = _complement_slots(occ, np.concatenate(picks) + offsets)
    after_edges = OccupiedEdgeSet(graph=g,
                                  slots=np.sort(np.concatenate([occ, extra])))
    after = connected_components(after_edges)
    # merged when every vertex of a large cluster shares one label after
    merged = after.labels[in_large]

    return SprinklingReport(
        p_minus=p_minus,
        eta=eta,
        clusters_before=clusters_before,
        z_prime=int(clusters_before.sum()),
        good_lines_before=good_lines,
        merged_after=bool((merged == merged[:1]).all()),
        cmax_after=after.cmax,
        occupied_before=first.total_occupied,
        occupied_after=after_edges.total_occupied,
        edges_after=after_edges if keep_edges else None,
    )
