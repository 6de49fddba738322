"""Breadth-first cluster exploration of H(2, n) with per-line accounting.

Vertices are white until discovered, green while waiting in the frontier
queue and red once explored.  Exploring (x, y) probes only edges toward
still-white vertices: the number of new recruits from each of its two lines
is Binomial(#white in that line, p), and the recruits themselves are a
uniform subset.  That reproduces independent Bernoulli edges exactly while
skipping every edge that could not add a vertex.

The process stops after ``cap`` explorations, whether or not the frontier is
exhausted, and reports how the discovered cluster spreads over horizontal
lines (grouped by first coordinate) and vertical lines (second coordinate).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from hammingperc.graph import DomainError
from hammingperc.percolation import PercolationConfig

__all__ = ["ExplorationEngine", "ExplorationResult"]


@dataclass(frozen=True)
class ExplorationResult:
    """Snapshot of one exploration at its stopping time T.

    T counts explored (red) vertices; the discovered cluster also includes
    the waiting frontier, so ``cluster_size_capped >= T`` with equality
    exactly when the process died out (and then T is the true cluster size).
    """

    origin: tuple
    T: int
    cluster_size_capped: int
    died_out: bool
    horiz_counts: np.ndarray
    vert_counts: np.ndarray
    members: np.ndarray | None = None


class ExplorationEngine:
    """Reusable exploration state for one (graph, p) pair.

    White-member bookkeeping is O(V) to build but restored after every run
    in time proportional to the discovered cluster, so estimators can afford
    many runs.  Each run draws from the generator it is handed; identical
    generators give identical runs.
    """

    def __init__(self, cfg: PercolationConfig):
        if cfg.graph.d != 2:
            raise DomainError("line exploration is defined for d = 2 only")
        self.graph = cfg.graph
        self.p = cfg.p
        n = cfg.graph.n
        self.n = n
        # white members of horizontal line x are second coordinates; of
        # vertical line y, first coordinates
        self._ident = list(range(n))
        self._white_h = [list(range(n)) for _ in range(n)]
        self._white_v = [list(range(n)) for _ in range(n)]
        self._pos_h = [list(range(n)) for _ in range(n)]
        self._pos_v = [list(range(n)) for _ in range(n)]

    @staticmethod
    def _remove(members, pos, val):
        i = pos[val]
        last = members[-1]
        members[i] = last
        pos[last] = i
        members.pop()
        pos[val] = -1

    def run(self, origin, rng, cap: int | None = None,
            keep_members: bool = False) -> ExplorationResult:
        n = self.n
        g = self.graph
        if isinstance(origin, (int, np.integer)):
            x0, y0 = g.vertex_coords(int(origin))
        else:
            x0, y0 = origin
            g.vertex_index((x0, y0))  # range check
        if cap is None:
            cap = g.num_vertices
        if cap < 1:
            raise DomainError(f"need cap >= 1, got {cap}")
        cap = min(cap, g.num_vertices)
        p = self.p

        white_h, white_v = self._white_h, self._white_v
        pos_h, pos_v = self._pos_h, self._pos_v
        binomial = rng.binomial
        integers = rng.integers

        hc = np.zeros(n, dtype=np.int64)
        vc = np.zeros(n, dtype=np.int64)
        discovered = [(x0, y0)]
        hc[x0] += 1
        vc[y0] += 1
        self._remove(white_h[x0], pos_h[x0], y0)
        self._remove(white_v[y0], pos_v[y0], x0)
        queue = deque(discovered)
        t = 0
        while queue and t < cap:
            x, y = queue.popleft()
            t += 1
            # recruits from the horizontal line of (x, y)
            row = white_h[x]
            w = len(row)
            k = binomial(w, p) if w else 0
            for _ in range(k):
                y2 = row[int(integers(0, len(row)))]
                self._remove(row, pos_h[x], y2)
                self._remove(white_v[y2], pos_v[y2], x)
                discovered.append((x, y2))
                queue.append((x, y2))
                hc[x] += 1
                vc[y2] += 1
            # recruits from the vertical line
            col = white_v[y]
            w = len(col)
            k = binomial(w, p) if w else 0
            for _ in range(k):
                x2 = col[int(integers(0, len(col)))]
                self._remove(col, pos_v[y], x2)
                self._remove(white_h[x2], pos_h[x2], y)
                discovered.append((x2, y))
                queue.append((x2, y))
                hc[x2] += 1
                vc[y] += 1
        died_out = not queue

        # restore every touched line to the canonical all-white order, so a
        # reused engine behaves exactly like a fresh one
        ident = self._ident
        for x in np.flatnonzero(hc):
            white_h[x][:] = ident
            pos_h[x][:] = ident
        for y in np.flatnonzero(vc):
            white_v[y][:] = ident
            pos_v[y][:] = ident

        members = None
        if keep_members:
            members = np.array(
                sorted(g.vertex_index(c) for c in discovered), dtype=np.int64
            )
        return ExplorationResult(
            origin=(x0, y0),
            T=t,
            cluster_size_capped=len(discovered),
            died_out=died_out,
            horiz_counts=hc,
            vert_counts=vc,
            members=members,
        )
