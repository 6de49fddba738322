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

Draws.  Each step takes ``binomial(w, p)`` recruit counts and
``integers(0, m)`` picks.  Through numpy these calls cost more than the
rest of the step, so on a Philox stream a run replays them instead: it
fetches raw 64-bit words with ``bit_generator.random_raw`` and repeats
numpy's own arithmetic on them in plain Python.

- ``binomial(w, p)``: numpy's inversion routine, which numpy itself uses
  when w * min(p, 1 - p) <= 30 (for p > 0.5 it returns w minus the
  inversion at 1 - p).  Each uniform is ``(word >> 11) * 2**-53``.
- ``integers(0, m)``: Lemire's method on 32-bit halves with rejection.
  Philox hands out the low half of a word and keeps the high half for the
  next 32-bit draw (its ``has_uint32``/``uinteger`` state); the replay
  starts from that buffer and leaves it as numpy would.

After a run the generator sits exactly where numpy's calls would have left
it, half-word buffer included: the run restores the state it saved at the
start, advances it by the words it used and sets the buffer.  Either way a
run draws the same values and leaves the same state.  The replay follows numpy 2.4.6's internals,
which CI pins; ``tests/test_properties.py`` compares it with numpy's own
calls.  A run draws through the Generator instead for a bit generator other
than Philox, at p = 0 (numpy draws nothing), or when
(n - 1) * min(p, 1 - p) > 30 (numpy's BTPE branch, which needs epsilon
above 59).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hammingperc.graph import DomainError
from hammingperc.percolation import PercolationConfig

__all__ = ["ExplorationEngine", "ExplorationResult"]

_MASK32 = 0xFFFFFFFF
# numpy's uniform double from a raw word: (word >> 11) * 2**-53
_TWO_M53 = 2.0 ** -53
# numpy's binomial inverts the cdf up to this mean and runs BTPE above it
_INVERSION_MAX_MEAN = 30.0
# raw words fetched at a time: short runs use few, so a run starts small and
# doubles the block up to the cap
_FIRST_BLOCK = 32
_MAX_BLOCK = 1024


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


def _inversion_rate(p: float) -> float:
    """The success rate numpy's binomial inverts at: p, or 1 - p above 1/2."""
    return p if p <= 0.5 else 1.0 - p


def _inversion_tables(p: float, n: int) -> tuple[list, list]:
    """numpy's constants of its binomial inversion at p for w = 0 .. n - 1
    trials: the probability q**w of no success and the bound past which
    the search restarts."""
    r = _inversion_rate(p)
    q = 1.0 - r
    qn = [math.exp(w * math.log(q)) for w in range(n)]
    bound = [int(min(w, w * r + 10.0 * math.sqrt(w * r * q + 1)))
             for w in range(n)]
    return qn, bound


def _philox_draws(rng: np.random.Generator, p: float, qn: list, bound: list):
    """``binomial(w)``, ``integers(m)`` and ``finish()`` that replay
    ``rng.binomial(w, p)`` and ``rng.integers(0, m)`` from raw Philox words.

    Needs 0 < p <= 1, the tables of ``_inversion_tables(p, n)`` with n above
    every w drawn, and w * min(p, 1 - p) <= 30 (numpy's own condition for
    the inversion); m runs from 1 to 2**32 - 1.  ``finish()`` moves ``rng``
    to where numpy's calls would have left it; call it once, after the last
    draw.
    """
    bit_generator = rng.bit_generator
    raw = bit_generator.random_raw
    saved = bit_generator.state
    flip = p > 0.5
    r = _inversion_rate(p)
    q = 1.0 - r
    words = []
    i = nw = base = 0  # next word, words in this block, words before it
    has_half = saved["has_uint32"]
    half = saved["uinteger"]

    def word():
        nonlocal words, i, nw, base
        if i == nw:
            base += nw
            nw = min(2 * nw, _MAX_BLOCK) or _FIRST_BLOCK
            words = raw(nw).tolist()
            i = 0
        i += 1
        return words[i - 1]

    def half32():
        # Philox's next_uint32: the low half of a fresh word, keeping the
        # high half for the next call
        nonlocal has_half, half
        if has_half:
            has_half = 0
            return half
        full = word()
        has_half = 1
        half = full >> 32
        return full & _MASK32

    def binomial(w):
        if not w:
            return 0
        u = (word() >> 11) * _TWO_M53
        px = qn[w]
        x = 0
        while u > px:
            x += 1
            if x > bound[w]:
                # numpy restarts the search this far out, about ten
                # standard deviations above the mean; no test reaches it
                x = 0
                px = qn[w]
                u = (word() >> 11) * _TWO_M53
            else:
                u -= px
                px = (w - x + 1) * r * px / (x * q)
        return w - x if flip else x

    def integers(m):
        # Lemire: the high half of u * m for a 32-bit u, rejecting products
        # whose low half falls below 2**32 mod m
        if m == 1:
            return 0
        prod = half32() * m
        if prod & _MASK32 < m:
            threshold = (0x100000000 - m) % m
            while prod & _MASK32 < threshold:
                prod = half32() * m
        return prod >> 32

    def finish():
        # random_raw leaves the half-word buffer alone
        saved["has_uint32"] = has_half
        saved["uinteger"] = half
        bit_generator.state = saved
        if base + i:
            raw(base + i, output=False)

    return binomial, integers, finish


def _generator_draws(rng: np.random.Generator, p: float):
    """The same three functions drawing through the Generator itself."""

    def binomial(w):
        return int(rng.binomial(w, p))

    def integers(m):
        return int(rng.integers(0, m))

    def finish():
        pass

    return binomial, integers, finish


class ExplorationEngine:
    """Reusable exploration state for one (graph, p) pair.

    White-member bookkeeping is O(V) to build but restored after every run
    in time proportional to the discovered cluster, so estimators can afford
    many runs.  Each run draws from the generator it is handed and leaves
    it where numpy's own ``binomial``/``integers`` calls would have;
    identical generators give identical runs.  A run replays the draws from
    raw words when the generator is Philox, p > 0 and
    (n - 1) * min(p, 1 - p) <= 30, and calls the Generator otherwise (see
    the module docstring).
    """

    def __init__(self, cfg: PercolationConfig):
        if cfg.graph.d != 2:
            raise DomainError("line exploration is defined for d = 2 only")
        self.graph = cfg.graph
        self.p = cfg.p
        n = cfg.graph.n
        self.n = n
        # white members of horizontal line x are second coordinates; of
        # vertical line y, first coordinates.  Every list starts as a copy
        # of one identity list, so all of them share its int objects.
        ident = self._ident = list(range(n))
        self._white_h = [ident[:] for _ in range(n)]
        self._white_v = [ident[:] for _ in range(n)]
        self._pos_h = [ident[:] for _ in range(n)]
        self._pos_v = [ident[:] for _ in range(n)]
        self._tables = None
        if 0.0 < self.p and (_inversion_rate(self.p) * (n - 1)
                             <= _INVERSION_MAX_MEAN):
            self._tables = _inversion_tables(self.p, n)

    @staticmethod
    def _remove(members, pos, val):
        i = pos[val]
        last = members.pop()
        if last != val:
            members[i] = last
            pos[last] = i

    def _draws(self, rng: np.random.Generator):
        if self._tables is not None and isinstance(rng.bit_generator,
                                                   np.random.Philox):
            return _philox_draws(rng, self.p, *self._tables)
        return _generator_draws(rng, self.p)

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
        binomial, integers, finish = self._draws(rng)

        white_h, white_v = self._white_h, self._white_v
        pos_h, pos_v = self._pos_h, self._pos_v
        # discovered vertices in discovery order, which is also the order
        # they are explored in: the queue is xs[t:], ys[t:]
        xs = [x0]
        ys = [y0]
        remove = self._remove
        remove(white_h[x0], pos_h[x0], y0)
        remove(white_v[y0], pos_v[y0], x0)
        t = 0
        while t < len(xs) and t < cap:
            x = xs[t]
            y = ys[t]
            t += 1
            # recruits from the horizontal line of (x, y); each one leaves
            # the white lists of both its lines (swap with last, then pop)
            row = white_h[x]
            prow = pos_h[x]
            for _ in range(binomial(len(row))):
                y2 = row[integers(len(row))]
                remove(row, prow, y2)
                remove(white_v[y2], pos_v[y2], x)
                xs.append(x)
                ys.append(y2)
            # recruits from the vertical line
            col = white_v[y]
            pcol = pos_v[y]
            for _ in range(binomial(len(col))):
                x2 = col[integers(len(col))]
                remove(col, pcol, x2)
                remove(white_h[x2], pos_h[x2], y)
                xs.append(x2)
                ys.append(y)
        finish()
        hc = np.bincount(xs, minlength=n)
        vc = np.bincount(ys, minlength=n)

        # restore every touched line to the canonical all-white order, so a
        # reused engine behaves exactly like a fresh one
        ident = self._ident
        for x in hc.nonzero()[0].tolist():
            white_h[x][:] = ident
            pos_h[x][:] = ident
        for y in vc.nonzero()[0].tolist():
            white_v[y][:] = ident
            pos_v[y][:] = ident

        members = None
        if keep_members:
            members = np.sort(np.array(xs, dtype=np.int64)
                              + n * np.array(ys, dtype=np.int64))
        return ExplorationResult(
            origin=(x0, y0),
            T=t,
            cluster_size_capped=len(xs),
            died_out=t == len(xs),
            horiz_counts=hc,
            vert_counts=vc,
            members=members,
        )
