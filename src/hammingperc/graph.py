"""Hamming graphs H(d, n) and their coordinate lines.

Vertices are d-tuples over {0, ..., n-1}; two vertices are adjacent exactly
when they differ in a single coordinate.  Tuples are addressed by a mixed
radix integer (coordinate j contributes coords[j] * n**j), which is the
representation all the percolation machinery works with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DomainError", "HammingGraph", "Line"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class Line:
    """One coordinate line: the n vertices agreeing in every coordinate
    except ``axis``, along which they run through all of {0, ..., n-1}.

    ``index`` packs the d-1 frozen coordinate values in mixed radix (base n,
    coordinates in increasing order, skipping ``axis``).  ``members`` holds
    global vertex indices, sorted by the running coordinate; because the
    vertex index is monotone in each coordinate, members are ascending.
    """

    axis: int
    index: int
    members: np.ndarray = field(compare=False)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class HammingGraph:
    """H(d, n): n**d vertices of uniform degree d*(n-1)."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"need d >= 1, got d={self.d}")
        if self.n < 2:
            raise DomainError(f"need n >= 2, got n={self.n}")

    @property
    def num_vertices(self) -> int:
        return self.n ** self.d

    @property
    def degree(self) -> int:
        return self.d * (self.n - 1)

    @property
    def edge_count(self) -> int:
        # every vertex has degree d*(n-1); each edge counted twice
        return self.num_vertices * self.degree // 2

    # -- vertex addressing -------------------------------------------------

    def vertex_index(self, coords) -> int:
        """Mixed radix index of a coordinate tuple."""
        if len(coords) != self.d:
            raise DomainError(f"expected {self.d} coordinates, got {len(coords)}")
        idx = 0
        for j in reversed(range(self.d)):
            c = coords[j]
            if not 0 <= c < self.n:
                raise DomainError(f"coordinate {c} outside [0, {self.n})")
            idx = idx * self.n + c
        return idx

    def vertex_coords(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`vertex_index`."""
        if not 0 <= index < self.num_vertices:
            raise DomainError(f"vertex index {index} outside [0, {self.num_vertices})")
        out = []
        for _ in range(self.d):
            index, c = divmod(index, self.n)
            out.append(c)
        return tuple(out)

    # -- coordinate lines --------------------------------------------------

    def num_lines(self) -> int:
        return self.d * self.n ** (self.d - 1)

    def line(self, axis: int, index: int) -> Line:
        """The line running along ``axis`` whose frozen coordinates are
        packed into ``index`` (mixed radix over the other d-1 coordinates)."""
        if not 0 <= axis < self.d:
            raise DomainError(f"axis {axis} outside [0, {self.d})")
        if not 0 <= index < self.n ** (self.d - 1):
            raise DomainError(f"line index {index} out of range")
        anchor = 0
        rem = index
        stride = 1
        for j in range(self.d):
            if j == axis:
                stride *= self.n
                continue
            rem, c = divmod(rem, self.n)
            anchor += c * stride
            stride *= self.n
        run = self.n ** axis
        members = anchor + run * np.arange(self.n, dtype=np.int64)
        return Line(axis=axis, index=index, members=members)

    def line_index_of(self, v: int, axis: int) -> int:
        """Index of the unique line along ``axis`` containing vertex v."""
        coords = self.vertex_coords(v)
        if not 0 <= axis < self.d:
            raise DomainError(f"axis {axis} outside [0, {self.d})")
        idx = 0
        for j in reversed(range(self.d)):
            if j != axis:
                idx = idx * self.n + coords[j]
        return idx

    def lines(self) -> list[Line]:
        """All d * n**(d-1) lines, ordered by (axis, index).

        Every vertex lies on exactly d of them and every edge lies inside
        exactly one, so the intra-line pair counts sum to edge_count.
        """
        return [
            self.line(axis, index)
            for axis in range(self.d)
            for index in range(self.n ** (self.d - 1))
        ]
