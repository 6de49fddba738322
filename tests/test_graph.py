import numpy as np
import pytest

from hammingperc.graph import DomainError, HammingGraph


@pytest.mark.parametrize(
    "d,n,V,degree,edges",
    [
        (2, 2, 4, 2, 4),
        (2, 3, 9, 4, 18),
        (2, 10, 100, 18, 900),
        (3, 4, 64, 9, 288),
        (1, 7, 7, 6, 21),
    ],
)
def test_counts(d, n, V, degree, edges):
    g = HammingGraph(d, n)
    assert g.num_vertices == V
    assert g.degree == degree
    assert g.edge_count == edges


def test_invalid_parameters():
    with pytest.raises(DomainError):
        HammingGraph(0, 5)
    with pytest.raises(DomainError):
        HammingGraph(2, 1)


def test_vertex_index_examples():
    assert HammingGraph(2, 10).vertex_index((3, 7)) == 73
    assert HammingGraph(3, 4).vertex_index((1, 2, 3)) == 57


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (2, 5), (1, 7)])
def test_vertex_index_roundtrip(d, n):
    g = HammingGraph(d, n)
    seen = set()
    for v in range(g.num_vertices):
        coords = g.vertex_coords(v)
        assert g.vertex_index(coords) == v
        seen.add(coords)
    assert len(seen) == g.num_vertices


def test_vertex_index_rejects_bad_coords():
    g = HammingGraph(2, 3)
    with pytest.raises(DomainError):
        g.vertex_index((0, 3))
    with pytest.raises(DomainError):
        g.vertex_index((0, -1))
    with pytest.raises(DomainError):
        g.vertex_index((0, 0, 0))
    with pytest.raises(DomainError):
        g.vertex_coords(9)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 5), (3, 3)])
def test_neighbors_exhaustive(d, n):
    g = HammingGraph(d, n)
    for v in range(g.num_vertices):
        nbrs = g.neighbors(v)
        assert len(nbrs) == g.degree
        assert len(set(nbrs)) == g.degree
        cv = g.vertex_coords(v)
        for w in nbrs:
            cw = g.vertex_coords(w)
            diff = sum(a != b for a, b in zip(cv, cw))
            assert diff == 1
            assert v in g.neighbors(w)  # symmetry


@pytest.mark.parametrize("d,n", [(2, 3), (2, 5), (3, 3)])
def test_lines_partition_edges(d, n):
    g = HammingGraph(d, n)
    lines = g.lines()
    assert len(lines) == g.num_lines()
    if d == 2:
        assert len(lines) == 2 * n

    # every vertex appears on exactly d lines
    incidence = np.zeros(g.num_vertices, dtype=int)
    for line in lines:
        assert len(line) == n
        np.add.at(incidence, line.members, 1)
        coords = [g.vertex_coords(v) for v in line.members]
        for a, b in zip(coords, coords[1:]):
            diff = [j for j in range(d) if a[j] != b[j]]
            assert diff == [line.axis]
    assert (incidence == d).all()

    # intra-line pairs, summed over lines, are exactly the edge set
    from_lines = set()
    for line in lines:
        m = line.members
        for i in range(n):
            for j in range(i + 1, n):
                from_lines.add((int(m[i]), int(m[j])))
    from_neighbors = {
        (v, w) for v in range(g.num_vertices) for w in g.neighbors(v) if v < w
    }
    assert from_lines == from_neighbors
    assert len(from_lines) == g.edge_count


def test_horizontal_vertical_lines():
    # d=2: axis 1 lines are horizontal (first coordinate fixed), axis 0
    # lines vertical (second coordinate fixed)
    g = HammingGraph(2, 10)
    assert [g.vertex_coords(w) for w in g.line(axis=1, index=3).members] == [
        (3, y) for y in range(10)
    ]
    assert [g.vertex_coords(w) for w in g.line(axis=0, index=7).members] == [
        (x, 7) for x in range(10)
    ]


def test_line_index_of():
    g = HammingGraph(3, 4)
    for v in (0, 17, 57, 63):
        for axis in range(3):
            line = g.line(axis, g.line_index_of(v, axis))
            assert v in line.members
