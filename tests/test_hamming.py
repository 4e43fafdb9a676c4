"""Graph parameters, adjacency, and the two distance routes.

The closed form (0 / 1 / 2 by shared coordinates) is validated against an
independent breadth-first oracle written directly over the adjacency
predicate, for every graph small enough to sweep.
"""

import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammingdim import (
    DisconnectedGraph,
    GhgParams,
    InvalidPair,
    InvalidVertex,
    ParseError,
    Unreachable,
    Unsupported,
    hamming_discrepancy,
    hamming_graph,
)


def bfs_oracle(g: GhgParams, source):
    """Plain BFS over adjacent(); independent of the library's search."""
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        for v in g.vertices():
            if v != u and v not in dist and g.adjacent(u, v):
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def test_vertex_count():
    assert hamming_graph(3, 3, 3).vertex_count() == 27
    assert hamming_graph(4, 4, 4).vertex_count() == 64
    assert hamming_graph(5, 7, 11).vertex_count() == 385


def test_vertices_lexicographic():
    g = hamming_graph(2, 3)
    assert list(g.vertices())[:4] == [(1, 1), (1, 2), (1, 3), (2, 1)]
    assert len(list(g.vertices())) == 6


def test_params_validation():
    with pytest.raises(Unsupported):
        GhgParams((3,), frozenset({1}))  # r >= 2
    with pytest.raises(Unsupported):
        GhgParams((3, 0, 3), frozenset({3}))
    with pytest.raises(Unsupported):
        GhgParams((3, 3, 3), frozenset({4}))
    with pytest.raises(Unsupported):
        GhgParams((3, 3, 3), frozenset())
    g = hamming_graph(3, 3, 3)
    with pytest.raises(InvalidVertex):
        g.validate_vertex((1, 1))
    with pytest.raises(InvalidVertex):
        g.validate_vertex((1, 1, 4))


def test_discrepancy():
    assert hamming_discrepancy((1, 1, 1), (1, 1, 1)) == 0
    assert hamming_discrepancy((1, 1, 1), (2, 2, 2)) == 3
    assert hamming_discrepancy((1, 2, 3), (1, 2, 1)) == 1
    with pytest.raises(InvalidPair):
        hamming_discrepancy((1, 1), (1, 1, 1))


def test_adjacent():
    g = hamming_graph(3, 3, 3)
    assert g.adjacent((1, 1, 1), (2, 2, 2))
    assert not g.adjacent((1, 1, 1), (1, 2, 2))
    with pytest.raises(InvalidPair):
        g.adjacent((1, 1, 1), (1, 1, 1))
    comp = hamming_graph(3, 3, 3, k={1, 2})
    assert comp.adjacent((1, 1, 1), (1, 2, 2))
    assert not comp.adjacent((1, 1, 1), (2, 2, 2))


def test_distance_closed_form():
    g = hamming_graph(3, 3, 3)
    assert g.distance((1, 1, 1), (1, 1, 1)) == 0
    assert g.distance((1, 1, 1), (2, 2, 2)) == 1
    assert g.distance((1, 1, 1), (1, 2, 2)) == 2
    comp = hamming_graph(3, 3, 3, k={1, 2})
    assert comp.distance((1, 1, 1), (2, 2, 2)) == 2
    assert comp.distance((1, 1, 1), (1, 2, 2)) == 1
    # the two diameter-2 regimes, K = {r} and K = {1..r-1}, all dims >= 3
    assert g.closed_form_available() and comp.closed_form_available()
    assert hamming_graph(3, 4, k={1}).closed_form_available()
    assert not hamming_graph(3, 3, 3, k={1}).closed_form_available()
    assert not hamming_graph(2, 3, 3).closed_form_available()
    assert not hamming_graph(2, 3, 3, k={1, 2}).closed_form_available()


@pytest.mark.parametrize(
    "dims,k",
    [
        ((3, 3, 3), {3}),
        ((3, 4, 5), {3}),
        ((4, 4, 4), {3}),
        ((3, 4), {2}),
        ((5, 6), {2}),
        ((3, 3, 3), {1, 2}),
        ((4, 4, 4), {1, 2}),
        ((3, 4, 5), {1, 2}),
        ((3, 4), {1}),
        ((2, 3, 3), {3}),  # one dim 2: diameter 3, BFS route
    ],
)
def test_distance_against_bfs_oracle(dims, k):
    g = GhgParams(tuple(dims), frozenset(k))
    verts = list(g.vertices())
    assert len(verts) <= 200
    for src in verts:
        oracle = bfs_oracle(g, src)
        for v in verts:
            assert g.distance(src, v) == oracle[v], (src, v)


def test_diameter_two():
    for dims in [(3, 3, 3), (3, 4, 5)]:
        g = GhgParams(dims, frozenset({3}))
        assert max(
            g.distance(x, y)
            for x, y in itertools.combinations(g.vertices(), 2)
        ) == 2


def test_disconnected_regimes():
    g = hamming_graph(2, 2, 3)
    with pytest.raises(DisconnectedGraph):
        g.distance((1, 1, 1), (2, 1, 1))
    g1 = hamming_graph(1, 3, 3)
    with pytest.raises(DisconnectedGraph):
        g1.distance((1, 1, 1), (1, 2, 2))
    # equal vertices still have distance 0
    assert g.distance((1, 1, 1), (1, 1, 1)) == 0
    # K = {2} on 2x2x2 joins only vertices of equal parity
    with pytest.raises(Unreachable):
        hamming_graph(2, 2, 2, k={2}).distance((1, 1, 1), (1, 1, 2))


def test_bfs_fallback_size_cap():
    g = GhgParams((30, 30, 30), frozenset({1}))  # no closed form
    assert not g.closed_form_available()
    with pytest.raises(Unsupported):
        g.distance((1, 1, 1), (2, 2, 2))
    # a vertex count of more than 4,300 digits, which str() refuses
    huge = int("9" * 2500)
    with pytest.raises(Unsupported, match="fallback limit"):
        GhgParams((3, huge, huge), frozenset({1})).distance((1, 1, 1), (2, 2, 2))


def test_format_and_parse():
    g = hamming_graph(3, 3, 3)
    assert g.format() == "3x3x3;K=3"
    assert GhgParams.parse("3x3x3;K=3") == g
    assert GhgParams.parse("3x4x5") == hamming_graph(3, 4, 5)  # K defaults to {r}
    comp = GhgParams.parse("3x3x3;K=1,2")
    assert comp.k == frozenset({1, 2})
    assert comp.format() == "3x3x3;K=1,2"
    assert GhgParams.parse("5x7x11").format() == "5x7x11;K=3"
    # the last two hold numbers past int()'s 4,300-digit limit
    for bad in ["", "3", "3x", "3x3x3;K=", "axb", "3x3x" + "9" * 5000, "3x3x3;K=" + "1" * 5000]:
        with pytest.raises(ParseError):
            GhgParams.parse(bad)
    # ASCII digits only: int() would read these full-width and Arabic-Indic
    # digits as 3
    for bad in ["\uff13x\uff13x\uff13", "\u0663x\u0663x\u0663", "3x3x3;K=\uff13"]:
        with pytest.raises(ParseError):
            GhgParams.parse(bad)
    for bad in ["3x3x3;K=0", "3x3x3;K=4"]:  # parses, fails the domain check
        with pytest.raises(Unsupported):
            GhgParams.parse(bad)


def vertices_of(dims):
    return st.tuples(*(st.integers(1, d) for d in dims))


@given(vertices_of((3, 4, 5)), vertices_of((3, 4, 5)))
@settings(max_examples=200)
def test_distance_symmetry(x, y):
    g = hamming_graph(3, 4, 5)
    assert g.distance(x, y) == g.distance(y, x)
    assert (g.distance(x, y) == 0) == (x == y)


@given(vertices_of((3, 3, 3)), vertices_of((3, 3, 3)), vertices_of((3, 3, 3)))
@settings(max_examples=200)
def test_triangle_inequality(x, y, z):
    g = hamming_graph(3, 3, 3)
    assert g.distance(x, z) <= g.distance(x, y) + g.distance(y, z)
