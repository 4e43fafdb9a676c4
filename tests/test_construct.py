"""Cubic-graph constructions, landmark extraction, fixtures, bases."""

import hashlib
import json
import random

import pytest

from hammingdim import (
    ColoredCubicGraph,
    InvalidOrder,
    LandmarkSet,
    NotFound,
    SystemKind,
    Unsupported,
    Verdict,
    build_landmark_graph,
    classify,
    construct_cubic,
    fixture,
    forbidden_scan,
    graph_to_landmarks,
    is_resolving,
    lower_bound,
    metric_basis,
    predict_resolving,
)
from hammingdim.construct import CUBIC_K_LIMIT

# the order-8 Moebius ladder behind n=4: octagon with pink/blue
# alternation and green antipodal rungs
K4_LABELS = ("p1", "p2", "p3", "p4", "p1'", "p2'", "p3'", "p4'")
K4_EDGES = (
    (0, 1, 3), (0, 4, 2), (0, 7, 1), (1, 2, 1), (1, 5, 2), (2, 3, 3),
    (2, 6, 2), (3, 4, 1), (3, 7, 2), (4, 5, 3), (5, 6, 1), (6, 7, 3),
)

K6_LABELS = (
    "p1", "p2", "p3", "p4", "q1", "q2", "p1'", "p3'", "p2'", "p4'", "q2'", "q1'",
)
K6_EDGES = (
    (0, 1, 3), (0, 6, 2), (0, 11, 1), (1, 2, 1), (1, 8, 2), (2, 3, 3),
    (2, 7, 2), (3, 4, 1), (3, 9, 2), (4, 5, 3), (4, 11, 2), (5, 6, 1),
    (5, 10, 2), (6, 7, 3), (7, 8, 1), (8, 9, 3), (9, 10, 1), (10, 11, 3),
)

MOBIUS_LANDMARKS = (
    (1, 1, 1), (2, 2, 1), (2, 3, 2), (3, 4, 2),
    (3, 1, 3), (4, 2, 3), (4, 3, 4), (1, 4, 4),
)


def test_cubic_graph_validation():
    with pytest.raises(InvalidOrder):
        ColoredCubicGraph(4, ((0, 1, 1), (2, 3, 1)), ("a", "b", "c", "d"))
    with pytest.raises(InvalidOrder):
        ColoredCubicGraph(2, ((0, 1, 1), (0, 1, 2), (0, 1, 3)), ("a", "b"))  # repeated pair
    with pytest.raises(InvalidOrder):
        ColoredCubicGraph(4, ((0, 1, 4),), ("a", "b", "c", "d"))
    with pytest.raises(InvalidOrder):
        ColoredCubicGraph(4, ((1, 0, 1),), ("a", "b", "c", "d"))  # unordered
    with pytest.raises(InvalidOrder, match="vertex 1 has two edges of color 1"):
        ColoredCubicGraph(4, ((0, 1, 1), (1, 2, 1)), ("a", "b", "c", "d"))


def test_construct_k4_frozen():
    G = construct_cubic(4)
    assert G.order == 8
    assert G.labels == K4_LABELS
    assert tuple(sorted(G.edges)) == K4_EDGES
    # green rungs join antipodal octagon positions
    assert G.edges_of_color(2) == [(0, 4), (1, 5), (2, 6), (3, 7)]


def test_construct_k6_frozen():
    G = construct_cubic(6)
    assert G.labels == K6_LABELS
    assert tuple(sorted(G.edges)) == K6_EDGES


def test_construct_k7_odd_parity():
    # odd k interleaves the primed block in the order p2' p4' p1' p3'
    G = construct_cubic(7)
    assert G.labels[7:11] == ("p2'", "p4'", "p1'", "p3'")
    assert G.order == 14


def test_construct_unsupported():
    with pytest.raises(Unsupported):
        construct_cubic(5)
    with pytest.raises(Unsupported):
        construct_cubic(3)


def test_construct_refuses_past_the_limit():
    # refused before any list of length O(k) is built
    with pytest.raises(Unsupported, match="up to k = 100000"):
        construct_cubic(CUBIC_K_LIMIT + 1)
    with pytest.raises(Unsupported, match="bases up to n = 100001"):
        metric_basis(CUBIC_K_LIMIT + 2)


@pytest.mark.parametrize("k", [4, 6, 7, 8, 9, 12, 21, 40, 64])
def test_construct_scan_clean_and_two_basic(k):
    G = construct_cubic(k)
    W = graph_to_landmarks(G, k + 1)
    assert classify(W).kind is SystemKind.TWO_BASIC
    rep = forbidden_scan(build_landmark_graph(W))
    assert rep.applicable
    assert rep.c4 == () and rep.c6 == () and rep.rainbow_triangles == ()


def test_graph_to_landmarks_frozen():
    W = graph_to_landmarks(construct_cubic(4), 5)
    assert W.members == MOBIUS_LANDMARKS
    assert W.graph.dims == (4, 4, 4)


def test_metric_basis_members_pinned():
    # sha256 of the members of metric_basis(3..70) as JSON: the edge
    # numbering of graph_to_landmarks fixes every member's coordinates
    members = json.dumps([metric_basis(n).members for n in range(3, 71)])
    assert hashlib.sha256(members.encode()).hexdigest() == (
        "d949469fb1d56033982e2388dd8c4d0ce05823b72977e46eab474e929c7a665e")


def test_graph_to_landmarks_errors():
    with pytest.raises(InvalidOrder):
        graph_to_landmarks(construct_cubic(4), 6)
    with pytest.raises(Unsupported):
        graph_to_landmarks(
            ColoredCubicGraph(4, ((0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 2),
                                  (0, 3, 3), (1, 2, 3)), ("a", "b", "c", "d")),
            3,  # would land on the 2-diagonal graph
        )


def test_renumbering_invariance():
    # permuting each coordinate's values is a graph symmetry: the verdict
    # and the system class survive any renumbering of the edge labels
    rng = random.Random(7)
    for k in (4, 6, 9):
        W = graph_to_landmarks(construct_cubic(k), k + 1)
        n = k
        for _ in range(5):
            perms = [dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
                     for _ in range(3)]
            members = [tuple(perms[i][v[i]] for i in range(3)) for v in W.members]
            V = LandmarkSet(W.graph, sorted(members))
            assert classify(V).kind is SystemKind.TWO_BASIC
            assert predict_resolving(V).verdict is Verdict.RESOLVING
            assert is_resolving(V).verdict is Verdict.RESOLVING


def test_fixture_data():
    n3 = fixture("n3")
    assert len(n3.members) == 6 and n3.graph.dims == (3, 3, 3)
    n6 = fixture("n6")
    assert len(n6.members) == 11 and n6.graph.dims == (6, 6, 6)
    big = fixture("hg_5_7_11")
    assert len(big.members) == 21
    assert big.graph.dims == (5, 7, 11)
    assert big.graph.k == frozenset({3})
    for v in [(1, 1, 1), (1, 2, 2), (1, 3, 3), (1, 4, 10), (5, 7, 11)]:
        assert v in big
    with pytest.raises(NotFound):
        fixture("n5")


def test_fixture_resolving_status_not_trusted():
    # fixtures are data; their status is re-established by the verifier
    for name in ("n3", "n6", "hg_5_7_11"):
        assert is_resolving(fixture(name)).verdict is Verdict.RESOLVING


def test_metric_basis_sizes_and_structure():
    assert metric_basis(3).members == fixture("n3").members
    assert metric_basis(4).members == MOBIUS_LANDMARKS
    assert set(metric_basis(5).members) == set(MOBIUS_LANDMARKS) | {(5, 5, 5)}
    assert metric_basis(6).members == fixture("n6").members
    for n, size in [(3, 6), (4, 8), (5, 9), (6, 11), (7, 13), (10, 19)]:
        W = metric_basis(n)
        assert len(W.members) == size
        assert W.graph.dims == (n, n, n)
        assert is_resolving(W).verdict is Verdict.RESOLVING
    for n in (5, 7, 8):
        assert len(metric_basis(n).members) == lower_bound(n, n, n)
    for n in (7, 9, 12):
        assert classify(metric_basis(n)).kind is SystemKind.TRIPLE_LOOPED
    with pytest.raises(Unsupported):
        metric_basis(2)
