"""Explicit constructions of minimum resolving sets.

The engine is a family of simple cubic graphs with a proper 3-edge-
coloring and no forbidden configuration.  Numbering each color's edges
1..k and reading off, per vertex, the triple of its incident edge
numbers (blue, green, pink) yields a 2-basic landmark system of 2k
landmarks on the k-diagonal graph; appending the loop vertex
(k+1, k+1, k+1) lifts it to a minimum resolving set of the (k+1)-
diagonal graph.

For k = 4 the graph is the order-8 Moebius ladder: an octagon with
alternating blue/pink edges and green rungs between antipodal vertices.
For k >= 6 it is a 2k-cycle with alternating blue/pink edges whose green
chords pair each cycle vertex with a far-away partner; interleaving the
primed block as p1' p3' p2' p4' (even k) or p2' p4' p1' p3' (odd k)
keeps every green chord's endpoints at least five cycle edges apart,
which rules the forbidden 4- and 6-cycles out.  No such graph exists at
k = 5: every proper 3-edge-coloring of a 10-vertex cubic graph contains
a forbidden configuration.

Small cases that the generic construction cannot reach are stored as
fixtures: the diagonal n = 3 and n = 6 sets and a non-diagonal
5 x 7 x 11 set meeting the 2*max - 1 lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidOrder, NotFound, Unsupported
from .hamming import GhgParams, _whole
from .landmark import extend_triple_looped, matching_triples
from .resolving import LandmarkSet

# The largest k construct_cubic builds.  Its lists grow with k, and
# metric_basis(10**5) takes seconds and a few hundred MB, so a larger k
# is refused before anything is built.
CUBIC_K_LIMIT = 10**5


@dataclass(frozen=True)
class ColoredCubicGraph:
    """A simple cubic graph with one blue, one green, and one pink edge
    at every vertex.  Vertices are 0..order-1; ``labels`` name them for
    display; edges are (u, v, color) with u < v."""

    order: int
    edges: tuple[tuple[int, int, int], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        seen_pairs = set()
        incident: dict[tuple[int, int], int] = {}
        for u, v, color in self.edges:
            if not (0 <= u < v < self.order):
                raise InvalidOrder(f"edge ({u}, {v}) out of range or unordered")
            if color not in (1, 2, 3):
                raise InvalidOrder(f"edge color {color} not in 1..3")
            if (u, v) in seen_pairs:
                raise InvalidOrder(f"repeated edge ({u}, {v})")
            seen_pairs.add((u, v))
            for x in (u, v):
                if (x, color) in incident:
                    raise InvalidOrder(f"vertex {x} has two edges of color {color}")
                incident[(x, color)] = 1
        if len(self.edges) != 3 * self.order // 2 or len(incident) != 3 * self.order:
            raise InvalidOrder("graph is not cubic with a proper 3-edge-coloring")

    def edges_of_color(self, color: int) -> list[tuple[int, int]]:
        return sorted((u, v) for u, v, c in self.edges if c == color)


def construct_cubic(k: int) -> ColoredCubicGraph:
    """The order-2k properly colored cubic graph behind the constructions.

    Supported for k = 4 and 6 <= k <= CUBIC_K_LIMIT.  k = 5 is refused:
    no order-10 cubic graph admits a proper 3-edge-coloring free of
    forbidden 4-cycles, 6-cycles, and rainbow triangles.
    """
    if not _whole(k):
        raise Unsupported(f"k must be an integer, got {k!r}")
    if k > CUBIC_K_LIMIT:
        raise Unsupported(f"k={k}: cubic graphs are built up to k = {CUBIC_K_LIMIT}, "
                          f"bases up to n = {CUBIC_K_LIMIT + 1}")
    if k == 5:
        raise Unsupported(
            "k=5: every proper 3-edge-coloring of an order-10 cubic graph "
            "contains a forbidden configuration"
        )
    if k < 4:
        raise Unsupported(f"k={k}: the construction needs at least 8 vertices")
    if k == 4:
        cycle = ["p1", "p2", "p3", "p4", "p1'", "p2'", "p3'", "p4'"]
        rungs = [("p1", "p1'"), ("p2", "p2'"), ("p3", "p3'"), ("p4", "p4'")]
    else:
        m = k - 4
        plain = [f"p{i}" for i in range(1, 5)] + [f"q{j}" for j in range(1, m + 1)]
        if k % 2 == 0:
            primes = ["p1'", "p3'", "p2'", "p4'"]
        else:
            primes = ["p2'", "p4'", "p1'", "p3'"]
        cycle = plain + primes + [f"q{j}'" for j in range(m, 0, -1)]
        rungs = [(f"p{i}", f"p{i}'") for i in range(1, 5)] + [
            (f"q{j}", f"q{j}'") for j in range(1, m + 1)
        ]
    pos = {name: t for t, name in enumerate(cycle)}
    edges = []
    for t in range(2 * k):
        u, v = t, (t + 1) % (2 * k)
        color = 3 if t % 2 == 0 else 1  # pink opens the cycle, blue alternates
        edges.append((min(u, v), max(u, v), color))
    for a, b in rungs:
        u, v = pos[a], pos[b]
        edges.append((min(u, v), max(u, v), 2))
    return ColoredCubicGraph(2 * k, tuple(sorted(edges)), tuple(cycle))


def graph_to_landmarks(G: ColoredCubicGraph, n: int) -> LandmarkSet:
    """Read a 2-basic landmark system off a properly colored cubic graph.

    G must have 2(n-1) vertices.  Each color's edges are numbered
    1..n-1 in sorted endpoint order, and vertex v becomes the landmark
    (blue number, green number, pink number) of its incident edges.  The
    result lives on the (n-1)-diagonal graph; extend_triple_looped lifts
    it to the n-diagonal one.  G is simple and properly colored, so the
    triples are distinct and lie in 1..n-1: they are not checked again.
    """
    if G.order != 2 * (n - 1):
        raise InvalidOrder(f"graph has {G.order} vertices, expected {2 * (n - 1)}")
    if n - 1 < 3:
        raise Unsupported(f"n={n}: target graph needs every dimension >= 3")
    g = GhgParams((n - 1, n - 1, n - 1), frozenset({3}))
    matchings = [G.edges_of_color(color) for color in (1, 2, 3)]
    return LandmarkSet._trusted(g, tuple(matching_triples(matchings, [range(1, n)] * 3)))


_FIXTURES: dict[str, tuple[tuple[int, int, int], tuple[tuple[int, int, int], ...]]] = {
    # Rows 1 and 2 of the cyclic 3x3 square: the unique-size minimum for n=3.
    "n3": (
        (3, 3, 3),
        ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 3), (2, 2, 1), (2, 3, 2)),
    ),
    # Hand-built 11-landmark set for n=6, where no 2-basic route exists.
    "n6": (
        (6, 6, 6),
        (
            (1, 2, 1), (2, 1, 1), (2, 2, 2), (3, 3, 2), (3, 4, 3), (4, 3, 3),
            (4, 4, 4), (5, 5, 4), (5, 6, 5), (6, 5, 5), (6, 6, 6),
        ),
    ),
    # Non-diagonal example meeting the 2*max - 1 bound: 21 landmarks.
    "hg_5_7_11": (
        (5, 7, 11),
        (
            (1, 1, 1), (1, 2, 2), (1, 3, 3), (1, 4, 10),
            (2, 1, 4), (2, 2, 5), (2, 3, 6), (2, 4, 1), (2, 5, 2), (2, 6, 3),
            (3, 1, 7), (3, 2, 8), (3, 3, 9), (3, 4, 4), (3, 5, 5), (3, 6, 6),
            (4, 1, 10), (4, 4, 7), (4, 5, 8), (4, 6, 9),
            (5, 7, 11),
        ),
    ),
}


FIXTURE_NAMES: tuple[str, ...] = tuple(sorted(_FIXTURES))


def fixture(name: str) -> LandmarkSet:
    """A stored landmark set by name: ``n3``, ``n6``, or ``hg_5_7_11``."""
    try:
        dims, members = _FIXTURES[name]
    except KeyError:
        raise NotFound(
            f"no fixture named {name!r}; available: {', '.join(sorted(_FIXTURES))}"
        ) from None
    return LandmarkSet(GhgParams(dims, frozenset({3})), members)


def metric_basis(n: int) -> LandmarkSet:
    """A minimum resolving set of the n-diagonal graph, n >= 3 (n - 1 is
    refused above CUBIC_K_LIMIT).

    Sizes: 2n for n in {3, 4} (searches show 2n - 1 is impossible there),
    2n - 1 for n >= 5.
    """
    if not _whole(n):
        raise Unsupported(f"n must be an integer, got {n!r}")
    if n < 3:
        raise Unsupported(f"n={n}: the diagonal family starts at n=3")
    if n == 3:
        return fixture("n3")
    if n == 4:
        return graph_to_landmarks(construct_cubic(4), 5)
    if n == 6:
        return fixture("n6")
    return extend_triple_looped(graph_to_landmarks(construct_cubic(n - 1), n))


__all__ = [
    "CUBIC_K_LIMIT",
    "ColoredCubicGraph",
    "construct_cubic",
    "graph_to_landmarks",
    "fixture",
    "metric_basis",
]
