"""Generalized Hamming graphs and their distances.

A generalized Hamming graph has vertex set [n1] x ... x [nr] (1-based
coordinates) and an adjacency rule parameterized by a set K of allowed
discrepancies: two tuples are adjacent exactly when the number of
coordinates in which they differ lies in K.

With every dimension at least 3, two rules give a connected graph of
diameter 2: K = {r}, the paper's rule (adjacent when no coordinate is
shared), and its complement K = {1, ..., r-1} (adjacent when some
coordinate is shared).  In both, distance has a closed form: two distinct
vertices are at distance 1 when adjacent, otherwise at distance 2.  A
breadth-first fallback covers small graphs outside these two regimes,
and is the independent route the closed form is checked against.
"""

from __future__ import annotations

import itertools
import numbers
import re
from collections import deque
from collections.abc import Collection
from dataclasses import dataclass

from .errors import (
    DisconnectedGraph,
    InvalidPair,
    InvalidVertex,
    ParseError,
    Unreachable,
    Unsupported,
)

Vertex = tuple[int, ...]

# Breadth-first search is a desk-scale cross-check, not a production path.
BFS_VERTEX_LIMIT = 10_000

# ASCII digits only, as every other number the package reads: \d would
# take any Unicode decimal digit, which int() then reads
_GRAPH_RE = re.compile(r"^([0-9]+(?:x[0-9]+)+)(?:;K=([0-9]+(?:,[0-9]+)*))?$")


@dataclass(frozen=True)
class GhgParams:
    """Parameters (dimensions and discrepancy set) of a generalized Hamming graph."""

    dims: tuple[int, ...]
    k: frozenset[int]

    def __post_init__(self):
        for name, value in (("dimensions", self.dims), ("K", self.k)):
            if not isinstance(value, Collection):
                raise Unsupported(f"{name} must be a collection of integers, got {value!r}")
        if len(self.dims) < 2:
            raise Unsupported(f"need at least 2 coordinates, got {len(self.dims)}")
        if not all(_whole(d, 1) for d in self.dims):
            raise Unsupported(f"dimensions must be integers >= 1, got {self.dims}")
        if len(self.k) == 0:  # a numpy array K has no truth value
            raise Unsupported("discrepancy set K must be nonempty")
        if not all(_whole(j, 1) and j <= len(self.dims) for j in self.k):
            raise Unsupported(f"K={set(self.k)} must hold integers within 1..{len(self.dims)}")
        object.__setattr__(self, "dims", tuple(map(int, self.dims)))
        object.__setattr__(self, "k", frozenset(map(int, self.k)))

    @property
    def r(self) -> int:
        return len(self.dims)

    def vertex_count(self) -> int:
        count = 1
        for d in self.dims:
            count *= d
        return count

    def vertices(self):
        """Iterate all vertices in lexicographic order."""
        return itertools.product(*(range(1, d + 1) for d in self.dims))

    def validate_vertex(self, x: Vertex) -> None:
        if not isinstance(x, tuple) or len(x) != self.r:
            raise InvalidVertex(f"{x!r} is not a {self.r}-tuple")
        for i, (c, d) in enumerate(zip(x, self.dims), start=1):
            if not _whole(c):
                raise InvalidVertex(f"coordinate {i} of {x!r} is not an integer")
            if not 1 <= c <= d:
                raise InvalidVertex(f"coordinate {i} of {x!r} outside 1..{d}")

    def closed_form_available(self) -> bool:
        """True in the two diameter-2 regimes: all dims >= 3 and K = {r}
        or its complement K = {1, ..., r-1}."""
        return min(self.dims) >= 3 and self.k in (
            frozenset({self.r}), frozenset(range(1, self.r)))

    def adjacent(self, x: Vertex, y: Vertex) -> bool:
        self.validate_vertex(x)
        self.validate_vertex(y)
        if x == y:
            raise InvalidPair(f"adjacency undefined for identical vertices {x!r}")
        return hamming_discrepancy(x, y) in self.k

    def distance(self, x: Vertex, y: Vertex) -> int:
        """Graph distance between two vertices.

        In the diameter-2 regimes (see closed_form_available) it is 1 for
        adjacent vertices and 2 otherwise; elsewhere it comes from
        breadth-first search on graphs of at most BFS_VERTEX_LIMIT vertices.
        """
        self.validate_vertex(x)
        self.validate_vertex(y)
        if x == y:
            return 0
        if self.closed_form_available():
            return 1 if hamming_discrepancy(x, y) in self.k else 2
        if self.k == frozenset({self.r}) and (
            sum(1 for d in self.dims if d == 2) >= 2 or min(self.dims) == 1
        ):
            raise DisconnectedGraph(
                f"{self.format()} is disconnected: no pair of vertices can "
                f"differ in all {self.r} coordinates"
            )
        d = self.bfs_distances_from(x).get(y)
        if d is None:
            raise Unreachable(f"{y!r} is not reachable from {x!r} in {self.format()}")
        return d

    def neighbors(self, x: Vertex):
        """Iterate the neighbors of a vertex (generated, not scanned)."""
        self.validate_vertex(x)
        positions = range(self.r)
        for j in sorted(self.k):
            for subset in itertools.combinations(positions, j):
                choices = [
                    [c for c in range(1, self.dims[i] + 1) if c != x[i]]
                    for i in subset
                ]
                for replacement in itertools.product(*choices):
                    y = list(x)
                    for i, c in zip(subset, replacement):
                        y[i] = c
                    yield tuple(y)

    def bfs_distances_from(self, source: Vertex) -> dict[Vertex, int]:
        """All distances from one source by breadth-first search (desk scale)."""
        self.validate_vertex(source)
        if self.vertex_count() > BFS_VERTEX_LIMIT:
            # named by the graph: str() fails past int()'s 4,300-digit limit
            raise Unsupported(
                f"{self.format()}: vertex count exceeds the breadth-first "
                f"fallback limit of {BFS_VERTEX_LIMIT}"
            )
        seen = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            d = seen[v]
            for w in self.neighbors(v):
                if w not in seen:
                    seen[w] = d + 1
                    queue.append(w)
        return seen

    def format(self) -> str:
        dims = "x".join(str(d) for d in self.dims)
        ks = ",".join(str(j) for j in sorted(self.k))
        return f"{dims};K={ks}"

    @classmethod
    def parse(cls, text: str) -> "GhgParams":
        """Parse a graph description like ``5x7x11`` or ``3x3x3;K=1,2``.

        K defaults to {r}, the all-coordinates-differ rule.
        """
        m = _GRAPH_RE.match(text.strip())
        if m is None:
            raise ParseError(f"cannot parse graph description {text!r}")
        try:
            dims = tuple(int(p) for p in m.group(1).split("x"))
            if m.group(2) is None:
                k = frozenset({len(dims)})
            else:
                k = frozenset(int(p) for p in m.group(2).split(","))
        except ValueError:  # int() refuses strings past its digit limit
            raise ParseError("cannot parse graph description: a number is too long") from None
        return cls(dims, k)


def _whole(value, least: float = float("-inf")) -> bool:
    """Whether value is an integer, of at least ``least`` if given; a
    float or a bool never is."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least)


def hamming_graph(*dims: int, k: frozenset[int] | set[int] | None = None) -> GhgParams:
    """Convenience constructor: ``hamming_graph(3, 3, 3)`` has K = {r}."""
    return GhgParams(dims, frozenset({len(dims)}) if k is None else k)


def hamming_discrepancy(x: Vertex, y: Vertex) -> int:
    """Number of coordinates in which two equal-length tuples differ."""
    if len(x) != len(y):
        raise InvalidPair(f"tuples of different length: {x!r} vs {y!r}")
    return sum(1 for a, b in zip(x, y) if a != b)
