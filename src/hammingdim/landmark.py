"""Edge-colored block structure of a landmark set.

The landmark graph of W has the landmarks as vertices and one hyperedge
per nonempty block, colored by coordinate: color 1 (blue) for first-
coordinate blocks, 2 (green) for second, 3 (pink) for third.  Size-1
blocks are loops, size-2 blocks plain edges.  Same-colored hyperedges
never share a vertex, since the blocks of one color partition W.

Two special system shapes drive the theory:

* 2-basic: every block of every color has exactly two landmarks and no
  two landmarks agree in two coordinates.  The landmark graph is then a
  simple cubic graph with a proper 3-edge-coloring.
* triple-looped: a 2-basic system on the (n-1)-diagonal graph together
  with the extra landmark (n, n, n), which carries one loop per color.

For these shapes, whether W resolves is decided purely by scanning the
landmark graph for three forbidden patterns: a 4-cycle carrying all
three colors, a 6-cycle whose opposite edges repeat colors (a b c a b c),
and, for triple-looped systems only, a triangle with all three colors.
``predict_resolving`` applies that characterization without ever
computing a distance or a code.

Each landmark has at most one plain-edge partner per color, so color c
acts on the landmarks as a partial involution sigma_c.  A forbidden
cycle is then a closed walk of a short color word.  With the landmarks
indexed in sorted order, every cycle is walked once, from its least
landmark, by one of twelve words: from any landmark, exactly one
direction of a 4-cycle a b a c reads x y x z for some order x, y, z of
the colors (six words), and exactly one direction of a 6-cycle
a b c a b c or a triangle a b c reads a rotation of (1,2,3,1,2,3) or of
(1,2,3) (three words each).  ``forbidden_scan`` lists every cycle;
``predict_resolving`` stops at the first landmark that starts one.  It
and the CLI's ``scan`` read sigma straight off the block table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum

from .errors import NotApplicable
from .hamming import GhgParams, Vertex
from .resolving import Certificate, LandmarkSet, Verdict

COLOR_NAMES = {1: "blue", 2: "green", 3: "pink"}


@dataclass(frozen=True)
class Hyperedge:
    color: int
    value: int
    members: frozenset


@dataclass(frozen=True)
class LandmarkGraph:
    """Vertices are the landmarks; one colored hyperedge per nonempty block."""

    vertices: tuple[Vertex, ...]
    hyperedges: tuple[Hyperedge, ...]

    def edges_of_color(self, color: int) -> tuple[Hyperedge, ...]:
        return tuple(e for e in self.hyperedges if e.color == color)


def build_landmark_graph(W: LandmarkSet) -> LandmarkGraph:
    """One hyperedge per block of ``W.blocks()``, in (color, value) order."""
    blocks = W.blocks()
    edges = tuple(Hyperedge(i, a, frozenset(blocks[i, a])) for i, a in sorted(blocks))
    return LandmarkGraph(tuple(W.members), edges)


class SystemKind(str, Enum):
    TWO_BASIC = "TWO_BASIC"
    TRIPLE_LOOPED = "TRIPLE_LOOPED"
    OTHER = "OTHER"


@dataclass(frozen=True)
class SystemClass:
    kind: SystemKind
    loop_vertex: Vertex | None = None


def classify(W: LandmarkSet) -> SystemClass:
    """TWO_BASIC, TRIPLE_LOOPED (with its loop vertex), or OTHER, read off
    the block table.

    On the n-diagonal graph W is 2-basic exactly when it has 3n blocks,
    each a pair, and no two pairs equal: every value of every coordinate
    is then held by two landmarks, and two landmarks agreeing in two
    coordinates would make two blocks the same pair.  A block lists its
    landmarks in member order, so equal pairs are equal tuples.  W is
    triple-looped when n >= 4, the three blocks of value n are the loop
    of (n, n, n), and the other 3n - 3 blocks are distinct pairs: a
    2-basic system on the (n-1)-diagonal.
    """
    g = W.graph
    n = g.dims[0]
    blocks = W.blocks()
    if g.dims != (n, n, n) or len(blocks) != 3 * n:
        return SystemClass(SystemKind.OTHER)
    pairs = len({b for b in blocks.values() if len(b) == 2})
    if pairs == 3 * n:
        return SystemClass(SystemKind.TWO_BASIC)
    u = (n, n, n)
    if n >= 4 and pairs == 3 * n - 3 and blocks[1, n] == blocks[2, n] == blocks[3, n] == (u,):
        return SystemClass(SystemKind.TRIPLE_LOOPED, loop_vertex=u)
    return SystemClass(SystemKind.OTHER)


def basic_part(W: LandmarkSet) -> LandmarkSet:
    """The 2-basic system left after removing a triple-looped set's loop
    vertex, on the (n-1)-diagonal graph.  Its other members take no value
    n, so they are valid there and are not checked again."""
    cls = classify(W)
    if cls.kind is not SystemKind.TRIPLE_LOOPED:
        raise NotApplicable(f"{W!r} is {cls.kind.value}, not TRIPLE_LOOPED")
    g = _diagonal_graph(W.graph.dims[0] - 1, W.graph.k)
    return LandmarkSet._trusted(g, tuple(m for m in W.members if m != cls.loop_vertex))


def extend_triple_looped(W: LandmarkSet) -> LandmarkSet:
    """Lift a 2-basic system on the n-diagonal to W + {(n+1, n+1, n+1)}
    on the (n+1)-diagonal graph.

    W's members are distinct and valid on the larger graph, and the loop
    vertex is new, so nothing is checked again: the lift keeps W's block
    table and adds the loop vertex's three singleton blocks after it,
    the table ``LandmarkSet`` builds from the same members.
    """
    cls = classify(W)
    if cls.kind is not SystemKind.TWO_BASIC:
        raise NotApplicable(f"{W!r} is {cls.kind.value}, not TWO_BASIC")
    m = W.graph.dims[0] + 1
    u = (m, m, m)
    blocks = W.blocks().copy()
    blocks[1, m] = blocks[2, m] = blocks[3, m] = (u,)
    return LandmarkSet._trusted(_diagonal_graph(m, W.graph.k), W.members + (u,), blocks)


@functools.lru_cache(maxsize=64)
def _diagonal_graph(n: int, k: frozenset) -> GhgParams:
    """The n-diagonal graph with discrepancy set k, built and checked once
    per (n, k) and shared by every lift and 2-basic part on it."""
    return GhgParams((n, n, n), k)


@dataclass(frozen=True)
class CycleReport:
    """One forbidden configuration: the cycle's landmarks in walk order and
    the color of each traversed edge (colors[t] joins landmarks[t] to
    landmarks[t+1], wrapping around)."""

    landmarks: tuple[Vertex, ...]
    colors: tuple[int, ...]

    def revalidates(self) -> bool:
        """Consecutive landmarks share the coordinate named by the edge color."""
        k = len(self.landmarks)
        if len(self.colors) != k or len(set(self.landmarks)) != k:
            return False
        for t in range(k):
            x, y = self.landmarks[t], self.landmarks[(t + 1) % k]
            c = self.colors[t]
            if x == y or x[c - 1] != y[c - 1]:
                return False
        return True


@dataclass(frozen=True)
class ForbiddenReport:
    applicable: bool
    c4: tuple[CycleReport, ...] = ()
    c6: tuple[CycleReport, ...] = ()
    rainbow_triangles: tuple[CycleReport, ...] = ()

    def clean(self, include_triangles: bool) -> bool:
        if self.c4 or self.c6:
            return False
        return not (include_triangles and self.rainbow_triangles)


# Each kind of forbidden cycle, in the order the predictor looks for
# them, with the color words that walk it (see the module docstring).
_C4_WORDS = tuple((x, y, x, z) for x, y, z in itertools.permutations((1, 2, 3)))
_C6_WORDS = ((1, 2, 3, 1, 2, 3), (2, 3, 1, 2, 3, 1), (3, 1, 2, 3, 1, 2))
_C3_WORDS = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
_FORBIDDEN = (
    ("three-colored 4-cycle", _C4_WORDS),
    ("color-repeating 6-cycle", _C6_WORDS),
    ("rainbow triangle", _C3_WORDS),
)


def _partners(verts, blocks) -> tuple[list[list[int]], bool]:
    """sigma[c][x], the plain-edge partner of verts[x] in color c or -1,
    from ((color, value), members) blocks; and whether every block was plain."""
    index = {v: i for i, v in enumerate(verts)}
    sigma = [[-1] * len(verts) for _ in range(4)]
    plain = True
    for (color, _), mems in blocks:
        if len(mems) != 2:
            plain = False
            continue
        a, b = mems
        x, y = index[a], index[b]
        sigma[color][x] = y
        sigma[color][y] = x
    return sigma, plain


def matching_triples(matchings, labels) -> list[tuple[int, int, int]]:
    """The landmark triple of each element 0, 1, ... of three perfect
    matchings, one per color, given each color's value labels: an element
    on the j-th pair of matchings[c] takes labels[c][j] as coordinate
    c + 1.  ``_partners`` reads the matchings back."""
    coord = [[0, 0, 0] for _ in range(2 * len(matchings[0]))]
    for c, (matching, values) in enumerate(zip(matchings, labels)):
        for (a, b), value in zip(matching, values):
            coord[a][c] = coord[b][c] = value
    return [tuple(t) for t in coord]


def _cycles_by_start(sigma: list[list[int]], words):
    """Per start index, in order, the simple cycles that some word walks
    with start as their least index: each cycle once, as (indices,
    colors) read from start in the direction whose second index is less.

    A word is walked only while every landmark stays above the start,
    so a cycle is met from its least landmark only, in the one direction
    that reads as a word; that reading or its reverse is canonical.
    """
    steps = [(word, [sigma[c] for c in word[:-1]], sigma[word[-1]]) for word in words]
    for start in range(len(sigma[1])):
        hits = []
        for word, body, close in steps:
            walk = [start]
            v = start
            for row in body:
                v = row[v]
                if v <= start:  # no partner (-1), or not above the start
                    break
                walk.append(v)
            else:
                if close[v] == start and len(set(walk)) == len(walk):
                    if walk[1] < walk[-1]:
                        hits.append((tuple(walk), word))
                    else:
                        hits.append(((start, *walk[:0:-1]), word[::-1]))
        yield hits


def _cycle(verts, hit) -> CycleReport:
    walk, colors = hit
    return CycleReport(tuple(verts[i] for i in walk), colors)


def forbidden_scan(G: LandmarkGraph) -> ForbiddenReport:
    """Exhaustively list forbidden 4-cycles, 6-cycles, and rainbow triangles.

    Only plain (size-2) hyperedges participate: sigma[c][x] is the
    plain-edge partner of landmark x in color c, or -1.  Landmarks are
    indexed in sorted order and each cycle is walked once, from its
    least landmark: the six words x y x z give the 4-cycles a b a c, the
    three rotations of (1,2,3,1,2,3) the 6-cycles a b c a b c and those
    of (1,2,3) the rainbow triangles.  Each list is sorted, every cycle
    read from its least landmark towards its lesser neighbor.  A graph
    with loops or larger blocks is scanned anyway but flagged as not
    strictly applicable.  The CLI's ``scan`` runs the same walk on the
    blocks of ``W.blocks()``, without building the graph.
    """
    return _scan_blocks(G.vertices, (((e.color, e.value), e.members) for e in G.hyperedges))


def _scan_blocks(members, blocks) -> ForbiddenReport:
    """``forbidden_scan`` of the landmarks ``members`` with the
    ((color, value), members) ``blocks``."""
    verts = sorted(members)
    sigma, applicable = _partners(verts, blocks)
    c4, c6, c3 = (
        tuple(_cycle(verts, hit)
              for hit in sorted(h for hits in _cycles_by_start(sigma, words) for h in hits))
        for _, words in _FORBIDDEN
    )
    return ForbiddenReport(applicable=applicable, c4=c4, c6=c6, rainbow_triangles=c3)


def _describe_cycle(kind: str, c: CycleReport) -> str:
    walk = " ".join(["(%s,%s,%s)" % v for v in c.landmarks])
    colors = ",".join([COLOR_NAMES[i] for i in c.colors])
    return f"{kind} on {walk} colored {colors}"


def predict_resolving(W: LandmarkSet) -> Certificate:
    """Decide whether W resolves purely from its landmark graph.

    For a 2-basic system the verdict is: resolving exactly when the scan
    finds no forbidden 4-cycle and no forbidden 6-cycle.  For a
    triple-looped system the same holds for its 2-basic part, and rainbow
    triangles are forbidden as well; its loop vertex carries only loops,
    so the scan of W finds exactly the 2-basic part's cycles.  The kinds
    are sought in order, 4-cycles, 6-cycles, then triangles, each walked
    only up to the first start with a cycle: its least cycle there is the
    least of its kind, the one ``forbidden_scan`` lists first.  Never
    computes a distance or code, so an UNRESOLVED certificate names that
    cycle instead of carrying a witness pair.
    """
    g = W.graph
    if g.k != frozenset({3}):
        raise NotApplicable(f"prediction is stated for K={{3}}, got {g.format()}")
    if len(set(g.dims)) != 1:
        raise NotApplicable(f"prediction needs a diagonal graph, got {g.format()}")
    kind = classify(W).kind
    if kind is SystemKind.TWO_BASIC:
        sought, scanned = _FORBIDDEN[:2], "landmark graph of the 2-basic system"
    elif kind is SystemKind.TRIPLE_LOOPED:
        sought, scanned = _FORBIDDEN, "landmark graph of the 2-basic part"
    else:
        raise NotApplicable("prediction only covers TWO_BASIC and TRIPLE_LOOPED systems")
    verts = sorted(W.members)
    sigma, _ = _partners(verts, W.blocks().items())
    for name, words in sought:
        hits = next(filter(None, _cycles_by_start(sigma, words)), None)
        if hits:
            found = _describe_cycle(name, _cycle(verts, min(hits)))
            return Certificate(Verdict.UNRESOLVED, g, landmarks=W,
                               attestation=f"scan of the {scanned} found a {found}")
    forbidden = "no three-colored 4-cycle, no 6-cycle with repeating colors"
    if kind is SystemKind.TRIPLE_LOOPED:
        forbidden += ", no rainbow triangle"
    return Certificate(Verdict.RESOLVING, g, landmarks=W,
                       attestation=f"scan of the {scanned}: {forbidden}")


class FootprintShape(str, Enum):
    C3 = "C3"
    P4 = "P4"
    P3_P2 = "P3+P2"
    THREE_P2 = "3P2"
    L2_P2 = "L2+P2"
    P3_L1 = "P3+L1"
    TWO_P2_L1 = "2P2+L1"
    K13 = "K13"
    L3 = "L3"
    NONE = "NONE"
    OTHER = "OTHER"


TWO_BASIC_SHAPES = frozenset(
    {FootprintShape.C3, FootprintShape.P4, FootprintShape.P3_P2, FootprintShape.THREE_P2}
)
TRIPLE_LOOPED_SHAPES = TWO_BASIC_SHAPES | frozenset(
    {FootprintShape.L2_P2, FootprintShape.P3_L1, FootprintShape.TWO_P2_L1}
)
LANDMARK_SHAPES = frozenset({FootprintShape.K13, FootprintShape.L3})


@dataclass(frozen=True)
class Footprint:
    """The part of the landmark graph a vertex sees: its three blocks."""

    covered: frozenset
    shape: FootprintShape
    edges: tuple[Hyperedge, ...] = field(default=(), compare=False)


# Every footprint of three blocks of at most two landmarks, with no plain
# edge in two colors and all loops on one landmark that no plain edge
# touches, has its shape here by (loops, landmarks covered, blocks meet).
_SHAPES = {
    (0, 3, False): FootprintShape.C3,
    (0, 4, False): FootprintShape.P4,
    (0, 4, True): FootprintShape.K13,
    (0, 5, False): FootprintShape.P3_P2,
    (0, 6, False): FootprintShape.THREE_P2,
    (1, 4, False): FootprintShape.P3_L1,
    (1, 5, False): FootprintShape.TWO_P2_L1,
    (2, 3, False): FootprintShape.L2_P2,
    (3, 1, True): FootprintShape.L3,
}


def _classify_shape(blocks: list[frozenset], covered: frozenset) -> FootprintShape:
    if not blocks:
        return FootprintShape.NONE
    plains = [b for b in blocks if len(b) == 2]
    looped = frozenset().union(*(b for b in blocks if len(b) == 1))
    if (len(blocks) < 3 or any(len(b) > 2 for b in blocks) or len(set(plains)) < len(plains)
            or len(looped) > 1 or not looped.isdisjoint(frozenset().union(*plains))):
        return FootprintShape.OTHER
    return _SHAPES[3 - len(plains), len(covered), bool(blocks[0] & blocks[1] & blocks[2])]


def footprint(W: LandmarkSet, v: Vertex) -> Footprint:
    """The subgraph induced by v's three blocks, with its shape.

    The blocks are read from ``W.blocks()``.  For a non-landmark the
    covered set equals code(W, v).  Landmarks are allowed here: their
    three blocks meet in the landmark itself, giving K13 (three plain
    edges) or L3 (three loops).
    """
    W.graph.validate_vertex(v)
    blocks = W.blocks()
    edges = tuple(Hyperedge(i, a, frozenset(blocks[i, a]))
                  for i, a in enumerate(v, start=1) if (i, a) in blocks)
    members = [e.members for e in edges]
    covered = frozenset().union(*members)
    return Footprint(covered, _classify_shape(members, covered), edges)


__all__ = [
    "COLOR_NAMES",
    "Hyperedge",
    "LandmarkGraph",
    "build_landmark_graph",
    "SystemKind",
    "SystemClass",
    "classify",
    "basic_part",
    "extend_triple_looped",
    "matching_triples",
    "CycleReport",
    "ForbiddenReport",
    "forbidden_scan",
    "predict_resolving",
    "FootprintShape",
    "Footprint",
    "footprint",
    "TWO_BASIC_SHAPES",
    "TRIPLE_LOOPED_SHAPES",
    "LANDMARK_SHAPES",
]
