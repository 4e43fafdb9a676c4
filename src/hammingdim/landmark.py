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
cycle is then a closed walk of a short color word, and five words find
them all: (1,2,1,3), (2,1,2,3) and (3,1,3,2) for the 4-cycles, one per
repeated color, since a cycle a b a c read from the other side of its
repeated color is a c a b; (1,2,3,1,2,3) for the 6-cycles and (1,2,3)
for the triangles, since such a cycle reads 1, 2, 3 in one of its two
directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidVertex, IsLandmark, NotApplicable, Unsupported
from .hamming import GhgParams, Vertex, hamming_graph
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
    edges = []
    for i in (1, 2, 3):
        for a, mems in sorted(W.blocks_of_color(i).items()):
            edges.append(Hyperedge(i, a, frozenset(mems)))
    return LandmarkGraph(tuple(W.members), tuple(edges))


class SystemKind(str, Enum):
    TWO_BASIC = "TWO_BASIC"
    TRIPLE_LOOPED = "TRIPLE_LOOPED"
    OTHER = "OTHER"


@dataclass(frozen=True)
class SystemClass:
    kind: SystemKind
    loop_vertex: Vertex | None = None


def _is_two_basic(W: LandmarkSet) -> bool:
    for i in (1, 2, 3):
        blocks = W.blocks_of_color(i)
        if len(blocks) != W.graph.dims[i - 1] or any(len(b) != 2 for b in blocks.values()):
            return False
    # no two landmarks agree in two coordinates: every projection onto a
    # pair of coordinates is injective
    mems = W.members
    return all(
        len({(v[p], v[q]) for v in mems}) == len(mems)
        for p, q in ((0, 1), (0, 2), (1, 2))
    )


def _without(W: LandmarkSet, u: Vertex) -> LandmarkSet:
    """W less its loop vertex u, on the (n-1)-diagonal graph."""
    n = W.graph.dims[0]
    return LandmarkSet(
        GhgParams((n - 1, n - 1, n - 1), W.graph.k),
        [m for m in W.members if m != u],
    )


def classify(W: LandmarkSet) -> SystemClass:
    """TWO_BASIC, TRIPLE_LOOPED (with its loop vertex), or OTHER."""
    if _is_two_basic(W):
        return SystemClass(SystemKind.TWO_BASIC)
    g = W.graph
    n = g.dims[0]
    if g.dims == (n, n, n) and n >= 4:
        u = (n, n, n)
        if u in W and all(max(m) <= n - 1 for m in W.members if m != u):
            if _is_two_basic(_without(W, u)):
                return SystemClass(SystemKind.TRIPLE_LOOPED, loop_vertex=u)
    return SystemClass(SystemKind.OTHER)


def basic_part(W: LandmarkSet) -> LandmarkSet:
    """The 2-basic system left after removing a triple-looped set's loop vertex."""
    cls = classify(W)
    if cls.kind is not SystemKind.TRIPLE_LOOPED:
        raise NotApplicable(f"{W!r} is {cls.kind.value}, not TRIPLE_LOOPED")
    return _without(W, cls.loop_vertex)


def extend_triple_looped(W: LandmarkSet) -> LandmarkSet:
    """Lift a 2-basic system on the n-diagonal to W + {(n+1, n+1, n+1)}
    on the (n+1)-diagonal graph."""
    cls = classify(W)
    if cls.kind is not SystemKind.TWO_BASIC:
        raise NotApplicable(f"{W!r} is {cls.kind.value}, not TWO_BASIC")
    n = W.graph.dims[0]
    g = GhgParams((n + 1, n + 1, n + 1), W.graph.k)
    return LandmarkSet(g, list(W.members) + [(n + 1, n + 1, n + 1)])


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


def _canonical_cycle(cycle: tuple[Vertex, ...], colors: tuple[int, ...]):
    # Rotate the least vertex to the front, then take the lexicographically
    # smaller direction; colors travel with their edges.
    k = len(cycle)
    s = min(range(k), key=lambda t: cycle[t])
    fwd_v = tuple(cycle[(s + t) % k] for t in range(k))
    fwd_c = tuple(colors[(s + t) % k] for t in range(k))
    bwd_v = tuple(cycle[(s - t) % k] for t in range(k))
    bwd_c = tuple(colors[(s - t - 1) % k] for t in range(k))
    return min((fwd_v, fwd_c), (bwd_v, bwd_c))


def _closed_walks(sigma: list[list[int]], words, verts) -> tuple[CycleReport, ...]:
    """Every simple cycle that some word walks, canonicalized and sorted."""
    found = set()
    for word in words:
        k = len(word)
        for start in range(len(verts)):
            walk = []
            v = start
            for color in word:
                walk.append(v)
                v = sigma[color][v]
                if v < 0:
                    break
            else:
                if v == start and len(set(walk)) == k:
                    found.add(_canonical_cycle(tuple(verts[i] for i in walk), word))
    return tuple(CycleReport(*key) for key in sorted(found))


def forbidden_scan(G: LandmarkGraph) -> ForbiddenReport:
    """Exhaustively list forbidden 4-cycles, 6-cycles, and rainbow triangles.

    Only plain (size-2) hyperedges participate: sigma[c][x] is the
    plain-edge partner of landmark x in color c, or -1.  Closed walks of
    the words (1,2,1,3), (2,1,2,3), (3,1,3,2) give the 4-cycles a b a c
    (one word per repeated color a; the cycle read from the far side of
    its a-edges is a c a b), (1,2,3,1,2,3) gives the 6-cycles a b c a b c
    and (1,2,3) the rainbow triangles (both read 1, 2, 3 in exactly one
    direction).  A graph with loops or larger blocks is scanned anyway
    but flagged as not strictly applicable.
    """
    verts = G.vertices
    index = {v: i for i, v in enumerate(verts)}
    sigma = [[-1] * len(verts) for _ in range(4)]
    applicable = True
    for e in G.hyperedges:
        if len(e.members) != 2:
            applicable = False
            continue
        x, y = (index[v] for v in e.members)
        sigma[e.color][x] = y
        sigma[e.color][y] = x
    return ForbiddenReport(
        applicable=applicable,
        c4=_closed_walks(sigma, ((1, 2, 1, 3), (2, 1, 2, 3), (3, 1, 3, 2)), verts),
        c6=_closed_walks(sigma, ((1, 2, 3, 1, 2, 3),), verts),
        rainbow_triangles=_closed_walks(sigma, ((1, 2, 3),), verts),
    )


def _describe_cycle(kind: str, c: CycleReport) -> str:
    walk = " ".join(
        "(" + ",".join(str(x) for x in v) + ")" for v in c.landmarks
    )
    colors = ",".join(COLOR_NAMES[i] for i in c.colors)
    return f"{kind} on {walk} colored {colors}"


def predict_resolving(W: LandmarkSet) -> Certificate:
    """Decide whether W resolves purely from its landmark graph.

    For a 2-basic system the verdict is: resolving exactly when the scan
    finds no forbidden 4-cycle and no forbidden 6-cycle.  For a
    triple-looped system the same holds for its 2-basic part, and rainbow
    triangles are forbidden as well; its loop vertex carries only loops,
    so the scan of W finds exactly the 2-basic part's cycles.  Never
    computes a distance or code, so an UNRESOLVED certificate names the
    forbidden configuration instead of carrying a witness pair.
    """
    return _prediction(W, classify(W).kind)


def _prediction(W: LandmarkSet, kind: SystemKind,
                report: ForbiddenReport | None = None) -> Certificate:
    """``predict_resolving`` from W's class and, when made already, its scan."""
    g = W.graph
    if g.k != frozenset({3}):
        raise NotApplicable(f"prediction is stated for K={{3}}, got {g.format()}")
    if len(set(g.dims)) != 1:
        raise NotApplicable(f"prediction needs a diagonal graph, got {g.format()}")
    if kind is SystemKind.TWO_BASIC:
        triangles = False
        scanned = "landmark graph of the 2-basic system"
    elif kind is SystemKind.TRIPLE_LOOPED:
        triangles = True
        scanned = "landmark graph of the 2-basic part"
    else:
        raise NotApplicable(
            "prediction only covers TWO_BASIC and TRIPLE_LOOPED systems"
        )
    if report is None:
        report = forbidden_scan(build_landmark_graph(W))
    if report.clean(include_triangles=triangles):
        forbidden = "no three-colored 4-cycle, no 6-cycle with repeating colors"
        if triangles:
            forbidden += ", no rainbow triangle"
        return Certificate(
            Verdict.RESOLVING, g, landmarks=W,
            attestation=f"scan of the {scanned}: {forbidden}",
        )
    if report.c4:
        found = _describe_cycle("three-colored 4-cycle", report.c4[0])
    elif report.c6:
        found = _describe_cycle("color-repeating 6-cycle", report.c6[0])
    else:
        found = _describe_cycle("rainbow triangle", report.rainbow_triangles[0])
    return Certificate(
        Verdict.UNRESOLVED, g, landmarks=W,
        attestation=f"scan of the {scanned} found a {found}",
    )


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


def _classify_shape(edges: list[Hyperedge]) -> FootprintShape:
    if not edges:
        return FootprintShape.NONE
    if any(len(e.members) > 2 for e in edges):
        return FootprintShape.OTHER
    loops = [e for e in edges if len(e.members) == 1]
    plains = [e for e in edges if len(e.members) == 2]
    plain_sets = [e.members for e in plains]
    if len(set(plain_sets)) != len(plain_sets):
        return FootprintShape.OTHER  # repeated edge in two colors
    covered = frozenset().union(*(e.members for e in edges))
    nl, np_ = len(loops), len(plains)
    if (nl, np_) == (0, 3):
        if len(covered) == 3:
            return FootprintShape.C3
        if len(covered) == 4:
            common = plain_sets[0] & plain_sets[1] & plain_sets[2]
            return FootprintShape.K13 if common else FootprintShape.P4
        if len(covered) == 5:
            return FootprintShape.P3_P2
        return FootprintShape.THREE_P2
    if (nl, np_) == (1, 2):
        (u,) = loops[0].members
        if u in plain_sets[0] or u in plain_sets[1]:
            return FootprintShape.OTHER
        joined = plain_sets[0] & plain_sets[1]
        return FootprintShape.P3_L1 if joined else FootprintShape.TWO_P2_L1
    if (nl, np_) == (2, 1):
        (u1,) = loops[0].members
        (u2,) = loops[1].members
        if u1 != u2 or u1 in plain_sets[0]:
            return FootprintShape.OTHER
        return FootprintShape.L2_P2
    if (nl, np_) == (3, 0):
        heads = {next(iter(e.members)) for e in loops}
        return FootprintShape.L3 if len(heads) == 1 else FootprintShape.OTHER
    return FootprintShape.OTHER  # fewer than three nonempty blocks


def footprint(W: LandmarkSet, v: Vertex) -> Footprint:
    """The subgraph induced by v's three blocks, with its shape.

    For a non-landmark the covered set equals code(W, v).  Landmarks are
    allowed here: their three blocks meet in the landmark itself, giving
    K13 (three plain edges) or L3 (three loops).
    """
    W.graph.validate_vertex(v)
    edges = []
    for i in (1, 2, 3):
        mems = W.block(i, v[i - 1])
        if mems:
            edges.append(Hyperedge(i, v[i - 1], frozenset(mems)))
    covered = frozenset().union(*(e.members for e in edges)) if edges else frozenset()
    return Footprint(covered, _classify_shape(edges), tuple(edges))


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
