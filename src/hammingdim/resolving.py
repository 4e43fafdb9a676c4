"""Landmark sets, vertex codes, and resolving-set verification.

A landmark set W on a 3-coordinate graph is organized into blocks: block
(i, a) holds the landmarks whose i-th coordinate equals a.  In the
diameter-2 regime the landmarks at distance 2 from a non-landmark vertex
v = (a1, a2, a3) are exactly the union of v's three blocks, called the
code of v.  W resolves the graph exactly when distinct non-landmarks
always carry distinct codes.

Two independent verification routes are provided:

* ``is_resolving`` gives each non-landmark a 64-bit key, a weighted sum
  of its code taken by inclusion-exclusion over its three blocks.  One
  key per vertex, never a |V| x |W| table or a pairwise vertex
  comparison; graphs above CODE_VERTEX_LIMIT vertices are refused.
* ``is_resolving_by_distance`` folds raw distance vectors, from the
  distance formula (or breadth-first search when there is no closed
  form), into keys the same way.  It never looks at codes: the oracle.

Both hand their keys to one kernel, ``_least_equal_pair``: a sort of the
keys settles a set whose keys are distinct, and only vertices whose keys
repeat are compared exactly, codes by ``LandmarkSet.code`` and distance
vectors entry by entry.  A hash collision can cost time, never a wrong
verdict.  Both report the lexicographically least colliding pair as
witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import (
    DisconnectedGraph,
    InvalidBlock,
    InvalidVertex,
    IsLandmark,
    Unsupported,
)
from .hamming import BFS_VERTEX_LIMIT, GhgParams, Vertex, hamming_graph

DISTANCE_MATRIX_LIMIT = 10**6
CODE_VERTEX_LIMIT = 3 * 10**7

_WEIGHTS = np.empty(0, dtype=np.uint64)
_FOLD_ENTRIES = 1 << 20  # distance entries built per slab of the oracle

CERTIFICATE_SCHEMA = "hammingdim/certificate-v1"


class LandmarkSet:
    """An ordered set of distinct landmark vertices on a 3-coordinate graph."""

    __slots__ = ("graph", "members", "_member_set", "_blocks")

    def __init__(self, graph: GhgParams, members):
        if graph.r != 3:
            raise Unsupported(f"landmark sets need 3 coordinates, got r={graph.r}")
        self.graph = graph
        mems = tuple(tuple(m) for m in members)
        seen = set()
        for m in mems:
            graph.validate_vertex(m)
            if m in seen:
                raise InvalidVertex(f"duplicate landmark {m!r}")
            seen.add(m)
        self.members = mems
        self._member_set = frozenset(mems)
        blocks: dict[tuple[int, int], list[Vertex]] = {}
        for m in mems:
            for i in range(3):
                blocks.setdefault((i + 1, m[i]), []).append(m)
        self._blocks = {key: tuple(v) for key, v in blocks.items()}

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, v) -> bool:
        return v in self._member_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, LandmarkSet):
            return NotImplemented
        return self.graph == other.graph and self._member_set == other._member_set

    def __hash__(self) -> int:
        return hash((self.graph, self._member_set))

    def __repr__(self) -> str:
        return f"LandmarkSet({self.graph.format()}, {len(self.members)} members)"

    def member_set(self) -> frozenset:
        return self._member_set

    def block(self, i: int, a: int) -> frozenset:
        """Landmarks whose i-th coordinate equals a (i in 1..3, a in 1..n_i)."""
        if i not in (1, 2, 3):
            raise InvalidBlock(f"color {i} not in 1..3")
        if not 1 <= a <= self.graph.dims[i - 1]:
            raise InvalidBlock(f"value {a} outside 1..{self.graph.dims[i - 1]}")
        return frozenset(self._blocks.get((i, a), ()))

    def blocks_of_color(self, i: int) -> dict[int, tuple[Vertex, ...]]:
        """Nonempty blocks of one color, keyed by coordinate value."""
        if i not in (1, 2, 3):
            raise InvalidBlock(f"color {i} not in 1..3")
        return {a: mems for (c, a), mems in self._blocks.items() if c == i}

    def code(self, v: Vertex) -> frozenset:
        """Union of v's three blocks: the landmarks at distance 2 from v."""
        self.graph.validate_vertex(v)
        if v in self._member_set:
            raise IsLandmark(f"{v!r} is a landmark and has no code")
        out: set[Vertex] = set()
        for i in range(3):
            out.update(self._blocks.get((i + 1, v[i]), ()))
        return frozenset(out)


class Verdict(str, Enum):
    RESOLVING = "RESOLVING"
    UNRESOLVED = "UNRESOLVED"
    DIMENSION = "DIMENSION"


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable outcome of a verification or search.

    UNRESOLVED certificates from code or distance comparison carry a
    witness pair, re-verified on construction: two distinct non-landmarks
    with equal codes.  Scan-based ones instead name the forbidden
    configuration in the attestation.  DIMENSION certificates carry the
    established value, a basis when one was found, and an attestation
    describing why the value is exact (or, for a pure nonexistence
    result, which sizes were exhausted).
    """

    verdict: Verdict
    graph: GhgParams
    landmarks: LandmarkSet | None = None
    witness: tuple[Vertex, Vertex] | None = None
    basis: LandmarkSet | None = None
    dimension: int | None = None
    attestation: str | None = None
    candidates_examined: int | None = None

    def __post_init__(self):
        if self.verdict is Verdict.UNRESOLVED:
            if self.landmarks is None:
                raise Unsupported("UNRESOLVED certificate needs landmarks")
            if self.witness is None and self.attestation is None:
                raise Unsupported(
                    "UNRESOLVED certificate needs a witness or an attestation"
                )
        if self.witness is not None:
            if self.landmarks is None:
                raise Unsupported("a witness pair needs its landmark set")
            x, y = self.witness
            if x == y:
                raise InvalidVertex(f"witness pair repeats {x!r}")
            if self.landmarks.code(x) != self.landmarks.code(y):
                raise InvalidVertex(f"witness pair {x!r}, {y!r} has distinct codes")

    def to_json(self) -> str:
        doc: dict = {"schema": CERTIFICATE_SCHEMA, "verdict": self.verdict.value,
                     "graph": self.graph.format()}
        if self.witness is not None:
            doc["witness"] = [_fmt_vertex(v) for v in self.witness]
        if self.landmarks is not None:
            doc["landmarks"] = [_fmt_vertex(v) for v in self.landmarks.members]
        if self.basis is not None:
            doc["basis"] = [_fmt_vertex(v) for v in self.basis.members]
        if self.dimension is not None:
            doc["dimension"] = self.dimension
        if self.attestation is not None:
            doc["attestation"] = self.attestation
        if self.candidates_examined is not None:
            doc["candidates_examined"] = self.candidates_examined
        return json.dumps(doc, indent=2) + "\n"


def _fmt_vertex(v: Vertex) -> str:
    return ",".join(str(c) for c in v)


def _require_diameter_two(g: GhgParams) -> None:
    # Codes have distance meaning only in the two diameter-2 regimes.
    if min(g.dims) < 3:
        raise Unsupported(f"{g.format()}: need every dimension >= 3")
    full = frozenset({g.r})
    rest = frozenset(range(1, g.r))
    if g.k != full and g.k != rest:
        raise Unsupported(
            f"{g.format()}: resolving verdicts are implemented for K={{{g.r}}} "
            f"and its complement rule only"
        )


def _vertex_at(g: GhgParams, idx: int) -> Vertex:
    out = []
    for d in reversed(g.dims):
        idx, rem = divmod(idx, d)
        out.append(rem + 1)
    return tuple(reversed(out))


def _weights(m: int) -> np.ndarray:
    """Weights of landmark positions 0..m-1, from one table grown on demand.

    Position p < 64 weighs 2**p, so a weighted sum over at most 64
    landmarks is the exact bitmask of the set; later positions weigh the
    terms of the splitmix64 sequence, uniform 64-bit numbers.
    """
    global _WEIGHTS
    if _WEIGHTS.size < m:
        z = np.arange(1, max(m, 2 * _WEIGHTS.size, 1024) + 1, dtype=np.uint64)
        z *= np.uint64(0x9E3779B97F4A7C15)
        for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(factor)
        z ^= z >> np.uint64(31)
        z[:64] = np.uint64(1) << np.arange(64, dtype=np.uint64)
        _WEIGHTS = z
    return _WEIGHTS[:m]


def _members_array(W: LandmarkSet) -> np.ndarray:
    """Zero-based member coordinates, one row per coordinate: shape (3, m)."""
    return np.array(tuple(zip(*W.members)), dtype=np.intp).reshape(3, -1) - 1


@lru_cache(maxsize=64)
def _block_layout(dims: tuple[int, int, int]):
    """(spread, start, o) for the table of H1, H2, H3, P12, P13 and P23.

    Table t of the six starts at o[t].  Zero-based members w, one column
    each, add their weights at row t of spread @ w + start; row 6 holds
    their vertex indices.
    """
    d1, d2, d3 = dims
    o = tuple(accumulate((0, d1, d2, d3, d1 * d2, d1 * d3, d2 * d3)))
    spread = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                       [d2, 1, 0], [d3, 0, 1], [0, d3, 1], [d2 * d3, d3, 1]])
    start = np.array(o[:6] + (0,))[:, None]
    spread.flags.writeable = start.flags.writeable = False  # shared by every call
    return spread, start, o


def _non_landmarks(n: int, at: np.ndarray) -> np.ndarray:
    keep = np.ones(n, dtype=bool)
    keep[at] = False
    return keep


def _least_equal_pair(keys: np.ndarray, keep: np.ndarray, row_of):
    """Least pair (i, j), i < j, of kept indices with equal rows, or None.

    keys[i] must be a function of row i, so distinct keys mean distinct
    rows, and one sort of the kept keys settles a set without repeats.
    Otherwise row_of(i) re-checks exactly.  Kept indices whose key repeats
    are tried in increasing order; the first with an equal row at a later
    index is the witness's first index, and the least such later index is
    its second.  A repeat that is a hash collision only costs one more try.
    """
    # each |V|-sized temporary is dropped once spent, to bound the peak
    kept = keys[keep]
    kept.sort()
    again = kept[1:] == kept[:-1]
    again[1:] &= ~again[:-1]  # each repeated key once
    repeated = kept[1:][again]
    del kept, again
    if repeated.size == 0:
        return None
    at = np.searchsorted(repeated, keys)
    np.minimum(at, repeated.size - 1, out=at)
    hit = repeated[at] == keys
    del at
    hit &= keep
    candidates = hit.nonzero()[0]
    del hit
    ckeys = keys[candidates]
    for t, i in enumerate(candidates):
        row = row_of(int(i))
        for j in candidates[t + 1:][ckeys[t + 1:] == ckeys[t]]:
            if row_of(int(j)) == row:
                return int(i), int(j)
    return None


def is_resolving(W: LandmarkSet) -> Certificate:
    """Verify W by comparing the codes of all non-landmarks.

    Each non-landmark v = (a1, a2, a3) gets a 64-bit key, the weighted sum
    of its code: with H_i[a] the weight of block (i, a) and P_ij[a, b] the
    weight of the landmarks in both block (i, a) and block (j, b),

        key(v) = H1[a1] + H2[a2] + H3[a3]
                 - P12[a1, a2] - P13[a1, a3] - P23[a2, a3]   (mod 2**64),

    which is inclusion-exclusion over v's three blocks, exact because no
    landmark lies in all three.  Equal codes give equal keys; codes whose
    keys repeat are re-checked exactly as sets of landmarks, so the verdict
    and the witness never rest on the hash.  The only |V|-sized arrays are
    one key and a few flags per vertex, and graphs above CODE_VERTEX_LIMIT
    vertices are refused before anything is allocated.  The verdict is
    valid for K = {3} and for the complement rule K = {1, 2}: in both
    regimes equal codes and equal distance vectors are the same thing.
    """
    g = W.graph
    _require_diameter_two(g)
    n = g.vertex_count()
    if n > CODE_VERTEX_LIMIT:
        raise Unsupported(f"{n} vertices exceeds the code verifier's {CODE_VERTEX_LIMIT} limit")
    d1, d2, d3 = g.dims
    w = _members_array(W)
    spread, start, o = _block_layout(g.dims)
    at = spread @ w + start
    table = np.zeros(o[6], dtype=np.uint64)
    # one value per index: numpy 2.4's add.at misreads values broadcast
    # along the last axis of a 2-D index
    np.add.at(table, at[:6].T.ravel(), _weights(w.shape[1]).repeat(6))
    h1, h2, h3 = table[:o[1], None], table[o[1]:o[2]], table[o[2]:o[3]]
    p12 = table[o[3]:o[4]].reshape(d1, d2)
    p13 = table[o[4]:o[5]].reshape(d1, d3)
    p23 = table[o[5]:].reshape(d2, d3)
    left = h1 + h2 - p12  # H1[a1] + H2[a2] - P12[a1, a2]
    right = h3 - p13  # H3[a3] - P13[a1, a3]
    keys = left[:, :, None] + right[:, None, :]
    keys -= p23
    keep = _non_landmarks(n, at[6])
    pair = _least_equal_pair(keys.reshape(-1), keep, lambda i: W.code(_vertex_at(g, i)))
    return _certificate(W, pair)


def is_resolving_by_distance(W: LandmarkSet) -> Certificate:
    """Verify W by comparing raw distance vectors, the independent oracle.

    Distances come from the diameter-2 formula when K = {3} with all dims
    >= 3, else from per-landmark breadth-first search at desk scale.  Each
    vertex's distance vector is folded to a 64-bit key, a weighted sum of
    its entries (under the formula, of its entries less one, which only
    shifts every key by the same amount); vectors whose keys repeat are
    compared exactly.  The formula's vectors are built and folded a slab
    of first coordinates at a time, so no |V| x |W| matrix is held.
    """
    g = W.graph
    _require_diameter_two(g)
    n = g.vertex_count()
    if n > DISTANCE_MATRIX_LIMIT:
        raise Unsupported(f"{n} vertices exceeds the {DISTANCE_MATRIX_LIMIT} limit")
    w = _members_array(W)
    m = len(W)
    r = _weights(m)
    if g.closed_form_available():
        # d(v, w) is 1 when v and w differ in every coordinate, else 2
        near = [np.arange(d)[:, None] == w[i] for i, d in enumerate(g.dims)]
        d1, d2, d3 = g.dims

        def row_of(i):
            # the landmarks at distance 2; all others are at distance 1
            a = np.unravel_index(i, g.dims)
            return (near[0][a[0]] | near[1][a[1]] | near[2][a[2]]).tobytes()

        keys = np.empty((d1, d2 * d3), dtype=np.uint64)
        step = max(1, _FOLD_ENTRIES // (d2 * d3 * max(m, 1)))
        for lo in range(0, d1, step):
            share = near[0][lo:lo + step, None, None] | near[1][:, None] | near[2]
            keys[lo:lo + step] = share.reshape(len(share), d2 * d3, m) @ r
    else:
        if n > BFS_VERTEX_LIMIT:
            raise Unsupported(
                f"no closed form for K={sorted(g.k)}; {n} vertices exceeds "
                f"the breadth-first limit of {BFS_VERTEX_LIMIT}"
            )
        verts = list(g.vertices())
        dist = np.zeros((n, m), dtype=np.uint8)
        for j, member in enumerate(W.members):
            table = g.bfs_distances_from(member)
            if len(table) < n:
                raise DisconnectedGraph(
                    f"{g.format()} is disconnected: {len(table)} of {n} "
                    f"vertices reachable from {member!r}"
                )
            for row, v in enumerate(verts):
                dist[row, j] = table[v]
        keys = dist @ r

        def row_of(i):
            return dist[i].tobytes()

    keep = _non_landmarks(n, np.ravel_multi_index(w, g.dims))
    return _certificate(W, _least_equal_pair(keys.reshape(-1), keep, row_of))


def _certificate(W: LandmarkSet, pair) -> Certificate:
    g = W.graph
    if pair is None:
        return Certificate(Verdict.RESOLVING, g, landmarks=W)
    x, y = _vertex_at(g, pair[0]), _vertex_at(g, pair[1])
    return Certificate(Verdict.UNRESOLVED, g, landmarks=W, witness=(x, y))


def lower_bound(n1: int, n2: int, n3: int) -> int:
    """Least possible resolving-set size on the 3-coordinate graph: 2*max - 1.

    Each coordinate's blocks must pairwise sum to at least 3 landmarks,
    which forces at least 2*max(n1, n2, n3) - 1 landmarks in total.
    """
    if min(n1, n2, n3) < 3:
        raise Unsupported(f"lower bound needs all dims >= 3, got {(n1, n2, n3)}")
    return 2 * max(n1, n2, n3) - 1


def block_sum_violations(W: LandmarkSet) -> list[tuple[int, int, int]]:
    """All (color, a, b) with a < b where |block(i,a)| + |block(i,b)| < 3.

    Any resolving set has no violations: two vertices differing only in
    coordinate i at values a, b are separated only by those two blocks,
    and small block pairs cannot tell them apart.
    """
    out = []
    for i in (1, 2, 3):
        d = W.graph.dims[i - 1]
        sizes = [len(W.block(i, a)) for a in range(1, d + 1)]
        for a in range(1, d + 1):
            for b in range(a + 1, d + 1):
                if sizes[a - 1] + sizes[b - 1] < 3:
                    out.append((i, a, b))
    return out


def loop_profile(W: LandmarkSet) -> dict[int, tuple[int, int, int]]:
    """Per color: (number of size-1 blocks, size-2 blocks, larger blocks).

    A minimum-size resolving set of 2n - 1 landmarks on the n-diagonal
    graph always shows (1, n - 1, 0) in every color.
    """
    out = {}
    for i in (1, 2, 3):
        sizes = [len(mems) for mems in W.blocks_of_color(i).values()]
        out[i] = (
            sum(1 for s in sizes if s == 1),
            sum(1 for s in sizes if s == 2),
            sum(1 for s in sizes if s >= 3),
        )
    return out


__all__ = [
    "LandmarkSet",
    "Certificate",
    "Verdict",
    "is_resolving",
    "is_resolving_by_distance",
    "lower_bound",
    "block_sum_violations",
    "loop_profile",
    "hamming_graph",
    "CERTIFICATE_SCHEMA",
    "DISTANCE_MATRIX_LIMIT",
    "CODE_VERTEX_LIMIT",
]
