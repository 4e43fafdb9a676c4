"""Landmark sets, vertex codes, and resolving-set verification.

A landmark set W on a 3-coordinate graph is organized into blocks: block
(i, a) holds the landmarks whose i-th coordinate equals a.  In the
diameter-2 regime the landmarks at distance 2 from a non-landmark vertex
v = (a1, a2, a3) are exactly the union of v's three blocks, called the
code of v.  W resolves the graph exactly when distinct non-landmarks
always carry distinct codes.

Two independent verification routes are provided:

* ``is_resolving`` gives each non-landmark a 64-bit key, a weighted sum
  of its code taken by inclusion-exclusion over its three blocks, and
  keys only the few vertices that can share a code with another, read
  off the blocks along all three axes; where an axis does not yield
  them, every vertex.  Never a |V| x |W| table or a pairwise vertex
  comparison.
* ``is_resolving_by_distance`` packs raw distance vectors, from the
  diameter-2 distance rule, 64 landmarks to a word and folds each
  vertex's words into one key.  It never looks at codes: the oracle.

Both accept the two diameter-2 regimes of ``GhgParams.closed_form_available``
(K = {3} and its complement K = {1, 2}, every dimension >= 3), and both
refuse graphs above VERTEX_LIMIT vertices before allocating anything.
The oracle also refuses, as early, a set whose rows come to more than
ORACLE_WORD_LIMIT words in all, since its time grows with them.

Both build every key in its final form, a hash of the code or row in
the high bits and the vertex index in the low bits, and hand the keys to
one kernel, ``_least_equal_pair``, which consumes them: one in-place
sort brings equal hashes together, landmarks among them.  That settles
a set whose hashes are distinct.  Otherwise only non-landmarks whose
hash is shared by a later non-landmark are compared exactly, codes as
sets of landmarks and distance vectors word by word.  A hash collision
can cost time, never a wrong verdict.  Both report the lexicographically
least colliding pair as witness.  The oracle keys every vertex in one
|V|-sized array.  The code verifier does so only on a graph of one
slab (at most _SLAB vertices) and where the vertices that can share a
code are not listed: where an axis has no cross cells to list (an empty
block, or candidates past a quarter of the graph) or those vertices may
pass a quarter of it.  Otherwise it keys them alone, in one kernel
call: 2 to 5 per cent of the graph on the n = 65 to 150 bases, listed
as int32 indices and deduplicated before they are keyed.  The kernel's
temporaries are slabs of at most _SLAB keys or tries.  The rest grow
with |W|.  Both verifiers read one member table, each member's table
entries ``at`` and the set of landmark indices, built on a set's first
verification and kept with the set (120 to 130 bytes a member on sets
of thousands).  The code verifier adds its weights _SLAB table entries
at a time, and the oracle's ``near`` table holds one bit per landmark
in each of its three coordinate rows, 64 to a word.  On the n = 100 and
150 bases, whole or less one landmark other than the loop vertex, the
code verifier peaks at 0.08 to 0.13 times the 8|V| bytes that keys for
every vertex take, under |V| bytes at n = 150.  The oracle, and the code
verifier where it keys every vertex, peak at 1.0 to 1.15 times that on
sets of far fewer landmarks than vertices, and at 1.3 times when nearly
every vertex collides (one landmark on 101 x 101 x 101).  Random sets of
32,000 landmarks on 40 x 40 x 40 peak at about 13 times (either
verifier), and of 131,324 on 51 x 51 x 51 at 18 times (code) and 21
times (distance), most of it the member table.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import InitVar, dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, combinations
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import InvalidBlock, InvalidVertex, IsLandmark, Unsupported
from .hamming import GhgParams, Vertex, _whole, hamming_graph

VERTEX_LIMIT = 3 * 10**7
# the distance oracle's work, |V| * ceil(|W| / 64) row words; metric_basis(310)
# comes to 2.98e8
ORACLE_WORD_LIMIT = 10 * VERTEX_LIMIT

_WEIGHTS = np.empty(0, dtype=np.uint64)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # 2**64 over the golden ratio, odd
_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)  # bit p of a word
_BITS.flags.writeable = False
_FOLD_ENTRIES = 1 << 20  # distance entries built per slab of the oracle
_SLAB = 1 << 16  # keys per slab of the pair kernel's passes

CERTIFICATE_SCHEMA = "hammingdim/certificate-v1"


class LandmarkSet:
    """An ordered set of distinct landmark vertices on a 3-coordinate graph.

    The member table that both verifiers read (``_member_table``) is
    built on the set's first verification and kept as long as the set
    lives, so a second verification of the same set skips it.  That is
    a trade of memory for time: the table holds 120-155 bytes a member
    (tracemalloc; 15 MiB for 131,324 landmarks on 51^3), which a
    one-off verification would otherwise free on return.
    """

    __slots__ = ("graph", "members", "_member_set", "_blocks", "_table")

    def __init__(self, graph: GhgParams, members):
        if graph.r != 3:
            raise Unsupported(f"landmark sets need 3 coordinates, got r={graph.r}")
        seen = {}  # the members so far, in order
        for m in members:
            if type(m) is not tuple:
                with contextlib.suppress(TypeError):  # validate_vertex refuses it
                    m = tuple(m)
            graph.validate_vertex(m)
            m = tuple(map(int, m))  # as GhgParams stores its dimensions
            if m in seen:
                raise InvalidVertex(f"duplicate landmark {m!r}")
            seen[m] = None
        self._fill(graph, tuple(seen))

    @classmethod
    def _trusted(cls, graph: GhgParams, members: tuple, blocks=None) -> LandmarkSet:
        """The set of ``members``, a tuple of distinct valid vertices of a
        3-coordinate ``graph``, taken without checking them: for callers
        whose construction guarantees both.  ``blocks``, if given, is
        their block table as ``_fill`` would build it."""
        W = cls.__new__(cls)
        W._fill(graph, members, blocks)
        return W

    def _fill(self, graph: GhgParams, members: tuple, blocks=None) -> None:
        """Set every slot from members known valid and distinct, building
        the block table unless it is given: block (i, a) lists its
        landmarks in member order, and the table is keyed in order of
        first use."""
        if blocks is None:
            lists: dict[tuple[int, int], list[Vertex]] = {}
            for m in members:
                a, b, c = m
                lists.setdefault((1, a), []).append(m)
                lists.setdefault((2, b), []).append(m)
                lists.setdefault((3, c), []).append(m)
            blocks = {key: tuple(v) for key, v in lists.items()}
        self.graph = graph
        self.members = members
        self._member_set = frozenset(members)
        self._blocks = blocks
        self._table = None  # built by _member_table on first verification

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

    def block(self, i: int, a: int) -> frozenset:
        """Landmarks whose i-th coordinate equals a (i in 1..3, a in 1..n_i)."""
        if not (_whole(i, 1) and i <= 3):
            raise InvalidBlock(f"color {i!r} not in 1..3")
        if not (_whole(a, 1) and a <= self.graph.dims[i - 1]):
            raise InvalidBlock(f"value {a!r} outside 1..{self.graph.dims[i - 1]}")
        return frozenset(self._blocks.get((i, a), ()))

    def blocks(self) -> Mapping[tuple[int, int], tuple[Vertex, ...]]:
        """Every nonempty block, keyed by (color, value); read-only."""
        return MappingProxyType(self._blocks)

    def code(self, v: Vertex) -> frozenset:
        """Union of v's three blocks: the landmarks at distance 2 from v."""
        self.graph.validate_vertex(v)
        if v in self._member_set:
            raise IsLandmark(f"{v!r} is a landmark and has no code")
        return self._code(v)

    def _code(self, v: Vertex) -> frozenset:
        """``code`` of a vertex known to be valid and not a landmark."""
        blocks = self._blocks
        return frozenset(blocks.get((1, v[0]), ()) + blocks.get((2, v[1]), ())
                         + blocks.get((3, v[2]), ()))

    def _member_table(self) -> tuple[np.ndarray, frozenset]:
        """(at, landmarks), what both verifiers read of the members: per
        member, its six table entries as ``_layout`` places them and then
        its vertex index, read-only; and the set of those indices.  Built
        on the set's first verification and kept for every later one."""
        if self._table is None:
            spread, shift = _layout(self.graph)[3:5]
            at = np.array(self.members, dtype=np.intp).reshape(-1, 3) @ spread
            at += shift
            at.flags.writeable = False
            self._table = at, frozenset(at[:, 6].tolist())
        return self._table


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
    # set by the verifiers, whose witness vertices come from the graph's
    # own vertex indices: their codes are compared without validating them
    _kernel_witness: InitVar[bool] = False

    def __post_init__(self, _kernel_witness):
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
            code = self.landmarks._code if _kernel_witness else self.landmarks.code
            if code(x) != code(y):
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
    return "%s,%s,%s" % v  # every vertex written is a 3-tuple


def _checked_vertex_count(g: GhgParams) -> int:
    # Codes have distance meaning only in the two diameter-2 regimes.
    if not g.closed_form_available():
        raise Unsupported(
            f"{g.format()}: resolving verdicts need every dimension >= 3 and "
            f"K={{{g.r}}} or its complement rule"
        )
    n = g.vertex_count()
    if n > VERTEX_LIMIT:
        # named by the graph: str(n) fails past int()'s 4,300-digit limit
        raise Unsupported(f"{g.format()}: vertex count exceeds the verifiers' {VERTEX_LIMIT} limit")
    return n


def _vertex_at(g: GhgParams, idx: int) -> Vertex:
    _, d2, d3 = g.dims
    q, c = divmod(idx, d3)
    a, b = divmod(q, d2)
    return a + 1, b + 1, c + 1


def _weights(m: int) -> np.ndarray:
    """Weights of landmark positions 0..m-1, from one table grown on demand.

    Position p < 64 weighs 2**p, so a weighted sum over at most 64
    landmarks is the exact bitmask of the set; later positions weigh the
    terms of the splitmix64 sequence, uniform 64-bit numbers.
    """
    global _WEIGHTS
    if _WEIGHTS.size < m:
        z = np.arange(1, max(m, 2 * _WEIGHTS.size, 1024) + 1, dtype=np.uint64)
        z *= _GOLDEN
        _mix(z)
        z[:64] = _BITS
        _WEIGHTS = z
    return _WEIGHTS[:m]


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place: a bijection of 64-bit words."""
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    return z


@lru_cache(maxsize=64)
def _layout(g: GhgParams):
    """(|V|, high, o, spread, shift, index): what both verifiers need of
    g's shape, checked and built once per shape, all O(d1 + d2 + d3).

    high masks the bits above a vertex index.  Table t of H1, H2, H3,
    P12, P13 and P23 starts at o[t].  A one-based member w adds its
    weight at entries t < 6 of w @ spread + shift; entry 6 is its vertex
    index.  index starts H1, H2 and H3 at the parts a1 d2 d3, a2 d3 and
    a3 of the zero-based vertex index.
    """
    n = _checked_vertex_count(g)
    d1, d2, d3 = g.dims
    o = tuple(accumulate((0, d1, d2, d3, d1 * d2, d1 * d3, d2 * d3)))
    spread = np.array([[1, 0, 0, d2, d3, 0, d2 * d3],
                       [0, 1, 0, 1, 0, d3, d3],
                       [0, 0, 1, 0, 1, 1, 1]])
    shift = np.array(o[:6] + (0,)) - spread.sum(axis=0)
    index = np.concatenate([np.arange(d, dtype=np.uint64) * step
                            for d, step in ((d1, d2 * d3), (d2, d3), (d3, 1))])
    spread.flags.writeable = shift.flags.writeable = index.flags.writeable = False  # shared
    return n, _index_bits(n)[3], o, spread, shift, index


@lru_cache(maxsize=64)
def _index_bits(n: int):
    """(mask, b, low, high): indices below n fit in the low b bits, low is
    their mask as a uint64 and mask as an int, high masks the bits above.
    Cached: the uint64 scalars cost a microsecond per tiny kernel call."""
    b = (n - 1).bit_length()
    mask = (1 << b) - 1
    return mask, np.uint64(b), np.uint64(mask), np.uint64(mask ^ (2**64 - 1))


def _least_equal_pair(keys: np.ndarray, n: int, landmarks, row_of):
    """Least pair (i, j), i < j, of non-landmark indices with keys here
    and equal rows, or None.

    The keys are those of some of the n vertices of a graph, each vertex
    at most once: a key holds its vertex's index in its low
    b = ceil(log2 n) bits and, above them, its prefix, a hash of the
    vertex's row, so distinct prefixes mean distinct rows.  The keys are
    consumed: one in-place sort brings equal prefixes together in runs,
    each run in increasing index order.  The indices with a later one in
    their run are tried in increasing index order, at most _SLAB per pass
    over the sorted keys; the first with an equal row later in its run is
    the witness's first index, and the least such later index its second.
    Indices in ``landmarks`` are skipped, and a row is read only to
    compare it with another non-landmark's, so row_of re-checks exactly
    and a shared prefix costs time, never a wrong verdict.  The run after
    a try is read key by key as Python ints, up to the first key of
    another prefix, and the tries are read one by one, never as a list of
    Python ints.  Every pass but the sort goes _SLAB keys at a time, and a
    pass holds at most two slabs of tries, so nothing but the keys grows
    with their number: on keys for every vertex the verifiers peak at 1.0
    to 1.3 times their 8n bytes on the n = 100 and 150 bases and with one
    landmark on 101 x 101 x 101.
    """
    mask, b, low, _ = _index_bits(n)
    shift = int(b)
    keys.sort()
    item = keys.item  # a key as a Python int
    first = np.uint64(0)  # the least index << b | position not yet tried
    while True:
        tries = _least_tries(keys, b, low, first)
        for t in map(tries.item, range(tries.size)):
            i, s = t >> shift, t & mask
            if i in landmarks:
                continue
            row = None
            prefix = item(s) >> shift
            for p in range(s + 1, keys.size):  # the rest of the run
                j = item(p)
                if j >> shift != prefix:
                    break
                j &= mask
                if j in landmarks:
                    continue
                if row is None:
                    row = row_of(i)
                if row_of(j) == row:
                    return i, j
        if tries.size < _SLAB:
            return None
        first = tries[-1] + np.uint64(1)


def _least_tries(keys: np.ndarray, b, low, first) -> np.ndarray:
    """The least _SLAB tries from first on, as index << b | position, sorted.

    A try is a position of the sorted keys whose next key shares its
    prefix; its index is the key's low b bits.  Index and position take
    2b bits, which VERTEX_LIMIT keeps below 64.  When one slab holds
    every key, first is 0 and its tries are all there is: no filter,
    merge or cut runs.
    """
    least, cut = None, None
    for lo in range(0, keys.size, _SLAB):
        p = keys[lo:lo + _SLAB + 1] >> b
        at = (p[1:] == p[:-1]).nonzero()[0]
        del p  # each temporary goes as soon as it is read
        if lo:  # adding 0 would cost a microsecond, a tenth of a tiny call
            at += lo
        t = keys[at]
        t &= low
        t <<= b
        t |= at.view(np.uint64)
        del at
        if first:
            t = t[t >= first]
        if cut is not None:  # a try at or above cut is not among the least
            t = t[t < cut]
        least = t if least is None else np.concatenate((least, t))
        del t
        if least.size > _SLAB:
            least.partition(_SLAB)
            least, cut = least[:_SLAB], least[_SLAB]
    least.sort()
    return least


def is_resolving(W: LandmarkSet) -> Certificate:
    """Verify W by comparing the codes of all non-landmarks.

    Each non-landmark v = (a1, a2, a3) gets a 64-bit key, the weighted sum
    of its code: with H_i[a] the weight of block (i, a) and P_ij[a, b] the
    weight of the landmarks in both block (i, a) and block (j, b),

        key(v) = H1[a1] + H2[a2] + H3[a3]
                 - P12[a1, a2] - P13[a1, a3] - P23[a2, a3]   (mod 2**64),

    which is inclusion-exclusion over v's three blocks, exact because no
    landmark lies in all three.  Each weight is multiplied by _GOLDEN,
    which spreads the bitmask weights of the first 64 landmarks upwards,
    and its low b = ceil(log2 |V|) bits are cleared, so every sum keeps
    them clear; v's index (a1 d2 + a2) d3 + a3, zero-based, is added there
    by starting the H1, H2 and H3 tables at its three parts.  Equal codes
    give equal high bits; codes whose high bits repeat are re-checked
    exactly as sets of landmarks, so the verdict and the witness never
    rest on the hash.  The verdict is valid for K = {3} and for the
    complement rule K = {1, 2}: in both regimes a vertex's distance to a
    landmark is fixed by whether the two share a coordinate, so equal
    codes and equal distance vectors are the same thing.

    Two non-landmarks with equal codes are both cross vertices
    (``_cross_vertices``), read off the cross cells of all three axes.
    Where those can be listed, their keys alone are built, in index
    order and a few thousand at a time, and handed to the pair kernel in
    one call, whose least pair is the witness.  A graph of one slab, a
    set with an axis that has no cross cells to list (an empty block, or
    candidates past a quarter of the graph), or one whose cross vertices
    may pass a quarter of it, keys every vertex at once instead, one
    |V|-sized array that the kernel sorts in place.  Graphs above
    VERTEX_LIMIT vertices are refused before anything is allocated.
    """
    g = W.graph
    n, high, o, _, _, index = _layout(g)
    d1, d2, d3 = g.dims
    at, landmarks = W._member_table()
    cross = None
    if n > _SLAB:  # more than one slab of keys: list the vertices to key
        cross = _cross_vertices(at[:, :3] - (0, o[1], o[2]), g.dims, n)
        if cross is not None and not cross.size:
            return _certificate(W, None)  # no two vertices can share a code
    weights = _weights(len(W)) * _GOLDEN
    weights &= high
    table = np.zeros(o[6], dtype=np.uint64)
    table[:o[3]] = index
    # one value per index: numpy 2.4's add.at misreads values broadcast
    # along the last axis of a 2-D index; at most _SLAB entries an add
    step = _SLAB // 6
    for lo in range(0, len(W), step):
        np.add.at(table, at[lo:lo + step, :6].ravel(), weights[lo:lo + step].repeat(6))
    del weights
    p12 = table[o[3]:o[4]].reshape(d1, d2)
    p13 = table[o[4]:o[5]].reshape(d1, d3)
    p23 = table[o[5]:].reshape(d2, d3)
    left = table[:o[1], None] + table[o[1]:o[2]]
    left -= p12  # H1[a1] + H2[a2] - P12[a1, a2]
    right = table[o[2]:o[3]] - p13  # H3[a3] - P13[a1, a3]

    def row_of(i):
        return W._code(_vertex_at(g, i))

    if cross is None:  # every vertex, in index order
        keys = np.add(left[:, :, None], right[:, None, :])
        keys -= p23
        return _certificate(W, _least_equal_pair(keys.reshape(-1), n, landmarks, row_of))
    # each vertex's entries of left, right and p23, a few thousand keys at
    # a time, so that the temporaries stay small beside the keys
    keys = np.empty(cross.size, dtype=np.uint64)
    step = max(1, _SLAB // 8)
    for lo in range(0, cross.size, step):
        # intp indices: numpy's take runs several times slower on int32 ones
        v, k = cross[lo:lo + step].astype(np.intp), keys[lo:lo + step]
        a1, q = v // (d2 * d3), v // d3  # q = a1 d2 + a2
        left.reshape(-1).take(q, out=k)
        k += right.reshape(-1)[v - (q - a1) * d3]  # a1 d3 + a3
        k -= p23.reshape(-1)[v - a1 * (d2 * d3)]  # a2 d3 + a3
    del cross, v, a1, q
    return _certificate(W, _least_equal_pair(keys, n, landmarks, row_of))


def _cross_cells(z, dims, n: int):
    """(cells, owner): the cross candidates along the first axis of the
    set whose members' zero-based coordinates are the rows of ``z``, the
    axis first and ``dims`` in the same order, or None when they pass a
    quarter of the n vertices.  Written here for axis 1; the code
    verifier passes axes 2 and 3 first as well.

    A non-landmark (a1, a2, a3) is a cross candidate when block (1, a) lies
    in block (2, a2) | block (3, a3) for some a != a1: the cell (a2, a3)
    covers block (1, a).  Two non-landmarks with equal codes and distinct
    first coordinates are both candidates, since each one's first block
    lies in the other's code and misses its own first block.  ``cells``
    lists the covering cells as a2 d3 + a3, zero-based and increasing;
    ``owner`` gives per cell the one block it covers, zero-based, or -1
    where it covers two or more, so that every first value but the
    owner's makes a candidate.

    Read off the colour-1 blocks in O(|W|), _SLAB members at a time: a
    covering cell agrees with each member of the block, its last member m
    included, in coordinate 2 or 3.  So it lies in the row through m's
    second coordinate, at the one third coordinate of the members off
    that row, or in the column through m's third, at the one second
    coordinate of the members off that column; a block with no members
    off a line is covered by the whole line.  The row holds the cell
    where the two lines meet, so the column skips it.  An empty block
    covers every cell, which makes most of the graph candidates.  The
    block-cell pairs are listed only if the whole lines among them come
    to at most n / 8 cells, so that the list stays well under the 8n
    bytes of keys for every vertex.
    """
    d1, d2, d3 = dims
    last = np.full(d1, -1)
    for lo in range(0, len(z), _SLAB):
        last[z[lo:lo + _SLAB, 0]] = np.arange(lo, min(lo + _SLAB, len(z)))
    if last.min() < 0:
        return None  # an empty block covers every cell
    m = z[last]  # per block, its last member's coordinates

    def line(t, u):
        # per block, the one coordinate u of its members whose coordinate
        # t is not m's, so that the line through m along t holds one
        # covering cell; -1 if there are no such members, so that all of
        # it covers; -2 if they have several coordinates u, so that none
        # of it covers
        least, most = np.full(d1, max(d2, d3)), np.full(d1, -1)
        for lo in range(0, len(z), _SLAB):
            part = z[lo:lo + _SLAB]
            off = part[:, t] != m[part[:, 0], t]
            blocks, free = part[off, 0], part[off, u]
            np.minimum.at(least, blocks, free)
            np.maximum.at(most, blocks, free)
        most[(most >= 0) & (least != most)] = -2
        return most

    m2, m3 = m[:, 1], m[:, 2]
    row, col = line(1, 2), line(2, 1)
    whole_row, whole_col = (row == -1).nonzero()[0], (col == -1).nonzero()[0]
    if (whole_row.size * d3 + whole_col.size * (d2 - 1)) * 8 > n:
        return None
    one_row = (row >= 0).nonzero()[0]
    one_col = ((col >= 0) & (col != m2)).nonzero()[0]
    others = np.arange(d2) != m2[whole_col, None]  # each column less row m2
    cells = np.concatenate([
        (m2[whole_row, None] * d3 + np.arange(d3)).ravel(),
        (np.arange(d2) * d3 + m3[whole_col, None])[others],
        m2[one_row] * d3 + row[one_row],
        col[one_col] * d3 + m3[one_col],
    ])
    blocks = np.concatenate([whole_row.repeat(d3), whole_col.repeat(d2 - 1),
                             one_row, one_col])
    cells, first, count = np.unique(cells, return_index=True, return_counts=True)
    owner = np.where(count == 1, blocks[first], -1)
    if 4 * (d1 * cells.size - (count == 1).sum()) > n:
        return None
    return cells, owner


def _cross_vertices(z, dims, n: int):
    """The cross vertices of the set whose members' zero-based
    coordinates are the rows of ``z``, as sorted int32 vertex indices;
    or None when the cross cells along some axis are None, or when the
    pieces below may come to more than a quarter of the n vertices.

    Let C_i be the cross candidates along axis i, the vertices on the
    lines along i through the cells that ``_cross_cells`` finds with
    axis i first, less each line's owner, and M_i the lines through the
    cells that cover two or more colour-i blocks, owner and all.  If two
    non-landmarks with equal codes differ in coordinates i and j, both
    lie in C_i and in C_j.  If they differ in coordinate i alone, the
    cell of their line covers both their colour-i blocks, so both lie in
    M_i.  So every such pair lies in S = M_1 | M_2 | M_3 | (C_1 & C_2) |
    (C_1 & C_3) | (C_2 & C_3), the cross vertices.  A line along i and a
    line along j meet in one vertex when they share their third
    coordinate, so each C_i & C_j is a join of the two cell lists on that
    coordinate, less the vertices at either line's owner; no C_i, about
    4n^2 vertices on the n-diagonal bases, is ever listed.  The pieces'
    sizes are bounded from the cell lists before any is built: d_i per
    M_i line and one per pair of lines that meet.  They hold at most
    n / 4 indices in all, and S is their sorted union; int32 holds any
    index, since VERTEX_LIMIT is below 2**31.
    """
    stride = (dims[1] * dims[2], dims[2], 1)
    lines = []  # per axis i, its cells' coordinates as rows, the owner in row i
    for i, order in enumerate(((0, 1, 2), (1, 0, 2), (2, 0, 1))):
        c = _cross_cells(z[:, order], [dims[t] for t in order], n)
        if c is None:
            return None
        cells, owner = c
        x = np.empty((3, cells.size), dtype=np.int32)
        x[i] = owner
        x[order[1]], x[order[2]] = np.divmod(cells, dims[order[2]])
        lines.append(x)
    size = sum(int((x[i] < 0).sum()) * dims[i] for i, x in enumerate(lines))
    joins = []  # C_i & C_j, joined on coordinate s
    for i, j in ((0, 1), (0, 2), (1, 2)):
        s = 3 - i - j
        count = np.bincount(lines[j][s], minlength=dims[s])
        reps = count[lines[i][s]]  # per axis-i line, the axis-j lines it meets
        size += int(reps.sum())
        joins.append((i, j, s, count, reps))
    if 4 * size > n:
        return None
    out = []
    for i, x in enumerate(lines):  # M_i: whole lines, stride[i] apart
        whole = x[:, x[i] < 0]
        whole[i] = 0
        start = whole[0] * stride[0] + whole[1] * stride[1] + whole[2]
        out.append((start[:, None] + np.arange(dims[i], dtype=np.int32) * stride[i]).ravel())
    for i, j, s, count, reps in joins:
        x, y = lines[i], lines[j]
        y = y[:, np.argsort(y[s])]
        # the pairs' y cells: per x cell, the run of y's cells of its
        # coordinate s, from that run's first position on
        first = (np.cumsum(count) - count)[x[s]]
        yi = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps - first, reps)
        vi = y[i].take(yi)  # the meeting vertex's coordinate i
        keep = np.repeat(x[i], reps) != vi  # not at x's owner
        keep &= np.repeat(x[j], reps) != y[j].take(yi)  # nor at y's
        del yi
        v = np.repeat(x[j] * stride[j] + x[s] * stride[s], reps)
        v += vi * stride[i]
        out.append(v[keep])
        del v, vi, keep
    cross = np.concatenate(out)
    del out
    cross.sort()
    first = np.ones(cross.size, dtype=bool)  # of its run of equal indices
    np.not_equal(cross[1:], cross[:-1], out=first[1:])
    return cross[first]


def is_resolving_by_distance(W: LandmarkSet) -> Certificate:
    """Verify W by comparing raw distance vectors, the independent oracle.

    Distances come from the diameter-2 rule: d(v, w) is 1 when v and w
    are adjacent and 2 otherwise.  Adjacency depends only on whether v and
    w share a coordinate, so v's distance vector is a one-to-one function
    of its "shares a coordinate" row over the landmarks (under K = {3} the
    shared entries are at distance 2, under K = {1, 2} at distance 1), and
    equal rows mean equal distance vectors.  A row is the OR of the
    vertex's three coordinate rows, packed 64 landmarks to a word (bit p
    of word k is landmark 64k + p), and is folded to a 64-bit key: one
    word is its own key, and more are each put through the splitmix64
    finalizer and summed with the weight of their first landmark, so that
    structured rows do not cancel.  The key is multiplied by _GOLDEN and
    its low b = ceil(log2 |V|) bits replaced by the vertex index, as in
    ``is_resolving``.  Rows whose high bits repeat are compared exactly,
    word by word.

    The coordinate rows, the ``near`` table, are set straight as words:
    each landmark adds its bit to its three rows.  The vertex rows are
    built and folded a block at a time, by OR-broadcasting the three
    coordinate tables over a rectangle of the index space of at most
    _FOLD_ENTRIES distance entries: a run of whole first-coordinate
    planes while they fit, otherwise a run of rows of one plane, and
    otherwise a segment of one row.  So no |V| x |W| matrix is held for
    any |W|; the time grows as |V| * |W| / 64, and a set whose
    |V| * ceil(|W| / 64) row words exceed ORACLE_WORD_LIMIT is refused
    before anything is allocated.
    """
    g = W.graph
    n, high, o = _layout(g)[:3]
    words = -(-len(W) // 64)
    if n * words > ORACLE_WORD_LIMIT:
        raise Unsupported(f"{n} vertices x {words} landmark words exceeds the distance "
                          f"oracle's {ORACLE_WORD_LIMIT} word limit")
    words = max(words, 1)  # an empty set's rows are one zero word
    _, d2, d3 = g.dims
    at, landmarks = W._member_table()
    # near[k, o[i - 1] + a - 1]: word k of the landmarks whose coordinate i
    # is a; landmark p adds bit p % 64 of word p // 64 to its three rows,
    # where no other landmark sets it.  Word-major, so that the broadcasts
    # below run along whole coordinate ranges, not along a row's words
    near = np.zeros((words, o[3]), dtype=np.uint64)
    for w in range(words):
        block = at[64 * w:64 * w + 64, :3]
        np.add.at(near[w], block.ravel(), _BITS[:len(block)].repeat(3))
    near1, near2, near3 = near[:, :o[1]], near[:, o[1]:o[2]], near[:, o[2]:]
    r = _weights(64 * words)[::64]  # the weight of each word's first landmark

    def row_of(i):
        # the landmarks sharing a coordinate with vertex i, 64 to a word
        q, c = divmod(i, d3)
        a, b = divmod(q, d2)
        return (near1[:, a] | near2[:, b] | near3[:, c]).tobytes()

    def rows_of(s1, s2, s3):
        # word k of each row of a block, in index order, as row k
        return (near1[:, s1, None, None] | near2[:, None, s2, None]
                | near3[:, None, None, s3]).reshape(words, -1)

    keys = np.empty(n, dtype=np.uint64)
    lo = 0
    for block in _blocks(g.dims, max(1, _FOLD_ENTRIES // (64 * words))):
        k = r @ _mix(rows_of(*block)) if words > 1 else rows_of(*block)[0]
        hi = lo + k.size
        k *= _GOLDEN
        k &= high
        k |= np.arange(lo, hi, dtype=np.uint64)
        keys[lo:hi] = k
        lo = hi
    return _certificate(W, _least_equal_pair(keys, n, landmarks, row_of))


def _blocks(dims, step: int):
    """Slice triples (first, second, third coordinate) of the blocks that
    tile the vertex index space in order, each block at most step
    vertices and a contiguous index range: runs of whole first-coordinate
    planes while a plane fits, else runs of rows of one plane while a row
    fits, else segments of one row."""
    d1, d2, d3 = dims
    whole = slice(None)
    if d2 * d3 <= step:
        k = step // (d2 * d3)
        for a in range(0, d1, k):
            yield slice(a, a + k), whole, whole
    elif d3 <= step:
        k = step // d3
        for a in range(d1):
            for b in range(0, d2, k):
                yield slice(a, a + 1), slice(b, b + k), whole
    else:
        for a in range(d1):
            for b in range(d2):
                for c in range(0, d3, step):
                    yield slice(a, a + 1), slice(b, b + 1), slice(c, c + step)


def _certificate(W: LandmarkSet, pair) -> Certificate:
    g = W.graph
    if pair is None:
        return Certificate(Verdict.RESOLVING, g, landmarks=W)
    x, y = _vertex_at(g, pair[0]), _vertex_at(g, pair[1])
    return Certificate(Verdict.UNRESOLVED, g, landmarks=W, witness=(x, y),
                       _kernel_witness=True)


def lower_bound(n1: int, n2: int, n3: int) -> int:
    """Least possible resolving-set size on the 3-coordinate graph: 2*max - 1.

    Each coordinate's blocks must pairwise sum to at least 3 landmarks,
    which forces at least 2*max(n1, n2, n3) - 1 landmarks in total.
    """
    if not all(_whole(d, 3) for d in (n1, n2, n3)):
        raise Unsupported(f"lower bound needs integer dims >= 3, got {(n1, n2, n3)!r}")
    return 2 * max(n1, n2, n3) - 1


def block_sum_violations(W: LandmarkSet) -> list[tuple[int, int, int]]:
    """All (color, a, b) with a < b where |block(i,a)| + |block(i,b)| < 3.

    Any resolving set has no violations: two vertices differing only in
    coordinate i at values a, b are separated only by those two blocks,
    and small block pairs cannot tell them apart.  Sizes are read off
    ``W.blocks()``, where an absent block is empty.
    """
    blocks = W.blocks()
    out = []
    for i, d in enumerate(W.graph.dims, start=1):
        size = [len(blocks.get((i, a), ())) for a in range(d + 1)]
        out += [(i, a, b) for a, b in combinations(range(1, d + 1), 2) if size[a] + size[b] < 3]
    return out


def loop_profile(W: LandmarkSet) -> dict[int, tuple[int, int, int]]:
    """Per color: (number of size-1 blocks, size-2 blocks, larger blocks).

    A minimum-size resolving set of 2n - 1 landmarks on the n-diagonal
    graph always shows (1, n - 1, 0) in every color.  Counted in one pass
    over ``W.blocks()``, which holds the nonempty blocks only.
    """
    counts = {i: [0, 0, 0] for i in (1, 2, 3)}
    for (i, _), mems in W.blocks().items():
        counts[i][min(len(mems), 3) - 1] += 1
    return {i: tuple(c) for i, c in counts.items()}


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
    "VERTEX_LIMIT",
    "ORACLE_WORD_LIMIT",
]
