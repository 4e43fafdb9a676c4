"""Landmark sets, distance codes, the two verifiers, and the bounds.

All frozen sets of vertices here were cross-checked against the distance
definition (code(v) = landmarks at distance 2) before being pinned.
"""

import collections
import contextlib
import itertools
import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammingdim import (
    Certificate,
    GhgParams,
    InvalidBlock,
    InvalidVertex,
    IsLandmark,
    LandmarkSet,
    Unsupported,
    Verdict,
    block_sum_violations,
    construct_cubic,
    enumerate_two_basic,
    exists_resolving_of_size,
    extend_triple_looped,
    fixture,
    hamming_graph,
    is_resolving,
    is_resolving_by_distance,
    loop_profile,
    lower_bound,
    metric_basis,
)
from hammingdim import resolving
from hammingdim.hamming import BFS_VERTEX_LIMIT
from hammingdim.resolving import ORACLE_WORD_LIMIT, VERTEX_LIMIT

G3 = hamming_graph(3, 3, 3)

# the 3x3x3 set built from the stored partial square: rows of symbols
# 1 2 3 / 3 1 2 / . . .
FIXTURE_N3 = (
    (1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 3), (2, 2, 1), (2, 3, 2),
)

# four landmarks whose landmark graph is a properly colored K4; fails to
# resolve although every block pair sums to >= 3 would fail anyway
K4_SET = ((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1))


def test_landmark_set_validation():
    with pytest.raises(InvalidVertex):
        LandmarkSet(G3, [(1, 1, 1), (1, 1, 1)])  # duplicate
    with pytest.raises(InvalidVertex):
        LandmarkSet(G3, [(1, 1, 4)])
    with pytest.raises(Unsupported):
        LandmarkSet(hamming_graph(3, 3), [(1, 1)])  # blocks need r = 3


class SubInt(int):
    pass


# members -> (exception, message), or the members kept; on 3x4x5, so each
# coordinate has its own bound
VALIDATION_TABLE = [
    # a coordinate is checked by the one integer rule, and stored as an int
    ([(True, 1, 1)], InvalidVertex, "coordinate 1 of (True, 1, 1) is not an integer"),
    ([(np.int64(1), 1, 1)], None, ((1, 1, 1),)),
    ([(1.0, 1, 1)], InvalidVertex, "coordinate 1 of (1.0, 1, 1) is not an integer"),
    ([("1", 1, 1)], InvalidVertex, "coordinate 1 of ('1', 1, 1) is not an integer"),
    (["abc"], InvalidVertex, "coordinate 1 of ('a', 'b', 'c') is not an integer"),
    ([(1, 0, 1)], InvalidVertex, "coordinate 2 of (1, 0, 1) outside 1..4"),
    ([(4, 1, 1)], InvalidVertex, "coordinate 1 of (4, 1, 1) outside 1..3"),
    ([(1, 1, 6)], InvalidVertex, "coordinate 3 of (1, 1, 6) outside 1..5"),
    ([(1, 1, -1)], InvalidVertex, "coordinate 3 of (1, 1, -1) outside 1..5"),
    ([(1, 1)], InvalidVertex, "(1, 1) is not a 3-tuple"),
    ([(1, 1, 1, 1)], InvalidVertex, "(1, 1, 1, 1) is not a 3-tuple"),
    ([None], InvalidVertex, "None is not a 3-tuple"),
    ([5], InvalidVertex, "5 is not a 3-tuple"),
    ([(SubInt(2), 1, 1)], None, ((2, 1, 1),)),
    ([[3, 4, 5]], None, ((3, 4, 5),)),
    # members are checked in order, each before it is matched against
    # the earlier ones
    ([(0, 1, 1), (1, 1, 1), (1, 1, 1)], InvalidVertex,
     "coordinate 1 of (0, 1, 1) outside 1..3"),
    ([(1, 1, 1), (1, 1, 1), (0, 1, 1)], InvalidVertex, "duplicate landmark (1, 1, 1)"),
    ([(1, 2, 3), (2, 2, 2), (1, 2, 3)], InvalidVertex, "duplicate landmark (1, 2, 3)"),
]


@pytest.mark.parametrize("members, error, expected", VALIDATION_TABLE)
def test_landmark_set_validation_table(members, error, expected):
    g = hamming_graph(3, 4, 5)
    if error is None:
        W = LandmarkSet(g, members)
        assert W.members == expected == tuple(W)
        assert all(type(m) is tuple and all(type(c) is int for c in m) for m in W.members)
        assert W.blocks()[1, expected[0][0]] == W.members
        assert W != expected  # a LandmarkSet equals only a LandmarkSet
    else:
        with pytest.raises(error) as info:
            LandmarkSet(g, members)
        assert str(info.value) == expected


# every integer the package takes by the one rule: a numbers.Integral is
# read as an int, and a float, a bool or a string is refused
INTEGER_TABLE = [
    (lambda: hamming_graph(np.int64(3), 3, 3), None, G3),
    (lambda: hamming_graph(3, 3, SubInt(3), k={np.int8(3)}), None, G3),
    (lambda: is_resolving(LandmarkSet(hamming_graph(np.int64(3), 3, 3), FIXTURE_N3)).verdict,
     None, Verdict.RESOLVING),
    (lambda: hamming_graph(3.0, 3, 3), Unsupported,
     "dimensions must be integers >= 1, got (3.0, 3, 3)"),
    (lambda: hamming_graph(3.5, 3, 3), Unsupported,
     "dimensions must be integers >= 1, got (3.5, 3, 3)"),
    (lambda: hamming_graph(3, True, 3), Unsupported,
     "dimensions must be integers >= 1, got (3, True, 3)"),
    (lambda: hamming_graph(3, "3", 3), Unsupported,
     "dimensions must be integers >= 1, got (3, '3', 3)"),
    (lambda: hamming_graph(3, 3, 3, k={3.0}), Unsupported,
     "K={3.0} must hold integers within 1..3"),
    (lambda: hamming_graph(3, 3, 3, k={True}), Unsupported,
     "K={True} must hold integers within 1..3"),
    (lambda: exists_resolving_of_size(G3, np.int64(6)).to_json(), None,
     exists_resolving_of_size(G3, 6).to_json()),
    (lambda: exists_resolving_of_size(G3, True), Unsupported,
     "size True is not an integer in 1..6; beyond 2n the answer is known"),
    (lambda: exists_resolving_of_size(G3, 5.0), Unsupported,
     "size 5.0 is not an integer in 1..6; beyond 2n the answer is known"),
    (lambda: fixture("n3").block(np.int64(1), SubInt(1)), None,
     frozenset({(1, 1, 1), (1, 2, 2), (1, 3, 3)})),
    (lambda: fixture("n3").block(1, "1"), InvalidBlock, "value '1' outside 1..3"),
    (lambda: fixture("n3").block(1, True), InvalidBlock, "value True outside 1..3"),
    (lambda: fixture("n3").block(1.0, 1), InvalidBlock, "color 1.0 not in 1..3"),
    # K and the dimensions are collections of integers, not one integer
    (lambda: hamming_graph(3, 3, 3, k=3), Unsupported,
     "K must be a collection of integers, got 3"),
    (lambda: GhgParams((3, 3, 3), 3), Unsupported, "K must be a collection of integers, got 3"),
    (lambda: GhgParams(3, frozenset({3})), Unsupported,
     "dimensions must be a collection of integers, got 3"),
]


@pytest.mark.parametrize("call, error, expected", INTEGER_TABLE, ids=[
    "dim-int64", "dim-subclass-k-int8", "int64-graph-verifies", "dim-float", "dim-fraction",
    "dim-bool", "dim-str", "k-float", "k-bool", "size-int64", "size-bool", "size-float",
    "block-int64", "block-value-str", "block-value-bool", "block-color-float",
    "k-int", "params-k-int", "params-dims-int"])
def test_integer_inputs_table(call, error, expected):
    if error is None:
        got = call()
        assert got == expected
        if isinstance(got, GhgParams):
            assert all(type(v) is int for v in (*got.dims, *got.k))
    else:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == expected


def two_basic(n) -> list:
    return [W.members for W in enumerate_two_basic(n, budget=5, seed=7)]


# the entry points that take one integer n or k, by the same rule: a float,
# a string or a bool is refused in a message about that argument, and a
# numpy integer is read as the int it holds
ENTRY_POINT_TABLE = [
    (metric_basis, 7.0, "n must be an integer, got 7.0"),
    (metric_basis, "7", "n must be an integer, got '7'"),
    (metric_basis, True, "n must be an integer, got True"),
    (metric_basis, np.int64(7), None),
    (construct_cubic, 7.0, "k must be an integer, got 7.0"),
    (construct_cubic, "7", "k must be an integer, got '7'"),
    (construct_cubic, True, "k must be an integer, got True"),
    (construct_cubic, np.int64(7), None),
    (lower_bound, 3.5, "lower bound needs integer dims >= 3, got (3.5, 3, 3)"),
    (lower_bound, 7.0, "lower bound needs integer dims >= 3, got (7.0, 3, 3)"),
    (lower_bound, "7", "lower bound needs integer dims >= 3, got ('7', 3, 3)"),
    (lower_bound, True, "lower bound needs integer dims >= 3, got (True, 3, 3)"),
    (lower_bound, np.int64(7), None),
    (two_basic, 3.0, "2-basic enumeration is implemented for n in {3, 4, 5}, got 3.0"),
    (two_basic, 4.0, "2-basic enumeration is implemented for n in {3, 4, 5}, got 4.0"),
    (two_basic, 7.0, "2-basic enumeration is implemented for n in {3, 4, 5}, got 7.0"),
    (two_basic, "7", "2-basic enumeration is implemented for n in {3, 4, 5}, got '7'"),
    (two_basic, True, "2-basic enumeration is implemented for n in {3, 4, 5}, got True"),
    (two_basic, np.int64(3), None),
    (two_basic, np.int64(4), None),
    (two_basic, np.int64(5), None),  # its pair bits overflowed an int64
]


@pytest.mark.parametrize("entry, value, expected", ENTRY_POINT_TABLE,
                         ids=[f"{entry.__name__}-{type(value).__name__}-{value}"
                              for entry, value, _ in ENTRY_POINT_TABLE])
def test_entry_point_integers_table(entry, value, expected):
    call = (lambda v: lower_bound(v, 3, 3)) if entry is lower_bound else entry
    if expected is None:
        assert call(value) == call(int(value))
    else:
        with pytest.raises(Unsupported) as info:
            call(value)
        assert str(info.value) == expected


def test_fixture_blocks():
    W = fixture("n3")
    assert W.members == FIXTURE_N3
    assert W.block(1, 1) == frozenset({(1, 1, 1), (1, 2, 2), (1, 3, 3)})
    assert W.block(3, 1) == frozenset({(1, 1, 1), (2, 2, 1)})
    assert W.block(1, 3) == frozenset()
    with pytest.raises(InvalidBlock):
        W.block(4, 1)
    with pytest.raises(InvalidBlock):
        W.block(1, 9)
    # blocks of one color partition W
    for i in (1, 2, 3):
        sizes = sum(len(W.block(i, a)) for a in (1, 2, 3))
        assert sizes == len(W.members)
    # every nonempty block, read-only
    blocks = W.blocks()
    assert {key: frozenset(mems) for key, mems in blocks.items()} == {
        (i, a): W.block(i, a) for i in (1, 2, 3) for a in (1, 2, 3) if W.block(i, a)}
    with pytest.raises(TypeError):
        blocks[(1, 3)] = ()


def test_code_frozen_and_against_distance():
    W = fixture("n3")
    assert W.code((3, 1, 1)) == frozenset({(1, 1, 1), (2, 1, 3), (2, 2, 1)})
    with pytest.raises(IsLandmark):
        W.code((1, 1, 1))
    for v in G3.vertices():
        if v in W.members:
            continue
        by_distance = {w for w in W.members if G3.distance(v, w) == 2}
        assert W.code(v) == by_distance


def test_code_empty_set():
    W = LandmarkSet(G3, [])
    assert W.code((2, 2, 2)) == frozenset()


def test_is_resolving_fixture():
    cert = is_resolving(fixture("n3"))
    assert cert.verdict is Verdict.RESOLVING
    assert cert.witness is None
    assert is_resolving_by_distance(fixture("n3")).verdict is Verdict.RESOLVING


def test_is_resolving_k4_witness():
    cert = is_resolving(LandmarkSet(G3, K4_SET))
    assert cert.verdict is Verdict.UNRESOLVED
    assert cert.witness == ((1, 1, 2), (1, 1, 3))


def test_is_resolving_empty():
    for verify in (is_resolving, is_resolving_by_distance):  # no words to fold
        cert = verify(LandmarkSet(G3, []))
        assert cert.verdict is Verdict.UNRESOLVED
        assert cert.witness == ((1, 1, 1), (1, 1, 2))


def test_witness_is_lexicographically_least():
    W = LandmarkSet(G3, [(1, 1, 1)])
    cert = is_resolving(W)
    assert cert.witness == ((1, 1, 2), (1, 1, 3))
    # exhaustive check of the claim on a messier set
    W = LandmarkSet(G3, [(1, 1, 1), (2, 2, 2)])
    cert = is_resolving(W)
    colliding = [
        (x, y)
        for x, y in itertools.combinations(
            (v for v in G3.vertices() if v not in W.members), 2
        )
        if W.code(x) == W.code(y)
    ]
    assert cert.witness == min(colliding)


def test_verifiers_agree_and_complement_invariance():
    rng = random.Random(20240311)
    for dims in [(3, 3, 3), (4, 4, 4)]:
        g = GhgParams(dims, frozenset({3}))
        comp = GhgParams(dims, frozenset({1, 2}))
        verts = list(g.vertices())
        for _ in range(30):
            members = rng.sample(verts, rng.randint(1, 10))
            a = is_resolving(LandmarkSet(g, members))
            b = is_resolving_by_distance(LandmarkSet(g, members))
            c = is_resolving(LandmarkSet(comp, members))
            d = is_resolving_by_distance(LandmarkSet(comp, members))
            assert a.verdict == b.verdict == c.verdict == d.verdict
            if a.verdict is Verdict.UNRESOLVED:
                assert a.witness == b.witness == c.witness == d.witness


def refused_before_allocating(verify):
    # 311**3 is just above the limit; 310**3 would be accepted
    g = hamming_graph(311, 311, 311)
    assert g.vertex_count() > VERTEX_LIMIT >= 310**3
    W = LandmarkSet(g, [(1, 1, 1)])
    tracemalloc.start()
    try:
        with pytest.raises(Unsupported, match="limit"):
            verify(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # refused before any vertex-sized allocation


def test_by_distance_size_cap():
    # one limit for both verifiers: 101**3 is answered, 311**3 refused
    W = LandmarkSet(hamming_graph(101, 101, 101), [(1, 1, 1)])
    cert = is_resolving_by_distance(W)
    assert cert.witness == is_resolving(W).witness == ((1, 1, 2), (1, 1, 3))
    refused_before_allocating(is_resolving_by_distance)


def test_oracle_work_limit():
    # metric_basis(310), the largest basis under the vertex limit, comes to
    # 310**3 vertices x 10 row words, just under the oracle's work limit
    assert len(metric_basis(310)) == 619
    assert 310**3 * -(-619 // 64) == 297_910_000 <= ORACLE_WORD_LIMIT == 10 * VERTEX_LIMIT
    # 641 landmarks need 11 words a row (the CLI test checks that nothing
    # of the graph's size is allocated first)
    g = hamming_graph(310, 310, 310)
    W = LandmarkSet(g, [(1, b, c) for b in (1, 2, 3) for c in range(1, 311)][:641])
    with pytest.raises(Unsupported, match="29791000 vertices x 11 landmark words"):
        is_resolving_by_distance(W)


def test_code_verifier_size_cap():
    refused_before_allocating(is_resolving)


@pytest.mark.parametrize("verify", [is_resolving, is_resolving_by_distance])
def test_verifier_peak_under_1_6_key_arrays(verify):
    # keys for every vertex, sorted in place, and slab temporaries: about
    # 1.1 to 1.2 times their 8|V| bytes on the bases, and 1.45 times with
    # one landmark on 101x101x101, where nearly every vertex collides and
    # the tries are taken _SLAB at a time; a sorted copy of the keys, or
    # any other |V|-sized uint64 array, would cross 2 times.  The code
    # verifier keys every vertex here only on the basis less its loop
    # vertex and on the one landmark, where a first value holds no
    # landmark; on the whole basis it keys the cross vertices of all three
    # axes, about 3 per cent of the graph
    B = metric_basis(100)
    one = LandmarkSet(hamming_graph(101, 101, 101), [(1, 1, 1)])
    for W in (B, LandmarkSet(B.graph, B.members[:-1]), one):
        tracemalloc.start()
        try:
            cert = verify(W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 8 * W.graph.vertex_count()
    assert cert.witness == ((1, 1, 2), (1, 1, 3))


def test_code_verifier_peak_under_half_a_key_array():
    # metric_basis(n), whole and less its first member, whose pair
    # (1,5,2), (3,5,2) crosses planes: keying the cross vertices of all
    # three axes, 2 to 3 per cent of the graph, as int32 indices deduped
    # before they are keyed, peaks at about 0.13 times the 8|V| bytes of
    # keys for every vertex at n = 100, and under |V| bytes (0.6 |V|) at
    # n = 150; the member table is a few kB
    for n, bound in ((100, 0.5 * 8), (150, 1)):
        B = metric_basis(n)
        for W, witness in ((B, None),
                           (LandmarkSet(B.graph, B.members[1:]), ((1, 5, 2), (3, 5, 2)))):
            tracemalloc.start()
            try:
                cert = is_resolving(W)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert cert.witness == witness
            assert peak < bound * W.graph.vertex_count()


def least_pair_by_bfs(W):
    """The least pair of non-landmarks with equal distance vectors, the
    vectors taken from breadth-first search, not the diameter-2 rule."""
    tables = [W.graph.bfs_distances_from(w) for w in W.members]
    classes: dict = {}
    for v in W.graph.vertices():
        if v not in W:
            classes.setdefault(tuple(t[v] for t in tables), []).append(v)
    return min(((vs[0], vs[1]) for vs in classes.values() if len(vs) > 1), default=None)


def test_complement_rule_against_bfs_reference():
    rng = random.Random(20261019)
    for dims in [(3, 3, 3), (4, 4, 4)]:
        g = GhgParams(dims, frozenset({1, 2}))
        verts = list(g.vertices())
        for _ in range(30):
            W = LandmarkSet(g, rng.sample(verts, rng.randint(0, 12)))
            want = least_pair_by_bfs(W)
            for verify in (is_resolving, is_resolving_by_distance):
                cert = verify(W)
                assert cert.witness == want
                assert (cert.verdict is Verdict.RESOLVING) == (want is None)


def test_complement_rule_above_bfs_limit():
    g = GhgParams((25, 25, 25), frozenset({1, 2}))
    assert g.vertex_count() > BFS_VERTEX_LIMIT
    B = metric_basis(25)
    for members, verdict in ((B.members, Verdict.RESOLVING),
                             (B.members[:-1], Verdict.UNRESOLVED)):
        W = LandmarkSet(g, members)
        cert = is_resolving_by_distance(W)
        assert cert.verdict is verdict
        assert cert.to_json() == is_resolving(W).to_json()


def least_pair_by_codes(W):
    """The lexicographically least pair of non-landmarks with equal codes."""
    classes: dict = {}
    for v in W.graph.vertices():
        if v not in W:
            classes.setdefault(W.code(v), []).append(v)
    return min(((vs[0], vs[1]) for vs in classes.values() if len(vs) > 1), default=None)


# On 3x3x3 the least colliding pair (1,1,2), (1,3,2) encloses the pair
# (1,2,1), (1,2,3) of another class: in index order the classes read
# A, B, B, A.
INTERLEAVED = ((1, 1, 1), (2, 2, 2), (2, 3, 2), (3, 2, 3))


@pytest.fixture
def zero_weights(monkeypatch):
    # every key collides, so verdicts and witnesses rest on the exact re-check:
    # the code verifier's weights are zero, and so is the multiplier that
    # the oracle's keys of one row word take as their hash
    monkeypatch.setattr(resolving, "_WEIGHTS", np.zeros(4096, dtype=np.uint64))
    monkeypatch.setattr(resolving, "_GOLDEN", np.uint64(0))


@pytest.fixture
def kernel_calls(monkeypatch):
    # per call into the shared pair kernel, in order: the keys as built,
    # their prefixes (all but the low index bits) and the indices whose
    # rows the exact re-check read
    calls = []
    kernel = resolving._least_equal_pair

    def spy(keys, n, landmarks, row_of):
        b = resolving._index_bits(n)[1]
        read = []
        calls.append((keys.copy(), keys >> b, read))

        def logged(i):
            read.append(i)
            return row_of(i)

        return kernel(keys, n, landmarks, logged)

    monkeypatch.setattr(resolving, "_least_equal_pair", spy)
    return calls


def test_forced_collisions_match_brute_force(zero_weights, kernel_calls):
    W = LandmarkSet(G3, INTERLEAVED)
    assert least_pair_by_codes(W) == ((1, 1, 2), (1, 3, 2))
    assert W.code((1, 2, 1)) == W.code((1, 2, 3)) != W.code((1, 1, 2))
    cases = [W]
    rng = random.Random(20261018)
    for g in (G3, hamming_graph(4, 4, 4), GhgParams((3, 3, 3), frozenset({1, 2}))):
        verts = list(g.vertices())
        cases += [LandmarkSet(g, rng.sample(verts, rng.randint(0, 14))) for _ in range(25)]
    g5 = hamming_graph(5, 5, 5)
    verts = list(g5.vertices())
    cases.append(LandmarkSet(g5, rng.sample(verts, 70)))
    cases.append(LandmarkSet(g5, [v for v in verts if v[0] <= 3][:70]))  # unresolved
    assert least_pair_by_codes(cases[-1]) is not None
    for W in cases:
        want = least_pair_by_codes(W)
        for verify in (is_resolving, is_resolving_by_distance):
            cert = verify(W)
            assert cert.witness == want
            assert (cert.verdict is Verdict.RESOLVING) == (want is None)
            # every key shares one prefix, so the verdict came from the re-check
            assert np.unique(kernel_calls[-1][1]).size <= 1


G_INVERSE = pow(int(resolving._GOLDEN), -1, 2**64)


def prefix_key(n, prefix, low):
    """A key with the given prefix in the kernel for n vertices: keys with
    one prefix and distinct low parts differ yet fall in one run."""
    b = (n - 1).bit_length()
    return (((prefix % (1 << (64 - b))) << b) | low % (1 << b)) * G_INVERSE % 2**64


def kernel_keys(keys):
    """The keys as the verifiers build them: each multiplied by _GOLDEN,
    with its index in its low b bits."""
    b = (len(keys) - 1).bit_length()
    return np.array([(k * int(resolving._GOLDEN) % 2**64) >> b << b | i
                     for i, k in enumerate(keys)], dtype=np.uint64)


def least_equal_pair_by_brute_force(rows, keep):
    return next(((i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))
                 if keep[i] and keep[j] and rows[i] == rows[j]), None)


@st.composite
def kernel_cases(draw):
    """Rows, keep flags and keys, each key a function of its row only."""
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.integers(0, draw(st.integers(0, n))), min_size=n, max_size=n))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    word = st.integers(0, 2**64 - 1)
    prefix = draw(st.integers(0, 2**10))
    key = draw(st.sampled_from([
        word,
        st.builds(lambda high: high << 20 | 0x5A5A5, st.integers(0, 2**44 - 1)),  # low bits shared
        st.builds(lambda low: prefix_key(n, prefix, low), word),  # prefix shared
        st.just(draw(word)),  # every key equal
        st.sampled_from(draw(st.lists(word, min_size=2, max_size=3, unique=True))),
    ]))
    key_of = {row: draw(key) for row in sorted(set(rows))}
    return rows, keep, [key_of[row] for row in rows]


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_least_equal_pair_against_brute_force(case):
    rows, keep, keys = case
    want = least_equal_pair_by_brute_force(rows, keep)
    landmarks = {i for i, kept in enumerate(keep) if not kept}

    def row_of(i):
        assert i not in landmarks
        return rows[i]

    # slabs of 2 and 3 keys put runs across slab boundaries and take the
    # tries over several passes
    for slab in (resolving._SLAB, 2, 3):
        with mock.patch.object(resolving, "_SLAB", slab):
            pair = resolving._least_equal_pair(kernel_keys(keys), len(keys), landmarks, row_of)
        assert pair == want


def test_least_equal_pair_prefix_collision_before_witness():
    # index 0's key is unique but shares its prefix with the key of the
    # witness (3, 6); indices 1 and 2 share a key by a hash collision; the
    # landmark 8 has the witness's key
    rows = [0, 1, 2, 3, 4, 5, 3, 6, 3]
    keys = [prefix_key(9, 5, 1), 17, 17, prefix_key(9, 5, 2), 90, 91,
            prefix_key(9, 5, 2), 92, prefix_key(9, 5, 2)]
    tried = []

    def row_of(i):
        tried.append(i)
        return rows[i]

    assert resolving._least_equal_pair(kernel_keys(keys), 9, {8}, row_of) == (3, 6)
    # rows are read only for kept indices with a later kept index of the
    # same prefix, in index order, and for those later indices: never for
    # 4, 5 and 7, whose prefixes are unique, nor for the landmark 8, nor
    # for index 2 as a first index, the last of its run
    assert tried == [0, 3, 6, 1, 2, 3, 6]
    assert 8 not in tried


def index_of(g, v):
    return int(np.ravel_multi_index(tuple(a - 1 for a in v), g.dims))


def test_landmark_key_equal_to_a_non_landmark_key(kernel_calls):
    # a landmark's key is built like any vertex's; here it ties a
    # non-landmark's, yet the landmark is neither paired nor read
    W = LandmarkSet(G3, [(1, 1, 1), (1, 2, 2)])
    want = least_pair_by_codes(W)
    for verify, twin in ((is_resolving, (2, 2, 3)), (is_resolving_by_distance, (1, 3, 3))):
        assert verify(W).witness == want
        _, prefixes, read = kernel_calls[-1]
        assert prefixes[0] == prefixes[index_of(G3, twin)]  # (1,1,1) is index 0
        assert not {0, index_of(G3, (1, 2, 2))} & set(read)


@pytest.mark.parametrize("dims", [(4, 4, 4), (4, 4, 5), (4, 4, 8), (8, 8, 8)])
def test_index_bits_at_the_prefix_boundary(dims, kernel_calls):
    # |V| = 64, 80, 128 and 512: the greatest index sets the top index
    # bit, the one just under the prefix, or the bit below it
    g = GhgParams(dims, frozenset({3}))
    n = g.vertex_count()
    b = (n - 1).bit_length()
    assert (n - 1) >> (b - 1) == 1
    rng = random.Random(sum(dims))
    verts = list(g.vertices())
    cases = [LandmarkSet(g, rng.sample(verts, rng.randint(0, 2 * max(dims) + 2)))
             for _ in range(12)]
    cases.append(LandmarkSet(g, [v for v in verts if v[2] == 1]))
    for W in cases:
        want = least_pair_by_codes(W)
        for verify in (is_resolving, is_resolving_by_distance):
            assert verify(W).witness == want
            keys = kernel_calls[-1][0]
            # every index is whole in the low bits, and no carry from it
            # reaches the prefix
            assert np.array_equal(keys & np.uint64((1 << b) - 1), np.arange(n))


dims_and_members = st.tuples(st.integers(3, 6), st.integers(3, 6), st.integers(3, 6)).flatmap(
    lambda dims: st.tuples(
        st.just(dims),
        st.sets(st.tuples(*(st.integers(1, d) for d in dims)), max_size=20),
    )
)


@given(dims_and_members)
@settings(max_examples=80, deadline=None)
def test_unequal_dims_against_brute_force(case):
    dims, members = case
    W = LandmarkSet(GhgParams(dims, frozenset({3})), sorted(members))
    assert is_resolving(W).witness == least_pair_by_codes(W)


def cross_cells_by_brute_force(W):
    """Per cell (a2, a3) that covers some colour-1 block, lies in block
    (2, a2) | block (3, a3), keyed as a2 d3 + a3 zero-based: the one block
    it covers, zero-based, or -1 if it covers several."""
    d1, d2, d3 = W.graph.dims
    blocks = [[W.block(i, a) for a in range(1, d + 1)] for i, d in enumerate(W.graph.dims, 1)]
    out = {}
    for a2, a3 in itertools.product(range(d2), range(d3)):
        union = blocks[1][a2] | blocks[2][a3]
        covered = [a for a in range(d1) if blocks[0][a] <= union]
        if covered:
            out[a2 * d3 + a3] = covered[0] if len(covered) == 1 else -1
    return out


def cross_candidate_sets(rng):
    """Seeded sets on unequal shapes from 3x3x4 to 5x7x7 under K = {3} and
    K = {1, 2}: random members, or per first value a block that is empty
    or whose members share coordinate 2 or 3 with one chosen (b, c), on
    both sides of it or, one set in four, on sides drawn freely, so that
    a block may be single or lie on one row or column; then
    metric_basis(5..9) less 0 to 3 landmarks."""
    for t in range(240):
        # d1 below d2 d3 / 4 mostly, since each block covers a cell or more
        dims = (rng.randint(3, 5), rng.randint(3, 7), rng.randint(4, 7))
        d1, d2, d3 = dims
        g = GhgParams(dims, frozenset({3}) if t % 2 else frozenset({1, 2}))
        if t % 4 == 0:
            members = rng.sample(list(g.vertices()), rng.randint(0, 3 * max(dims)))
        else:
            members = set()
            for a in range(1, d1 + 1):
                if rng.random() < 0.05:
                    continue  # an empty first block
                b, c = rng.randint(1, d2), rng.randint(1, d3)
                sides = [0, 1] if t % 4 != 3 else [rng.randint(0, 1)]
                sides += [rng.randint(0, 1) for _ in range(rng.randint(0, 2))]
                for side in sides:
                    members.add((a, b, rng.randint(1, d3)) if side else (a, rng.randint(1, d2), c))
            members = sorted(members)
            rng.shuffle(members)
        yield LandmarkSet(g, members)
    for n in range(5, 10):
        B = metric_basis(n)
        for k in (0, 1, 1, 2, 2, 3, 3):
            drop = rng.sample(range(len(B)), k)
            yield LandmarkSet(B.graph, [v for i, v in enumerate(B.members) if i not in drop])


def zero_based(W):
    """The members' zero-based coordinates, one row each."""
    at, o = W._member_table()[0], resolving._layout(W.graph)[2]
    return at[:, :3] - (0, o[1], o[2])


# per axis, the coordinates in the order the code verifier hands them to
# _cross_cells: the axis first, then the other two in order
AXIS_ORDERS = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def covers(W, n):
    """Per axis, _cross_cells of W with the axis first and quarter
    threshold n."""
    z, dims = zero_based(W), W.graph.dims
    return [resolving._cross_cells(z[:, order], [dims[t] for t in order], n)
            for order in AXIS_ORDERS]


def code_route(W, kernel_calls, lift=False):
    """(route, certificate, kernel calls) of is_resolving on W with slabs
    of one plane, so that it looks for the vertices to key, and with no
    size threshold if ``lift``.  The route is "three-axis" where
    _cross_vertices lists those vertices, else "one array"."""
    g = W.graph
    n, (_, d2, d3) = g.vertex_count(), g.dims
    cells, vertices = resolving._cross_cells, resolving._cross_vertices
    calls = len(kernel_calls)
    with contextlib.ExitStack() as patches:
        patches.enter_context(mock.patch.object(resolving, "_SLAB", d2 * d3))
        if lift:
            patches.enter_context(mock.patch.object(
                resolving, "_cross_cells", lambda z, dims, n: cells(z, dims, math.inf)))
            patches.enter_context(mock.patch.object(
                resolving, "_cross_vertices", lambda z, dims, n: vertices(z, dims, math.inf)))
        cert = is_resolving(W)
        cross = resolving._cross_vertices(zero_based(W), g.dims, n)
    made = kernel_calls[calls:]
    if cross is None:
        assert len(made) == 1 and made[0][0].size == n
        return "one array", cert, made
    assert len(made) == (1 if cross.size else 0)
    return "three-axis", cert, made


def test_cross_candidates_against_brute_force(kernel_calls):
    # A vertex with an equal code in another first-coordinate plane is a
    # cross candidate: the cell of its last two coordinates covers the
    # colour-1 block of some other first value.  Checked here from the
    # codes and blocks alone, then the cells and owners that _cross_cells
    # reads off the blocks, with its quarter fallback off (n = inf), then
    # the witness of is_resolving with slabs of one plane.  Each case must
    # be met often: an empty first block, too many candidates, and
    # candidates with a pair across planes
    routes = collections.Counter()
    for W in cross_candidate_sets(random.Random(20261020)):
        g = W.graph
        n, (d1, d2, d3) = g.vertex_count(), g.dims
        want_cells = cross_cells_by_brute_force(W)
        classes: dict = {}
        for v in g.vertices():
            if v not in W:
                classes.setdefault(W.code(v), []).append(v)
        across = [v for vs in classes.values() for v in vs if any(u[0] != v[0] for u in vs)]
        for a1, a2, a3 in across:
            assert want_cells.get((a2 - 1) * d3 + a3 - 1, a1 - 1) != a1 - 1
        cover = resolving._cross_cells(zero_based(W), g.dims, math.inf)
        route = "empty block"
        if cover is not None:
            cells, owner = cover
            assert dict(zip(cells.tolist(), owner.tolist())) == want_cells
            route = "quarter" if covers(W, n)[0] is None else "candidates"
        routes[route] += 1
        routes["candidates, across planes"] += route == "candidates" and bool(across)
        _, cert, _ = code_route(W, kernel_calls)
        want = least_pair_by_codes(W)
        assert cert.witness == want
        assert (cert.verdict is Verdict.RESOLVING) == (want is None)
    assert min(routes[r] for r in ("empty block", "quarter", "candidates, across planes")) >= 20, \
        routes


def permuted(W, order):
    """W with its coordinates taken in ``order``, zero-based positions."""
    g = W.graph
    return LandmarkSet(GhgParams(tuple(g.dims[t] for t in order), g.k),
                       [tuple(v[t] for t in order) for v in W.members])


def cross_vertices_by_brute_force(W):
    """(S, size): S the zero-based indices of M_1 | M_2 | M_3 | (C_1 & C_2)
    | (C_1 & C_3) | (C_2 & C_3), size the bound that _cross_vertices
    checks, |M_1| + |M_2| + |M_3| + |L_1 & L_2| + |L_1 & L_3| + |L_2 &
    L_3|.  L_i holds the vertices whose cell along axis i covers some
    colour-i block, C_i those whose cell covers one other than theirs,
    and M_i those whose cell covers two or more."""
    dims = W.graph.dims
    L, C, M = [], [], []
    for i, order in enumerate(AXIS_ORDERS):
        owners = cross_cells_by_brute_force(permuted(W, order))
        L.append(set())
        C.append(set())
        M.append(set())
        for v in itertools.product(*map(range, dims)):
            owner = owners.get(v[order[1]] * dims[order[2]] + v[order[2]])
            if owner is not None:
                L[i].add(v)
            if owner is not None and owner != v[i]:
                C[i].add(v)
            if owner == -1:
                M[i].add(v)
    pieces = M + [C[0] & C[1], C[0] & C[2], C[1] & C[2]]
    return ({(v[0] * dims[1] + v[1]) * dims[2] + v[2] for v in set().union(*pieces)},
            sum(map(len, M + [L[0] & L[1], L[0] & L[2], L[1] & L[2]])))


def test_three_axis_candidates_against_brute_force(kernel_calls):
    # Two non-landmarks with equal codes lie in M_i when they differ in
    # coordinate i alone and in C_i & C_j when they differ in i and j, so
    # both lie in S = M_1 | M_2 | M_3 | (C_1 & C_2) | (C_1 & C_3) | (C_2 &
    # C_3).  Checked from codes on the candidate sets and their two
    # coordinate rotations, both K rules, with slabs of one plane.  With
    # the size thresholds lifted, an empty block on any axis keys one
    # array, and otherwise the code verifier keys exactly S in one kernel
    # call; with them, S is keyed only where every axis has cross cells
    # and the bound on its pieces comes to at most a quarter of the graph.
    # On every route the witness is the least pair.  The spread sets give
    # every block members off each line through any cell, so that no cell
    # covers a block and S is empty.  On the last sets, metric_basis(n)
    # whole and less its first member, the bound crosses a quarter of the
    # graph near n = 18 and n = 24, where its M lines weigh too: less its
    # first member, metric_basis(23) and (24) pass a quarter only with
    # them.  Several of these pass an eighth on either route
    routes = collections.Counter()
    spread = [LandmarkSet(g, [v for v in g.vertices() if sum(v) % 3 == 0])
              for g in (hamming_graph(4, 4, 4), GhgParams((3, 5, 6), frozenset({1, 2})))]
    bases = [W for B in map(metric_basis, (17, 18, 23, 24, 25))
             for W in (B, LandmarkSet(B.graph, B.members[1:]))]
    for base in itertools.chain(cross_candidate_sets(random.Random(20261021)), spread, bases):
        for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            W = permuted(base, order)
            g = W.graph
            n, (_, d2, d3) = g.vertex_count(), g.dims
            want_s, size = cross_vertices_by_brute_force(W)
            classes: dict = {}
            for v in g.vertices():
                if v not in W:
                    classes.setdefault(W._code(v), []).append((v[0] - 1) * d2 * d3
                                                              + (v[1] - 1) * d3 + v[2] - 1)
            assert all(i in want_s for vs in classes.values() if len(vs) > 1 for i in vs)
            want = least_pair_by_codes(W)
            route, cert, made = code_route(W, kernel_calls)
            assert cert.witness == want
            covered = None not in covers(W, n)
            assert (route == "three-axis") == (covered and 4 * size <= n)
            routes["S past a quarter"] += covered and route == "one array"
            routes["past an eighth", route] += 8 * size > n
            route, cert, made = code_route(W, kernel_calls, lift=True)
            assert cert.witness == want
            routes[route] += 1
            if route == "three-axis":
                keys = made[0][0] if made else np.empty(0, dtype=np.uint64)
                indices = keys & np.uint64((1 << (n - 1).bit_length()) - 1)
                assert sorted(indices.tolist()) == sorted(want_s)
                routes["three-axis, pairs"] += want is not None
                routes["three-axis, S empty"] += not want_s
    assert min(routes[r] for r in ("three-axis", "one array", "three-axis, pairs")) >= 20, routes
    assert routes["three-axis, S empty"] == 6 and routes["S past a quarter"] >= 3, routes
    assert min(routes["past an eighth", r] for r in ("three-axis", "one array")) >= 3, routes



def test_many_lanes_against_brute_force():
    B = metric_basis(35)
    assert len(B) == 69  # keys mix exact bits and splitmix64 weights past 64
    for W in (B, *(LandmarkSet(B.graph, B.members[:k] + B.members[k + 1:]) for k in (0, 40, 68))):
        want = least_pair_by_codes(W)
        assert is_resolving(W).witness == want
        assert is_resolving_by_distance(W).witness == want


# pinned from a dense-table implementation independent of the key kernel
@pytest.mark.parametrize("k, witness", [
    (0, ((1, 5, 2), (3, 5, 2))),
    (1, ((1, 5, 65), (65, 5, 1))),
    (64, ((1, 1, 3), (1, 5, 3))),
    (100, ((16, 31, 65), (16, 65, 51))),
    (128, ((1, 1, 33), (1, 65, 33))),
])
def test_metric_basis_65_less_one_witnesses(k, witness):
    B = metric_basis(65)
    W = LandmarkSet(B.graph, B.members[:k] + B.members[k + 1:])
    assert is_resolving(W).witness == witness
    assert is_resolving_by_distance(W).witness == witness


@pytest.mark.parametrize("m", [63, 64, 65, 127, 128, 129])
def test_oracle_word_boundaries(m):
    rng = random.Random(m)
    for dims in ((6, 6, 6), (5, 6, 7)):
        g = GhgParams(dims, frozenset({3}))
        W = LandmarkSet(g, rng.sample(list(g.vertices()), m))
        assert is_resolving_by_distance(W).witness == least_pair_by_codes(W)
    # metric_basis(n) has 2n - 1 landmarks; drop two at m = 63, 65, 127
    # and 129, and one at m = 64; m = 128 is pinned on metric_basis(65)
    if m != 128:
        B = metric_basis(m // 2 + 1 + m % 2)
        drop = rng.sample(range(len(B)), len(B) - m)
        W = LandmarkSet(B.graph, [v for k, v in enumerate(B.members) if k not in drop])
        assert len(W) == m and len(B) - m in (1, 2)
        want = least_pair_by_codes(W)
        assert want is not None  # the basis is a least resolving set
        assert is_resolving_by_distance(W).witness == want


@pytest.mark.parametrize("n", [65, 100])
def test_basis_keys_never_collide(n, kernel_calls):
    # a fold that lets structured rows cancel repeats prefixes here and
    # sends non-landmarks to the exact re-check.  The code verifier makes
    # one kernel call, on the cross vertices of all three axes: every
    # axis of the basis has cross cells, and they are 4.8 and 3.1 per
    # cent of the graph
    for verify, calls in ((is_resolving, 1), (is_resolving_by_distance, 2)):
        assert verify(metric_basis(n)).verdict is Verdict.RESOLVING
        assert len(kernel_calls) == calls
        assert all(read == [] for _, _, read in kernel_calls)
    assert kernel_calls[0][0].size == {65: 13048, 100: 30583}[n]


@pytest.mark.parametrize("dims", [(5, 6, 7), (4, 3, 11)])
def test_oracle_blocks_build_the_same_keys(dims, kernel_calls):
    # blocks of one vertex up to nearly two planes: segments of a row,
    # runs of rows and runs of planes, each kind cut short at its ends,
    # must build the keys that one block of every vertex builds
    g = GhgParams(dims, frozenset({3}))
    _, d2, d3 = dims
    rng = random.Random(sum(dims))
    verts = list(g.vertices())
    for m in (0, 5, 20, 64, 65, 130):
        W = LandmarkSet(g, rng.sample(verts, m))
        entries = 64 * max(1, -(-m // 64))  # per vertex
        is_resolving_by_distance(W)
        want = kernel_calls[-1][0]
        for step in (1, 2, d3 - 1, d3, d3 + 1, 2 * d3 + 1, d2 * d3, d2 * d3 + 1,
                     2 * d2 * d3 - 1):
            with mock.patch.object(resolving, "_FOLD_ENTRIES", step * entries):
                assert is_resolving_by_distance(W).witness == least_pair_by_codes(W)
            assert np.array_equal(kernel_calls[-1][0], want)


def test_oracle_slabs_bound_memory():
    # a first-coordinate value of 30x30x30 holds 900 * 3,000 distance
    # entries, 2.6 MB as bools, past one slab's budget
    g = hamming_graph(30, 30, 30)
    assert 900 * 3000 > resolving._FOLD_ENTRIES
    verts = list(g.vertices())
    for members in (random.Random(20261020).sample(verts, 3000),
                    [v for v in verts if v[0] <= 4][:3000]):  # unresolved
        W = LandmarkSet(g, members)
        tracemalloc.start()
        try:
            cert = is_resolving_by_distance(W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert cert.witness == is_resolving(W).witness
    assert cert.verdict is Verdict.UNRESOLVED


def test_oracle_row_segments_bound_memory():
    # 200 landmarks take 4 words a row, so a block holds 4,096 vertices and
    # a row of 20,000 is cut into segments; nearly every vertex collides.
    # The near table, 20,006 rows of 4 words, is 0.44 times the keys' 8|V|
    # bytes; one byte per landmark and coordinate value would be 3.6 times
    # and take the oracle's peak to 4.1 times
    g = hamming_graph(3, 3, 20000)
    assert 20000 > resolving._FOLD_ENTRIES // (64 * 4)
    W = LandmarkSet(g, random.Random(20261021).sample(list(g.vertices()), 200))
    tracemalloc.start()
    try:
        cert = is_resolving_by_distance(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * g.vertex_count()
    assert cert.witness == is_resolving(W).witness == ((1, 1, 1), (1, 1, 2))


def member_table_cases():
    """Every n = 3 system, a seeded n = 5 sample, the lift of each, and
    metric_basis(65) less one landmark."""
    systems = [*enumerate_two_basic(3), *enumerate_two_basic(5, budget=40, seed=20261021)]
    B = metric_basis(65)
    return [*systems, *map(extend_triple_looped, systems),
            LandmarkSet(B.graph, B.members[:40] + B.members[41:])]


def test_member_table_shared_and_read_only():
    for W in member_table_cases():
        # each verifier on a set of its own, then both on one set in
        # either order, and on a fresh equal set
        want = [verify(LandmarkSet(W.graph, W.members)).to_json()
                for verify in (is_resolving, is_resolving_by_distance)]
        assert want[0] == want[1]
        for order in (1, -1):
            for V in (W, LandmarkSet(W.graph, W.members)):
                got = [verify(V).to_json()
                       for verify in (is_resolving, is_resolving_by_distance)[::order]]
                assert got == want
        table = W._table
        assert table is W._member_table()  # built once, on first use
        at, landmarks = table
        assert isinstance(landmarks, frozenset) and not at.flags.writeable
        with pytest.raises(ValueError):
            at[0, 0] = 0
        assert landmarks == {index_of(W.graph, v) for v in W.members}


@given(st.sets(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
               min_size=5, max_size=9),
       st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))
@settings(max_examples=150, deadline=None)
def test_monotonicity(members, extra):
    W = LandmarkSet(G3, sorted(members))
    if is_resolving(W).verdict is Verdict.RESOLVING and extra not in members:
        bigger = LandmarkSet(G3, sorted(members | {extra}))
        assert is_resolving(bigger).verdict is Verdict.RESOLVING


def test_lower_bound():
    assert lower_bound(3, 3, 3) == 5
    assert lower_bound(4, 4, 4) == 7
    assert lower_bound(5, 7, 11) == 21
    with pytest.raises(Unsupported):
        lower_bound(2, 3, 3)


def test_block_sum_violations():
    assert block_sum_violations(fixture("n3")) == []
    single = LandmarkSet(G3, [(1, 1, 1)])
    viols = block_sum_violations(single)
    assert {i for (i, _, _) in viols} == {1, 2, 3}
    assert (1, 2, 3) in viols  # two empty blocks
    assert all(a < b for (_, a, b) in viols)


def test_loop_profile():
    prof = loop_profile(metric_basis(5))
    assert prof == {1: (1, 4, 0), 2: (1, 4, 0), 3: (1, 4, 0)}


def test_certificate_construction_checks():
    W = LandmarkSet(G3, K4_SET)
    with pytest.raises(Unsupported):
        Certificate(Verdict.UNRESOLVED, G3)  # no landmarks
    with pytest.raises(Unsupported, match="needs a witness or an attestation"):
        Certificate(Verdict.UNRESOLVED, G3, landmarks=W)
    with pytest.raises(Unsupported, match="a witness pair needs its landmark set"):
        Certificate(Verdict.DIMENSION, G3, witness=((1, 1, 2), (3, 3, 3)))
    with pytest.raises(InvalidVertex):
        Certificate(Verdict.UNRESOLVED, G3, landmarks=W,
                    witness=((1, 1, 2), (1, 1, 2)))
    with pytest.raises(InvalidVertex):
        # (3,3,3) has empty code, (1,1,2) does not
        Certificate(Verdict.UNRESOLVED, G3, landmarks=W,
                    witness=((1, 1, 2), (3, 3, 3)))


def test_witness_recheck_survives_tampering():
    # the verifiers' own witnesses skip vertex validation, not the code
    # check; a caller-built certificate gets both
    W = LandmarkSet(G3, K4_SET)
    x, y = is_resolving(W).witness
    assert Certificate(Verdict.UNRESOLVED, G3, landmarks=W, witness=(x, y)).witness == (x, y)
    with pytest.raises(InvalidVertex):  # codes differ
        Certificate(Verdict.UNRESOLVED, G3, landmarks=W, witness=(x, (3, 3, 3)))
    with pytest.raises(InvalidVertex):  # codes differ, even from a verifier
        Certificate(Verdict.UNRESOLVED, G3, landmarks=W, witness=(x, (3, 3, 3)),
                    _kernel_witness=True)
    with pytest.raises(InvalidVertex):  # outside the graph
        Certificate(Verdict.UNRESOLVED, G3, landmarks=W, witness=(x, (1, 1, 4)))
    with pytest.raises(InvalidVertex):  # not a vertex at all
        Certificate(Verdict.UNRESOLVED, G3, landmarks=W, witness=(x, [1, 1, 3]))
    with pytest.raises(IsLandmark):
        Certificate(Verdict.UNRESOLVED, G3, landmarks=W, witness=(x, (1, 1, 1)))


def test_certificate_json():
    cert = is_resolving(LandmarkSet(G3, K4_SET))
    doc = json.loads(cert.to_json())
    assert doc["schema"] == "hammingdim/certificate-v1"
    assert doc["verdict"] == "UNRESOLVED"
    assert doc["graph"] == "3x3x3;K=3"
    assert doc["witness"] == ["1,1,2", "1,1,3"]
    assert doc["landmarks"] == ["1,1,1", "1,2,2", "2,1,2", "2,2,1"]
