"""Landmark sets, distance codes, the two verifiers, and the bounds.

All frozen sets of vertices here were cross-checked against the distance
definition (code(v) = landmarks at distance 2) before being pinned.
"""

import itertools
import json
import random
import tracemalloc

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
    fixture,
    hamming_graph,
    is_resolving,
    is_resolving_by_distance,
    loop_profile,
    lower_bound,
    metric_basis,
)
from hammingdim import resolving
from hammingdim.resolving import CODE_VERTEX_LIMIT

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
    cert = is_resolving(LandmarkSet(G3, []))
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


def test_by_distance_size_cap():
    g = hamming_graph(101, 101, 101)
    with pytest.raises(Unsupported):
        is_resolving_by_distance(LandmarkSet(g, [(1, 1, 1)]))


def test_code_verifier_size_cap():
    # 311**3 is just above the limit; 310**3 would be accepted
    g = hamming_graph(311, 311, 311)
    assert g.vertex_count() > CODE_VERTEX_LIMIT >= 310**3
    W = LandmarkSet(g, [(1, 1, 1)])
    tracemalloc.start()
    try:
        with pytest.raises(Unsupported, match="limit"):
            is_resolving(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # refused before any vertex-sized allocation


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
    # every key collides, so verdicts and witnesses rest on the exact re-check
    monkeypatch.setattr(resolving, "_WEIGHTS", np.zeros(4096, dtype=np.uint64))


def test_forced_collisions_match_brute_force(zero_weights):
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
    with pytest.raises(InvalidVertex):
        Certificate(Verdict.UNRESOLVED, G3, landmarks=W,
                    witness=((1, 1, 2), (1, 1, 2)))
    with pytest.raises(InvalidVertex):
        # (3,3,3) has empty code, (1,1,2) does not
        Certificate(Verdict.UNRESOLVED, G3, landmarks=W,
                    witness=((1, 1, 2), (3, 3, 3)))


def test_certificate_json():
    cert = is_resolving(LandmarkSet(G3, K4_SET))
    doc = json.loads(cert.to_json())
    assert doc["schema"] == "hammingdim/certificate-v1"
    assert doc["verdict"] == "UNRESOLVED"
    assert doc["graph"] == "3x3x3;K=3"
    assert doc["witness"] == ["1,1,2", "1,1,3"]
    assert doc["landmarks"] == ["1,1,1", "1,2,2", "2,1,2", "2,2,1"]
