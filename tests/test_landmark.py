"""Landmark graphs, system classes, forbidden configurations, footprints.

The frozen systems below were found by enumerating 2-basic systems and
keeping the first whose scan reports each configuration; their verdicts
were cross-checked against the distance verifier before pinning.
"""

import hashlib
import itertools
import json
import random
import re

import pytest

from hammingdim import (
    FootprintShape,
    LandmarkSet,
    NotApplicable,
    SystemKind,
    Verdict,
    basic_part,
    block_sum_violations,
    build_landmark_graph,
    classify,
    construct_cubic,
    emit_pls,
    emit_triples,
    enumerate_two_basic,
    exists_resolving_of_size,
    extend_triple_looped,
    fixture,
    footprint,
    forbidden_scan,
    graph_to_landmarks,
    hamming_graph,
    is_resolving,
    is_resolving_by_distance,
    loop_profile,
    metric_basis,
    parse_pls,
    parse_triples,
    predict_resolving,
)
from hammingdim.cli import _cycles_json, _scan_report
from hammingdim.landmark import (
    COLOR_NAMES, CycleReport, TWO_BASIC_SHAPES, _scan_blocks, matching_triples)

G3 = hamming_graph(3, 3, 3)

# 2-basic at n=3; scan finds 4-cycles on three colors (first frozen below)
C4_SYSTEM = ((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 3, 3), (3, 2, 3), (3, 3, 1))

# 2-basic at n=3 whose landmark graph is K_{3,3} built around a hexagon
# colored a b c a b c; scan finds three such 6-cycles
C6_SYSTEM = ((1, 3, 2), (1, 1, 3), (3, 1, 1), (2, 3, 1), (2, 2, 3), (3, 2, 2))

# properly colored K4 on four landmarks; every 4-cycle alternates two
# colors, every triangle is rainbow
K4_SET = ((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1))


def test_color_names():
    assert COLOR_NAMES == {1: "blue", 2: "green", 3: "pink"}


def test_build_fixture_profile():
    G = build_landmark_graph(fixture("n3"))
    by_color = {i: sorted(len(e.members) for e in G.edges_of_color(i)) for i in (1, 2, 3)}
    assert by_color == {1: [3, 3], 2: [2, 2, 2], 3: [2, 2, 2]}


def test_build_empty():
    G = build_landmark_graph(LandmarkSet(G3, []))
    assert G.vertices == ()
    assert G.hyperedges == ()


def test_build_mobius_derived():
    W = metric_basis(4)
    G = build_landmark_graph(W)
    assert len(G.vertices) == 8
    for i in (1, 2, 3):
        edges = G.edges_of_color(i)
        assert len(edges) == 4
        assert all(len(e.members) == 2 for e in edges)
        # same-colored blocks partition the landmarks
        seen = [v for e in edges for v in e.members]
        assert sorted(seen) == sorted(G.vertices)


def test_classify():
    W = metric_basis(4)
    assert classify(W).kind is SystemKind.TWO_BASIC
    ext = extend_triple_looped(W)
    cls = classify(ext)
    assert cls.kind is SystemKind.TRIPLE_LOOPED
    assert cls.loop_vertex == (5, 5, 5)
    assert classify(fixture("n3")).kind is SystemKind.OTHER
    assert classify(LandmarkSet(G3, K4_SET)).kind is SystemKind.OTHER
    # n6 has one loop per color but on three distinct landmarks
    assert classify(fixture("n6")).kind is SystemKind.OTHER
    # every block holds exactly two landmarks, but (1,1,1) and (1,1,2)
    # agree in coordinates 1 and 2
    pairs = LandmarkSet(G3, [(1, 1, 1), (1, 1, 2), (2, 2, 1), (2, 2, 3), (3, 3, 2), (3, 3, 3)])
    assert all(len(pairs.block(i, a)) == 2 for i in (1, 2, 3) for a in (1, 2, 3))
    assert classify(pairs).kind is SystemKind.OTHER
    # 2-basic members on a graph that is not diagonal
    first = next(iter(enumerate_two_basic(3)))
    assert classify(first).kind is SystemKind.TWO_BASIC
    assert classify(LandmarkSet(hamming_graph(3, 3, 4), first.members)).kind is SystemKind.OTHER
    # a 2-basic system on the 2-diagonal plus (3, 3, 3): the loop and the
    # pairs are there, but triple-looped systems start at n = 4
    assert classify(LandmarkSet(G3, K4_SET + ((3, 3, 3),))).kind is SystemKind.OTHER
    assert classify(LandmarkSet(hamming_graph(2, 2, 2), K4_SET)).kind is SystemKind.TWO_BASIC


def test_extend_and_basic_part_round_trip():
    W = metric_basis(4)
    ext = extend_triple_looped(W)
    assert ext.graph.dims == (5, 5, 5)
    assert set(ext.members) == set(W.members) | {(5, 5, 5)}
    back = basic_part(ext)
    assert back.graph.dims == (4, 4, 4)
    assert set(back.members) == set(W.members)
    # one graph per (n, K), shared by every lift and 2-basic part on it
    assert ext.graph == hamming_graph(5, 5, 5) and back.graph == W.graph
    assert extend_triple_looped(metric_basis(4)).graph is ext.graph
    assert basic_part(ext).graph is back.graph
    with pytest.raises(NotApplicable):
        basic_part(W)  # not triple-looped
    with pytest.raises(NotApplicable):
        extend_triple_looped(fixture("n3"))  # not 2-basic


def test_scan_mobius_clean():
    rep = forbidden_scan(build_landmark_graph(metric_basis(4)))
    assert rep.applicable
    assert rep.c4 == () and rep.c6 == () and rep.rainbow_triangles == ()
    assert rep.clean(include_triangles=True)


def test_scan_c4_instance():
    rep = forbidden_scan(build_landmark_graph(LandmarkSet(G3, C4_SYSTEM)))
    assert rep.applicable
    assert rep.c4
    first = rep.c4[0]
    assert first.landmarks == ((1, 1, 1), (1, 2, 2), (3, 2, 3), (3, 3, 1))
    assert first.colors == (1, 2, 1, 3)
    # opposite edges share a color and three colors appear
    for c in rep.c4:
        assert len(set(c.colors)) == 3
        assert c.colors[0] == c.colors[2] or c.colors[1] == c.colors[3]
        assert c.revalidates()


def test_scan_c6_instance():
    rep = forbidden_scan(build_landmark_graph(LandmarkSet(G3, C6_SYSTEM)))
    assert len(rep.c6) == 3
    first = rep.c6[0]
    assert first.landmarks == (
        (1, 1, 3), (1, 3, 2), (2, 3, 1), (3, 1, 1), (3, 2, 2), (2, 2, 3),
    )
    assert first.colors == (1, 2, 3, 1, 2, 3)
    for c in rep.c6:
        assert c.colors[:3] == c.colors[3:]
        assert len(set(c.colors)) == 3
        assert c.revalidates()


def test_scan_rainbow_triangle():
    W = LandmarkSet(G3, [(1, 1, 2), (1, 2, 1), (2, 1, 1)])
    rep = forbidden_scan(build_landmark_graph(W))
    assert not rep.applicable  # the three off-triangle blocks are loops
    assert len(rep.rainbow_triangles) == 1
    t = rep.rainbow_triangles[0]
    assert set(t.landmarks) == set(W.members)
    assert sorted(t.colors) == [1, 2, 3]
    assert t.revalidates()


def test_scan_k4_regression():
    # every 4-cycle of the properly colored K4 alternates two colors, so
    # no three-colored 4-cycle exists; all four triangles are rainbow
    rep = forbidden_scan(build_landmark_graph(LandmarkSet(G3, K4_SET)))
    assert rep.applicable
    assert rep.c4 == ()
    assert rep.c6 == ()
    assert len(rep.rainbow_triangles) == 4
    assert is_resolving(LandmarkSet(G3, K4_SET)).verdict is Verdict.UNRESOLVED


def scan_totals(systems):
    reports = [forbidden_scan(build_landmark_graph(W)) for W in systems]
    assert all(r.applicable for r in reports)
    for r in reports:
        assert all(c.revalidates() for c in r.c4 + r.c6 + r.rainbow_triangles)
    return (
        sum(len(r.c4) for r in reports),
        sum(len(r.c6) for r in reports),
        sum(len(r.rainbow_triangles) for r in reports),
        sum(r.clean(include_triangles=False) for r in reports),
    )


def test_scan_totals_pinned():
    # totals recorded with the earlier 18-pattern walk
    systems = list(enumerate_two_basic(3))
    assert len(systems) == 144
    assert scan_totals(systems) == (648, 108, 216, 0)
    assert scan_totals(enumerate_two_basic(4, budget=500)) == (928, 471, 694, 55)


def pinned_sets():
    """All 144 n=3 systems and their lifts, 200 samples at n=4, and
    metric_basis(4..12)."""
    for W in enumerate_two_basic(3):
        yield W
        yield extend_triple_looped(W)
    yield from enumerate_two_basic(4, budget=200)
    for n in range(4, 13):
        yield metric_basis(n)


def cycles_by_dfs(W):
    """The forbidden cycles of W's plain-edge graph from a depth-first
    search of its simple 3-, 4- and 6-cycles, classified by their colors.

    Every closed simple path is met from each of its vertices in both
    directions; each is kept once, read from its least landmark towards
    its lesser neighbor.
    """
    adj = {v: [] for v in W.members}
    for (i, _), mems in W.blocks().items():
        if len(mems) == 2:
            x, y = mems
            adj[x].append((y, i))
            adj[y].append((x, i))
    found = set()

    def extend(path, colors):
        for y, c in adj[path[-1]]:
            if y == path[0] and len(path) in (3, 4, 6):
                found.add(least_reading(tuple(path), (*colors, c)))
            elif y not in path and len(path) < 6:
                extend(path + [y], colors + [c])

    for v in W.members:
        extend([v], [])
    c4, c6, c3 = [], [], []
    for cycle, colors in sorted(found):
        k, three = len(cycle), len(set(colors)) == 3
        if k == 4 and three and (colors[0] == colors[2] or colors[1] == colors[3]):
            c4.append((cycle, colors))
        elif k == 6 and three and colors[:3] == colors[3:]:
            c6.append((cycle, colors))
        elif k == 3 and three:
            c3.append((cycle, colors))
    return c4, c6, c3


def least_reading(cycle, colors):
    """The cycle read from its least landmark towards its lesser
    neighbor; colors[t] joins cycle[t] to the next landmark."""
    k = len(cycle)
    s = cycle.index(min(cycle))
    fwd = (tuple(cycle[(s + t) % k] for t in range(k)),
           tuple(colors[(s + t) % k] for t in range(k)))
    bwd = (tuple(cycle[(s - t) % k] for t in range(k)),
           tuple(colors[(s - t - 1) % k] for t in range(k)))
    return min(fwd, bwd)


def test_scan_equals_depth_first_search():
    for W in pinned_sets():
        rep = forbidden_scan(build_landmark_graph(W))
        got = tuple([(c.landmarks, c.colors) for c in cycles]
                    for cycles in (rep.c4, rep.c6, rep.rainbow_triangles))
        assert got == cycles_by_dfs(W), W.members


def test_prediction_equals_prediction_from_full_scan():
    # predict_resolving stops at the first cycle it meets: it must name the
    # first cycle the full scan lists for the first non-empty sought kind
    for W in pinned_sets():
        kind = classify(W).kind
        if kind is SystemKind.OTHER:
            with pytest.raises(NotApplicable, match="only covers"):
                predict_resolving(W)
            continue
        rep = forbidden_scan(build_landmark_graph(W))
        sought = [("three-colored 4-cycle", rep.c4), ("color-repeating 6-cycle", rep.c6)]
        if kind is SystemKind.TRIPLE_LOOPED:
            sought.append(("rainbow triangle", rep.rainbow_triangles))
        first = next(((name, cycles[0]) for name, cycles in sought if cycles), None)
        got = predict_resolving(W)
        if first is None:
            assert got.verdict is Verdict.RESOLVING
            continue
        name, c = first
        walk = " ".join("(" + ",".join(map(str, v)) + ")" for v in c.landmarks)
        colors = ",".join(COLOR_NAMES[i] for i in c.colors)
        assert got.verdict is Verdict.UNRESOLVED
        assert got.attestation.endswith(f" found a {name} on {walk} colored {colors}")


def test_matching_triples():
    # an element on pair j of color c's matching takes label j of color c
    matchings = [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]]
    assert matching_triples(matchings, [(1, 2), (2, 1), (1, 2)]) == [
        (1, 2, 1), (1, 1, 2), (2, 2, 2), (2, 1, 1)]


def test_scan_reports_pinned():
    # sha256 over the scan JSON of pinned_sets(), recorded with the walk
    # that read every cycle from each of its landmarks
    digest = hashlib.sha256()
    for W in pinned_sets():
        digest.update((json.dumps(_scan_report(W), indent=2) + "\n").encode())
    assert digest.hexdigest() == (
        "cc87753aa0ac52e08f21914a40dc514f0cd4ac6d61ec6c2a23b159e27b218511")


def test_decider_certificates_pinned():
    # sha256 over the certificate JSON of predict_resolving, is_resolving
    # and is_resolving_by_distance on every n = 3 2-basic system and 256
    # seeded draws at each of n = 4 and 5, each followed by its lift:
    # 1,312 systems, recorded before the deciders shed their fixed costs
    digest = hashlib.sha256()
    systems = 0
    for gen in (enumerate_two_basic(3), enumerate_two_basic(4, budget=256, seed=4005),
                enumerate_two_basic(5, budget=256, seed=5005)):
        for W in gen:
            for V in (W, extend_triple_looped(W)):
                for decide in (predict_resolving, is_resolving, is_resolving_by_distance):
                    digest.update(decide(V).to_json().encode())
                systems += 1
    assert systems == 1312
    assert digest.hexdigest() == (
        "8c5359e9c6b2bca983934fcbd7c922b3d47dda344e73fde1e21cb7f25dd35d19")


def test_scan_off_the_block_table_matches_the_graph_scan():
    """The CLI's scan, which reads sigma off W.blocks(), reports what
    forbidden_scan of the built landmark graph does: on metric_basis(13..40)
    whole and less its first and its last member, the n6 fixture, 60
    seeded random sets, and 40 seeded n = 5 2-basic draws with one or two
    landmarks added.  The last two have blocks of three or more, so the
    scan is not applicable, and most of the draws keep forbidden cycles."""
    sets = [fixture("n6")]
    for n in range(13, 41):
        W = metric_basis(n)
        sets += [W, LandmarkSet(W.graph, W.members[1:]), LandmarkSet(W.graph, W.members[:-1])]
    rng = random.Random(34)
    for t in range(60):
        g = hamming_graph(*(3 * (4 + t % 3,)))
        sets.append(LandmarkSet(g, rng.sample(list(g.vertices()), rng.randint(6, 14))))
    for W in enumerate_two_basic(5, budget=40, seed=34):
        others = sorted(set(W.graph.vertices()) - set(W.members))
        sets.append(LandmarkSet(W.graph, W.members + tuple(rng.sample(others, rng.randint(1, 2)))))
    applicable = with_cycles = 0
    for W in sets:
        report = forbidden_scan(build_landmark_graph(W))
        assert _scan_blocks(W.members, W.blocks().items()) == report
        doc = _scan_report(W)
        assert [doc["c4"], doc["c6"], doc["rainbow_triangles"]] == [
            _cycles_json(c) for c in (report.c4, report.c6, report.rainbow_triangles)]
        applicable += report.applicable
        with_cycles += bool(report.c4 or report.c6 or report.rainbow_triangles)
    assert (len(sets), applicable, with_cycles) == (185, 28, 27)


def unchecked_sets():
    """Sets whose members the package builds without re-checking them:
    every n = 3 2-basic system, 300 draws on each of two seeds at n = 4
    and 5, the lift of each, and metric_basis(3..40); both documents of
    each basis and of 25 draws at n = 4 and 5 and their lifts, parsed;
    graph_to_landmarks of every cubic graph behind the bases, the basic
    part of each triple-looped basis, and one search hit."""
    systems = itertools.chain(enumerate_two_basic(3), *(
        enumerate_two_basic(n, budget=300, seed=seed)
        for n in (4, 5) for seed in (1, 1000 * n + 4001)))
    for W in systems:
        yield W
        yield extend_triple_looped(W)
    bases = [metric_basis(n) for n in range(3, 41)]
    yield from bases
    drawn = [W for n in (4, 5) for W in enumerate_two_basic(n, budget=25, seed=7)]
    for W in bases + drawn + [extend_triple_looped(W) for W in drawn]:
        yield parse_pls(emit_pls(W), W.graph)
        yield parse_triples(emit_triples(W), W.graph)
    for k in (4, *range(6, 40)):
        yield graph_to_landmarks(construct_cubic(k), k + 1)
    for W in bases:
        if classify(W).kind is SystemKind.TRIPLE_LOOPED:
            yield basic_part(W)
    yield exists_resolving_of_size(hamming_graph(3, 3, 3), 6).basis


def test_unchecked_sets_equal_checked_sets():
    count = 0
    for W in unchecked_sets():
        checked = LandmarkSet(W.graph, W.members)
        assert W.members == checked.members
        # the block table in key order, each block in member order
        assert list(W.blocks().items()) == list(checked.blocks().items())
        for v in (*itertools.islice(W.graph.vertices(), 216), *W.members):
            assert (v in W) == (v in checked)
        assert W == checked and checked == W and hash(W) == hash(checked)
        assert classify(W) == classify(checked)
        count += 1
    assert count == 2 * (144 + 4 * 300) + 38 + 2 * (38 + 4 * 25) + 35 + 35 + 1


def test_cycle_report_revalidates_rejects_corruption():
    good = CycleReport(((1, 1, 2), (1, 2, 1), (2, 1, 1)), (1, 3, 2))
    assert good.revalidates()
    assert not CycleReport(((1, 1, 2), (1, 2, 1), (2, 1, 1)), (2, 3, 2)).revalidates()
    assert not CycleReport(((1, 1, 2), (1, 1, 2), (2, 1, 1)), (1, 3, 2)).revalidates()
    assert not CycleReport(((1, 1, 2), (1, 2, 1)), (1, 3, 2)).revalidates()


def test_predict_certificates():
    cert = predict_resolving(metric_basis(4))
    assert cert.verdict is Verdict.RESOLVING
    assert cert.witness is None
    assert "scan" in cert.attestation

    bad = predict_resolving(LandmarkSet(G3, C4_SYSTEM))
    assert bad.verdict is Verdict.UNRESOLVED
    assert bad.witness is None
    assert "4-cycle" in bad.attestation
    assert is_resolving_by_distance(LandmarkSet(G3, C4_SYSTEM)).verdict is Verdict.UNRESOLVED

    bad6 = predict_resolving(LandmarkSet(G3, C6_SYSTEM))
    assert bad6.verdict is Verdict.UNRESOLVED
    assert is_resolving_by_distance(LandmarkSet(G3, C6_SYSTEM)).verdict is Verdict.UNRESOLVED


def test_predict_not_applicable():
    with pytest.raises(NotApplicable):
        predict_resolving(fixture("n3"))  # OTHER class
    with pytest.raises(NotApplicable):
        predict_resolving(LandmarkSet(hamming_graph(3, 4, 5), [(1, 1, 1)]))
    comp = hamming_graph(3, 3, 3, k={1, 2})
    with pytest.raises(NotApplicable):
        predict_resolving(LandmarkSet(comp, list(C4_SYSTEM)))


def test_footprint_covered_equals_code():
    for W in [fixture("n3"), metric_basis(4), metric_basis(5)]:
        for v in W.graph.vertices():
            if v in W:
                continue
            assert footprint(W, v).covered == W.code(v)


def test_footprint_shapes_two_basic():
    W = metric_basis(4)
    shapes = {footprint(W, v).shape for v in W.graph.vertices() if v not in W}
    assert shapes == {FootprintShape.P4, FootprintShape.P3_P2, FootprintShape.THREE_P2}
    assert shapes <= TWO_BASIC_SHAPES
    for w in W.members:
        assert footprint(W, w).shape is FootprintShape.K13


def test_footprint_loop_shapes():
    W5 = metric_basis(5)
    assert footprint(W5, (5, 5, 5)).shape is FootprintShape.L3
    shapes = {footprint(W5, v).shape.value for v in W5.graph.vertices() if v not in W5}
    assert shapes == {"P3+P2", "P4", "P3+L1", "3P2", "2P2+L1", "L2+P2"}


def test_footprint_empty_and_other():
    W0 = LandmarkSet(G3, [])
    fp = footprint(W0, (1, 1, 1))
    assert fp.shape is FootprintShape.NONE
    assert fp.covered == frozenset()
    # three loops on distinct landmarks fall outside the taxonomy
    assert footprint(fixture("n6"), (1, 1, 6)).shape is FootprintShape.OTHER


def footprint_pin_sets():
    """metric_basis(3..8), the fixtures, the first 40 n=3 2-basic systems
    and 100 seeded random sets of 0 to 12 landmarks on 3x3x3, 4x4x4 and
    3x4x5 in turn."""
    sets = [metric_basis(n) for n in range(3, 9)]
    sets += [fixture(name) for name in ("n3", "n6", "hg_5_7_11")]
    sets += itertools.islice(enumerate_two_basic(3), 40)
    rng = random.Random(14)
    graphs = [hamming_graph(3, 3, 3), hamming_graph(4, 4, 4), hamming_graph(3, 4, 5)]
    for t in range(100):
        g = graphs[t % 3]
        sets.append(LandmarkSet(g, rng.sample(list(g.vertices()), rng.randint(0, 12))))
    return sets


def test_footprints_and_block_views_pinned():
    """Every vertex's footprint, and each set's block-sum violations, loop
    profile and landmark graph, hashed: the digests were recorded with the
    footprint taxonomy written as a tree of branches."""
    shapes, count = set(), 0
    fp, blocks = hashlib.sha256(), hashlib.sha256()
    for W in footprint_pin_sets():
        for v in W.graph.vertices():
            f = footprint(W, v)
            shapes.add(f.shape)
            count += 1
            fp.update(repr((f.shape.value, sorted(f.covered),
                            [(e.color, e.value, sorted(e.members)) for e in f.edges])).encode())
        blocks.update(repr((block_sum_violations(W), sorted(loop_profile(W).items()),
                            build_landmark_graph(W))).encode())
    assert (count, shapes) == (8005, set(FootprintShape))
    assert fp.hexdigest() == "fb2581b5ce644ddb0eeb74ced415b0219634da1f58e19fef594edc59f588f99f"
    assert blocks.hexdigest() == "3be275afc42c10c1fb1d16064e448aeaa92b2d0b8b6573b465e905b2bb394f6b"
