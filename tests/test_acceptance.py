"""Acceptance gate: the headline results, re-established end to end.

Each test prints exactly one PASS/FAIL line (run with -s or -rA to see
them).  Numbers quoted in the lines are recomputed, never hardcoded,
except for the combinatorial space sizes they are compared against.

Criterion 3 (the n=4 size-7 nonexistence search) walks a pruned space of
a few hundred thousand candidates out of C(63,6) = 67,945,521, in well
under a second.
"""

import functools
import time

from hammingdim import (
    FootprintShape,
    SearchOptions,
    SystemKind,
    LandmarkSet,
    Unsupported,
    Verdict,
    block_sum_violations,
    build_landmark_graph,
    classify,
    construct_cubic,
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
    lower_bound,
    metric_basis,
    predict_resolving,
)
from hammingdim.landmark import TRIPLE_LOOPED_SHAPES, TWO_BASIC_SHAPES

SAMPLES = 10_000
RANDOM_SETS = 1_000


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_basis_sweep():
    t0 = time.monotonic()
    bad = []
    for n in range(3, 66):
        W = metric_basis(n)
        want = 2 * n if n in (3, 4) else 2 * n - 1
        if len(W.members) != want or is_resolving(W).verdict is not Verdict.RESOLVING:
            bad.append(n)
    elapsed = time.monotonic() - t0
    report(1, not bad,
           f"metric_basis(n) resolving with the stated size for all "
           f"n in 3..65 ({elapsed:.1f}s)")


def test_criterion_02_no_five_set_at_n3():
    g = hamming_graph(3, 3, 3)
    norm = exists_resolving_of_size(g, 5, SearchOptions(prune=False))
    full = exists_resolving_of_size(g, 5, SearchOptions(prune=False, normalize=False))
    ok = (norm.verdict is Verdict.DIMENSION and norm.candidates_examined == 14950
          and full.verdict is Verdict.DIMENSION and full.candidates_examined == 80730)
    report(2, ok,
           f"no 5-landmark resolving set at n=3; normalized space "
           f"{norm.candidates_examined} = C(26,4), full space "
           f"{full.candidates_examined} = C(27,5)")


def test_criterion_03_no_seven_set_at_n4():
    g = hamming_graph(4, 4, 4)
    t0 = time.monotonic()
    cert = exists_resolving_of_size(g, 7)
    elapsed = time.monotonic() - t0
    ok = (cert.verdict is Verdict.DIMENSION
          and cert.candidates_examined == 326844)
    report(3, ok,
           f"no 7-landmark resolving set at n=4; pruned search examined "
           f"{cert.candidates_examined} of C(63,6) = 67945521 candidates "
           f"({elapsed:.1f}s)")


@functools.lru_cache(maxsize=None)
def _samples(n):
    """One draw of SAMPLES 2-basic systems at n = 4 or 5, shared by
    criteria 4 and 5 (each draw takes seconds)."""
    return tuple(enumerate_two_basic(n, budget=SAMPLES))


def _agreement(systems, expect_graph=None):
    checked = disagreements = 0
    resolving = []
    for W in systems:
        if expect_graph is not None:
            assert W.graph == expect_graph
        predicted = predict_resolving(W).verdict
        actual = is_resolving_by_distance(W).verdict
        checked += 1
        if predicted != actual:
            disagreements += 1
        elif actual is Verdict.RESOLVING:
            resolving.append(W)
    return checked, disagreements, resolving


def test_criterion_04_two_basic_oracle_equivalence():
    checked, bad, _ = _agreement(enumerate_two_basic(3))
    parts = [f"n=3 all {checked}"]
    total_bad = bad
    for n in (4, 5):
        c, b, _ = _agreement(_samples(n))
        parts.append(f"n={n} sampled {c}")
        total_bad += b
    report(4, total_bad == 0,
           f"forbidden-configuration verdict matches the distance verdict "
           f"on every 2-basic system ({', '.join(parts)}; "
           f"{total_bad} disagreements)")


def test_criterion_05_triple_looped_oracle_equivalence():
    total_bad = 0
    parts = []
    for n, systems in [
        (3, enumerate_two_basic(3)),
        (4, _samples(4)),
        (5, _samples(5)),
    ]:
        extended = (extend_triple_looped(W) for W in systems)
        c, b, _ = _agreement(extended)
        parts.append(f"n={n}+loop checked {c}")
        total_bad += b
    report(5, total_bad == 0,
           f"triple-looped verdicts match the distance verdict on the "
           f"lifted graphs ({', '.join(parts)}; {total_bad} disagreements)")


def test_criterion_06_cubic_constructions():
    t0 = time.monotonic()
    bad = []
    for k in [4] + list(range(6, 65)):
        G = construct_cubic(k)  # the constructor validates the coloring
        rep = forbidden_scan(build_landmark_graph(graph_to_landmarks(G, k + 1)))
        if rep.c4 or rep.c6 or rep.rainbow_triangles or not rep.applicable:
            bad.append(k)
    try:
        construct_cubic(5)
        five_refused = False
    except Unsupported:
        five_refused = True
    elapsed = time.monotonic() - t0
    report(6, not bad and five_refused,
           f"construct_cubic(k) properly colored with an empty forbidden "
           f"report for k=4 and k=6..64, and k=5 refused ({elapsed:.1f}s)")


def test_criterion_07_nondiagonal_example():
    W = fixture("hg_5_7_11")
    ok = (is_resolving(W).verdict is Verdict.RESOLVING
          and is_resolving_by_distance(W).verdict is Verdict.RESOLVING
          and len(W.members) == 21
          and lower_bound(5, 7, 11) == 21)
    report(7, ok,
           "the 21-landmark set resolves HG(5,7,11;3) and meets the "
           "block lower bound 2*11 - 1 = 21")


def test_criterion_08_block_sum_and_loop_profile():
    resolving_sets = [metric_basis(n) for n in range(3, 66)]
    resolving_sets += [fixture(name) for name in ("n3", "n6", "hg_5_7_11")]
    for n in (4, 5):
        _, _, found = _agreement(
            extend_triple_looped(W)
            for W in enumerate_two_basic(n, budget=500)
        )
        resolving_sets += found
    violations = sum(len(block_sum_violations(W)) for W in resolving_sets)
    profile_bad = 0
    profiled = 0
    for W in resolving_sets:
        dims = W.graph.dims
        n = dims[0]
        if len(set(dims)) != 1 or len(W.members) != 2 * n - 1:
            continue
        profiled += 1
        if any(loop_profile(W)[i] != (1, n - 1, 0) for i in (1, 2, 3)):
            profile_bad += 1
    ok = violations == 0 and profile_bad == 0 and profiled > 60
    report(8, ok,
           f"{len(resolving_sets)} resolving sets have no block-sum "
           f"violations; all {profiled} size-(2n-1) diagonal sets carry one "
           f"loop and n-1 plain edges per color")


def test_criterion_09_cross_oracle_and_complement():
    import random

    rng = random.Random(424242)
    disagreements = 0
    checked = 0
    for n in (3, 4):
        g = hamming_graph(n, n, n)
        comp = hamming_graph(n, n, n, k={1, 2})
        verts = list(g.vertices())
        for _ in range(RANDOM_SETS):
            members = sorted(rng.sample(verts, rng.randint(0, 12)))
            a = is_resolving(LandmarkSet(g, members)).verdict
            b = is_resolving_by_distance(LandmarkSet(g, members)).verdict
            c = is_resolving(LandmarkSet(comp, members)).verdict
            checked += 1
            if not (a == b == c):
                disagreements += 1
    report(9, disagreements == 0,
           f"code and distance verifiers agree, and K={{3}} and K={{1,2}} "
           f"verdicts coincide, on {checked} random sets at n=3,4 "
           f"({disagreements} disagreements)")


def test_criterion_10_footprint_taxonomy():
    permitted = {
        SystemKind.TWO_BASIC: TWO_BASIC_SHAPES,
        SystemKind.TRIPLE_LOOPED: TRIPLE_LOOPED_SHAPES,
        SystemKind.OTHER: frozenset(FootprintShape),
    }
    bad = []
    for n in range(4, 11):
        W = metric_basis(n)
        allowed = permitted[classify(W).kind]
        for v in W.graph.vertices():
            if v in W:
                continue
            shape = footprint(W, v).shape
            if shape not in allowed:
                bad.append((n, v, shape))
    report(10, not bad,
           "every non-landmark footprint of metric_basis(n), n in 4..10, "
           "lies in its class's permitted shape set (n=6 is class OTHER, "
           "which the taxonomy does not restrict)")
