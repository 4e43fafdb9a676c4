"""Exhaustive subset searches, their invariants, and the enumerator.

Search-space sizes are pinned to the binomials they must equal when
pruning is off: fixing (1,1,1) leaves C(26,4) = 14,950 subsets at n=3
s=5, and the full space has C(27,5) = 80,730.

Several tests run at more than one value of ``SearchOptions.workers``, a
field that is checked and then ignored: every search is serial, so
their pins hold at each value.
"""

import collections
import contextlib
import functools
import itertools
import json
import pathlib
import random
import sys

import numpy as np
import pytest

import hammingdim.search
from hammingdim import (
    BudgetExceeded,
    GhgParams,
    SearchOptions,
    SystemKind,
    Unsupported,
    Verdict,
    classify,
    enumerate_two_basic,
    exists_resolving_of_size,
    hamming_graph,
    is_resolving_by_distance,
    metric_basis,
    metric_dimension,
)
from hammingdim.landmark import matching_triples
from hammingdim.search import _Budget, _color_feasible, _shuffle, _walker

G3 = hamming_graph(3, 3, 3)
G4 = hamming_graph(4, 4, 4)


def test_no_five_set_normalized_unpruned():
    cert = exists_resolving_of_size(G3, 5, SearchOptions(prune=False))
    assert cert.verdict is Verdict.DIMENSION
    assert cert.candidates_examined == 14950  # C(26,4)
    assert "no resolving set of size 5" in cert.attestation


def test_no_five_set_unnormalized_unpruned():
    cert = exists_resolving_of_size(
        G3, 5, SearchOptions(prune=False, normalize=False)
    )
    assert cert.verdict is Verdict.DIMENSION
    assert cert.candidates_examined == 80730  # C(27,5)


def test_six_set_found_and_reverifies():
    cert = exists_resolving_of_size(G3, 6)
    assert cert.verdict is Verdict.RESOLVING
    assert cert.basis is not None and len(cert.basis.members) == 6
    assert is_resolving_by_distance(cert.basis).verdict is Verdict.RESOLVING
    assert (1, 1, 1) in cert.basis  # normalization fixes the first vertex


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
def test_pruning_and_normalization_preserve_verdicts(s):
    base = exists_resolving_of_size(G3, s, SearchOptions(prune=False, normalize=False))
    for prune, normalize in [(True, False), (False, True), (True, True)]:
        cert = exists_resolving_of_size(G3, s, SearchOptions(prune=prune, normalize=normalize))
        assert cert.verdict == base.verdict, (s, prune, normalize)
        if prune:
            assert cert.candidates_examined <= base.candidates_examined


def test_worker_count_changes_nothing():
    for s in (5, 6):
        one = exists_resolving_of_size(G3, s, SearchOptions(workers=1))
        two = exists_resolving_of_size(G3, s, SearchOptions(workers=2))
        assert one.verdict == two.verdict
        assert one.candidates_examined == two.candidates_examined
        if one.basis is not None:
            assert one.basis == two.basis


def budget_error(s, **kw):
    with pytest.raises(BudgetExceeded) as exc:
        exists_resolving_of_size(G3, s, SearchOptions(**kw))
    return exc.value.bound, exc.value.candidates_examined, str(exc.value)


def test_candidate_budget():
    # a spent budget, 0, trips before any leaf is examined, and 1039 is one
    # short of the pruned walk's 1040 leaves
    for prune in (True, False):
        for k in (0, 5, 100, 500, 1039):
            assert budget_error(5, prune=prune, max_candidates=k) == (
                "max_candidates", k, f"candidate budget of {k} exceeded")
    with pytest.raises(Unsupported):
        SearchOptions(max_candidates=-1)


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_refused(workers):
    with pytest.raises(Unsupported, match="at least 1"):
        SearchOptions(workers=workers)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: SearchOptions(max_candidates=float("nan")), id="candidates-nan"),
    pytest.param(lambda: SearchOptions(max_candidates=2.0), id="candidates-float"),
    pytest.param(lambda: SearchOptions(max_candidates=-1), id="candidates-negative"),
    pytest.param(lambda: SearchOptions(workers=1.5), id="workers-float"),
    pytest.param(lambda: list(enumerate_two_basic(3, budget=1.5)), id="enumerate-n3"),
    pytest.param(lambda: list(enumerate_two_basic(4, budget=2.0)), id="enumerate-n4"),
    pytest.param(lambda: SearchOptions(max_candidates=False), id="candidates-false"),
    pytest.param(lambda: SearchOptions(max_candidates=True), id="candidates-true"),
    pytest.param(lambda: SearchOptions(workers=True), id="workers-true"),
    pytest.param(lambda: list(enumerate_two_basic(4, budget=True)), id="enumerate-n4-true"),
    pytest.param(lambda: list(enumerate_two_basic(3, budget=False)), id="enumerate-n3-false"),
    pytest.param(lambda: SearchOptions(progress="yes"), id="progress-not-callable"),
])
def test_bounds_that_do_not_bound_refused(make):
    # none of these bounds a search, and a progress that cannot be called
    # would fail only after the first pick's walk, so each is refused
    # before a search starts; a bool is an int to Python, but not a count
    with pytest.raises(Unsupported):
        make()


@pytest.mark.parametrize("value", ["no", "", 0, 1, None, np.bool_(True)])
@pytest.mark.parametrize("field", ["prune", "normalize"])
def test_switches_that_are_not_bools_refused(field, value):
    # "no" is truthy: taken as it is, it would prune and the certificate
    # would say pruned=no
    with pytest.raises(Unsupported, match=f"{field} must be True or False"):
        SearchOptions(**{field: value})


@pytest.mark.parametrize("g, s, hit", [(G3, 6, 13828), (G4, 8, 60735)], ids=["n3s6", "n4s8"])
def test_candidate_budget_at_a_hit(g, s, hit):
    # the hit is leaf number ``hit``: one candidate less trips before it
    # is examined, and a run of leaves counted at once must not overshoot
    with pytest.raises(BudgetExceeded) as exc:
        exists_resolving_of_size(g, s, SearchOptions(max_candidates=hit - 1))
    assert (exc.value.bound, exc.value.candidates_examined, str(exc.value)) == (
        "max_candidates", hit - 1, f"candidate budget of {hit - 1} exceeded")
    cert = exists_resolving_of_size(g, s, SearchOptions(max_candidates=hit))
    assert cert.verdict is Verdict.RESOLVING
    assert cert.candidates_examined == hit


def progress_counts(s, **kw):
    """The (candidates, pruned) of every progress report, and the certificate."""
    reports = []
    cert = exists_resolving_of_size(G3, s, SearchOptions(progress=reports.append, **kw))
    return [(p.candidates_examined, p.pruned_subtrees) for p in reports], cert.to_json()


@pytest.mark.parametrize("s, normalize, pruned", [
    (5, True, 2670),
    (5, False, 16103),
    (6, True, 6038),  # found: the walk stops inside one first pick
])
def test_parallel_progress_reports_running_totals(s, normalize, pruned):
    # one report per first free pick; size 6 is found under (1, 2, 2), the
    # fourth
    counts, cert = progress_counts(s, normalize=normalize)
    assert len(counts) == {5: 23, 6: 4}[s]
    assert counts == sorted(counts)
    assert counts[-1] == (json.loads(cert)["candidates_examined"], pruned)


def brute_force_feasible(cnt, avail):
    """The fewest picks after which every block pair of a color sums to
    at least 3, trying every final block size the suffix allows."""
    best = None
    for final in itertools.product(*(range(c, c + a + 1) for c, a in zip(cnt, avail))):
        if all(x + y >= 3 for x, y in itertools.combinations(final, 2)):
            cost = sum(final) - sum(cnt)
            best = cost if best is None else min(best, cost)
    return best


def test_color_feasible_against_brute_force():
    # availability up to most, t below picks: at n = 3 a block can reach 3
    # from 0, the case where one block stays empty
    for n, most, picks in ((3, 3, 8), (4, 2, 6)):
        for cnt in itertools.product(range(4), repeat=n):
            for avail in itertools.product(range(most + 1), repeat=n):
                least = brute_force_feasible(cnt, avail)
                for t in range(picks):
                    expected = least is not None and least <= t
                    assert _color_feasible(cnt, avail, t) == expected, (cnt, avail, t)


@contextlib.contextmanager
def walked(g, s, prune=True, fixed=(0,)):
    """The walk of a walker whose first picks have all been walked, up to
    the first hit; its memos are dropped on exit."""
    with _walker(g, s, fixed, prune) as (picks, walk):
        budget = _Budget(None)
        for pick in picks:
            if walk(pick, budget):
                break
        yield walk


@pytest.mark.parametrize("g, sizes", [(G3, (4, 5, 6)), (G4, (6, 7, 8))], ids=["n3", "n4"])
def test_keep_masks_against_a_scan(g, sizes):
    """Every keep mask that the pruned walks reach equals a pick-by-pick
    scan of each block, and feasibility is monotone over every member of
    a block, not only up to its first failure: ``kept`` bisects on it."""
    reached = 0
    for s in sizes:
        with walked(g, s) as walk:
            keep = closure_values(walk)["keep"]
            kept = closure_values(keep[0].fn.func)  # keep[t].fn is partial(kept, t)
            coord, span, base = kept["coord"], kept["span"], kept["base"]
            for t, memo in enumerate(keep):
                for k, mask in memo.items():
                    i, code = divmod(k, span)
                    scan = 0
                    for a, block in enumerate(coord[i]):
                        cnt = [code // base ** b % base + (b == a) for b in range(len(coord[i]))]
                        members = [x for x in range(block.bit_length()) if block >> x & 1]
                        feasible = [_color_feasible(cnt, [(m >> x + 1).bit_count()
                                                          for m in coord[i]], t)
                                    for x in members]
                        assert feasible == sorted(feasible, reverse=True), (s, t, k, a)
                        scan |= sum(1 << x for x, ok in zip(members, feasible) if ok)
                    assert mask == scan, (s, t, k)
                    reached += 1
    assert reached > 100


@pytest.mark.parametrize("g, s, prune, fixed, states", [
    (G4, 7, True, (0,), 5813), (G4, 8, True, (0,), 1680), (G3, 5, False, (0,), 74),
    (G3, 5, False, (), 96),
], ids=["n4s7", "n4s8", "n3s5-unpruned", "n3s5-unpruned-full"])
def test_counter_against_a_per_state_loop(g, s, prune, fixed, states):
    """Every state the walk asks the counter for, from rec or from the
    counter itself, has the counts of a loop over that state's own picks,
    restated here: the counter before its states were grouped.  Unpruned,
    the counter answers in closed form without asking for any child, so
    only rec's states are asked."""
    asked = []

    def hook(frame, event, arg):
        if (event == "return" and frame.f_code.co_name == "tally"
                and frame.f_code.co_filename == hammingdim.search.__file__):
            v = frame.f_locals
            key = v["ends"][v["t"]], v["t"], v["k1"], v["k2"], v["k3"]
            asked.append((v["lo"], key, arg))

    sys.setprofile(hook)
    try:
        with walked(g, s, prune, fixed) as walk:
            sys.setprofile(None)
            values = closure_values(walk)
            keep, ends, leaf_mask = values["keep"], values["ends"], values["leaf_mask"]
            s1, s2, s3 = values["s1"], values["s2"], values["s3"]

            @functools.cache
            def per_state(lo, end, t, k1, k2, k3):
                kt = keep[t - 1]
                todo = kt[k1] & kt[k2] & kt[k3] & ((1 << end) - (1 << lo))
                pruned = leaves = 0
                while todo:
                    idx = (todo & -todo).bit_length() - 1
                    todo &= todo - 1
                    pruned += idx - lo
                    lo = idx + 1
                    codes = k1 + s1[idx], k2 + s2[idx], k3 + s3[idx]
                    if t == 2:
                        under = leaf_mask(lo, *codes).bit_count()
                        pruned += ends[1] - lo - under
                        leaves += under
                    else:
                        under = per_state(lo, ends[t - 1], t - 1, *codes)
                        pruned += under[0]
                        leaves += under[1]
                return pruned + end - lo, leaves

            # the states are those the per-state counter kept
            assert len({(lo, key) for lo, key, _ in asked}) == states
            assert all(per_state(lo, *key) == counts for lo, key, counts in asked)
    finally:
        sys.setprofile(None)


def walk_counts(g, s, normalize):
    """(leaves, pruned) of the search's last progress report."""
    reports = []
    exists_resolving_of_size(g, s, SearchOptions(normalize=normalize, progress=reports.append))
    return reports[-1].candidates_examined, reports[-1].pruned_subtrees


@pytest.mark.parametrize("s, normalize, counts", [
    (4, True, (0, 24)),
    (4, False, (0, 24)),
    (5, True, (1040, 2670)),
    (5, False, (5616, 16103)),
    (6, True, (13828, 6038)),
    (6, False, (13828, 6038)),
])
def test_pruned_walk_counts_n3(s, normalize, counts):
    assert walk_counts(G3, s, normalize) == counts


@pytest.mark.parametrize("s, counts", [
    (7, (326844, 1661230)),
    (8, (60735, 173606)),
])
def test_pruned_walk_counts_n4(s, counts):
    assert walk_counts(G4, s, True) == counts


# (normalized pruned, normalized unpruned, full pruned, full unpruned):
# (candidates, pruned) of the last report; every verdict is DIMENSION
SMALL_SIZES = {
    1: [(1, 0), (1, 0), (0, 27), (27, 0)],
    2: [(0, 26), (26, 0), (0, 26), (351, 0)],
    3: [(0, 25), (325, 0), (0, 25), (2925, 0)],
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_small_sizes_n3(s, workers):
    """Sizes whose walks start one, two or three picks short of a full
    set; at s = 1 normalized nothing is left to pick."""
    modes = [(True, True), (True, False), (False, True), (False, False)]
    for (normalize, prune), counts in zip(modes, SMALL_SIZES[s]):
        reports = []
        cert = exists_resolving_of_size(G3, s, SearchOptions(
            normalize=normalize, prune=prune, workers=workers, progress=reports.append))
        assert cert.verdict is Verdict.DIMENSION
        assert (cert.candidates_examined, reports[-1].pruned_subtrees) == counts
        # one report per first free pick; at s = 1 normalized the one
        # candidate, (1, 1, 1), is the one pick
        assert len(reports) == (1 if normalize and s == 1 else 28 - s)


# (candidates, pruned) after each of the 58 first picks of the serial 4x4x4
# size-7 search; from the 31st on, each first pick is pruned whole
N4S7_PROGRESS = [
    (11520, 54691), (23040, 110265), (34560, 166862), (46080, 226017),
    (69528, 336858), (92976, 449425), (116424, 563940), (127944, 626869),
    (151392, 744704), (174840, 864219), (198288, 985682), (209808, 1051660),
    (233256, 1175189), (256704, 1300386), (280152, 1428062), (282024, 1437608),
    (285864, 1455063), (289704, 1472866), (293544, 1491093), (296760, 1507792),
    (302880, 1536248), (308568, 1563227), (313824, 1588697), (315744, 1600099),
    (319236, 1618300), (322296, 1634267), (324924, 1647993), (325548, 1652703),
    (326412, 1658305), (326844, 1661202),
] + [(326844, pruned) for pruned in range(1661203, 1661231)]


def test_pruned_walk_progress_n4():
    """Every running total, not only the last: a pick pruned or skipped
    partway through a level moves the reports after it."""
    reports = []
    exists_resolving_of_size(G4, 7, SearchOptions(progress=reports.append))
    assert [(p.candidates_examined, p.pruned_subtrees) for p in reports] == N4S7_PROGRESS


# the first resolving 8-set of the pruned 4x4x4 walk in tree order
N4S8_HIT = ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 3), (3, 3, 2), (3, 4, 4), (4, 3, 4))


@pytest.mark.parametrize("workers", [1, 2])
def test_pruned_walk_progress_n4s8(workers):
    # the hit is under the first pick, so its one report holds the totals;
    # the hit's second-to-last node is walked pick by pick
    reports = []
    cert = exists_resolving_of_size(
        G4, 8, SearchOptions(progress=reports.append, workers=workers))
    assert [(p.candidates_examined, p.pruned_subtrees) for p in reports] == [(60735, 173606)]
    assert cert.basis.members == N4S8_HIT


# the candidates of each of the 58 progress reports of the unpruned 4x4x4
# size-7 search, recorded with a counter that summed every group, not with
# the closed form they check; none is pruned.  With size 8 below, these are
# the largest searches counted in closed form
N4S7_UNPRUNED_CANDIDATES = [
    6471002, 12420149, 17881661, 22888047, 27470163, 31657269, 35477085, 38955846, 42118356,
    44988041, 47587001, 49936061, 52054821, 53961705, 55674009, 57207948, 58578702,
    59800461, 60886469, 61849067, 62699735, 63449133, 64107141, 64682898, 65184840,
    65620737, 65997729, 66322361, 66600617, 66837953, 67039329, 67209240, 67351746,
    67470501, 67568781, 67649511, 67715291, 67768421, 67810925, 67844574, 67870908,
    67891257, 67906761, 67918389, 67926957, 67933145, 67937513, 67940516, 67942518,
    67943805, 67944597, 67945059, 67945311, 67945437, 67945493, 67945514, 67945520, 67945521,
]


@pytest.mark.parametrize("s, candidates", [(7, N4S7_UNPRUNED_CANDIDATES), (8, [14780172])],
                         ids=["n4s7", "n4s8"])
def test_unpruned_walk_progress_n4(s, candidates):
    reports = []
    cert = exists_resolving_of_size(G4, s, SearchOptions(prune=False, progress=reports.append))
    assert [(p.candidates_examined, p.pruned_subtrees) for p in reports] == [
        (c, 0) for c in candidates]
    assert cert.candidates_examined == candidates[-1]
    # the same hit as the pruned search, or none: pruning skips only sets that fail
    assert cert.basis == exists_resolving_of_size(G4, s).basis


# (candidates, pruned) of every progress report, taken before symmetry
# decided subtrees: n = 3 in every prune and normalize mode, n = 4 pruned
PROGRESS_PINS = json.loads((pathlib.Path(__file__).parent / "progress_pins.json").read_text())


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(PROGRESS_PINS))
def test_progress_pinned(name, workers):
    n, s = int(name[1]), int(name[3])
    mode = name.split("-")
    reports = []
    exists_resolving_of_size(hamming_graph(n, n, n), s, SearchOptions(
        prune=mode[1] == "pruned", normalize=mode[2] == "normalized", workers=workers,
        progress=reports.append))
    assert [[p.candidates_examined, p.pruned_subtrees] for p in reports] == PROGRESS_PINS[name]


@pytest.mark.parametrize("workers", [1, 2])
def test_candidate_budget_inside_a_settled_node(workers):
    # leaf 200,001 of the size-7 search falls under the twelfth first
    # pick, whose orbit is spent and whose subtree is counted at once:
    # it trips there
    with pytest.raises(BudgetExceeded) as exc:
        exists_resolving_of_size(G4, 7, SearchOptions(max_candidates=200_000, workers=workers))
    assert (exc.value.bound, exc.value.candidates_examined, str(exc.value)) == (
        "max_candidates", 200_000, "candidate budget of 200000 exceeded")


# (size, budget): leaf budget + 1 of the serial search falls in a subtree
# counted at once because its pick is spent at the second pick (58,870 and
# 45,000) or the third (47,950 and 26,500); recorded before orbits were
# taken below the first pick, with the reports made before the trip
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("s, k, reports", [
    (7, 58_870, 4), (7, 47_950, 4), (8, 45_000, 0), (8, 26_500, 0)])
def test_candidate_budget_inside_a_deeper_spent_subtree(s, k, reports, workers):
    seen = []
    with pytest.raises(BudgetExceeded) as exc:
        exists_resolving_of_size(G4, s, SearchOptions(
            max_candidates=k, workers=workers, progress=seen.append))
    assert (exc.value.bound, exc.value.candidates_examined, str(exc.value)) == (
        "max_candidates", k, f"candidate budget of {k} exceeded")
    assert [(p.candidates_examined, p.pruned_subtrees) for p in seen] == N4S7_PROGRESS[:reports]


def closure_values(fn) -> dict:
    """Every free variable of fn and of the functions it reaches, by name."""
    found, todo = {}, [fn]
    while todo:
        fn = todo.pop()
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
            if name not in found:
                found[name] = cell.cell_contents
                if callable(found[name]) and hasattr(found[name], "__code__"):
                    todo.append(found[name])
    return found


def test_walker_memos_dropped_on_exit():
    # every dict the walk reaches is a memo, and so is the keep list
    with _walker(G4, 7, (0,), True) as (picks, walk):
        walk(picks[0], _Budget(None))
        values = closure_values(walk)
        memos = [v for v in values.values() if isinstance(v, dict)] + [values["keep"]]
        assert len(memos) == 4 and all(memos)  # finals, groups, orbit and keep
        assert values["orbit"] in memos and values["groups"] in memos
    assert not any(memos)


@pytest.mark.parametrize("s, figures", [
    (7, {"rec": 317, "counted": 527, "groups": 1191, "orbit": 69, "keep": 113,
         "_color_feasible": 1256}),
    (8, {"rec": 161, "counted": 275, "groups": 521, "_color_feasible": 1161}),
])
def test_walk_figures_in_the_docstring(s, figures):
    """The 4x4x4 walk figures that the module docstring quotes: nodes
    walked, counts made, the sizes of the counter's, the orbits' and the
    keep memos, and the feasibility tests that built the keep masks, read
    by a profiler hook and from the closures."""
    calls = collections.Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == hammingdim.search.__file__:
            calls[frame.f_code.co_name] += 1

    with _walker(G4, s, (0,), True) as (picks, walk):
        budget = _Budget(None)
        sys.setprofile(hook)
        try:
            for pick in picks:
                if walk(pick, budget):
                    break
        finally:
            sys.setprofile(None)
        values = closure_values(walk)
        seen = {"rec": calls["rec"], "counted": calls["counted"],
                "groups": len(values["groups"]), "orbit": len(values["orbit"]),
                "keep": sum(map(len, values["keep"])),
                "_color_feasible": calls["_color_feasible"]}
    assert {name: seen[name] for name in figures} == figures


def adjacent(g, u, v) -> bool:
    return sum(a != b for a, b in zip(u, v)) in g.k


def automorphisms(n, low):
    """Each coordinate permutation and symbol permutations fixing the
    values below low, as the tuple of vertex indices each vertex goes to:
    coordinate i of the image is f[i] of coordinate pi[i]."""
    verts = list(hamming_graph(n, n, n).vertices())
    index = {x: v for v, x in enumerate(verts)}
    fixes = tuple(range(1, low))
    symbols = [fixes + p for p in itertools.permutations(range(low, n + 1))]
    for pi in itertools.permutations(range(3)):
        for f in itertools.product(symbols, repeat=3):
            yield tuple(index[tuple(f[i][x[pi[i]] - 1] for i in range(3))] for x in verts)


def stabiliser_orbits(group, prefix) -> list:
    """(least member, mask) of each orbit of two or more vertices under
    the elements that fix every vertex of prefix, by least member."""
    stab = [g for g in group if all(g[p] == p for p in prefix)]
    masks = {sum(1 << w for w in {g[v] for g in stab}) for v in range(len(group[0]))}
    return sorted(((m & -m).bit_length() - 1, m) for m in masks if m & (m - 1))


@pytest.mark.parametrize("n", [3, 4])
def test_prefix_orbits_are_stabiliser_orbits(n):
    """The walker's orbits of each prefix are those of the automorphisms
    fixing every vertex of it, found by brute force: over the whole group
    at n = 3, over the stabiliser of (1, 1, 1) at n = 4, with prefixes
    that hold it."""
    g = hamming_graph(n, n, n)
    verts = list(g.vertices())
    index = {x: v for v, x in enumerate(verts)}
    group = list(automorphisms(n, 1 if n == 3 else 2))
    assert len(group) == 6 * 6 ** 3
    rng = random.Random(5)
    for perm in rng.sample(group, 10):
        assert all(adjacent(g, verts[perm[u]], verts[perm[v]]) == adjacent(g, verts[u], verts[v])
                   for u, v in itertools.combinations(range(len(verts)), 2))
    # two prefixes whose stabiliser permutes the coordinates
    prefixes = [((1, 1, 1),), ((1, 1, 1), (2, 2, 2)), ((1, 1, 1), (1, 2, 2))]
    if n == 3:
        prefixes += [()] + list(itertools.combinations(verts, 2))
        prefixes += [tuple(sorted(rng.sample(verts, size))) for size in (3, 4) for _ in range(100)]
    else:
        prefixes += [((1, 1, 1),) + tuple(sorted(rng.sample(verts[1:], size)))
                     for size in (1, 2, 3) for _ in range(60)]
    with _walker(g, 2 * n, (), True) as (picks, walk):
        orbit = closure_values(walk)["orbit"]
        for prefix in prefixes:
            key = tuple(index[x] for x in prefix)
            assert orbit[key] == stabiliser_orbits(group, key), prefix
        # with nothing fixed, one orbit; with (1, 1, 1), one per number of
        # coordinates shared with it
        if n == 3:
            assert orbit[()] == [(0, (1 << len(verts)) - 1)]
        assert [verts[least] for least, _ in orbit[0,]] == [(1, 1, 2), (1, 2, 2), (2, 2, 2)]
        assert len(orbit[index[1, 1, 1], index[2, 2, 2]]) > len(orbit[0,])


def k3_distances(n: int) -> np.ndarray:
    """The distance table of the n x n x n graph with K={3}, vertices in
    lexicographic order: two vertices are 1 apart when they share no
    coordinate and 2 apart otherwise."""
    verts = np.array(list(itertools.product(range(n), repeat=3)))
    shared = (verts[:, None, :] == verts[None, :, :]).any(axis=2)
    dist = np.where(shared, 2, 1).astype(np.int16)
    np.fill_diagonal(dist, 0)
    return dist


def resolves(dist: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Whether each row of ``sets``, vertex indices, resolves the graph
    of ``dist``: each vertex's distances to the set, read as one base-3
    number, must differ from every other vertex's."""
    codes = np.zeros((len(sets), len(dist)), dtype=np.int16)
    for j in range(sets.shape[1]):
        codes *= 3
        codes += dist[sets[:, j]]
    codes.sort(axis=1)
    return (codes[:, 1:] != codes[:, :-1]).all(axis=1)


def resolving_subsets(size: int) -> np.ndarray:
    """Every resolving size-set of the 3x3x3 graph with K={3}, by vertex
    index in lexicographic order, decided from distance rows alone."""
    sets = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(27), size)),
                       dtype=np.int16).reshape(-1, size)
    return sets[resolves(k3_distances(3), sets)]


def test_n3_verdicts_by_brute_force():
    """Every subset of sizes 1-6, decided with numpy and neither the
    search's walk nor the code verifier: each size's verdict is the
    search's, and the search's size-6 hit is the first resolving set."""
    verts = list(G3.vertices())
    for size in range(1, 7):
        found = resolving_subsets(size)
        cert = exists_resolving_of_size(G3, size)
        assert (cert.verdict is Verdict.RESOLVING) == (len(found) > 0), size
    assert len(found) == 324
    holding = found[found[:, 0] == 0]  # the sets holding (1, 1, 1)
    assert len(holding) == 72
    assert cert.basis.members == tuple(verts[v] for v in holding[0])
    # Burnside: 2,592 fixed (automorphism, set) pairs over 1,296
    # automorphisms make 2 orbits, as the least image of each set shows
    group = np.array(list(automorphisms(3, 1)))
    assert len(group) == 1296
    masks = (np.int64(1) << found.astype(np.int64)).sum(axis=1)
    images = (np.int64(1) << group[:, found].astype(np.int64)).sum(axis=2)
    assert (images == masks).sum() == 2592
    assert len(np.unique(images.min(axis=0))) == 2


def test_n4_size7_by_brute_force():
    """Every 7-set of the 4x4x4 graph that holds (1, 1, 1) and meets the
    block-sum bound, enumerated and decided with numpy and neither the
    search's walk nor the code verifier.  Seven landmarks meet the bound
    exactly when each color's four blocks hold 1, 2, 2 and 2 of them.
    With the rows sorted, each column is a sequence of length 7 with
    those value counts, starting at 1, and the first column does not
    fall; keeping the rows strictly increasing leaves each set once."""
    seqs = np.array([(0, *rest) for rest in itertools.product(range(4), repeat=6)],
                    dtype=np.int16)
    counts = np.sort((seqs[:, :, None] == np.arange(4)).sum(axis=1), axis=1)
    cols = seqs[(counts == [1, 2, 2, 2]).all(axis=1)]
    assert len(cols) == 630
    first = cols[(np.diff(cols, axis=1) >= 0).all(axis=1)]
    # vertex index 16a + 4b + c; the first two columns' rows must not fall
    pairs = (16 * first[:, None, :] + 4 * cols[None, :, :]).reshape(-1, 7)
    pairs = pairs[(np.diff(pairs, axis=1) >= 0).all(axis=1)]
    sets = (pairs[:, None, :] + cols[None, :, :]).reshape(-1, 7)
    sets = sets[(np.diff(sets, axis=1) > 0).all(axis=1)]
    assert len(sets) == 326844
    # the running totals per first free pick, the second-least member
    per_pick = np.bincount(sets[:, 1], minlength=59)[1:]
    assert np.cumsum(per_pick).tolist() == [c for c, _ in N4S7_PROGRESS]
    dist = k3_distances(4)
    # in parts, to keep the codes' memory small
    assert not any(resolves(dist, part).any() for part in np.array_split(sets, 8))
    # the decider accepts a resolving set: the size-8 hit, not less its last
    hit = np.array([[16 * (a - 1) + 4 * (b - 1) + c - 1 for a, b, c in N4S8_HIT]])
    assert resolves(dist, hit).tolist() == [True]
    assert resolves(dist, hit[:, :-1]).tolist() == [False]


def test_search_domain_errors():
    with pytest.raises(Unsupported):
        exists_resolving_of_size(hamming_graph(5, 5, 5), 9)
    with pytest.raises(Unsupported):
        exists_resolving_of_size(G3, 7)  # beyond 2n
    with pytest.raises(Unsupported):
        exists_resolving_of_size(hamming_graph(3, 4, 5), 5)
    with pytest.raises(Unsupported):
        exists_resolving_of_size(GhgParams((3, 3, 3), frozenset({1, 2})), 5)


def test_metric_dimension_n3():
    cert = metric_dimension(G3)
    assert cert.verdict is Verdict.DIMENSION
    assert cert.dimension == 6
    assert "size 5: none exists" in cert.attestation
    assert "size 6: resolving set found" in cert.attestation
    assert is_resolving_by_distance(cert.basis).verdict is Verdict.RESOLVING


def test_metric_dimension_analytic_route():
    cert = metric_dimension(hamming_graph(5, 5, 5))
    assert cert.dimension == 9
    assert cert.basis == metric_basis(5)
    assert cert.candidates_examined is None  # no search happened
    assert "construction" in cert.attestation
    assert metric_dimension(hamming_graph(8, 8, 8)).dimension == 15


def test_metric_dimension_domain_errors():
    with pytest.raises(Unsupported):
        metric_dimension(hamming_graph(3, 4, 5))
    with pytest.raises(Unsupported):
        metric_dimension(GhgParams((5, 5, 5), frozenset({1, 2})))


def brute_force_two_basic(n):
    """Independent enumerator: filter every 6-subset of the n=3 cube."""
    assert n == 3
    verts = list(G3.vertices())
    out = []
    for combo in itertools.combinations(verts, 6):
        ok = True
        for i in range(3):
            counts = [0, 0, 0]
            for v in combo:
                counts[v[i] - 1] += 1
            if counts != [2, 2, 2]:
                ok = False
                break
        if ok:
            for x, y in itertools.combinations(combo, 2):
                if sum(a == b for a, b in zip(x, y)) >= 2:
                    ok = False
                    break
        if ok:
            out.append(frozenset(combo))
    return out


def test_enumerate_two_basic_n3_against_brute_force():
    enumerated = [W.members for W in enumerate_two_basic(3)]
    oracle = sorted(tuple(sorted(c)) for c in brute_force_two_basic(3))
    assert len(oracle) == 144
    # lexicographic order: budget truncation keeps the first systems
    assert enumerated == oracle
    for k in (0, 1, 7, 143, 144, 1000):
        assert [W.members for W in enumerate_two_basic(3, budget=k)] == oracle[:k]


def test_enumerate_two_basic_properties():
    for W in enumerate_two_basic(3, budget=20):
        assert classify(W).kind is SystemKind.TWO_BASIC
        assert len(W.members) == 6
        assert W.members == tuple(sorted(W.members))
    assert len(list(enumerate_two_basic(3, budget=10))) == 10


def test_enumerate_two_basic_sampling():
    first = [W.members for W in enumerate_two_basic(4, budget=40, seed=123)]
    again = [W.members for W in enumerate_two_basic(4, budget=40, seed=123)]
    other = [W.members for W in enumerate_two_basic(4, budget=40, seed=124)]
    assert first == again
    assert first != other
    assert len(first) == 40
    for W in enumerate_two_basic(5, budget=10, seed=5):
        assert classify(W).kind is SystemKind.TWO_BASIC
        assert W.graph.dims == (5, 5, 5)


def test_shuffle_draws_as_random_shuffle():
    # same permutations and the same stream position afterwards, for
    # lengths whose draws need rejection (3, 5, 6, 7, ...) and those that
    # never do (1, 2, 4, 8)
    for seed in (1, 7, 20240311):
        ours, theirs = random.Random(seed), random.Random(seed)
        for size in [*range(12), 64, 100]:
            x, y = list(range(size)), list(range(size))
            _shuffle(ours.getrandbits, x)
            theirs.shuffle(y)
            assert x == y
        assert ours.random() == theirs.random()


def two_basic_by_random_shuffle(n, count, seed):
    """The n >= 4 sampler written with random.shuffle, every matching of
    a round built before their edges are compared."""
    rng = random.Random(seed)
    for _ in range(count):
        while True:
            matchings = []
            for _i in range(3):
                p = list(range(2 * n))
                rng.shuffle(p)
                matchings.append(sorted(tuple(sorted(p[j:j + 2])) for j in range(0, 2 * n, 2)))
            if len({e for m in matchings for e in m}) == 3 * n:
                break
        labels = [list(range(1, n + 1)) for _i in range(3)]
        for values in labels:
            rng.shuffle(values)
        yield tuple(sorted(matching_triples(matchings, labels)))


@pytest.mark.parametrize("n", [4, 5])
def test_enumerate_two_basic_draws_as_random_shuffle(n):
    for seed in (1, 7, 20240311, 1000 * n + 4001):
        assert ([W.members for W in enumerate_two_basic(n, budget=300, seed=seed)]
                == list(two_basic_by_random_shuffle(n, 300, seed)))


def test_enumerate_two_basic_domain():
    with pytest.raises(Unsupported):
        list(enumerate_two_basic(6))
    with pytest.raises(Unsupported):
        list(enumerate_two_basic(2))
    for n, budget in ((3, -2), (4, -1)):
        with pytest.raises(Unsupported, match="non-negative"):
            list(enumerate_two_basic(n, budget=budget))
    assert list(enumerate_two_basic(4, budget=0)) == []
    # random.seed would read -5 as 5 and True as 1; a list is no seed
    for n, seed in ((4, -5), (5, True), (4, [1]), (4, 1.0), (3, -1)):
        with pytest.raises(Unsupported, match="seed must be a non-negative integer"):
            list(enumerate_two_basic(n, budget=1, seed=seed))
    assert len(list(enumerate_two_basic(4, budget=1, seed=0))) == 1


def test_enumerate_two_basic_refuses_at_the_call():
    # not at the first draw, as a generator function would
    for n, kwargs in ((6, {}), (2, {}), (4, {"seed": -5}), (3, {"seed": -1}),
                      (3, {"budget": -1}), (5, {"budget": 1.0})):
        with pytest.raises(Unsupported):
            enumerate_two_basic(n, **kwargs)
