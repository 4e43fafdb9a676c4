"""Exhaustive subset searches, their invariants, and the enumerator.

Search-space sizes are pinned to the binomials they must equal when
pruning is off: fixing (1,1,1) leaves C(26,4) = 14,950 subsets at n=3
s=5, and the full space has C(27,5) = 80,730.
"""

import itertools
import json
import os
import pathlib
import subprocess
import sys
import textwrap
import time

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
from hammingdim.search import _color_feasible

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
    # the parallel split trips where the serial walk does and says the same;
    # 1039 is one short of the pruned walk's 1040 leaves
    for prune in (True, False):
        for k in (5, 100, 500, 1039):
            serial = budget_error(5, prune=prune, max_candidates=k)
            assert serial == ("max_candidates", k, f"candidate budget of {k} exceeded")
            assert budget_error(5, prune=prune, max_candidates=k, workers=2) == serial
    with pytest.raises(Unsupported):
        SearchOptions(max_candidates=-1)


def test_wall_time_budget():
    with pytest.raises(BudgetExceeded) as exc:
        exists_resolving_of_size(
            G3, 5, SearchOptions(prune=False, max_seconds=0.0)
        )
    assert exc.value.bound == "max_seconds"


def test_wall_time_budget_is_one_deadline_across_workers():
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded) as exc:
        exists_resolving_of_size(G4, 7, SearchOptions(workers=2, max_seconds=0.5))
    assert exc.value.bound == "max_seconds"
    assert time.monotonic() - t0 < 1.5


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
    # one report per first free pick, the same for every worker count;
    # size 6 is found under (1, 2, 2), the fourth
    serial, cert = progress_counts(s, normalize=normalize)
    assert len(serial) == {5: 23, 6: 4}[s]
    assert serial == sorted(serial)
    assert serial[-1] == (json.loads(cert)["candidates_examined"], pruned)
    for workers in (2, 4):
        assert progress_counts(s, normalize=normalize, workers=workers) == (serial, cert)


def test_parallel_workers_are_capped_by_tasks(monkeypatch):
    """A search never starts more workers than there are first picks."""
    sizes = []

    def inline(walk, picks, budget, workers):
        sizes.append(workers)
        for pick in picks:
            yield budget.add(*budget.alone(walk, pick))

    monkeypatch.setattr(hammingdim.search, "_forked", inline)
    cert = exists_resolving_of_size(G3, 5, SearchOptions(workers=1000))
    assert sizes == [23]  # first picks 1..23 leave four more among 27
    assert cert.candidates_examined == 1040


STRESS = textwrap.dedent("""
    from hammingdim import (BudgetExceeded, SearchOptions, exists_resolving_of_size,
                            hamming_graph)

    def run(s, **kw):
        try:
            return exists_resolving_of_size(G3, s, SearchOptions(**kw)).to_json()
        except BudgetExceeded as e:
            return (e.bound, e.candidates_examined, str(e))

    G3 = hamming_graph(3, 3, 3)
    cases = [(6, dict(prune=p, normalize=z)) for p in (True, False) for z in (True, False)]
    cases += [(5, dict(max_candidates=k)) for k in (5, 500)]
    first = [run(s, workers=4, **kw) for s, kw in cases]
    assert first == [run(s, **kw) for s, kw in cases]
    for _ in range(3):
        assert [run(s, workers=4, **kw) for s, kw in cases] == first
""")


def test_parallel_early_stops_stress():
    """More workers than cores, stopped early again and again by a hit or
    a budget: hits equal the serial ones, every repeat gives the same
    result, and the run ends."""
    src = pathlib.Path(hammingdim.search.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", STRESS], env=env, check=True, timeout=120)


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
    for n in (3, 4):
        for cnt in itertools.product(range(4), repeat=n):
            for avail in itertools.product(range(3), repeat=n):
                least = brute_force_feasible(cnt, avail)
                for t in range(6):
                    expected = least is not None and least <= t
                    assert _color_feasible(cnt, avail, t) == expected, (cnt, avail, t)


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


def test_pruned_walk_counts_n4_size8():
    assert walk_counts(G4, 8, True) == (60735, 173606)


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


def test_enumerate_two_basic_domain():
    with pytest.raises(Unsupported):
        list(enumerate_two_basic(6))
    with pytest.raises(Unsupported):
        list(enumerate_two_basic(2))
