"""Exhaustive certification searches and 2-basic system enumeration.

The searches answer "is there a resolving set of size s" for the small
diagonal graphs (n = 3, 4) by walking size-s vertex subsets in
lexicographic order.  Fixing the vertex (1, 1, 1) into every candidate
is sound for existence questions because per-coordinate symbol
permutations are automorphisms that act transitively on vertices, so
any resolving set can be moved onto one containing (1, 1, 1).

Pruning rests on the block-sum bound: in a resolving set, any two
blocks of one color hold at least 3 landmarks together.  A partial
subset dies as soon as no completion from the remaining (lexicographic
suffix) vertices can repair all deficient block pairs.  Pruning never
changes a verdict, only the work done; it can be disabled to check
that.

The feasibility test of one color depends only on that color's block
counts, the suffix start and the picks left.  The walker carries each
color's counts as one integer code and asks ``_color_feasible`` once
per distinct (color, code, suffix start, picks left) within a search
call; every later check of the same key is a dict lookup.  The 4x4x4
size-7 search makes about 5 million checks on about 2,600 keys.  The
memo lives for one call and nothing is cached across calls.

Candidates are checked without a pass over the vertices.  Non-landmarks
whose landmark signatures coincide form collision classes, kept as
vertex bitmasks while they hold two or more members; each pick refines
the parent's classes, and a set resolves exactly when none is left.
With one pick to go, each class yields the bitmask of final picks x
that clear it: a pair needs x to share a coordinate with exactly one
member (or be one), a triple needs x inside it splitting the other two,
and four or more members always collide.  The AND of those masks over
the parent's classes answers every final pick at once.  Leaves are
still counted one by one in tree order, so counts and candidate budgets
trip exactly where a per-leaf check would.

Budgets are explicit and trip a BudgetExceeded error rather than
silently truncating.  The wall-time budget is one absolute deadline,
shared by parallel workers, read every 4,096 leaves and every 256
last-level parents.  Nonexistence certificates report the exact number
of candidates examined, which is independent of worker count: with
workers, each first-level pick is one task, walked by the same search
with its top level capped at that pick, and task results are combined
in tree order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import multiprocessing
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import BudgetExceeded, Unsupported
from .hamming import GhgParams, hamming_graph
from .resolving import Certificate, LandmarkSet, Verdict, is_resolving, lower_bound
from .construct import metric_basis

DEFAULT_SEED = 20240311


@dataclass(frozen=True)
class SearchProgress:
    candidates_examined: int
    pruned_subtrees: int
    elapsed_seconds: float


@dataclass(frozen=True)
class SearchOptions:
    """Knobs for the subset searches.

    ``max_candidates`` bounds the number of complete candidate subsets
    whose resolving check runs; ``max_seconds`` bounds wall time.  With
    ``workers`` > 1 each first-level pick is one task, the subtree below
    it searched in a worker process; verdicts and counts do not depend
    on the split.
    """

    prune: bool = True
    normalize: bool = True
    max_candidates: int | None = None
    max_seconds: float | None = None
    workers: int = 1
    progress: Callable[[SearchProgress], None] | None = None
    progress_every: int = 1_000_000

    def __post_init__(self):
        if self.max_candidates is not None and self.max_candidates < 0:
            raise Unsupported(
                f"candidate budget must be non-negative, got {self.max_candidates}")


def _prepare(g: GhgParams):
    n = g.dims[0]
    verts = list(g.vertices())
    c1 = tuple(v[0] - 1 for v in verts)
    c2 = tuple(v[1] - 1 for v in verts)
    c3 = tuple(v[2] - 1 for v in verts)
    total = len(verts)
    # suffix[j][i][a]: vertices at index >= j whose coordinate i+1 equals a+1
    suffix = []
    cur = [[0] * n for _ in range(3)]
    suffix.append([row[:] for row in cur])
    for idx in range(total - 1, -1, -1):
        cur[0][c1[idx]] += 1
        cur[1][c2[idx]] += 1
        cur[2][c3[idx]] += 1
        suffix.append([row[:] for row in cur])
    suffix.reverse()  # suffix[j] now matches indices >= j
    return verts, (c1, c2, c3), suffix


def _color_feasible(cnt, avail, t) -> bool:
    """Can t more picks bring every block pair of this color to sum >= 3?

    Either every block reaches 2, or exactly one block a0 ends at a size
    v in {0, 1}, no less than its count and within its availability, and
    every other block reaches 3 - v.  Availability caps come from the
    lexicographic suffix.
    """
    n = len(cnt)

    def cost(target: int, skip: int = -1) -> int:
        """Picks raising every block but ``skip`` to target; t + 1 if short."""
        need = 0
        for a in range(n):
            d = target - cnt[a]
            if a != skip and d > 0:
                if d > avail[a]:
                    return t + 1
                need += d
        return need

    return cost(2) <= t or any(
        v - cnt[a0] + cost(3 - v, a0) <= t
        for a0 in range(n)
        for v in range(cnt[a0], 2)
        if v - cnt[a0] <= avail[a0]
    )


class _Budget:
    __slots__ = ("max_candidates", "deadline", "leaves", "pruned", "nodes", "t0",
                 "progress", "progress_every", "next_report")

    def __init__(self, opts: SearchOptions, deadline: float | None = None):
        self.max_candidates = opts.max_candidates
        self.t0 = time.monotonic()
        if deadline is None and opts.max_seconds is not None:
            deadline = self.t0 + opts.max_seconds
        self.deadline = deadline
        self.leaves = 0
        self.pruned = 0
        self.nodes = 0
        self.progress = opts.progress
        self.progress_every = max(1, opts.progress_every)
        self.next_report = self.progress_every

    def _check_clock(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(
                "wall-time budget exceeded",
                bound="max_seconds",
                candidates_examined=self.leaves,
            )

    def leaf(self):
        self.leaves += 1
        if self.max_candidates is not None and self.leaves > self.max_candidates:
            raise BudgetExceeded(
                f"candidate budget of {self.max_candidates} exceeded",
                bound="max_candidates",
                candidates_examined=self.leaves - 1,
            )
        if self.leaves % 4096 == 0:
            self._check_clock()
        if self.progress is not None and self.leaves >= self.next_report:
            self.next_report += self.progress_every
            self.progress(SearchProgress(
                self.leaves, self.pruned, time.monotonic() - self.t0))

    def node(self):
        """Count one last-level parent, reading the clock every 256: a
        well-pruned search can go a long time between leaves."""
        self.nodes += 1
        if self.nodes % 256 == 0:
            self._check_clock()


class _Memo(dict):
    """``fn(key)``, computed on a key's first lookup and kept after."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _ClassFinals(dict):
    """Collision class bitmask -> bitmask of the last picks x after which
    no two of its members collide.

    A pair survives x unless both or neither share a coordinate with x;
    a triple survives only an x inside it that splits the other two;
    four or more members always keep two together.  Only pairs and
    triples are kept: larger classes are the most numerous keys and
    answer 0 without any work.
    """

    __slots__ = ("share",)

    def __init__(self, share: list[int]):
        super().__init__()
        self.share = share

    def __missing__(self, m: int) -> int:
        if m.bit_count() > 3:
            return 0
        share = self.share
        members = [i for i in range(len(share)) if m >> i & 1]
        if len(members) == 2:
            u, v = members
            finals = share[u] ^ share[v] | m
        else:
            u, v, w = members
            finals = ((share[v] ^ share[w]) & 1 << u
                      | (share[u] ^ share[w]) & 1 << v
                      | (share[u] ^ share[v]) & 1 << w)
        self[m] = finals
        return finals


def _share_masks(cols, total: int) -> list[int]:
    """share[u]: bitmask of the vertices agreeing with u in some coordinate."""
    c1, c2, c3 = cols
    return [
        sum(1 << v for v in range(total)
            if c1[u] == c1[v] or c2[u] == c2[v] or c3[u] == c3[v])
        for u in range(total)
    ]


def _subset_search(g, s, fixed, start, opts: SearchOptions,
                   deadline: float | None = None, stop: int | None = None):
    """Walk all size-s supersets of ``fixed`` drawn from indices >= start.

    Returns (found_members_or_None, leaves_examined, pruned_subtrees).
    ``deadline`` is an absolute ``time.monotonic()`` instant that
    overrides ``opts.max_seconds``.  ``stop`` caps the first free pick
    below that index.
    """
    n = g.dims[0]
    verts, cols, suffix = _prepare(g)
    total = len(verts)
    rows = len(suffix)
    share = _share_masks(cols, total)

    # Color i's block counts travel as one integer, i * span + code with
    # code = sum(cnt[i][a] * base**a); no count exceeds s, so base s + 1
    # keeps codes distinct and below span.  A feasibility key adds
    # (t * rows + j) * 3 * span for suffix start j and t picks left.
    base = s + 1
    span = base ** n

    def color_feasible(key: int) -> bool:
        rest, code = divmod(key, span)
        rest, i = divmod(rest, 3)
        t, j = divmod(rest, rows)
        cnt = [code // base ** a % base for a in range(n)]
        return _color_feasible(cnt, suffix[j][i], t)

    feasible = _Memo(color_feasible)
    # s1, s2, s3[idx]: what picking idx adds to each color's code
    s1, s2, s3 = ([base ** c[idx] for idx in range(total)] for c in cols)
    # offsets[t][idx]: key offset after picking idx with t picks left
    offsets = [[(t * rows + idx + 1) * 3 * span for idx in range(total)]
               for t in range(s)]

    # Collision classes: non-landmarks with equal signatures, kept as
    # bitmasks and only while they hold two or more vertices.  A set
    # resolves exactly when no class is left.  A new landmark x splits
    # each class into the members sharing a coordinate with x and the
    # rest, and x itself leaves its class.
    sharing = [share[x] & ~(1 << x) for x in range(total)]
    apart = [~share[x] for x in range(total)]

    def refine(classes: list[int], x: int) -> list[int]:
        """The classes once x joins the landmarks."""
        a_mask = sharing[x]
        b_mask = apart[x]
        out = []
        keep = out.append
        for m in classes:
            a = m & a_mask
            if a & (a - 1):
                keep(a)
            b = m & b_mask
            if b & (b - 1):
                keep(b)
        return out

    finals = _ClassFinals(share)
    # ends[t]: the loop limit for a pick with t picks left, the top one
    # lowered to ``stop``; a list lookup keeps the cap free per node
    ends = [total - t + 1 for t in range(s + 1)]
    top = s - len(fixed)
    if stop is not None:
        ends[top] = min(ends[top], stop)
    everyone = (1 << total) - 1
    codes = [i * span for i in range(3)]
    classes = [everyone]
    for idx in fixed:
        codes = [k + inc[idx] for k, inc in zip(codes, (s1, s2, s3))]
        classes = refine(classes, idx)
    chosen = list(fixed)
    budget = _Budget(opts, deadline)
    prune = opts.prune
    found: list | None = None

    def last(lo: int, k1: int, k2: int, k3: int, classes: list[int]) -> bool:
        """One pick left: the parent's classes decide every final pick."""
        nonlocal found
        budget.node()
        good = everyone
        for m in classes:
            good &= finals[m]
        off = offsets[0]
        for idx in range(lo, ends[1]):
            if prune:
                o = off[idx]
                if not (feasible[o + k1 + s1[idx]] and feasible[o + k2 + s2[idx]]
                        and feasible[o + k3 + s3[idx]]):
                    budget.pruned += 1
                    continue
            budget.leaf()
            if good >> idx & 1:
                chosen.append(idx)
                found = [verts[i] for i in chosen]
                return True
        return False

    def rec(lo: int, t: int, k1: int, k2: int, k3: int, classes: list[int]) -> bool:
        if t == 1:
            return last(lo, k1, k2, k3, classes)
        off = offsets[t - 1]
        for idx in range(lo, ends[t]):
            a = k1 + s1[idx]
            b = k2 + s2[idx]
            c = k3 + s3[idx]
            if prune:
                o = off[idx]
                if not (feasible[o + a] and feasible[o + b] and feasible[o + c]):
                    budget.pruned += 1
                    continue
            chosen.append(idx)
            if rec(idx + 1, t - 1, a, b, c, refine(classes, idx)):
                return True
            chosen.pop()
        return False

    try:
        if top:
            rec(start, top, *codes, classes)
        else:
            # nothing left to pick: the fixed set is the one candidate
            budget.leaf()
            if not classes:
                found = [verts[i] for i in chosen]
    finally:
        # rec reaches itself through its closure, so this frame is freed
        # only by a cyclic collection; empty the memos now instead
        feasible.clear()
        finals.clear()
    return found, budget.leaves, budget.pruned


def _subtree_task(args):
    g, s, fixed, idx, opts, deadline = args
    try:
        return ("ok", _subset_search(g, s, fixed, idx, opts, deadline, stop=idx + 1))
    except BudgetExceeded as e:
        return ("budget", (e.bound, e.candidates_examined))


def _worker(tasks, todo, conn):
    """Answer on conn for each task index taken off ``todo``, until the
    parent, holding every result it needs, kills the worker."""
    while True:
        i = todo.get()
        conn.send((i, _subtree_task(tasks[i])))


def _subtree_results(tasks, workers: int) -> Iterator:
    """``_subtree_task`` over tasks, yielded in task order.

    Forked workers take task indices off one queue as they fall free,
    and each answers on a pipe of its own.  The parent holds no lock a
    worker takes, so closing the generator may kill the workers at any
    point; ``Pool.terminate`` can hang joining its task thread when it
    kills a worker halfway through sending a result.
    """
    # imported here: it loads subprocess and friends, 0.4 MB of RSS that
    # serial callers never need
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    todo = ctx.SimpleQueue()
    # at most n**3 = 64 small indices: they fit the pipe's buffer, so
    # these puts return before any worker reads
    for i in range(len(tasks)):
        todo.put(i)
    conns, procs = [], []
    try:
        for _ in range(workers):
            conn, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(tasks, todo, child), daemon=True)
            proc.start()
            child.close()
            conns.append(conn)
            procs.append(proc)
        done = {}
        for i in range(len(tasks)):
            while i not in done:
                for conn in wait(conns):
                    j, result = conn.recv()
                    done[j] = result
            yield done.pop(i)
    finally:
        for proc in procs:
            proc.kill()
            proc.join()


def _check_search_graph(g: GhgParams, s: int) -> int:
    if g.r != 3 or g.k != frozenset({3}):
        raise Unsupported(f"search covers 3-coordinate graphs with K={{3}}, got {g.format()}")
    n = g.dims[0]
    if g.dims != (n, n, n) or n < 3:
        raise Unsupported(f"search covers diagonal graphs with n >= 3, got {g.format()}")
    if n > 4:
        raise Unsupported(f"n={n}: exhaustive subset search is only tractable for n <= 4")
    if not 1 <= s <= 2 * n:
        raise Unsupported(f"size {s} outside 1..{2 * n}; beyond 2n the answer is known")
    return n


def exists_resolving_of_size(
    g: GhgParams, s: int, opts: SearchOptions | None = None
) -> Certificate:
    """Search every size-s subset (up to symmetry) for a resolving set.

    Returns a certificate: verdict RESOLVING with the lexicographically
    first basis found, or verdict DIMENSION attesting that no size-s
    resolving set exists, with the exact candidate count examined.
    """
    opts = opts or SearchOptions()
    _check_search_graph(g, s)
    total = g.vertex_count()
    fixed = (0,) if (opts.normalize and s >= 1) else ()
    start = 1 if fixed else 0
    mode = f"normalized={bool(fixed)}, pruned={opts.prune}"

    t = s - len(fixed)
    if opts.workers <= 1 or t <= 1:
        found, leaves, pruned = _subset_search(g, s, fixed, start, opts)
        return _search_certificate(g, s, found, leaves, mode)

    # One task per first free pick, combined in tree order.  The walk
    # prunes an infeasible pick itself, so totals match the serial walk.
    # One absolute deadline, read by every forked worker, so subtrees do
    # not each restart the wall-time budget.
    t0 = time.monotonic()
    deadline = None if opts.max_seconds is None else t0 + opts.max_seconds
    task_opts = dataclasses.replace(opts, progress=None)
    tasks = [(g, s, fixed, idx, task_opts, deadline)
             for idx in range(start, total - t + 1)]
    leaves_total = 0
    pruned_total = 0
    workers = min(opts.workers, len(tasks))
    with contextlib.closing(_subtree_results(tasks, workers)) as results:
        for kind, payload in results:
            if kind == "budget":
                (bound, leaves), found, pruned = payload, None, 0
            else:
                bound, (found, leaves, pruned) = None, payload
            leaves_total += leaves
            pruned_total += pruned
            # a serial walk always trips at leaf max_candidates + 1, so it
            # reports exactly max_candidates
            if bound == "max_candidates" or (
                    opts.max_candidates is not None and leaves_total > opts.max_candidates):
                raise BudgetExceeded(
                    f"candidate budget of {opts.max_candidates} exceeded",
                    bound="max_candidates",
                    candidates_examined=opts.max_candidates,
                )
            if bound == "max_seconds":
                raise BudgetExceeded(
                    "wall-time budget exceeded",
                    bound="max_seconds",
                    candidates_examined=leaves_total,
                )
            if opts.progress is not None:
                opts.progress(SearchProgress(
                    leaves_total, pruned_total, time.monotonic() - t0))
            if found is not None:
                return _search_certificate(g, s, found, leaves_total, mode)
    return _search_certificate(g, s, None, leaves_total, mode)


def _search_certificate(g, s, found, leaves, mode) -> Certificate:
    if found is not None:
        W = LandmarkSet(g, found)
        cert = is_resolving(W)
        if cert.verdict is not Verdict.RESOLVING:
            raise AssertionError(f"search returned a non-resolving set {found!r}")
        return Certificate(
            Verdict.RESOLVING,
            g,
            landmarks=W,
            basis=W,
            attestation=(
                f"size-{s} resolving set found by lexicographic subset search "
                f"({mode}); first hit in tree order"
            ),
            candidates_examined=leaves,
        )
    return Certificate(
        Verdict.DIMENSION,
        g,
        attestation=(
            f"exhaustive subset search ({mode}): no resolving set of size {s} "
            f"on {g.format()}; every resolving set has at least {s + 1} landmarks"
        ),
        candidates_examined=leaves,
    )


def metric_dimension(g: GhgParams, opts: SearchOptions | None = None) -> Certificate:
    """The least resolving-set size, with a certificate.

    For n in {3, 4} this is fully search-certified: sizes from the block
    bound 2n - 1 upward are exhausted until one admits a resolving set.
    For n >= 5 the value 2n - 1 comes from the block bound matching the
    explicit construction, which is verified before certifying.
    """
    if g.r != 3 or g.k != frozenset({3}):
        raise Unsupported(f"dimension covers 3-coordinate graphs with K={{3}}, got {g.format()}")
    n = g.dims[0]
    if g.dims != (n, n, n) or n < 3:
        raise Unsupported(f"dimension is implemented for diagonal graphs with n >= 3")
    if n >= 5:
        basis = metric_basis(n)
        cert = is_resolving(basis)
        if cert.verdict is not Verdict.RESOLVING:
            raise AssertionError(f"stored construction for n={n} failed verification")
        return Certificate(
            Verdict.DIMENSION,
            g,
            basis=basis,
            dimension=2 * n - 1,
            attestation=(
                f"block pairs of one coordinate hold >= 3 landmarks together, "
                f"forcing >= {2 * n - 1}; the explicit construction achieves it "
                f"(verified resolving)"
            ),
        )
    opts = opts or SearchOptions()
    notes = []
    examined = 0
    for s in range(lower_bound(n, n, n), 2 * n + 1):
        cert = exists_resolving_of_size(g, s, opts)
        examined += cert.candidates_examined or 0
        if cert.verdict is Verdict.RESOLVING:
            notes.append(f"size {s}: resolving set found")
            return Certificate(
                Verdict.DIMENSION,
                g,
                basis=cert.basis,
                dimension=s,
                attestation="; ".join(notes),
                candidates_examined=examined,
            )
        notes.append(
            f"size {s}: none exists ({cert.candidates_examined} candidates examined)"
        )
    raise AssertionError("no resolving set up to size 2n; the construction disproves this")


def _pair_list(order: int, perm: list[int]) -> list[tuple[int, int]]:
    pairs = [tuple(sorted((perm[2 * i], perm[2 * i + 1]))) for i in range(order // 2)]
    return sorted(pairs)


def enumerate_two_basic(
    n: int, *, budget: int | None = None, seed: int = DEFAULT_SEED
) -> Iterator[LandmarkSet]:
    """Yield 2-basic landmark systems on the n-diagonal graph.

    n = 3: exhaustive, in lexicographic member order (budget truncates if
    given).  n in {4, 5}: independent uniform samples, ``budget`` of them
    (default 10000), reproducible from ``seed``.  Uniformity comes from
    sampling three pairwise edge-disjoint perfect matchings of the 2n
    landmarks-to-be plus uniform value labels per color; every 2-basic
    system arises from exactly (2n)! such labeled structures.
    """
    if n == 3:
        yield from itertools.islice(_two_basic_systems(3),
                                    None if budget is None else max(budget, 0))
        return
    if n not in (4, 5):
        raise Unsupported(f"2-basic enumeration is implemented for n in {{3, 4, 5}}")
    import random

    rng = random.Random(seed)
    g = hamming_graph(n, n, n)
    count = 10_000 if budget is None else budget
    order = 2 * n
    elements = list(range(order))
    for _ in range(count):
        while True:
            perms = []
            for _i in range(3):
                p = elements[:]
                rng.shuffle(p)
                perms.append(_pair_list(order, p))
            flat = [frozenset(e) for m in perms for e in m]
            if len(set(flat)) == 3 * (order // 2):
                break
        values = []
        for _i in range(3):
            vals = list(range(1, n + 1))
            rng.shuffle(vals)
            values.append(vals)
        pair_of = [[0] * order for _ in range(3)]
        for i, matching in enumerate(perms):
            for j, (a, b) in enumerate(matching):
                pair_of[i][a] = j
                pair_of[i][b] = j
        members = sorted(
            tuple(values[i][pair_of[i][e]] for i in range(3)) for e in elements
        )
        yield LandmarkSet(g, members)


def _two_basic_systems(n: int) -> Iterator[LandmarkSet]:
    """Every 2-basic system on the n-diagonal graph, in lexicographic
    member order.

    Each first value holds exactly two landmarks, which differ in both
    other coordinates.  Across rows no two landmarks share both, and
    every second and third value is used exactly twice.  The product of
    the per-row pairs runs in the same order as the members.
    """
    g = hamming_graph(n, n, n)
    cells = itertools.product(range(1, n + 1), repeat=2)
    pairs = [(x, y) for x, y in itertools.combinations(cells, 2)
             if x[0] != y[0] and x[1] != y[1]]
    twice = sorted([*range(1, n + 1)] * 2)
    for rows in itertools.product(pairs, repeat=n):
        picked = [cell for pair in rows for cell in pair]
        if (len(set(picked)) == 2 * n
                and sorted(b for b, _ in picked) == twice
                and sorted(c for _, c in picked) == twice):
            yield LandmarkSet(g, [(a, *cell)
                                  for a, pair in enumerate(rows, 1) for cell in pair])


__all__ = [
    "SearchOptions",
    "SearchProgress",
    "exists_resolving_of_size",
    "metric_dimension",
    "enumerate_two_basic",
    "DEFAULT_SEED",
]
