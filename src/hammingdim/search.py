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
color's counts as one integer code k; a pick fixes the suffix start
after it, so whether pick idx keeps k feasible with t picks left after
it depends only on (t, k, idx).  One memo, ``keep[t][k]``, holds the
mask of such picks.  In each block they are a prefix: its two ends are
tested first, as most blocks keep none or all, then bisection finds the
cut, reading block sizes from one table per search.  A node visits only
the set bits of its index span AND its three codes' masks, and counts
the skipped picks as pruned before each visit and at the end, as a pick
by pick loop would, hit or not.  Without pruning every mask is all ones.
The 4x4x4 size-7 search makes 12,183 lookups on 113 keys, found by 1,256
feasibility tests (1,161 at size 8).  The memos live for one call and
nothing is cached across calls.

Candidates are checked without a pass over the vertices.  Non-landmarks
whose landmark signatures coincide form collision classes, kept as
vertex bitmasks while they hold two or more members; each pick refines
the parent's classes, and a set resolves exactly when none is left.
With one pick to go, each class yields the bitmask of final picks x
that clear it: a pair needs x to share a coordinate with exactly one
member (or be one), a triple needs x inside it splitting the other two,
and four or more members always collide.  Their AND over the classes,
``good``, holds the final picks that resolve the set.

One recursion decides every level.  With two or more picks left it
recurses on each pick, and with none left it checks the set.  With one
left it decides the last pick for every x at once, as bit operations on
vertex masks: the AND of the span of allowed indices with ``keep[0]``
of the three codes is the mask of leaves.  The first hit is the lowest
bit of ``good`` among them; the leaves and pruned picks up to it are
counted in one step, and a candidate budget trips on it exactly where
counting leaf by leaf would.

A node with two picks left is first checked whole, its classes largest
first, as they clear the fewest final picks.  A class of more than six
members kills the node: two picks split it into at most four parts and
take at most two of its members.  Otherwise the node lives if some pick
leaves a nonzero ``good``, and is walked like any other node.  A node
with no hit is counted in one step, and every dead node is counted so.
Its counts depend only on its start lo and its group: the picks left,
the three codes and the loop's end.  Each of the group's kept picks from
lo on adds its child's counts, and every other index from lo to the end
is pruned.  So the counter keeps, per group, running sums over its kept
picks from the top down, extended only as far down as a node asks.
Unpruned, every pick is kept: a node with t picks left counts the
C(total - lo, t) - C(total - end, t) t-subsets of [lo, total) whose least
member is below its end, prunes nothing and keeps no group.

Symmetry decides whole subtrees without walking them.  Symbol
permutations within a coordinate and permutations of the coordinates are
automorphisms.  At a node with three or more picks left, let P be
``fixed`` and the picks so far.  The automorphisms fixing every vertex
of P split the other vertices into orbits, and a pick y is spent for the
node's pick r when its orbit holds a vertex x outside P with x < r, that
is, when the orbit's least member is below r.  Under r, at every level,
a child whose pick is spent is counted in one step, not walked; with two
picks left, a node lives only by a pick that is not spent.  This is
sound: if a set S under r held a spent y = g(x), with g fixing P, then
g^-1(S) would hold P and x, so it would come before every set under r in
lexicographic order (x < r, and no set under r holds x), and it would
resolve if S did.  The result under r is used only when no earlier set
resolves, so S cannot resolve.  The counts are those the walk would
make, so the first hit, the candidate counts, progress and budget errors
are exact, and forked workers need no coordination.  The first pick is
the root's case: with (1, 1, 1) fixed, the root's orbits group the
vertices by the number of coordinates they share with it, and with
nothing fixed there is one orbit.

No group is enumerated.  An automorphism fixing P moves coordinate pi(i)
to i, for a permutation pi, and maps p[pi(i)] to p[i] there for each p
in P, so pi is possible only when each of those maps is well defined
(around each cycle of pi, they are then one-to-one).  The nine maps
between coordinates are built once per prefix, and each pi is read from
them.  Under such a pi, a vertex y goes to the vertices whose coordinate
i is the image of y[pi(i)] when P uses that value, and any value P
leaves unused otherwise.  A vertex's label is the least of its images
over the possible pi, each unused value read as the least one; two
vertices share an orbit exactly when they share a label.  A node with
only pi = id possible and at most one unused value per coordinate has
orbits of one vertex, and so do its descendants: they skip this work.
Orbits are kept per prefix, so the first picks share the root's.  The
4x4x4 size-7 search walks 317 nodes under 3 of its 58 first picks, makes
527 counts (191 dead nodes and 336 spent subtrees), and keeps 1,191
groups in the counter's memo and the orbits of 69 prefixes; the size-8
search walks 161 nodes and makes 275 counts on 521 groups before its
hit.  Unpruned, size 7 counts all C(63, 6) candidates in 6,306 counts,
each in closed form.

A search is one loop over the first free picks, whatever the worker
count.  The tables and memos are built once per search, into a
``walk(pick, budget)`` that walks the subtree under one first pick.
Serially the loop walks each pick on the search's one budget.  With w
workers, forked processes run the same inherited walk, worker j on the
fixed share of picks j, j + w, j + 2w, ..., each pick on a budget of its
own, and the parent adds each pick's leaves and pruned subtrees to the
search's budget in tree order.  So candidate counts, budget errors and
progress do not depend on the worker count: progress is one report per
first free pick, and the last report holds the totals.

The one bound is the candidate budget, which trips a BudgetExceeded
error rather than silently truncating, at the same count at every worker
count.  No supported search needs a time cap: each takes about 0.1 s.
Nonexistence certificates report the exact number of candidates
examined.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import BudgetExceeded, Unsupported
from .hamming import GhgParams, _whole, hamming_graph
from .resolving import (Certificate, LandmarkSet, Verdict, _checked_vertex_count, is_resolving,
                        lower_bound)
from .construct import metric_basis
from .landmark import matching_triples

DEFAULT_SEED = 20240311


@dataclass(frozen=True)
class SearchProgress:
    size: int  # the subset size being searched
    candidates_examined: int
    pruned_subtrees: int
    elapsed_seconds: float


@dataclass(frozen=True)
class SearchOptions:
    """Knobs for the subset searches.

    ``max_candidates`` bounds the number of complete candidate subsets
    whose resolving check runs.  A candidate budget or worker count that
    is not an integer is refused; so is a bool, and so is a ``progress``
    that is neither None nor callable.  ``prune`` and ``normalize`` must
    be bools.  With ``workers`` > 1 the subtree under each first free
    pick is walked in a worker process; verdicts, counts and budget
    errors do not depend on the split.  ``progress`` gets one report per
    first free pick, in tree order, with the size searched and its
    running totals.
    """

    prune: bool = True
    normalize: bool = True
    max_candidates: int | None = None
    workers: int = 1
    progress: Callable[[SearchProgress], None] | None = None

    def __post_init__(self):
        for name in ("prune", "normalize"):
            if type(getattr(self, name)) is not bool:  # "no" is truthy
                raise Unsupported(f"{name} must be True or False, got {getattr(self, name)!r}")
        if self.max_candidates is not None and not _whole(self.max_candidates, 0):
            raise Unsupported("candidate budget must be a non-negative integer, "
                              f"got {self.max_candidates!r}")
        if not _whole(self.workers, 1):
            raise Unsupported(
                f"worker count must be an integer, at least 1, got {self.workers!r}")
        if self.progress is not None and not callable(self.progress):
            raise Unsupported(f"progress must be callable or None, got {self.progress!r}")


def _color_feasible(cnt, avail, t) -> bool:
    """Can t more picks bring every block pair of this color to sum >= 3?

    Either every block reaches 2, or exactly one block ends at a size v
    in {0, 1}, no less than its count and within its availability, and
    every other block reaches 3 - v.  Availability caps come from the
    lexicographic suffix.  One pass sums the deficits to 2 and to 3 and
    counts the blocks short of each; a block that ends at v then lowers
    the sum by its own deficit and must be the only one short.
    """
    need2 = need3 = short2 = short3 = 0
    for c, a in zip(cnt, avail):
        if c < 3:
            need3 += 3 - c
            short3 += 3 - c > a
            if c < 2:
                need2 += 2 - c
                short2 += 2 - c > a
    if need2 <= t and not short2:
        return True
    for c, a in zip(cnt, avail):
        if c < 2 and need2 - 1 <= t and 1 - c <= a and short2 == (2 - c > a):
            return True  # v = 1: this block ends at 1, every other reaches 2
        if c == 0 and need3 - 3 <= t and short3 == (3 > a):
            return True  # v = 0: it stays empty, every other reaches 3
    return False


class _Budget:
    """The leaf and pruned counts of a search, its candidate bound and
    its progress reports: the only builder of ``BudgetExceeded`` and
    ``SearchProgress`` here."""

    __slots__ = ("max_candidates", "progress", "t0", "leaves", "pruned")

    def __init__(self, max_candidates: int | None,
                 progress: Callable[[SearchProgress], None] | None = None):
        self.max_candidates = max_candidates
        self.progress = progress
        self.t0 = time.monotonic()
        self.leaves = 0
        self.pruned = 0

    def count(self, leaves: int):
        """Count leaves, a hit only as the last of them: the candidate
        budget trips where counting them one by one would."""
        self.leaves += leaves
        if self.max_candidates is not None and self.leaves > self.max_candidates:
            # a walk trips at leaf max_candidates + 1, so the count
            # examined is exactly max_candidates
            raise BudgetExceeded(
                f"candidate budget of {self.max_candidates} exceeded",
                bound="max_candidates",
                candidates_examined=self.max_candidates,
            )

    def alone(self, walk, pick: int) -> tuple:
        """Walk one pick as a worker does, on a budget of its own with
        this bound: (found, leaves, pruned)."""
        own = _Budget(self.max_candidates)
        try:
            return walk(pick, own), own.leaves, own.pruned
        except BudgetExceeded:
            return None, own.leaves, own.pruned

    def add(self, found, leaves: int, pruned: int):
        """Take in one pick walked by ``alone``, tripping where a walk on
        this budget would have: a pick that tripped its own budget has
        more leaves than the bound.  Returns the pick's ``found``."""
        self.pruned += pruned
        self.count(leaves)
        return found

    def report(self, size: int):
        if self.progress is not None:
            self.progress(SearchProgress(
                size, self.leaves, self.pruned, time.monotonic() - self.t0))


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
    """Vertex bitmask -> bitmask of the last picks x after which no two
    of its members collide.

    An empty or one-member mask is no class: every x clears it.  A pair
    survives x unless both or neither share a coordinate with x; a
    triple survives only an x inside it that splits the other two; four
    or more members always keep two together.  Larger masks are the
    most numerous keys and answer 0 without any work or entry.
    """

    __slots__ = ("share",)

    def __init__(self, share: list[int]):
        super().__init__()
        self.share = share

    def __missing__(self, m: int) -> int:
        size = m.bit_count()
        if size > 3:
            return 0
        share = self.share
        members = []
        rest = m
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        if size == 3:
            u, v, w = members
            finals = ((share[v] ^ share[w]) & 1 << u
                      | (share[u] ^ share[w]) & 1 << v
                      | (share[u] ^ share[v]) & 1 << w)
        elif size == 2:
            u, v = members
            finals = share[u] ^ share[v] | m
        else:
            finals = -1  # all ones
        self[m] = finals
        return finals


@contextlib.contextmanager
def _walker(g: GhgParams, s: int, fixed: tuple, prune: bool):
    """Yield (picks, walk) for the size-s supersets of ``fixed``, whose
    other members follow its last index.

    ``picks`` are the first free picks; ``walk(pick, budget)`` walks the
    subtree under one of them, counting on ``budget``, and returns the
    members of its first resolving set in tree order, or None.  With
    nothing left to pick, ``fixed`` is the one candidate and the only
    pick.  The memos are dropped on exit.
    """
    n = g.dims[0]
    verts = list(g.vertices())
    total = len(verts)
    # coord[i][a]: the vertices whose coordinate i + 1 equals a + 1
    coord = [[sum(1 << v for v, x in enumerate(verts) if x[i] == a) for a in range(1, n + 1)]
             for i in range(3)]
    # share[u]: the vertices agreeing with u in some coordinate
    share = [coord[0][x - 1] | coord[1][y - 1] | coord[2][z - 1] for x, y, z in verts]

    # Color i's block counts travel as one integer, i * span + code with
    # code = sum(cnt[i][a] * base**a); no count exceeds s, so base s + 1
    # keeps codes distinct and below span.
    base = s + 1
    span = base ** n

    # blocks[i][a]: the vertices of coord[i][a], by index
    blocks = [[[v for v in range(total) if m >> v & 1] for m in row] for row in coord]
    # avail[i][idx]: color i's block sizes over the suffix after idx
    avail = [[[(m >> idx + 1).bit_count() for m in row] for idx in range(total)] for row in coord]

    def kept(t: int, k: int) -> int:
        """The picks idx after which color code k plus idx's block is still
        feasible with t more picks from idx + 1 on.  In each block they are
        a prefix, as availability only falls as idx rises: its two ends are
        tested, then bisection finds the first infeasible member between."""
        i, code = divmod(k, span)
        cnt = [code // base ** a % base for a in range(n)]

        def infeasible(idx: int) -> bool:
            return not _color_feasible(cnt, avail[i][idx], t)

        out = 0
        for a, block in enumerate(blocks[i]):
            cnt[a] += 1
            cut = (0 if infeasible(block[0]) else len(block) if not infeasible(block[-1])
                   else bisect.bisect(block, False, 1, len(block) - 1, key=infeasible))
            cnt[a] -= 1
            if cut:
                out |= coord[i][a] & (2 << block[cut - 1]) - 1
        return out

    # keep[t][k]: kept(t, k), or every pick when nothing is pruned
    keep = ([_Memo(functools.partial(kept, t)) for t in range(s)] if prune
            else [_Memo(lambda k: -1)] * s)
    # s1, s2, s3[idx]: what picking idx adds to each color's code
    s1, s2, s3 = ([base ** (x[i] - 1) for x in verts] for i in range(3))

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
    # ends[t]: the loop limit for a pick with t picks left; walk lowers
    # the top one to its pick, and a list lookup keeps that free per node
    ends = [total - t + 1 for t in range(s + 1)]
    top = s - len(fixed)
    everyone = (1 << total) - 1
    codes = [i * span for i in range(3)]
    classes = [everyone]
    for idx in fixed:
        codes = [k + inc[idx] for k, inc in zip(codes, (s1, s2, s3))]
        classes = refine(classes, idx)
    chosen = list(fixed)
    budget: _Budget | None = None

    def leaf_mask(lo: int, k1: int, k2: int, k3: int) -> int:
        """The final picks from lo on that keep all three color codes
        feasible: the leaves under a second-to-last pick."""
        return ((1 << ends[1]) - (1 << lo)) & keep[0][k1] & keep[0][k2] & keep[0][k3]

    def last(lo: int, k1: int, k2: int, k3: int, good: int) -> list | None:
        """One pick left, decided for every x at once: ``good`` holds the
        picks that resolve the set."""
        leaves = leaf_mask(lo, k1, k2, k3)
        hit = good & leaves
        end = ends[1]
        if hit:
            upto = hit ^ (hit - 1)  # the first hit and every pick before it
            leaves &= upto
            end = upto.bit_length()
        budget.pruned += end - lo - leaves.bit_count()
        budget.count(leaves.bit_count())
        if hit:
            return [verts[i] for i in chosen] + [verts[end - 1]]
        return None

    def cleared(classes: list[int], near: int, far: int) -> int:
        """The final picks that clear both parts of every class, split
        into its members in ``near`` and those in ``far``."""
        good = everyone
        for m in classes:
            good &= finals[m & near] & finals[m & far]
            if not good:
                break
        return good

    def dead(todo: int, classes: list[int]) -> bool:
        """Whether no pick in ``todo`` is followed by a final pick that
        resolves the set, its classes taken largest first."""
        classes = sorted(classes, key=int.bit_count, reverse=True)
        if classes and classes[0].bit_count() > 6:
            return True
        while todo:
            idx = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            if cleared(classes, sharing[idx], apart[idx]):
                return False
        return True

    def group(key: tuple) -> tuple:
        """A new entry of ``groups``: nothing summed yet."""
        end, t, k1, k2, k3 = key
        kt = keep[t - 1]
        return kt[k1] & kt[k2] & kt[k3] & ((1 << end) - 1), end, (0,), (0,)

    # groups[end, t, k1, k2, k3], for the nodes with t picks left, these
    # codes and this loop end (only t = top moves it): their kept picks,
    # the least from which all are summed, and the sums of the children's
    # pruned and leaf counts over the m highest, at index m; as tuples of
    # ints, the garbage collector soon stops tracking them
    groups = _Memo(group)

    def tally(lo: int, t: int, k1: int, k2: int, k3: int) -> tuple[int, int]:
        """The pruned and leaf counts of a node with two or more picks
        left, as rec counts them when it holds no hit: of its group's m
        kept picks from lo on, each adds its child's counts, and every
        other index from lo to the end is pruned.  The sums are extended
        down only as far as some lo asks.  Unpruned, the leaves are the
        t-subsets of [lo, total) whose least member is below the end."""
        if not prune:
            return 0, math.comb(total - lo, t) - math.comb(total - ends[t], t)
        key = ends[t], t, k1, k2, k3
        mask, done, pruned, leaves = groups[key]
        m = (mask >> lo).bit_count()
        if m >= len(pruned):
            todo = mask & ((1 << done) - (1 << lo))  # from the top down
            pruned, leaves = list(pruned), list(leaves)
            p, q = pruned[-1], leaves[-1]  # the running sums
            end, k0 = ends[1], keep[0]
            if t == 2:  # one pick left: leaf_mask, inline
                while todo:
                    idx = todo.bit_length() - 1
                    todo ^= 1 << idx
                    under = (((1 << end) - (2 << idx)) & k0[k1 + s1[idx]] & k0[k2 + s2[idx]]
                             & k0[k3 + s3[idx]]).bit_count()
                    p += end - idx - 1 - under
                    q += under
                    pruned.append(p)
                    leaves.append(q)
            while todo:  # t > 2: the loop above left nothing to do
                idx = todo.bit_length() - 1
                todo ^= 1 << idx
                dp, dq = tally(idx + 1, t - 1, k1 + s1[idx], k2 + s2[idx], k3 + s3[idx])
                p += dp
                q += dq
                pruned.append(p)
                leaves.append(q)
            groups[key] = mask, lo, tuple(pruned), tuple(leaves)
        return ends[t] - lo - m + pruned[m], leaves[m]

    def counted(lo: int, t: int, k1: int, k2: int, k3: int) -> None:
        """Count a node with no hit in one step."""
        pruned, leaves = tally(lo, t, k1, k2, k3)
        budget.pruned += pruned
        budget.count(leaves)

    # digits[v]: v's symbols from 0; weights: their place values in v
    digits = [tuple(a - 1 for a in x) for x in verts]
    weights = (n * n, n, 1)

    def orbits(prefix: tuple) -> list[tuple[int, int]]:
        """(least member, mask) of each orbit of two or more vertices under
        the automorphisms that fix every vertex of ``prefix``, by least
        member; empty when every orbit is a single vertex."""
        cols = [[digits[v][i] for v in prefix] for i in range(3)]
        used = [set(col) for col in cols]
        unused = [min(set(range(n)) - u, default=0) for u in used]
        # to[j][i]: the map p[j] -> p[i] over the prefix, as place values in
        # coordinate i with unused values read as the least one, or None if
        # no function.  pi is possible when each to[pi[i]][i] is one; then
        # the members sharing coordinate pi[i] share i, and around each
        # cycle of pi the reverse holds too: it is one-to-one
        to = [[None] * 3 for _ in range(3)]
        for i, j in itertools.product(range(3), repeat=2):
            pairs = set(zip(cols[j], cols[i]))
            if len(pairs) == len(used[j]):
                table = to[j][i] = [weights[i] * unused[i]] * n
                for a, b in pairs:
                    table[a] = weights[i] * b
        # each possible pi: each coordinate's table into the one it moves to
        images = [[to[j][i] for j, i in enumerate(dest)]
                  for dest in itertools.permutations(range(3))]
        images = [tables for tables in images if None not in tables]
        if len(images) == 1 and all(len(u) >= n - 1 for u in used):
            return []  # each vertex is the one vertex of its pattern
        # a vertex's label: its least image, vertices in lexicographic order
        labels = [[a + b + c for a in x for b in y for c in z] for x, y, z in images]
        members = {}
        for v, label in enumerate(map(min, *labels) if len(labels) > 1 else labels[0]):
            members[label] = members.get(label, 0) | 1 << v
        return sorted(((m & -m).bit_length() - 1, m) for m in members.values() if m & (m - 1))

    # orbit[prefix]: orbits(prefix); the root's is looked up once per
    # first pick, any other prefix's once
    orbit = _Memo(orbits)

    def rec(lo: int, t: int, k1: int, k2: int, k3: int, classes: list[int], gone: int,
            sym: bool) -> list | None:
        # gone: the picks spent here (see the module docstring); sym: whether
        # any orbit above held two vertices
        if not t:
            budget.count(1)
            return None if classes else [verts[i] for i in chosen]
        if t == 1:
            return last(lo, k1, k2, k3, cleared(classes, everyone, 0))  # kept whole
        kt = keep[t - 1]
        todo = kt[k1] & kt[k2] & kt[k3] & ((1 << ends[t]) - (1 << lo))
        if t == 2:
            if dead(todo & ~gone, classes):
                counted(lo, 2, k1, k2, k3)
                return None
            orbs = ()
        else:
            orbs = orbit[tuple(chosen)] if sym else ()
        j = 0
        while todo:
            idx = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            budget.pruned += idx - lo  # the picks skipped since the last visit
            lo = idx + 1
            while j < len(orbs) and orbs[j][0] < idx:  # spent for idx from here on
                gone |= orbs[j][1]
                j += 1
            if t > 2 and gone >> idx & 1:  # with one left, last decides them at once
                counted(lo, t - 1, k1 + s1[idx], k2 + s2[idx], k3 + s3[idx])
                continue
            chosen.append(idx)
            hit = rec(lo, t - 1, k1 + s1[idx], k2 + s2[idx], k3 + s3[idx], refine(classes, idx),
                      gone, bool(orbs))
            if hit:
                return hit
            chosen.pop()
        budget.pruned += ends[t] - lo
        return None

    picks = range(len(fixed), ends[top]) if top else range(1)

    def walk(pick: int, on: _Budget) -> list | None:
        nonlocal budget
        budget = on
        del chosen[len(fixed):]  # a hit leaves its picks behind
        ends[top] = pick + 1
        return rec(pick, top, *codes, classes, 0, True)

    try:
        yield picks, walk
    finally:
        # rec reaches itself through its closure, so this frame is freed
        # only by a cyclic collection; drop the memos now instead
        keep.clear()
        finals.clear()
        groups.clear()
        orbit.clear()


def _worker(walk, budget: _Budget, picks, conn):
    """Answer on conn for each of ``picks`` in turn."""
    for pick in picks:
        conn.send(budget.alone(walk, pick))


def _forked(walk, picks, budget: _Budget, workers: int) -> Iterator:
    """Each pick's ``walk`` result, from forked workers, its counts added
    to ``budget`` in pick order.

    The workers inherit ``walk`` with its tables and memos.  Worker w
    walks the fixed share ``picks[w::workers]`` and answers on a pipe of
    its own, so pick i is read from pipe i % workers.  No lock is shared,
    so closing the generator may kill the workers at any point;
    ``Pool.terminate`` can hang joining its task thread when it kills a
    worker halfway through sending a result.
    """
    # imported here: it loads subprocess and friends, about 1 MB of RSS
    # and 7 ms that serial callers never need
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        for w in range(workers):
            conn, child = ctx.Pipe(duplex=False)
            conns.append(conn)
            proc = ctx.Process(target=_worker, args=(walk, budget, picks[w::workers], child),
                               daemon=True)
            proc.start()
            child.close()
            procs.append(proc)
        for i in range(len(picks)):
            yield budget.add(*conns[i % workers].recv())
    finally:
        for proc in procs:
            proc.kill()
            proc.join()
        for conn in conns:
            conn.close()


def _diagonal_n(g: GhgParams) -> int:
    """n, for the n-diagonal graph with K={3} that exact dimensions cover."""
    if g.r != 3 or g.k != frozenset({3}):
        raise Unsupported(f"dimension covers 3-coordinate graphs with K={{3}}, got {g.format()}")
    n = g.dims[0]
    if g.dims != (n, n, n) or n < 3:
        raise Unsupported(f"dimension covers diagonal graphs with n >= 3, got {g.format()}")
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
    n = _diagonal_n(g)
    if n > 4:
        raise Unsupported(f"n={n}: exhaustive subset search is only tractable for n <= 4")
    if not (_whole(s, 1) and s <= 2 * n):
        raise Unsupported(f"size {s!r} is not an integer in 1..{2 * n}; "
                          "beyond 2n the answer is known")
    fixed = (0,) if opts.normalize else ()
    mode = f"normalized={bool(fixed)}, pruned={opts.prune}"
    budget = _Budget(opts.max_candidates, opts.progress)
    found = None
    with _walker(g, s, fixed, opts.prune) as (picks, walk):
        workers = min(opts.workers, len(picks))
        steps = (_forked(walk, picks, budget, workers) if workers > 1
                 else (walk(pick, budget) for pick in picks))
        with contextlib.closing(steps):
            for found in steps:
                budget.report(s)
                if found is not None:
                    break
    return _search_certificate(g, s, found, budget.leaves, mode)


def _search_certificate(g, s, found, leaves, mode) -> Certificate:
    if found is not None:
        W = LandmarkSet._trusted(g, tuple(found))  # distinct vertices of g
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
    n = _diagonal_n(g)
    if n >= 5:
        _checked_vertex_count(g)  # refuse a graph above the limit before building its basis
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


def enumerate_two_basic(
    n: int, *, budget: int | None = None, seed: int = DEFAULT_SEED
) -> Iterator[LandmarkSet]:
    """An iterator over 2-basic landmark systems on the n-diagonal graph.

    n = 3: exhaustive, in lexicographic member order (budget truncates if
    given); the seed is checked but draws nothing.  n in {4, 5}:
    independent uniform samples, ``budget`` of them (default 10000),
    reproducible from ``seed``.  Uniformity comes from sampling three
    pairwise edge-disjoint perfect matchings of the 2n landmarks-to-be
    plus uniform value labels per color, one per pair in sorted pair
    order; ``matching_triples`` turns them into the members.  Every
    2-basic system arises from exactly (2n)! such labeled structures.
    A bad n, budget or seed raises ``Unsupported`` here, at the call.
    """
    if not (_whole(n) and 3 <= n <= 5):
        raise Unsupported(f"2-basic enumeration is implemented for n in {{3, 4, 5}}, got {n!r}")
    if budget is not None and not _whole(budget, 0):
        raise Unsupported(f"budget must be a non-negative integer, got {budget!r}")
    if not _whole(seed, 0):  # random.seed reads -5 as 5 and True as 1
        raise Unsupported(f"seed must be a non-negative integer, got {seed!r}")
    if n == 3:
        return itertools.islice(_two_basic_systems(3), budget)
    # as an int: a numpy integer would overflow in the sampler's pair bits
    return _sampled_two_basic(int(n), 10_000 if budget is None else budget, seed)


def _sampled_two_basic(n: int, count: int, seed: int) -> Iterator[LandmarkSet]:
    """``count`` samples for ``enumerate_two_basic`` at n in {4, 5}.

    A round shuffles 0..2n-1 three times and reads each shuffle's
    consecutive elements as the pairs of a perfect matching; the round is
    kept when its matchings share no pair.  A matching is tested as the
    OR of one bit per pair, against the OR of the matchings before it.
    Every shuffle of a round is drawn, also after a shared pair, so the
    draws are those of ``random.shuffle``: once a round is lost, its
    remaining shuffles are drawn by ``_shuffle`` as usual and not read.
    Only a kept round's pairs are sorted.  The members are distinct and
    valid by construction.
    """
    import random

    getrandbits = random.Random(seed).getrandbits
    g = hamming_graph(n, n, n)
    size = 2 * n
    # bit[a][b] == bit[b][a]: the one bit of the pair {a, b}
    bit = [[1 << min(a, b) * size + max(a, b) for b in range(size)] for a in range(size)]
    for _ in range(count):
        kept = None
        while kept is None:  # until three matchings share no pair
            kept, used = [], 0
            for _i in range(3):
                p = list(range(size))
                _shuffle(getrandbits, p)
                if kept is None:  # drawn only to keep the random stream
                    continue
                pairs = 0
                for a, b in zip(p[::2], p[1::2]):
                    pairs |= bit[a][b]
                if used & pairs:
                    kept = None
                else:
                    used |= pairs
                    kept.append(p)
        matchings = [sorted((a, b) if a < b else (b, a) for a, b in zip(p[::2], p[1::2]))
                     for p in kept]
        labels = [list(range(1, n + 1)) for _i in range(3)]
        for values in labels:
            _shuffle(getrandbits, values)
        yield LandmarkSet._trusted(g, tuple(sorted(matching_triples(matchings, labels))))


def _shuffle(getrandbits, x: list) -> None:
    """``random.shuffle(x)`` on the generator of ``getrandbits``: the same
    Fisher-Yates swaps, each index drawn by the same rejection loop as
    ``Random._randbelow_with_getrandbits``, so the same draws."""
    for i, k in _swaps(len(x)):
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


@functools.lru_cache(maxsize=64)
def _swaps(size: int) -> tuple[tuple[int, int], ...]:
    """(i, bits drawn for an index in 0..i) for each swap of ``_shuffle``
    on ``size`` elements, in order."""
    return tuple((i, (i + 1).bit_length()) for i in range(size - 1, 0, -1))


def _two_basic_systems(n: int) -> Iterator[LandmarkSet]:
    """Every 2-basic system on the n-diagonal graph, in lexicographic
    member order.

    Each first value holds exactly two landmarks, which differ in both
    other coordinates.  Across rows no two landmarks share both, and
    every second and third value is used exactly twice.  Rows are picked
    one at a time from one list of such pairs, in its order, so systems
    come in member order.  A pick is refused at once when it takes a
    cell again or a second or third value a third time; n rows that pass
    use every value exactly twice.  So the members are distinct and
    valid by construction.
    """
    g = hamming_graph(n, n, n)
    cells = itertools.product(range(1, n + 1), repeat=2)
    # each row's two (second, third) cells, with the bits of their values
    # (b - 1 and n + c - 1) and of the cells themselves (from 2n up)
    rows = []
    for x, y in itertools.combinations(cells, 2):
        if x[0] != y[0] and x[1] != y[1]:
            values = sum((1 << b - 1) | (1 << n + c - 1) for b, c in (x, y))
            taken = sum(1 << 2 * n + n * (b - 1) + c - 1 for b, c in (x, y))
            rows.append((x, y, values, taken))

    def extend(members: tuple, once: int, full: int):
        # once: the values used so far; full: those used twice, and the cells
        a = len(members) // 2 + 1
        if a > n:
            yield LandmarkSet._trusted(g, members)
            return
        for x, y, values, taken in rows:
            if not full & (values | taken):
                yield from extend(members + ((a, *x), (a, *y)), once | values,
                                  full | (once & values) | taken)

    return extend((), 0, 0)


__all__ = [
    "SearchOptions",
    "SearchProgress",
    "exists_resolving_of_size",
    "metric_dimension",
    "enumerate_two_basic",
    "DEFAULT_SEED",
]
