"""Tour of the graph layer: building graphs, distances, regimes.

Vertices of HG(n1,n2,n3;K) are coordinate triples, 1-based in every
position.  Two vertices are adjacent when the number of coordinates
where they differ lands in K.  The library cares most about K = {3}
(differ everywhere) and its complement K = {1,2}.
"""

from hammingdim import DisconnectedGraph, hamming_graph, hamming_discrepancy

g = hamming_graph(3, 3, 3)
print("graph:", g.format())
print("vertices:", g.vertex_count())

u, v = (1, 1, 1), (2, 2, 2)
print(f"\n{u} vs {v}: differ in {hamming_discrepancy(u, v)} coordinates")
print("distance:", g.distance(u, v))  # differ everywhere, so adjacent

w = (1, 2, 2)
print(f"{u} vs {w}: differ in {hamming_discrepancy(u, w)} coordinates")
print("distance:", g.distance(u, w))  # share coordinate 1, so two steps

# With every dimension >= 3, K = {3} and its complement K = {1,2} both
# give diameter 2 and a closed-form metric: distance 1 exactly when
# adjacent.  Under K = {3} that means no coordinate is shared, under
# K = {1,2} that some coordinate is.
print("\nclosed form available:", g.closed_form_available())

comp = hamming_graph(3, 3, 3, k={1, 2})
print(comp.format(), "closed form:", comp.closed_form_available())
print(comp.format(), "distance", u, "->", v, "is", comp.distance(u, v))
print(comp.format(), "distance", u, "->", w, "is", comp.distance(u, w))

# One dimension equal to 2 pushes the diameter to 3; distances then come
# from breadth-first search instead of the formula, on graphs of at most
# 10,000 vertices.
narrow = hamming_graph(2, 3, 3)
print("\n" + narrow.format(), "closed form:", narrow.closed_form_available())
print("distance (1,1,1) -> (2,1,1):", narrow.distance((1, 1, 1), (2, 1, 1)))

# Two dimensions equal to 2 disconnect the graph entirely.
try:
    hamming_graph(2, 2, 3).distance((1, 1, 1), (2, 2, 1))
except DisconnectedGraph as e:
    print("\nHG(2,2,3;3):", e)
