"""Cluster seeds from black polygons, and flips as mutations.

Each black polygon of a bicolored triangulation carries a quiver whose
vertices sit on arcs and whose variables are signed twistor ratios.
Flipping a diagonal of a black quadrilateral changes the seed exactly by
one quiver mutation, numerically checkable on sample points.
"""

from fractions import Fraction
from random import Random

from positroid_lab.amplituhedron import amp_map, make_positive_Z
from positroid_lab.cells import sample_cell_matrix
from positroid_lab.cluster import (
    black_polygons,
    build_seed,
    cluster_adjacency_check,
    mutate,
)
from positroid_lab.grassmann import matrix_of_plucker
from positroid_lab.perms import top_cell_permutation
from positroid_lab.plabic import boundary_measurement, dual_graph_of_triangulation, t_dual_graph
from positroid_lab.triangulations import BicoloredTriangulation, flip, flippable_arcs

T = BicoloredTriangulation.make(
    9,
    black=[(7, 8, 9), (1, 7, 9), (2, 3, 7), (3, 4, 7), (4, 5, 7)],
    white=[(1, 2, 7), (5, 6, 7)])
print("type (5,9) triangulation, black polygons:", black_polygons(T))
S = build_seed(T, {(1, 7, 8, 9): (1, 7), (2, 3, 4, 5, 7): (5, 7)})
print("cluster size (should be 2k = 10):", S.cluster_size())
print("mutable vertices:", S.mutable_keys())
print("arrows:")
for (u, v), m in sorted(S.arrows.items()):
    print(f"  x{u[0]}{u[1]} -> x{v[0]}{v[1]}  (x{m})" if m != 1 else
          f"  x{u[0]}{u[1]} -> x{v[0]}{v[1]}")

print("\nblack square on four vertices: flip versus mutation")
Q = BicoloredTriangulation.make(4, black=[(1, 2, 3), (1, 3, 4)], white=[])
Z = make_positive_Z(4, 4, [0, 1, 2, 3])
SQ = build_seed(Q)
print("  flippable arcs:", flippable_arcs(Q))
Sf = build_seed(flip(Q, (1, 3)))
Sm = mutate(SQ, (1, 3), new_key=(2, 4))
print("  quivers agree after relabeling:", Sm.arrow_multiset() == Sf.arrow_multiset())
rng = Random(2)
agree = all(Sf.evaluate(Y, Z) == Sm.evaluate(Y, Z)
            for Y in (amp_map(sample_cell_matrix(top_cell_permutation(2, 4), rng), Z)
                      for _ in range(10)))
print("  evaluated clusters agree on 10 sample points:", agree)

print("\npositivity pins the tile:")
# a point of the tile of Q: positive edge weights on the graph of its cell,
# the T-dual of its dual tree
G = t_dual_graph(dual_graph_of_triangulation(Q))
weights = {e: Fraction(rng.randint(1, 1000)) for e in range(len(G.edges))}
Yt = amp_map(matrix_of_plucker(boundary_measurement(G, weights)), Z)
print("  values on a tile sample all positive:",
      all(v != "boundary" and v > 0 for v in SQ.evaluate(Yt, Z).values()))

print("\nfacet arcs and compatible signs for the 123 triangle tile:")
T1 = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
rep = cluster_adjacency_check(T1)
print("  facets (sides of the black polygons):", [tuple(a) for a in rep["facet_arcs"]])
print("  compatible twistors with signs (-1)^area:",
      [(tuple(a), s) for a, s in rep["compatible_tested"]])
