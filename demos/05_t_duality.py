"""T-duality: one rotation, two geometries.

Rotating a loopless one-line word one step right sends rank k+1 cells to
rank k cells.  On graphs the same map places a black vertex in every
face and a white vertex over every black one; tiles of the hypersimplex
and tiles of the two-extra-dimension amplituhedron correspond.
"""

from positroid_lab import fixtures
from positroid_lab.hypersimplex import enumerate_tilings
from positroid_lab.perms import parse_decorated, t_dual
from positroid_lab.plabic import dual_graph_of_triangulation, t_dual_graph, trip_permutation

print("the four tiles of the rank-2 hypersimplex on [4] and their duals:")
for text in ["(3,1,4,2)", "(2,4,1,3)", "(4,3,1,2)", "(3,4,2,1)"]:
    pi = parse_decorated(text)
    print(f"  {pi}  ->  {t_dual(pi)}")

print("\ntilings correspond wholesale:")
for t in enumerate_tilings(2, 4):
    duals = [repr(t_dual(p)) for p in t.perms()]
    print("  ", [repr(p) for p in t.perms()], "->", duals)

print("\ngraph-level duality on the nine-gon fan:")
G = fixtures.nine_gon_fan()
pi = trip_permutation(G)
print("  trips of the fan dual:      ", pi)
Ghat = t_dual_graph(G)
print("  trips of its graph T-dual:  ", trip_permutation(Ghat))
print("  rotation of the permutation:", t_dual(pi))
print("  equals the drawn nine-vertex fixture:",
      trip_permutation(Ghat) == trip_permutation(fixtures.fig_plabic_graph()))

print("\nboth tile graphs straight from one bicolored triangulation:")
from positroid_lab.triangulations import BicoloredTriangulation

T = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
tree = dual_graph_of_triangulation(T)
print("  dual tree trips:          ", trip_permutation(tree))
print("  walked on the polygons:   ", T.subdivision.trip_permutation())
print("  its T-dual, corner-and-center trips:", trip_permutation(t_dual_graph(tree)))
