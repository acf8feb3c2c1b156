"""T-duality: one rotation, two geometries.

Rotating a loopless one-line word one step right sends rank k+1 cells to
rank k cells.  On graphs the same map places a black vertex in every
face and a white vertex over every black one; tiles of the hypersimplex
and tiles of the two-extra-dimension amplituhedron correspond.
"""

import json
from pathlib import Path

from positroid_lab.hypersimplex import enumerate_tilings
from positroid_lab.perms import parse_decorated, t_dual
from positroid_lab.plabic import (PlabicGraph, dual_graph_of_triangulation, t_dual_graph,
                                  trip_permutation)
from positroid_lab.triangulations import BicoloredTriangulation

print("the four tiles of the rank-2 hypersimplex on [4] and their duals:")
for text in ["(3,1,4,2)", "(2,4,1,3)", "(4,3,1,2)", "(3,4,2,1)"]:
    pi = parse_decorated(text)
    print(f"  {pi}  ->  {t_dual(pi)}")

print("\ntilings correspond wholesale:")
for t in enumerate_tilings(2, 4):
    duals = [repr(t_dual(p)) for p in t.perms()]
    print("  ", [repr(p) for p in t.perms()], "->", duals)

print("\ngraph-level duality on the nine-gon fan:")
G = dual_graph_of_triangulation(BicoloredTriangulation.make(
    9, black=[(7, 8, 9), (1, 7, 9), (2, 3, 7), (3, 4, 7), (4, 5, 7)],
    white=[(1, 2, 7), (5, 6, 7)]))
pi = trip_permutation(G)
print("  trips of the fan dual:      ", pi)
Ghat = t_dual_graph(G)
print("  trips of its graph T-dual:  ", trip_permutation(Ghat))
print("  rotation of the permutation:", t_dual(pi))
print("  equals the drawn nine-vertex fixture:",
      trip_permutation(Ghat) == trip_permutation(PlabicGraph.from_json(
          json.loads((Path(__file__).parent / "fig_plabic_graph.json").read_text()))))

print("\nboth tile graphs straight from one bicolored triangulation:")
T = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
tree = dual_graph_of_triangulation(T)
print("  dual tree trips:          ", trip_permutation(tree))
print("  walked on the polygons:   ", T.subdivision.trip_permutation())
print("  its T-dual, corner-and-center trips:", trip_permutation(t_dual_graph(tree)))
