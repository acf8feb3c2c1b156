"""Moment map images and tilings of the hypersimplex.

The staircase simplices indexed by permutations with a fixed number of
cyclic descents triangulate the hypersimplex; a tile is the polytope of a
dual tree of a bicolored triangulation, and a tiling covers each
staircase simplex exactly once.
"""

from positroid_lab.exact import RatMatrix
from positroid_lab.grassmann import plucker_of_matrix
from positroid_lab.hypersimplex import (
    enumerate_D,
    enumerate_tilings,
    eulerian,
    moment_map,
    tile_catalog,
    tile_inequalities_hypersimplex,
    verify_tiling,
)
from positroid_lab.perms import parse_decorated

C = RatMatrix.from_rows([[1, 0, -1, -2], [0, 1, 2, 4]])
mu = moment_map(plucker_of_matrix(C))
print("moment map of the worked point:", tuple(str(x) for x in mu))

print("\nstaircase simplices of the rank-2 hypersimplex on [4]:")
for ws in enumerate_D(2, 4):
    print("  w =", "".join(map(str, ws.w)), " vertex sets:",
          [sorted(I) for I in ws.I])
print("count equals the Eulerian number:", eulerian(1, 3))

print("\ntile catalog (dual trees of one-black-triangle pictures):")
for pi, rec in sorted(tile_catalog(2, 4).items(), key=lambda kv: repr(kv[0])):
    print("  ", pi, "bases", rec.matroid.sorted_bases(),
          "black polygon", sorted(rec.subdivision.black_polygons))

print("\nall tilings of the rank-2 hypersimplex on [4]:")
for t in enumerate_tilings(2, 4):
    print("  ", [repr(p) for p in t.perms()])

print("\nverification verdicts:")
good = verify_tiling([parse_decorated("(3,1,4,2)"), parse_decorated("(2,4,1,3)")], 2, 4)
print("  pair covers every staircase simplex once:", good["valid"])
bad = verify_tiling([parse_decorated("(3,1,4,2)")], 2, 4)
print("  singleton:", bad["valid"], "|", "; ".join(bad["violations"]))

print("\ncutting one tile out by interval inequalities:")
rec = tile_catalog(2, 4)[parse_decorated("(3,1,4,2)")]
for (arc, lo, hi) in tile_inequalities_hypersimplex(rec.triangulation):
    print(f"  {lo} <= x_{arc[0]} + ... + x_{arc[1] - 1} <= {hi}")

print("\nbigger instances, tiles per tiling:")
for (k1, n) in [(2, 5), (3, 5), (2, 6)]:
    ts = enumerate_tilings(k1, n)
    print(f"  rank {k1} on [{n}]: {len(ts)} tilings, "
          f"{len(ts[0].tiles)} tiles each")
