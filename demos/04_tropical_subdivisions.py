"""Height functions and the subdivisions they induce.

A height per vertex of the hypersimplex lifts it one dimension up; the
lower hull projects to a regular subdivision.  Heights satisfying the
positive tropical exchange produce subdivisions into positroid polytopes,
finest exactly when the cell count hits its binomial bound.
"""

from random import Random

from positroid_lab.trop import (
    HeightVector,
    faces_are_positroids,
    is_finest,
    is_positive_tropical,
    positivity_violation,
    random_positive_tropical,
    regular_subdivision,
    walls,
)

P = HeightVector.make(2, 4, {(1, 2): 1})
print("heights: 1 on {1,2}, zero elsewhere")
print("positive tropical:", is_positive_tropical(P))
D = regular_subdivision(P)
print("cells of the induced subdivision:")
for c in D.cells:
    print("  ", [f"{I[0]}{I[1]}" for I in c.sorted_vertices()],
          "witness tilt", tuple(str(x) for x in c.witness))
print("all cells positroid polytopes:", faces_are_positroids(D))
print("finest:", is_finest(D))

print("\nzero heights collapse to a single cell:")
D0 = regular_subdivision(HeightVector.make(2, 4, {}))
print("  cells:", len(D0.cells), "finest:", is_finest(D0))

bad = HeightVector.make(2, 4, {(1, 3): 1, (2, 4): 1})
print("\nheights breaking the exchange:")
print("  violation at (S; a,b,c,d) =", positivity_violation(bad))
Dbad = regular_subdivision(bad)
print("  cells:", len(Dbad.cells),
      "| positroidal:", faces_are_positroids(Dbad))

print("\nrandom positive instances on the rank-2 hypersimplex of [5]:")
rng = Random(4)
for t in range(4):
    Q = random_positive_tropical(2, 5, rng)
    DQ = regular_subdivision(Q)
    print(f"  instance {t}: {len(DQ.cells)} cells, "
          f"positroidal {faces_are_positroids(DQ)}, finest {is_finest(DQ)}, "
          f"{len(walls(DQ))} interior walls")
