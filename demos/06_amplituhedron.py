"""Amplituhedron membership through exact twistor signs.

With four points on the moment curve the k=1, m=2 amplituhedron is a
quadrilateral.  Twistor signs decide interior membership, cut out tiles,
classify points into sign-flip chambers, and certify whole tilings.
"""

from random import Random

from positroid_lab.amplituhedron import (
    amp_map,
    b_point,
    m1_membership,
    m2_interior_test,
    make_positive_Z,
    sign_stratum,
    tile_membership_m2,
    twistor_table,
    verify_amp_tiling_m2,
    w_chamber_membership,
)
from positroid_lab.cells import sample_cell_matrix
from positroid_lab.exact import RatMatrix
from positroid_lab.hypersimplex import enumerate_D
from positroid_lab.perms import parse_decorated, top_cell_permutation
from positroid_lab.triangulations import BicoloredTriangulation

Z = make_positive_Z(4, 3, [0, 1, 2, 3])
print("Z rows on the moment curve at 0,1,2,3; all maximal minors positive")

Y = amp_map(RatMatrix.from_rows([[1, 1, 1, 0]]), Z)
print("\nY = Z1 + Z2 + Z3:")
print("  twistors:", {f"<{i}{j}>": str(v)
                      for (i, j), v in twistor_table(Y, Z).items()})
print("  interior:", m2_interior_test(Y, Z))

T123 = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
T134 = BicoloredTriangulation.make(4, black=[(1, 3, 4)], white=[(1, 2, 3)])
print("  in the 123 triangle tile:", tile_membership_m2(Y, Z, T123, strict=True))
print("  in the 134 triangle tile:", tile_membership_m2(Y, Z, T134, strict=True))

print("\nsign-flip chambers over 400 interior samples:")
rng = Random(42)
tally = {}
for _ in range(400):
    Yi = amp_map(sample_cell_matrix(top_cell_permutation(1, 4), rng), Z)
    s = sign_stratum(Yi, Z)
    if "0" in s:
        continue
    w = next(w for w in enumerate_D(2, 4) if w_chamber_membership(Yi, Z, w) is True)
    tally["".join(map(str, w.w))] = tally.get("".join(map(str, w.w)), 0) + 1
for w, c in sorted(tally.items()):
    print(f"  chamber of {w}: {c} samples")

print("\ntiling verification, audited on one exact point inside each tile:")
rep = verify_amp_tiling_m2([T123, T134], Z)
print("  both triangles of one diagonal:", rep["valid"])
rep_bad = verify_amp_tiling_m2([T123], Z)
print("  single triangle:", rep_bad["valid"], "|", rep_bad["violations"][-1])

print("\none extra dimension instead of two (m = 1):")
Z1 = make_positive_Z(5, 3, [0, 1, 2, 3, 4])
C = sample_cell_matrix(parse_decorated("(3,4,5,1,2)"), rng)
Y1 = amp_map(C, Z1)
print("  image of a totally positive point is a member:", m1_membership(Y1, Z1))

print("\nthe orthogonal-complement model agrees coordinate by coordinate:")
repb = b_point(C, Z1)
print("  dimension correct:", repb["dim_ok"],
      "| minors match twistors up to one scalar:", repb["consistent"])
