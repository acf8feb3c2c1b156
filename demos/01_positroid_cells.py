"""From a rational matrix to its positroid cell.

A point of the nonnegative part of Gr(2,4) carries six exact minors.
Their support is a matroid, their signs decide positivity, and a cyclic
span rule attaches a decorated permutation indexing the cell.  The same
cell can then be rebuilt from the permutation alone.
"""

from random import Random

from positroid_lab.cells import cell_dim_of_perm, positroid_of_perm, sample_cell_matrix
from positroid_lab.exact import RatMatrix
from positroid_lab.grassmann import (
    decorated_permutation_of,
    is_tnn,
    is_tp,
    is_tp_by_sign_variation,
    matroid_of,
    plucker_of_matrix,
    vandermonde_matrix,
)

C = RatMatrix.from_rows([[1, 0, -1, -2], [0, 1, 2, 4]])
print("matrix rows:", C.row(0), "and", C.row(1))

P = plucker_of_matrix(C)
print("\nmaximal minors:")
for I, v in sorted(P.coords.items()):
    print(f"  p{I[0]}{I[1]} = {v}")

M = matroid_of(P)
print("\nmatroid bases:", M.sorted_bases())
print("totally nonnegative:", is_tnn(P), "| totally positive:", is_tp(P))

pi = decorated_permutation_of(C)
print("decorated permutation of the cell:", pi)

print("\nsign variation decides positivity exactly (Gantmakher-Krein, Karp):")
print("the row-space vector vanishing on each (k-1)-subset of the columns")
print("is unique up to scale and has varbar <= k-1")
print("  this matrix totally positive:", is_tp_by_sign_variation(C))
V = vandermonde_matrix(2, [1, 2, 3, 4])
print("  the Vandermonde matrix at 1, 2, 3, 4:", is_tp_by_sign_variation(V))

print("\nrebuilding the cell from its permutation:")
print("  positroid:", positroid_of_perm(pi).sorted_bases())
print("  dimension:", cell_dim_of_perm(pi))
rng = Random(7)
sample = sample_cell_matrix(pi, rng)
print("  a fresh certified point of the same cell:")
for r in range(sample.rows):
    print("    (" + ", ".join(str(x) for x in sample.row(r)) + ")")
print("  its permutation again:", decorated_permutation_of(sample))
