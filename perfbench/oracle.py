"""Independent exact checks and seeded input generators (stdlib only).

Nothing here imports ``positroid_lab``: the benchmark judges the library's
answers with its own arithmetic, so a wrong verdict cannot certify itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from random import Random


def frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    p, _, q = s.partition("/")
    return Fraction(int(p), int(q or 1))


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def rank(rows) -> int:
    a = [[Fraction(x) for x in r] for r in rows]
    rk = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        piv = next((r for r in range(rk, len(a)) if a[r][c] != 0), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        for r in range(len(a)):
            if r != rk and a[r][c] != 0:
                f = a[r][c] / a[rk][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[rk])]
        rk += 1
    return rk


def affine_rank(n: int, sets) -> int:
    """Affine rank of the 0/1 indicator vectors of ``sets`` in R^n."""
    sets = list(sets)
    base = set(sets[0])
    return rank([[int(i in s) - int(i in base) for i in range(1, n + 1)]
                 for s in sets[1:]]) if len(sets) > 1 else 0


def argmin_face(heights: dict, y) -> frozenset:
    """Subsets I minimising heights[I] - sum(y_i for i in I)."""
    vals = {I: h - sum(y[i - 1] for i in I) for I, h in heights.items()}
    best = min(vals.values())
    return frozenset(I for I, v in vals.items() if v == best)


def positive_tropical(heights: dict, k: int, n: int) -> bool:
    """Positive three-term exchange: P_Sac + P_Sbd = min(P_Sab + P_Scd,
    P_Sad + P_Sbc) for every S and a < b < c < d outside S."""
    key = lambda S, x, y: tuple(sorted(S + (x, y)))
    for S in combinations(range(1, n + 1), k - 2):
        rest = [x for x in range(1, n + 1) if x not in S]
        for a, b, c, d in combinations(rest, 4):
            mid = heights[key(S, a, c)] + heights[key(S, b, d)]
            lo = min(heights[key(S, a, b)] + heights[key(S, c, d)],
                     heights[key(S, a, d)] + heights[key(S, b, c)])
            if mid != lo:
                return False
    return True


def tropical_minor(A, cols) -> int:
    k = len(A)
    return min(sum(A[r][cols[s[r]] - 1] for r in range(k))
               for s in permutations(range(k)))


def positive_heights(rng: Random, k: int, n: int, hi: int = 40) -> dict:
    """Min-plus maximal minors of a random integer k x n matrix, redrawn
    until the three-term check above accepts them."""
    while True:
        A = [[rng.randint(0, hi) for _ in range(n)] for _ in range(k)]
        heights = {I: tropical_minor(A, I) for I in combinations(range(1, n + 1), k)}
        if positive_tropical(heights, k, n):
            return heights


def generic_heights(rng: Random, k: int, n: int) -> dict:
    """Independent integers from a range wide enough that a tie which
    would coarsen the regular triangulation has negligible probability."""
    return {I: rng.randint(0, 10 ** 9) for I in combinations(range(1, n + 1), k)}


def check_subdivision(heights: dict, k: int, n: int, cells) -> list[str]:
    """Cells are (vertex set, witness) pairs.  Every witness must select
    exactly its cell, every cell must be full-dimensional, cells must be
    distinct and together use every vertex of the hypersimplex."""
    errors = []
    seen = set()
    used = set()
    for verts, witness in cells:
        verts = frozenset(verts)
        if argmin_face(heights, witness) != verts:
            errors.append(f"witness does not select cell {sorted(verts)}")
        if affine_rank(n, sorted(verts)) != n - 1:
            errors.append(f"cell {sorted(verts)} is not full-dimensional")
        if verts in seen:
            errors.append(f"cell {sorted(verts)} repeated")
        seen.add(verts)
        used |= verts
    if used != set(heights):
        errors.append("cells miss some vertices")
    return errors


def _sorted_pair(I, J) -> bool:
    """Sturmfels' sorting relation: I and J interleave, i1 <= j1 <= i2 <= ...
    or the same with I and J swapped."""
    s = sorted(I + J)
    return {tuple(s[0::2]), tuple(s[1::2])} <= {tuple(I), tuple(J)}


def alcove_count(n: int, verts) -> int:
    """Simplices of the sorting triangulation of the hypersimplex (maximal
    pairwise sorted collections, n vertices each) spanned by ``verts``.

    For an alcoved polytope, such as a positroid polytope, this is its
    normalized volume; over all cells of a positroidal subdivision it must
    add up to the Eulerian number that is the volume of the hypersimplex.
    """
    verts = sorted(verts)
    nbrs = {I: {J for J in verts if J != I and _sorted_pair(I, J)} for I in verts}

    def grow(clique_size: int, candidates: list) -> int:
        if clique_size == n:
            return 1
        return sum(grow(clique_size + 1, [J for J in candidates[t + 1:] if J in nbrs[I]])
                   for t, I in enumerate(candidates))

    return grow(0, verts)


def finest_count(k: int, n: int) -> int:
    """Cell count of a finest positroidal subdivision of Delta(k, n)."""
    return comb(n - 2, k - 1)


def eulerian(n: int, d: int) -> int:
    """Permutations of [n] with d descents (normalized volume of the
    hypersimplex Delta(d + 1, n + 1))."""
    return sum((-1) ** j * comb(n + 1, j) * (d + 1 - j) ** n for j in range(d + 2))


def minors_positive(rows) -> bool:
    k, n = len(rows), len(rows[0])
    return all(det([[r[c - 1] for c in I] for r in rows]) > 0
               for I in combinations(range(1, n + 1), k))


def matmul(A, B):
    return [[sum(a * B[t][j] for t, a in enumerate(row)) for j in range(len(B[0]))]
            for row in A]


def vandermonde(nodes, p: int):
    return [[Fraction(t) ** j for j in range(p)] for t in nodes]


_CAL_ROWS = [[Fraction(3 * i + 5 * j + 1, 2 * i + j + 7) for j in range(9)]
             for i in range(9)]


def calibration_slice() -> Fraction:
    """Fixed Fraction workload used as the unit of the ``*_cal`` metrics:
    the determinant of a 9x9 rational matrix.  It runs the same
    interpreter paths as the library (Fraction arithmetic, gcd on small
    integers) and imports none of it."""
    return det(_CAL_ROWS)
