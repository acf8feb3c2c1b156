"""Slow reference implementations that the fast paths in ``src/`` replaced.

``fraction_det`` is Bareiss elimination carried out in ``Fraction``
arithmetic; ``bareiss_minors`` takes every maximal minor of integer rows
by one integer Bareiss elimination each, as ``exact.integer_minors`` did
before its Laplace table; ``fraction_matmul`` is the ``Fraction``
row-by-column product that ``RatMatrix.matmul`` ran before it multiplied
integer rows, and the tests compare the two; ``cleared_rows``,
``fraction_entry_matmul``, ``fraction_twistor_table`` and
``fraction_arc_value`` are the paths that ran on ``Fraction`` entries
before a ``RatMatrix`` kept integer rows and a point kept its twistors as
integer pairs: clearing each row of entries, one ``Fraction`` per product
entry, one ``Fraction`` per memoized twistor and one ``Fraction`` division
per cluster variable; ``RatMatrix``, ``twistor_table`` and
``Seed.evaluate`` are compared with them on every cell with n <= 6;
``fraction_rref`` is the ``Fraction`` Gauss-Jordan elimination that
``exact.rank`` and ``exact.kernel_basis`` ran on before the integer
elimination;
``rank_decorated_permutation`` reads the decorated permutation of a
totally nonnegative matrix off ranks of column spans, and
``permutation_of_plucker`` off the necklace of the nonzero ``Fraction``
minors of its Plücker vector, as ``grassmann.decorated_permutation_of`` did
before it took integer minors;
``realized_positroid`` takes the support of all minors of a certified
realization of a cell; ``twistor_via_expansion`` evaluates a twistor
through the Plücker coordinates of a preimage of the point (the other
twistor oracle, one ``exact.det`` of Y stacked over Z_I as ``amplituhedron``
took it before its minor tables, is ``_stacked_det`` in the amplituhedron
tests);
``varbar_bruteforce`` tries every sign completion;
``sorted_key_necklace`` reads each I_i of a Grassmann necklace as the basis
of least sorted cyclic places, with one ``sorted`` key per basis, as
``grassmann.necklace_of_bases`` did before it compared rotated bit masks
and then scanned the k-sets in cyclic lexicographic order;
``fraction_positivity_violation`` is the three-term exchange check summed
in ``Fraction``s, as ``trop.positivity_violation`` ran before it scaled the
heights to integers once and walked a quad plan per (k, n);
``full_interval_directions`` lists both directions of each class modulo
(1, ..., 1), the 2n(n - 1) that ``trop._interval_directions`` gave before
it kept one per class; the necklace reader, the exchange check and the
wall search (on the reduced list) are compared with them;
``uniform_matroid``, ``satisfies_basis_exchange`` (the exchange axiom,
brute force), ``three_term_relation_holds`` (every three-term Plücker
relation), ``row_list`` (a ``RatMatrix`` as lists of ``Fraction`` rows),
``twisted_shift`` (the twisted cyclic shift of a ``ZMatrix``, which stays
positive) and ``is_basis`` serve the tests only; ``zero_one_directions``
lists every signed 0/1 vector as a candidate wall normal.  The tests
compare ``exact.det``, ``exact.rank``, ``exact.kernel_basis``,
``exact.integer_minors``, ``exact.maximal_minors``,
``grassmann.decorated_permutation_of``, ``cells.positroid_of_perm``,
``amplituhedron.twistor``, ``exact.varbar`` and the cyclic-interval wall
search of ``trop`` with them.  ``scan_verify_tiling`` and
``frozenset_tilings`` are the tiling verification and enumeration that
scanned every tile per simplex, over lists and frozensets, before
``hypersimplex.cover_mask``; ``verify_tiling`` and ``enumerate_tilings``
are compared with them.  ``scanned_D`` is the scan of all (n-1)! words
ending in n that ``hypersimplex.enumerate_D`` ran before it grew its words
by insertion.  ``rotation_descent_sets`` takes the descents of each
rotation of w afresh, as ``hypersimplex.w_simplex`` did before it toggled
them in one pass.  ``fraction_moment_map`` sums the squared coordinates in
``Fraction``s, as ``hypersimplex.moment_map`` did before it summed integer
squares over one common denominator; ``moment_map`` is compared with it.
``resumming_wall_search`` is the cyclic-interval wall
search of ``trop`` as it ran before each tilt kept a gap table: every shot
re-sums the tilt and the direction over every k-subset, along the
``full_interval_directions``, and takes the next
face from ``fraction_argmin_face``, the argmin of P_I - y . e_I summed in
``Fraction``s that ``trop.argmin_face`` took before it compared integer
gaps; ``trop._cells_by_wall_search`` and ``trop.argmin_face`` are compared
with them.  ``fraction_step``, ``fraction_moved`` and ``kernel_directions``
are the facet walk's steps as they ran before one integer elimination per
simplex and an integer tilt: a direction scaled by the lcm of its
denominators, the tilt moved in ``Fraction``s, and the facet normals of a
simplex from the integer kernel of [E | 1] after a kernel of E that came
out empty; every step of the facet walk is compared with them.
``scan_shoot`` is ``trop._shoot`` before it told a shot leaving
Delta(k, n) by the direction's largest entry: it scans every gap; the early
exit is compared with it on every direction of both walks.
``span_scan`` is the complete lower-hull scan over every n-subset of
vertices that ``trop.regular_subdivision`` ran on heights that are not
positive tropical before the facet walk; ``regular_subdivision`` is
compared with it.  Both take affine ranks with ``fraction_rref``, never
with the integer rank of ``trop``.  ``jacobian_cell_dimension`` is the
rank of the weights-to-point Jacobian of a plabic graph, which
``cells.cell_dimension`` reads off the matching positroid instead, and
``sampled_adjacency`` finds the facet arcs of an m = 2 tile from boundary
samples and the signs of the compatible arcs from interior samples, which
``cluster.cluster_adjacency_check`` gives by theorem; it draws its interior
points with ``sample_tile_point`` and checks its facets with
``noncrossing``.  ``rotated_realization`` is the replay of a bridge
decomposition that built a new matrix per step and placed each coloop
last by twisted rotations; ``cells.matrix_realization`` is compared with it.
``scanned_subdivisions`` lists every bicolored triangulation of type (k, n)
(``enumerate_bicolored``, over the Catalan many ``all_triangulations``) and
merges like-coloured neighbours, as ``triangulations.enumerate_subdivisions``
did before it generated the subdivisions directly; ``enumerate_subdivisions``
is compared with it, and ``triangulations.first_triangulation_containing``
with the first of ``all_triangulations`` that holds the given triangles.
``simplex_in_positroid`` tests one w-simplex against a matroid vertex by
vertex, where ``hypersimplex.cover_mask`` reads every simplex off one table.
``corner_and_center_graph`` builds the plabic graph of an m = 2
amplituhedron tile by hand, a black vertex at each corner of the n-gon and
a white vertex inside each black triangle; the library gets it as the
``plabic.t_dual_graph`` of the dual tree, which is compared with it.
``sample_tile_point`` and ``_boundary_samples`` weight the edges of that
T-dual graph.  ``sample_interior_point`` maps a random top-cell point, and
``sampled_tiling_audit`` is the audit that ``verify_amp_tiling_m2`` ran on
seeded such samples before it took one witness per tile; the witness audit
is compared with it.  ``per_arc_tile_membership`` looks up the twistor of each arc
of a tile in turn and compares it as a ``Fraction``, and
``walked_flip_sets`` and ``walked_chamber_membership`` walk the twisted
sequence of every a twistor by twistor, as ``amplituhedron`` did before a
point kept its sign masks; ``tile_membership_m2`` and
``w_chamber_membership`` are compared with them.  ``bookkeeping_mutate`` is
the quiver mutation that ``cluster.mutate`` ran before the exchange-matrix
rule: it reverses the arrows at the vertex, adds an arrow u -> w per path
u -> key -> w, cancels 2-cycles and drops arrows between frozen vertices
through a reverse rename; ``mutate`` is compared with it.
``cycle_walk_perm_sign`` is the cycle walk that ``util.perm_sign`` ran
before it took the parity of the inversion count, and
``recursive_pair_sets`` and ``moment_curve_rows`` are the recursive
builder of ``amplituhedron._consecutive_pair_sets`` and the rows that
``make_positive_Z`` built before it transposed ``vandermonde_matrix``;
each is compared with the code that replaced it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, lcm
from operator import mul
from typing import Sequence

from random import Random

from positroid_lab.amplituhedron import (
    AmplituhedronPoint,
    ZMatrix,
    amp_map,
    tile_membership_m2,
    twistor,
)
from positroid_lab.cells import bridge_decomposition, positroid_of_perm, sample_cell_matrix
from positroid_lab.cluster import ExchangeVariable, Seed
from positroid_lab.exact import (RatMatrix, det, integer_det, integer_kernel, integer_minors,
                                 kernel_basis, rank)
from positroid_lab.grassmann import (
    Matroid,
    PluckerVector,
    exchange_quads,
    is_tnn,
    matrix_of_plucker,
    matroid_of,
    plucker_of_matrix,
)
from positroid_lab.hypersimplex import (
    WSimplex,
    cyclic_left_descents,
    enumerate_D,
    tile_catalog,
    w_simplex,
)
from positroid_lab.perms import DecoratedPermutation, perm_of_necklace, top_cell_permutation
from positroid_lab.plabic import (
    PlabicGraph,
    boundary_id,
    boundary_measurement,
    dual_graph_of_triangulation,
    matching_monomials,
    t_dual_graph,
)
from positroid_lab.triangulations import (
    BicoloredSubdivision,
    BicoloredTriangulation,
    arcs_cross,
)
from positroid_lab.trop import HeightVector, SubdivisionCell
from positroid_lab.util import sign, subsets


def fraction_det(M: RatMatrix) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination over Fraction."""
    if M.rows != M.cols:
        raise ValueError("determinant requires a square matrix")
    n = M.rows
    if n == 0:
        return Fraction(1)
    a = row_list(M)
    sgn = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sgn = -sgn
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return sgn * a[n - 1][n - 1]


def bareiss_minors(a: Sequence[Sequence[int]], n: int) -> list[int]:
    """Every k x k column minor of the k integer rows ``a``, on the column
    sets in lexicographic order, one Bareiss elimination each."""
    return [integer_det([[row[j] for j in I] for row in a])
            for I in combinations(range(n), len(a))]


def fraction_matmul(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    """A B with every entry summed in Fraction arithmetic."""
    if A.cols != B.rows:
        raise ValueError("shape mismatch")
    cols = [B.col(j) for j in range(B.cols)]
    return RatMatrix(A.rows, B.cols, [sum((a * b for a, b in zip(A.row(i), c)), Fraction(0))
                                      for i in range(A.rows) for c in cols])


def cleared_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Each Fraction row scaled to integers by the lcm of its denominators,
    and the product of those lcms: the clearing that ``RatMatrix`` did on
    its ``Fraction`` entries before it kept integer rows."""
    out, scale = [], 1
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    return out, scale


def fraction_entry_matmul(A: Sequence[Sequence[Fraction]],
                          B: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """The product of two matrices of Fraction rows as ``RatMatrix.matmul``
    built it from Fraction entries: each left row cleared by its own lcm d,
    the whole right factor by one lcm D, and each entry one
    Fraction(a . c, d D)."""
    D = lcm(*(x.denominator for row in B for x in row))
    cols = [[x.numerator * (D // x.denominator) for x in col] for col in zip(*B)]
    out = []
    for row in A:
        (a,), d = cleared_rows([row])
        out.append([Fraction(sum(map(mul, a, c)), d * D) for c in cols])
    return out


def fraction_twistor_table(Y: Sequence[Sequence[Fraction]], Z: ZMatrix) -> dict:
    """Every twistor <Y Z_I> on a sorted I as the Fraction that the point's
    memo held before it kept integer pairs: the Laplace sum of Y's signed
    minors (its Fraction rows cleared once) against the minors of the rows
    Z_I (cleared the same way), over the product of both scales."""
    k, p = len(Y), Z.p
    a, scale = cleared_rows(Y)
    ymin = [(-1) ** (sum(range(k + 1, p + 1)) + sum(J)) * y
            for J, y in zip(subsets(p, p - k), reversed(integer_minors(a, p)))]
    table = {}
    for I in subsets(Z.n, p - k):
        zmin, zscale = _fraction_z_minors(Z, I)
        table[I] = Fraction(sum(map(mul, ymin, zmin)), scale * zscale)
    return table


@lru_cache(maxsize=None)
def _fraction_z_minors(Z: ZMatrix, I: tuple[int, ...]) -> tuple[list[int], int]:
    """The minors of the rows Z_I cleared of their Fraction entries, and
    their scale, kept per Z (by identity) and I."""
    z, zscale = cleared_rows([Z.row(i) for i in I])
    return integer_minors(z, Z.p), zscale


def fraction_arc_value(v, table: dict):
    """An ``ArcVariable`` on a table of Fraction twistors, one Fraction
    division, as ``ArcVariable.value`` took it before it read integer pairs."""
    den = table[v.dist_arc]
    if den == 0:
        return "boundary"
    ratio = table[v.arc] / den
    return -ratio if (v.arc_area - v.dist_area) % 2 else ratio


def row_list(M: RatMatrix) -> list[list[Fraction]]:
    """The rows of M as lists of ``Fraction``s."""
    return [list(M.row(i)) for i in range(M.rows)]


def twisted_shift(Z: ZMatrix) -> ZMatrix:
    """Rows 2..n, then the twisted row (-1)^(p-1) Z_1; ``ZMatrix`` raises
    unless its maximal minors stay positive."""
    rows = [list(Z.row(i)) for i in range(2, Z.n + 1)]
    rows.append([(-1) ** (Z.p - 1) * x for x in Z.row(1)])
    return ZMatrix(RatMatrix.from_rows(rows))


def is_basis(M: Matroid, I) -> bool:
    return frozenset(I) in M.bases


def uniform_matroid(k: int, n: int) -> Matroid:
    return Matroid(n, k, frozenset(frozenset(I) for I in subsets(n, k)))


def satisfies_basis_exchange(M: Matroid) -> bool:
    """Brute-force check of the basis exchange axiom; fine at desk sizes."""
    for B1 in M.bases:
        for B2 in M.bases:
            for b1 in B1 - B2:
                if not any((B1 - {b1}) | {b2} in M.bases for b2 in B2 - B1):
                    return False
    return True


def three_term_relation_holds(P: PluckerVector) -> bool:
    """p_Sac p_Sbd = p_Sab p_Scd + p_Sad p_Sbc for all S and a<b<c<d."""
    return all(P.coord(S + (a, c)) * P.coord(S + (b, d))
               == P.coord(S + (a, b)) * P.coord(S + (c, d))
               + P.coord(S + (a, d)) * P.coord(S + (b, c))
               for S, a, b, c, d in exchange_quads(P.n, P.k))


def fraction_rref(M: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices, by
    Gauss-Jordan elimination over Fraction."""
    a = row_list(M)
    rows, cols = M.rows, M.cols
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return RatMatrix.from_rows(a) if rows else M, tuple(pivots)


def rank_decorated_permutation(C: RatMatrix) -> DecoratedPermutation:
    """pi(i) is the first column j, in cyclic order after i, whose span with
    the intermediate columns absorbs column i.  Zero columns are loops and
    columns outside the span of the others are coloops."""
    if not is_tnn(plucker_of_matrix(C)):
        raise ValueError("decorated permutation is only defined on the "
                         "totally nonnegative part")
    n = C.cols
    cols = [C.col(j) for j in range(n)]
    images = [0] * n
    loops, coloops = set(), set()
    for i in range(1, n + 1):
        ci = cols[i - 1]
        if all(x == 0 for x in ci):
            images[i - 1] = i
            loops.add(i)
            continue
        others = [cols[(i - 1 + t) % n] for t in range(1, n)]
        if rank(RatMatrix.from_rows(others)) < rank(RatMatrix.from_rows(others + [ci])):
            images[i - 1] = i
            coloops.add(i)
            continue
        span: list = []
        for t in range(1, n):
            j = (i - 1 + t) % n + 1
            span.append(cols[j - 1])
            if rank(RatMatrix.from_rows(span)) == rank(RatMatrix.from_rows(span + [ci])):
                images[i - 1] = j
                break
    return DecoratedPermutation(tuple(images), frozenset(loops), frozenset(coloops))


def permutation_of_plucker(P: PluckerVector) -> DecoratedPermutation:
    """Decorated permutation of a totally nonnegative point, read off the
    Grassmann necklace of its bases, the nonzero ``Fraction`` coordinates."""
    if not is_tnn(P):
        raise ValueError("decorated permutation is only defined on the "
                         "totally nonnegative part")
    bases = [I for I, v in P.coords.items() if v != 0]
    return perm_of_necklace(sorted_key_necklace(bases, P.n))


def realized_positroid(pi: DecoratedPermutation) -> Matroid:
    """Support of the minors of a certified realization of the cell: the
    recomputed decorated permutation pins the cell, and on a cell the
    vanishing pattern of the coordinates is constant."""
    return matroid_of(plucker_of_matrix(sample_cell_matrix(pi, Random(0))))


def _twisted_rotate_left(C: RatMatrix) -> RatMatrix:
    """Send columns (c1,...,cn) to (c2,...,cn, (-1)^(k-1) c1); keeps minors
    nonnegative and rotates the cell labels down by one."""
    k, n = C.rows, C.cols
    s = Fraction(-1) ** (k - 1)
    rows = [[C.entry(r, (j + 1) % n) * (s if j == n - 1 else 1) for j in range(n)]
            for r in range(k)]
    return RatMatrix.from_rows(rows)


def _twisted_rotate_right(C: RatMatrix) -> RatMatrix:
    k, n = C.rows, C.cols
    s = Fraction(-1) ** (k - 1)
    rows = [[C.entry(r, (j - 1) % n) * (s if j == 0 else 1) for j in range(n)]
            for r in range(k)]
    return RatMatrix.from_rows(rows)


def _lollipop_insert_matrix(C: RatMatrix, i: int, colour: str) -> RatMatrix:
    """Insert a zero column (loop) or a fresh unit column and row (coloop).

    Coloops are inserted at the last position, reached by twisted rotation,
    so that no minor changes sign.
    """
    k, n = C.rows, C.cols
    if colour == "black":
        rows = [list(C.row(r)) for r in range(k)]
        for row in rows:
            row.insert(i - 1, Fraction(0))
        if k == 0:
            return RatMatrix.zero(0, n + 1)
        return RatMatrix.from_rows(rows)
    for _ in range(n + 1 - i):
        C = _twisted_rotate_right(C)
    rows = [list(C.row(r)) + [Fraction(0)] for r in range(k)]
    rows.append([Fraction(0)] * n + [Fraction(1)])
    out = RatMatrix.from_rows(rows)
    for _ in range(n + 1 - i):
        out = _twisted_rotate_left(out)
    return out


def _bridge_matrix(C: RatMatrix, i: int, t: Fraction) -> RatMatrix:
    """Column operation c_{i+1} += t c_i, t > 0; preserves nonnegativity."""
    rows = [list(C.row(r)) for r in range(C.rows)]
    for row in rows:
        row[i] += t * row[i - 1]
    return RatMatrix.from_rows(rows)


def rotated_realization(pi: DecoratedPermutation, params: Sequence[Fraction]) -> RatMatrix:
    """Replay of the bridge decomposition of pi, one ``RatMatrix`` per step,
    that places each coloop last by twisted rotations and rotates back."""
    steps = bridge_decomposition(pi)
    pidx = sum(1 for s in steps if s[0] == "bridge")
    C = RatMatrix.zero(0, 0)
    for step in reversed(steps):
        if step[0] == "lollipop":
            C = _lollipop_insert_matrix(C, step[1], step[2])
        else:
            pidx -= 1
            C = _bridge_matrix(C, step[1], Fraction(params[pidx]))
    return C


def twistor_via_expansion(P: PluckerVector, Z: ZMatrix, I: Sequence[int]) -> Fraction:
    """Twistor evaluated through the coordinates P of a preimage of the point:
    sum over J of p_J(C) times the signed maximal minor of Z at rows J, I."""
    total = Fraction(0)
    for J in subsets(P.n, P.k):
        pj = P.coords[J]
        if pj == 0:
            continue
        seq = list(J) + list(I)
        if len(set(seq)) != len(seq):
            continue
        rows = [list(Z.row(i)) for i in seq]
        total += pj * det(RatMatrix.from_rows(rows))
    return total


def varbar_bruteforce(v: Sequence) -> int:
    """Exhaustive-completion oracle for varbar; exponential in zero count."""
    signs = [sign(x) for x in v]
    zero_pos = [i for i, s in enumerate(signs) if s == 0]
    if len(zero_pos) == len(signs):
        raise ValueError("sign variation of the zero vector is undefined")
    best = 0
    for fill in product((-1, 1), repeat=len(zero_pos)):
        w = list(signs)
        for p, s in zip(zero_pos, fill):
            w[p] = s
        best = max(best, sum(1 for a, b in zip(w, w[1:]) if a != b))
    return best


def sorted_key_necklace(bases, n: int) -> tuple[tuple[int, ...], ...]:
    """(I_1, ..., I_n): I_i is the basis whose sorted places in the cyclic
    order i < i+1 < ... < i-1 come first lexicographically."""
    return tuple(tuple(sorted(min(bases, key=lambda B: sorted((b - i) % n for b in B))))
                 for i in range(1, n + 1))


def fraction_positivity_violation(P: HeightVector):
    """First (S; a, b, c, d) where P_Sac + P_Sbd differs from
    min(P_Sab + P_Scd, P_Sad + P_Sbc), summed in ``Fraction``s, else None."""
    tab = P.table()
    for S, a, b, c, d in exchange_quads(P.n, P.k):
        mid = tab[tuple(sorted(S + (a, c)))] + tab[tuple(sorted(S + (b, d)))]
        lo = min(tab[tuple(sorted(S + (a, b)))] + tab[tuple(sorted(S + (c, d)))],
                 tab[tuple(sorted(S + (a, d)))] + tab[tuple(sorted(S + (b, c)))])
        if mid != lo:
            return (S, a, b, c, d)
    return None


def full_interval_directions(n: int) -> list[list[int]]:
    """The indicator vectors of all n(n - 1) proper cyclic intervals of [n]
    and their negatives, by size and then lexicographically: 2n(n - 1)
    directions, two per class modulo (1, ..., 1)."""
    out = []
    for size in range(1, n):
        for S in sorted(tuple(sorted((i + t) % n + 1 for t in range(size)))
                        for i in range(n)):
            u = [int(i in S) for i in range(1, n + 1)]
            out.append(u)
            out.append([-x for x in u])
    return out


def zero_one_directions(n: int) -> list[list[Fraction]]:
    """Every nonzero, non-constant 0/1 vector of length n and its negative,
    by support size and then lexicographically: the normals of every wall
    of a matroidal subdivision of a hypersimplex."""
    out = []
    for size in range(1, n):
        for S in combinations(range(1, n + 1), size):
            u = [Fraction(int(i in S)) for i in range(1, n + 1)]
            out.append(u)
            out.append([-x for x in u])
    return out


def simplex_in_positroid(ws: WSimplex, M: Matroid) -> bool:
    """Vertex containment: every descent set must be a basis."""
    if ws.n != M.n:
        raise ValueError("sizes do not match")
    return all(Ir in M.bases for Ir in ws.I)


def scan_verify_tiling(tiles, k_plus_1: int, n: int) -> dict:
    """``verify_tiling`` as a scan of every resolved tile per w-simplex: each
    tile (a permutation or a triangulation) resolves to its permutation, its
    positroid and whether the catalog has it."""
    catalog = tile_catalog(k_plus_1, n)
    resolved = []
    for t in tiles:
        if isinstance(t, BicoloredTriangulation):
            t = t.subdivision.trip_permutation()
        elif not isinstance(t, DecoratedPermutation):
            raise TypeError(f"cannot interpret tile {t!r}")
        resolved.append((t, positroid_of_perm(t), t in catalog))
    violations = []
    perms = [p for p, _, _ in resolved]
    if len(set(perms)) != len(perms):
        violations.append("repeated tiles")
    for p, M, in_catalog in resolved:
        if M.n != n or M.k != k_plus_1:
            violations.append(f"tile {p} has wrong type ({M.k},{M.n})")
        if not in_catalog:
            violations.append(f"tile {p} is not a moment-map tile")
    for ws in enumerate_D(k_plus_1, n):
        hits = [p for p, M, _ in resolved if simplex_in_positroid(ws, M)]
        if len(hits) == 0:
            violations.append(f"simplex of w={''.join(map(str, ws.w))} uncovered")
        elif len(hits) > 1:
            violations.append(
                f"simplex of w={''.join(map(str, ws.w))} covered by "
                + ", ".join(repr(h) for h in hits))
    return {"valid": not violations, "k_plus_1": k_plus_1, "n": n,
            "tiles": [repr(p) for p in perms], "violations": violations}


def frozenset_tilings(k_plus_1: int, n: int) -> list[tuple[DecoratedPermutation, ...]]:
    """Exact cover over frozensets of simplex indices, trying every tile in
    label order at each step; each tiling is a tuple of tile permutations
    in label order, and tilings are sorted by their tuples of labels."""
    catalog = tile_catalog(k_plus_1, n)
    recs = [catalog[p] for p in sorted(catalog, key=repr)]
    simplices = enumerate_D(k_plus_1, n)
    covers = [frozenset(idx for idx, ws in enumerate(simplices)
                        if simplex_in_positroid(ws, rec.matroid))
              for rec in recs]
    solutions: list[tuple[int, ...]] = []

    def search(uncovered: frozenset[int], chosen: list[int]):
        if not uncovered:
            solutions.append(tuple(chosen))
            return
        target = min(uncovered)
        for idx, cov in enumerate(covers):
            if target in cov and cov <= uncovered:
                chosen.append(idx)
                search(uncovered - cov, chosen)
                chosen.pop()

    search(frozenset(range(len(simplices))), [])
    out = [tuple(recs[i].perm for i in sorted(sol)) for sol in solutions]
    out.sort(key=lambda perms: tuple(repr(p) for p in perms))
    return out


def fraction_moment_map(P: PluckerVector) -> tuple[Fraction, ...]:
    """Sum of squared coordinates times indicator vectors, normalised, all
    in ``Fraction``s."""
    total = sum(v * v for v in P.coords.values())
    out = [Fraction(0)] * P.n
    for I, v in P.coords.items():
        if v == 0:
            continue
        w = v * v
        for i in I:
            out[i - 1] += w
    return tuple(x / total for x in out)


def rotation_descent_sets(w: tuple[int, ...]) -> tuple[frozenset[int], ...]:
    """The vertex sets of the w-simplex, one ``cyclic_left_descents`` per
    rotation: the r-th is that of the rotation of w ending at r - 1 (at n
    for r = 1)."""
    n = len(w)
    out = []
    for r in range(1, n + 1):
        pos = w.index(n if r == 1 else r - 1)
        out.append(cyclic_left_descents(w[pos + 1:] + w[:pos + 1]))
    return tuple(out)


def scanned_D(k_plus_1: int, n: int) -> tuple[WSimplex, ...]:
    """Every w with w_n = n and k+1 cyclic left descents, found by scanning
    all (n-1)! words, sorted by w."""
    out = [w_simplex(head + (n,)) for head in permutations(range(1, n))
           if len(cyclic_left_descents(head + (n,))) == k_plus_1]
    return tuple(sorted(out, key=lambda s: s.w))


def _fraction_aff_rank(n: int, sets) -> int:
    """Affine rank of the e_I of the given k-subsets (k > 0): the rank of
    their ``fraction_rref`` less one, independent of the integer rank."""
    return len(fraction_rref(RatMatrix.from_rows(
        [[Fraction(int(i in I)) for i in range(1, n + 1)] for I in sets]))[1]) - 1


def fraction_argmin_face(P: HeightVector, y) -> frozenset:
    """The vertices I of least P_I - y . e_I, summed in ``Fraction``s."""
    y = [Fraction(t) for t in y]
    gaps = {I: h - sum(y[i - 1] for i in I) for I, h in P.table().items()}
    low = min(gaps.values())
    return frozenset(I for I, g in gaps.items() if g == low)


def _resumming_shoot(tab: dict, face: frozenset, y: list, u) -> list | None:
    """Move the tilt y along u until a vertex outside ``face`` ties the
    argmin: the next tilt, or None when no vertex J outside has u . e_J
    above the largest u . e_I on ``face``, so that none ever ties."""
    b = max(sum(u[i - 1] for i in I) for I in face)
    g0 = min(tab[I] - sum(y[i - 1] for i in I) for I in face)
    best_t = None
    for J, h in tab.items():
        if J in face:
            continue
        uj = sum(u[i - 1] for i in J)
        if uj <= b:
            continue
        t = (h - sum(y[i - 1] for i in J) - g0) / (uj - b)
        if best_t is None or t < best_t:
            best_t = t
    if best_t is None:
        return None
    return [yi + best_t * ui for yi, ui in zip(y, u)]


def _resumming_grow_to_cell(P: HeightVector, tab: dict, directions) -> tuple:
    """From the flat tilt, ray-shoot along directions constant on the face
    until the argmin face is full-dimensional (0 < k < n); returns (cell,
    witness)."""
    y = [Fraction(0)] * P.n
    face = fraction_argmin_face(P, y)
    while _fraction_aff_rank(P.n, sorted(face)) < P.n - 1:
        for u in directions:
            if len({sum(u[i - 1] for i in I) for I in face}) != 1:
                continue
            y2 = _resumming_shoot(tab, face, y, u)
            if y2 is None:
                continue
            face2 = fraction_argmin_face(P, y2)
            if face <= face2 and face2 != face:
                y, face = y2, face2
                break
        else:
            raise RuntimeError("could not grow a full-dimensional cell with "
                               "cyclic-interval tilts; heights are not positroidal")
    return face, y


def resumming_wall_search(P: HeightVector) -> list[SubdivisionCell]:
    """Walk from a grown cell across every wall, shooting the witness of a
    cell along each cyclic-interval direction that is not constant on it;
    every shot re-sums over every k-subset."""
    n = P.n
    tab = P.table()
    directions = full_interval_directions(n)
    start, y0 = _resumming_grow_to_cell(P, tab, directions)
    cells = {start: y0}
    queue = [start]
    while queue:
        cell = queue.pop()
        y = cells[cell]
        for u in directions:
            if len({sum(u[i - 1] for i in I) for I in cell}) == 1:
                continue
            y2 = _resumming_shoot(tab, cell, y, u)
            if y2 is None:
                continue
            nb = fraction_argmin_face(P, y2)
            if nb not in cells and _fraction_aff_rank(n, sorted(nb)) == n - 1:
                cells[nb] = y2
                queue.append(nb)
    return [SubdivisionCell(c, tuple(cells[c])) for c in sorted(cells, key=sorted)]


def fraction_step(vertices, u) -> tuple:
    """A direction u, scaled to integers by the lcm of its denominators (a
    positive multiple: the same faces, t rescaled), and its table
    d_I = u . e_I over the vertices, as ``trop._step`` took it before every
    direction of the walks was an integer vector."""
    m = lcm(*(Fraction(x).denominator for x in u))
    u = [Fraction(x).numerator * (m // Fraction(x).denominator) for x in u]
    return u, {I: sum(u[i - 1] for i in I) for I in vertices}


def fraction_moved(y: list, gaps: dict, q: int, u: list, d: dict, step: tuple):
    """The tilt y + t u for t = N / (q M) in ``Fraction``s, and its gaps
    g_I - t d_I as the integers G_I M - N d_I over q M, divided by their
    gcd, as ``trop._moved`` took them before it kept y on integers."""
    N, M = step
    q *= M
    t = Fraction(N, q)
    gaps = {I: g * M - N * d[I] for I, g in gaps.items()}
    c = gcd(q, *gaps.values())
    if c > 1:
        gaps, q = {I: g // c for I, g in gaps.items()}, q // c
    return [yi + t * ui for yi, ui in zip(y, u)], gaps, q


def scan_shoot(gaps: dict, face, d: dict, narrow=None):
    """``trop._shoot`` before its early exit: every gap is scanned for the J
    with d_J > b, b the largest d on ``face``, and None returned when there
    is none, also for a shot that leaves Delta(k, n)."""
    b = max(d[I] for I in face)
    g0 = gaps[next(iter(face))]
    N = M = None
    hits = []
    for J, g in gaps.items():
        m = d[J] - b
        if m > 0:
            g -= g0
            if N is None or g * M < N * m:
                N, M, hits = g, m, [J]
            elif g * M == N * m:
                hits.append(J)
    if N is None:
        return None
    if narrow is not None and len(hits) > 1:
        hits = narrow(face, hits, d, b)
    return (N, M), frozenset([I for I in face if d[I] == b] + hits)


def kernel_directions(n: int, vertices, face) -> list:
    """The facet walk's directions from a face, by two integer kernels as
    ``trop._cells_by_facet_walk`` took them before one elimination per
    simplex: +-u, 0 on the face, when it is not full-dimensional; else, on a
    simplex, the facet normals from the integer kernel of [E | 1]."""
    E = [[int(i in I) for i in range(1, n + 1)] for I in sorted(face)]
    K = integer_kernel(E, n)
    if K:
        return [fraction_step(vertices, u) for u in (K[0], [-x for x in K[0]])]
    if len(face) != n:
        return []
    K = integer_kernel([e + [int(j == r) for j in range(n)] for r, e in enumerate(E)], 2 * n)
    return [fraction_step(vertices, v[:n]) for v in K]


def span_scan(P: HeightVector) -> list[SubdivisionCell]:
    """Complete lower-hull scan over candidate facet hyperplanes.

    Every facet hyperplane is spanned by n affinely independent lifted
    points, so scanning n-subsets finds them all: one kernel for each of
    the C(C(n, k), n) of them.  Each witness y has y_n = 0.
    """
    n = P.n
    pts = [(I, h) for I, h in P.table().items()]
    if len(pts) == 1:
        return [SubdivisionCell(frozenset([pts[0][0]]), tuple([Fraction(0)] * n))]
    found: dict[frozenset, tuple[Fraction, ...]] = {}
    for combo in combinations(range(len(pts)), min(n, len(pts))):
        base_I, base_h = pts[combo[0]]
        rows = []
        for idx in combo[1:]:
            I, h = pts[idx]
            rows.append([Fraction(int(i in I) - int(i in base_I))
                         for i in range(1, n + 1)] + [h - base_h])
        K = kernel_basis(RatMatrix.from_rows(rows))
        normal = None
        for r in range(K.rows):
            cand = list(K.row(r))
            if cand[-1] != 0:
                normal = cand
                break
        if normal is None:
            continue
        a, b = normal[:-1], normal[-1]
        if b < 0:
            a, b = [-x for x in a], -b
        # phi(I) = a . e_I + b P_I, constant = c on the candidate plane
        c = sum(a[i - 1] for i in base_I) + b * base_h
        tight, ok = [], True
        for I, h in pts:
            val = sum(a[i - 1] for i in I) + b * h
            if val == c:
                tight.append(I)
            elif val < c:
                ok = False
                break
        if not ok:
            continue
        if _fraction_aff_rank(n, tight) != (n - 1 if 0 < P.k < n else 0):
            continue
        witness = tuple(-Fraction(x, b) for x in a)
        found.setdefault(frozenset(tight), witness)
    return [SubdivisionCell(c, found[c]) for c in sorted(found, key=sorted)]


def jacobian_cell_dimension(G: PlabicGraph, trials: int = 3, seed: int = 0) -> int:
    """Rank of the weights-to-point Jacobian at random positive weights: the
    dimension of the boundary measurement image, checked geometrically.

    Matching sums are multiaffine in the edge weights, so unit finite
    differences give exact partials; the rank is maximised over trials,
    so it is a lower bound that a lucky draw makes exact.
    """
    k, monos = matching_monomials(G)
    index = {I: t for t, I in enumerate(subsets(G.n, k))}
    nedges = len(G.edges)
    rng = Random(seed)

    def plucker_at(w: list[Fraction]) -> list[Fraction]:
        vals = [Fraction(0)] * len(index)
        for I, mono in monos:
            term = Fraction(1)
            for e in mono:
                term *= w[e]
            vals[index[I]] += term
        return vals

    best = 0
    for _ in range(max(1, trials)):
        w0 = [Fraction(rng.randint(1, 1000)) for _ in range(nedges)]
        p0 = plucker_at(w0)
        i0 = next(t for t, v in enumerate(p0) if v != 0)
        rows = []
        for e in range(nedges):
            w1 = list(w0)
            w1[e] += 1
            p1 = plucker_at(w1)
            dp = [a - b for a, b in zip(p1, p0)]
            rows.append([p0[i0] * dp[t] - p0[t] * dp[i0]
                         for t in range(len(p0)) if t != i0])
        if rows:
            best = max(best, rank(RatMatrix.from_rows(rows)))
    return best


def sample_tile_point(T: BicoloredTriangulation, Z: ZMatrix,
                      rng: Random) -> AmplituhedronPoint:
    """Interior point of the tile of T: push random edge weights through
    the boundary-measurement parameterization of its cell."""
    G = t_dual_graph(dual_graph_of_triangulation(T))
    weights = {e: Fraction(rng.randint(1, 1000)) for e in range(len(G.edges))}
    return amp_map(matrix_of_plucker(boundary_measurement(G, weights)), Z)


def sample_interior_point(k: int, n: int, Z: ZMatrix,
                          rng: Random) -> AmplituhedronPoint:
    """Image of a random totally positive point (certified top-cell sample)."""
    return amp_map(sample_cell_matrix(top_cell_permutation(k, n), rng), Z)


def sampled_tiling_audit(tiles: Sequence[BicoloredTriangulation], Z: ZMatrix,
                         samples: int, seed: int) -> dict[int, int]:
    """The number of samples by the number of open tiles of Z's type that
    hold them: ``samples`` interior points drawn from ``seed``.  A tiling
    puts every point in exactly one open tile, so a tiling gives
    {1: samples}; a point on a wall is not expected at random."""
    k, n = Z.p - 2, Z.n
    rng = Random(seed)
    typed = [T for T in tiles if (T.n, T.k) == (n, k)]
    hits = Counter(sum(tile_membership_m2(Y, Z, T, strict=True) is True for T in typed)
                   for Y in (sample_interior_point(k, n, Z, rng) for _ in range(samples)))
    return dict(hits)


def noncrossing(arcs: Sequence) -> bool:
    """Whether no two of the arcs cross."""
    arcs = list(arcs)
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if arcs_cross(arcs[i], arcs[j]):
                return False
    return True


def _boundary_samples(T: BicoloredTriangulation, Z: ZMatrix, rng: Random,
                      per_edge: int = 3):
    """Images of closure points obtained by zeroing one edge weight."""
    G = t_dual_graph(dual_graph_of_triangulation(T))
    out = []
    for e in range(len(G.edges)):
        for _ in range(per_edge):
            weights = {f: Fraction(rng.randint(1, 1000))
                       for f in range(len(G.edges))}
            weights[e] = Fraction(0)
            try:
                P = boundary_measurement(G, weights)
            except ValueError:
                continue
            out.append(amp_map(matrix_of_plucker(P), Z))
    return out


def sampled_adjacency(T: BicoloredTriangulation, Z: ZMatrix, samples: int = 100,
                      seed: int = 0) -> tuple[dict, bool, bool]:
    """Detect facet arcs of the tile from sampled boundary strata, check
    that they are pairwise noncrossing, and check that every diagonal
    compatible with them keeps a fixed twistor sign on the open tile.

    Returns the record of ``cluster_adjacency_check``, whether the facet
    arcs are noncrossing and whether every compatible arc kept one nonzero
    sign over the interior samples (an arc that did not is left out of the
    record).
    """
    rng = Random(seed)
    n = T.n
    arcs = sorted(T.arcs())
    facet_arcs: set = set()
    for Yb in _boundary_samples(T, Z, rng):
        if per_arc_tile_membership(Yb, Z, T) is False:
            continue
        tight = [a for a in arcs if twistor(Yb, Z, a) == 0]
        if len(tight) == 1:
            facet_arcs.add(tight[0])
    facet_list = sorted(facet_arcs)
    interior = [sample_tile_point(T, Z, rng) for _ in range(samples)]
    all_pairs = [(h, l) for h in range(1, n + 1) for l in range(h + 1, n + 1)]
    compatible_tested: list = []
    signs_fixed = True
    for d in all_pairs:
        if d in facet_arcs:
            continue
        if any(arcs_cross(d, a) for a in facet_list):
            continue
        signs = {sign(twistor(Y, Z, d)) for Y in interior}
        if len(signs) == 1 and 0 not in signs:
            compatible_tested.append([list(d), signs.pop()])
        else:
            signs_fixed = False
    return ({"facet_arcs": [list(a) for a in facet_list], "compatible_tested": compatible_tested},
            noncrossing(facet_list), signs_fixed)


def scanned_subdivisions(n: int, k: int) -> list[BicoloredSubdivision]:
    """Classes of all type (k, n) triangulations, one per key, ordered by key."""
    seen: dict[tuple, BicoloredSubdivision] = {}
    for T in enumerate_bicolored(n, k):
        seen.setdefault(T.subdivision.key(), T.subdivision)
    return [seen[key] for key in sorted(seen)]


@lru_cache(maxsize=None)
def _triangulations_of(cycle: tuple[int, ...]) -> tuple[frozenset, ...]:
    if len(cycle) < 3:
        return (frozenset(),)
    if len(cycle) == 3:
        return (frozenset({tuple(sorted(cycle))}),)
    first, last = cycle[0], cycle[-1]
    out = []
    for m in range(1, len(cycle) - 1):
        tri = tuple(sorted((first, cycle[m], last)))
        for left in _triangulations_of(cycle[: m + 1]):
            for right in _triangulations_of(cycle[m:]):
                out.append(left | right | {tri})
    return tuple(out)


def all_triangulations(n: int) -> list[frozenset]:
    """Every triangulation of the n-gon as a set of triangles (Catalan many)."""
    return list(_triangulations_of(tuple(range(1, n + 1))))


def enumerate_bicolored(n: int, k: int) -> list[BicoloredTriangulation]:
    """All type (k, n) bicolored triangulations."""
    out = []
    for tris in all_triangulations(n):
        tlist = sorted(tris)
        for blacks in combinations(tlist, k):
            black = frozenset(blacks)
            out.append(BicoloredTriangulation(n, black, tris - black))
    return out


def corner_and_center_graph(T: BicoloredTriangulation) -> PlabicGraph:
    """Bipartite graph with a black vertex at each polygon corner, a
    trivalent white vertex inside each black triangle, and boundary legs."""
    n = T.n
    colors: dict[str, str] = {}
    edges: dict = {}  # legs keyed by boundary name, spokes by (triangle, corner)
    rotations: dict[str, list] = {}
    whites = {t: "T" + "_".join(map(str, t)) for t in sorted(T.black)}
    for i in range(1, n + 1):
        colors[f"P{i}"] = "black"
        leg = boundary_id(i)
        edges[leg] = (leg, f"P{i}")
        rotations[leg] = [(leg, 0)]
        rot = [(leg, 1)]
        # incident black triangles swept from the (i, i+1) side to (i-1, i)
        nbrs = sorted({j for t in T.triangles if i in t for j in t if j != i},
                      key=lambda j: (j - i) % n)
        for a, b in zip(nbrs, nbrs[1:]):
            t = tuple(sorted((i, a, b)))
            if t in T.black:
                edges[(t, i)] = (f"P{i}", whites[t])
                rot.append(((t, i), 0))
        rotations[f"P{i}"] = rot
    for t in sorted(T.black):
        colors[whites[t]] = "white"
        rotations[whites[t]] = [((t, i), 1) for i in t]
    return PlabicGraph.from_keyed(n, colors, edges, rotations)


def per_arc_tile_membership(Y, Z: ZMatrix, T: BicoloredTriangulation,
                            strict: bool = False):
    """The m = 2 tile test arc by arc: (-1)^area(h->j) <YZ_h Z_j> >= 0,
    "boundary" for a closed pass with a vanishing twistor."""
    on_boundary = False
    for arc, a in T.arc_areas:
        val = twistor(Y, Z, arc)
        if val == 0:
            if strict:
                return False
            on_boundary = True
        elif (val < 0) != (a % 2 == 1):
            return False
    return "boundary" if on_boundary else True


def walked_flip_sets(Y, Z: ZMatrix) -> tuple[frozenset[int] | None, ...]:
    """For a = 1..n, the flip positions of the twisted sequence at a, or
    None when one of its twistors vanishes."""
    n, twist = Z.n, (-1) ** (Z.p - 1)
    out = []
    for a in range(1, n + 1):
        seq = [twist * twistor(Y, Z, (a, j)) if j < a else twistor(Y, Z, (a, j))
               if j > a else 0 for j in range(1, n + 1)]
        if any(v == 0 for idx, v in enumerate(seq, start=1) if idx != a):
            out.append(None)
            continue
        out.append(frozenset(j for j in range(1, n + 1)
                             if seq[j - 1] != 0 and seq[j % n] != 0
                             and (seq[j - 1] > 0) != (seq[j % n] > 0)))
    return tuple(out)


def walked_chamber_membership(flip_sets, ws: WSimplex):
    """The chamber test of a point with these ``walked_flip_sets``, set by
    set: "boundary" at the first a whose sequence has a vanishing twistor,
    False at the first a whose flips differ from the descent set minus a."""
    for a, flips in enumerate(flip_sets, start=1):
        if flips is None:
            return "boundary"
        if flips != ws.vertex(a) - {a}:
            return False
    return True


def bookkeeping_mutate(S: Seed, key, new_key=None) -> Seed:
    """Quiver mutation at a mutable vertex by arrow lists: reverse the arrows
    at ``key``, add the products of in- and out-arrows, cancel 2-cycles and
    drop arrows between two frozen vertices."""
    key = (min(key), max(key))
    if key not in S.keys:
        raise ValueError(f"no vertex {key}")
    if key in S.frozen:
        raise ValueError(f"vertex {key} is frozen")
    incoming = [(u, m) for (u, v), m in S.arrows.items() if v == key and m]
    outgoing = [(w, m) for (v, w), m in S.arrows.items() if v == key and m]
    new_var = ExchangeVariable(
        tuple(S.variables[u] for u, m in incoming for _ in range(m)),
        tuple(S.variables[w] for w, m in outgoing for _ in range(m)),
        S.variables[key],
    )
    nk = key if new_key is None else (min(new_key), max(new_key))
    rename = {key: nk}
    arrows: dict = {}
    for (u, v), m in S.arrows.items():
        if not m:
            continue
        if u == key or v == key:
            u2, v2 = rename.get(v, v), rename.get(u, u)  # reversal
            arrows[(u2, v2)] = arrows.get((u2, v2), 0) + m
        else:
            arrows[(u, v)] = arrows.get((u, v), 0) + m
    for u, mu in incoming:
        for w, mw in outgoing:
            arrows[(u, w)] = arrows.get((u, w), 0) + mu * mw
    _cancel_two_cycles(arrows)
    for pair in [p for p, m in arrows.items() if m and _both_frozen(S, rename, p)]:
        del arrows[pair]
    keys = tuple(nk if k == key else k for k in S.keys)
    variables = {nk if k == key else k: (new_var if k == key else S.variables[k])
                 for k in S.keys}
    return Seed(keys, S.frozen, arrows, variables)


def _cancel_two_cycles(arrows: dict) -> None:
    for (u, v) in list(arrows):
        if arrows.get((u, v), 0) and arrows.get((v, u), 0):
            m = min(arrows[(u, v)], arrows[(v, u)])
            arrows[(u, v)] -= m
            arrows[(v, u)] -= m
    for key in [k for k, m in arrows.items() if m == 0]:
        del arrows[key]


def _both_frozen(S: Seed, rename, pair) -> bool:
    back = {new: old for old, new in rename.items()}
    u, v = pair
    return back.get(u, u) in S.frozen and back.get(v, v) in S.frozen


def cycle_walk_perm_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation sorting ``seq``, by the parity of its even
    cycles; 0 if entries repeat."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sgn = 1
    order = sorted(range(len(seq)), key=lambda i: seq[i])
    seen = [False] * len(seq)
    for i in range(len(seq)):
        if seen[i]:
            continue
        j, cyc = i, 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            cyc += 1
        if cyc % 2 == 0:
            sgn = -sgn
    return sgn


def recursive_pair_sets(lo: int, hi: int, r: int) -> list[tuple[int, ...]]:
    """Disjoint unions of r adjacent pairs {i, i+1} inside [lo, hi], built
    depth first."""
    out: list[tuple[int, ...]] = []

    def rec(start: int, left: int, acc: tuple[int, ...]):
        if left == 0:
            out.append(acc)
            return
        for i in range(start, hi):
            if i + 1 <= hi:
                rec(i + 2, left - 1, acc + (i, i + 1))

    rec(lo, r, ())
    return out


def moment_curve_rows(n: int, p: int, nodes: Sequence) -> RatMatrix:
    """The n x p matrix of rows (1, t, ..., t^(p-1)) at the n nodes."""
    ts = [Fraction(t) for t in nodes]
    assert len(ts) == n
    return RatMatrix.from_rows([[t ** j for j in range(p)] for t in ts])
