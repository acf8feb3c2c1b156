"""Amplituhedron membership, sign strata, tiles, and the B-model identity.

A positive matrix Z maps the totally nonnegative rank-k points into a
small Grassmannian; twistor coordinates (determinants against rows of Z)
are the working coordinates there.  Membership tests for one and two
extra dimensions, the general boundary sign conditions, tile inequalities
from bicolored triangulations, and sign-flip chambers all start from them.
A point keeps its twistors per Z as integer Laplace sums over positive
scales; the m = 2 tile and chamber verdicts read only their signs, as bit
masks, and a Fraction is built only for a caller that asks for a value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from math import prod
from operator import mul, or_
from typing import TYPE_CHECKING, Sequence

from .cells import cell_dim_of_perm, matrix_realization
from .exact import RatMatrix, integer_minors, kernel_basis, rank, var, varbar
from .grassmann import plucker_of_matrix, vandermonde_matrix
from .perms import t_dual
from .util import perm_sign, rat_to_str, record, sign, subsets

if TYPE_CHECKING:
    from .hypersimplex import WSimplex
    from .triangulations import BicoloredTriangulation

__all__ = [
    "ZMatrix",
    "make_positive_Z",
    "AmplituhedronPoint",
    "amp_map",
    "twistor",
    "twistor_table",
    "sign_stratum",
    "m1_membership",
    "m2_interior_test",
    "general_m_boundary_signs",
    "tile_membership_m2",
    "w_chamber_membership",
    "witness_audit",
    "verify_amp_tiling_m2",
    "b_point",
]


class ZMatrix:
    """n x p matrix with strictly positive maximal minors; ``witnesses``
    keeps its m = 2 tile witnesses (see ``witness_audit``), ``minors`` its minor tables."""

    __slots__ = ("mat", "n", "p", "witnesses", "minors")

    def __init__(self, mat: RatMatrix):
        self.mat = mat
        self.n, self.p = mat.rows, mat.cols
        if self.p > self.n:
            raise ValueError("need p <= n")
        for I, m in zip(subsets(self.n, self.p), integer_minors(mat.transpose().ints, self.n)):
            if m <= 0:
                raise ValueError(f"maximal minor at rows {I} is not positive")
        self.witnesses: tuple[list[AmplituhedronPoint], dict, dict] | None = None
        self.minors: dict[tuple[int, ...], tuple[list[int], int]] = {}

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.mat.row(i - 1)

    def minor_table(self, I: tuple[int, ...]) -> tuple[list[int], int]:
        """The m x m minors of the integer rows I, each row over its
        denominator d_i, on the m-column sets in lexicographic order, and the
        product of the d_i."""
        got = self.minors.get(I)
        if got is None:
            M = self.mat
            got = self.minors[I] = (integer_minors([M.ints[i - 1] for i in I], self.p),
                                    prod(M.dens[i - 1] for i in I))
        return got

    def to_json(self) -> list[list[str]]:
        return self.mat.to_json()


def make_positive_Z(n: int, p: int, nodes: Sequence) -> ZMatrix:
    """Moment-curve rows (1, t, ..., t^(p-1)) at strictly increasing nodes."""
    ts = [Fraction(t) for t in nodes]
    if len(ts) != n:
        raise ValueError(f"need {n} nodes")
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError("nodes must be strictly increasing")
    return ZMatrix(vandermonde_matrix(p, ts).transpose())


@record
class AmplituhedronPoint:
    """Y = C Z, the one field; ``signs[Z]`` is its sign record against Z."""

    Y: RatMatrix

    def __post_init__(self):
        object.__setattr__(self, "signs", _SignRecords(self.Y))


class _SignRecords(dict):
    """A point's ``_Signs`` per ZMatrix (by identity), each built on first use."""

    __slots__ = ("Y",)

    def __init__(self, Y: RatMatrix):
        self.Y = Y

    def __missing__(self, Z: ZMatrix) -> _Signs:
        return self.setdefault(Z, _Signs(self.Y, Z))


def amp_map(C: RatMatrix, Z: ZMatrix) -> AmplituhedronPoint:
    """Y = C Z for a totally nonnegative matrix C, with its sign record
    against Z.  Y has full rank k exactly when k <= p and one of its
    k x k minors, which the record keeps, is nonzero."""
    if C.cols != Z.n:
        raise ValueError("column count of C must match the rows of Z")
    Y = AmplituhedronPoint(C.matmul(Z.mat))
    if C.rows > Z.p or not any(Y.signs[Z].ymin):
        raise RuntimeError("image lost rank; input was not in the domain")
    return Y


class _Signs:
    """One point against one Z: its matrix ``Y``, its twistors as exact
    pairs ``pair(I) = (num, den)`` with den > 0, and, built on first use,
    the m = 2 sign masks and flip sets.  ``ymin`` is the list of Y's signed
    k x k minors, all zero exactly when Y has rank below k.

    ``memo`` keeps each pair under the sorted index tuple, and an unsorted
    I flips the sign of num by parity.  A miss is det[Y; Z_I] by Laplace
    expansion along Z_I's rows: over the m-column sets J, the integer dot
    product of the minors of Y's integer rows off J, signed here once by
    (-1)^(k+1+..+p + sum J), with Z_I's minors on J (``ZMatrix.minor_table``),
    over the product of both scales.  Over the J in lexicographic order, the
    sets off J are the k-sets in reverse.  In a mask, bit (h-1)*n + (j-1)
    stands for the pair h < j."""

    def __init__(self, Y: RatMatrix, Z: ZMatrix):
        self.Y, self.Z = Y, Z
        k, p, n = Y.rows, Z.p, Z.n
        size = p - k
        if size < 0 or k and Y.cols != p:
            raise ValueError(f"Y must have {p} columns and at most {p} rows")
        scale, minors = prod(Y.dens), reversed(integer_minors(Y.ints, p))
        ymin = self.ymin = [(-1) ** (sum(range(k + 1, p + 1)) + sum(J)) * y
                            for J, y in zip(subsets(p, size), minors)]
        memo = self.memo = {}

        def pair(I: Sequence[int]) -> tuple[int, int]:
            # a memo key is a sorted, valid I, so a hit needs no check
            got = memo.get(tuple(I))
            if got is not None:
                return got
            if len(I) != size:
                raise ValueError("index set has the wrong size")
            for i in I:
                if not 1 <= i <= n:
                    raise ValueError(f"twistor index {i} is outside 1..{n}")
            J = tuple(sorted(I))
            got = memo.get(J)
            if got is None:
                if len(set(J)) < size:
                    return 0, 1
                zmin, zscale = Z.minor_table(J)
                got = memo[J] = (sum(map(mul, ymin, zmin)), scale * zscale)
            return got if J == tuple(I) or perm_sign(I) > 0 else (-got[0], got[1])

        self.pair = pair

    @cached_property
    def masks(self) -> tuple[int, int]:
        """(neg, zero): the pairs h < j with <Y Z_h Z_j> negative, and zero."""
        n, pair = self.Z.n, self.pair
        neg = zero = 0
        for h, j in subsets(n, 2):
            val = pair((h, j))[0]
            if val < 0:
                neg |= 1 << ((h - 1) * n + j - 1)
            elif val == 0:
                zero |= 1 << ((h - 1) * n + j - 1)
        return neg, zero

    @cached_property
    def flips(self) -> tuple[int | None, ...]:
        """For a = 1..n, the mask (bit j-1 for j) of the flip positions of
        the twisted sequence at a, or None when one of its twistors
        vanishes.  For j < a that sequence holds (-1)^p <Y Z_j Z_a>."""
        neg, zero = self.masks
        n, odd = self.Z.n, self.Z.p % 2
        out = []
        for a in range(1, n + 1):
            bits = {j: (min(a, j) - 1) * n + max(a, j) - 1 for j in range(1, n + 1) if j != a}
            if any(zero >> b & 1 for b in bits.values()):
                out.append(None)
                continue
            s = {j: (neg >> b & 1) ^ (odd if j < a else 0) for j, b in bits.items()}
            out.append(sum(1 << (j - 1) for j in s
                           if j % n + 1 != a and s[j] != s[j % n + 1]))
        return tuple(out)


def twistor(Y: AmplituhedronPoint, Z: ZMatrix, I: Sequence[int]) -> Fraction:
    """Determinant of Y's rows stacked over the rows of Z named by I, in
    the given order.  The twisted row (-1)^(p-1) Z_i in place of Z_i only
    multiplies it by (-1)^(p-1)."""
    return Fraction(*Y.signs[Z].pair(I))


def twistor_table(Y: AmplituhedronPoint, Z: ZMatrix) -> dict[tuple[int, ...], Fraction]:
    """Every twistor on a sorted index set, as one Fraction each."""
    rec = Y.signs[Z]
    return {I: Fraction(*rec.pair(I)) for I in subsets(Z.n, Z.p - rec.Y.rows)}


def twistor_table_json(table) -> dict[str, str]:
    return {",".join(map(str, I)): rat_to_str(v) for I, v in table.items()}


def sign_stratum(Y: AmplituhedronPoint, Z: ZMatrix) -> str:
    """Signs of all twistors in lex order as a "+-0" string, scaled so the
    first nonzero one is "+"."""
    rec = Y.signs[Z]
    vals = [rec.pair(I)[0] for I in subsets(Z.n, Z.p - rec.Y.rows)]
    lead = sign(next((v for v in vals if v), 0))
    if lead == 0:
        raise RuntimeError("all twistors vanish; Y is degenerate against Z")
    return "".join("0+-"[sign(v) * lead] for v in vals)


def m1_membership(Y: AmplituhedronPoint, Z: ZMatrix) -> bool:
    """One extra dimension: completed sign variation of (<YZ_i>) equals k."""
    rec = Y.signs[Z]
    k, pair = rec.Y.rows, rec.pair
    if Z.p != k + 1:
        raise ValueError("m1 test needs p = k + 1")
    seq = [pair((i,))[0] for i in range(1, Z.n + 1)]
    return varbar(seq) == k


def m2_interior_test(Y: AmplituhedronPoint, Z: ZMatrix) -> bool:
    """Two extra dimensions: consecutive twistors positive, the wrapped one
    against the twisted first row positive, and the flip count equals k.
    These are the conditions of ``general_m_boundary_signs`` at m = 2."""
    if Z.p != Y.signs[Z].Y.rows + 2:
        raise ValueError("m2 test needs p = k + 2")
    return general_m_boundary_signs(Y, Z)


@lru_cache(maxsize=None)
def _consecutive_pair_sets(lo: int, hi: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Disjoint unions of r adjacent pairs {i, i+1} inside [lo, hi], in lex order."""
    if r < 0:  # m = 0 asks for r - 1 = -1 pairs
        return ()
    return tuple(tuple(i for j, c in enumerate(cs) for i in (c + j, c + j + 1))
                 for cs in combinations(range(lo, hi - r + 1), r))


def general_m_boundary_signs(Y: AmplituhedronPoint, Z: ZMatrix) -> bool:
    """Boundary sign conditions for any m, plus the flip-count condition.

    Even m: twistors on r adjacent pairs are positive, as are the wrapped
    ones ending in Z_n and the twisted Z_1.  Odd m: sets starting at 1
    carry the sign (-1)^k and sets ending at n are positive.  On top, the
    sequence <Y Z_1 .. Z_{m-1} Z_j> for j = m..n makes exactly k flips.
    """
    rec = Y.signs[Z]
    k, pair = rec.Y.rows, rec.pair
    m = Z.p - k
    if m < 1:
        raise ValueError(f"boundary signs need m = p - k >= 1, not m = {m}")
    n = Z.n
    r = m // 2
    if m % 2 == 0:
        for I in _consecutive_pair_sets(1, n, r):
            if pair(I)[0] <= 0:
                return False
        for I in _consecutive_pair_sets(2, n - 1, r - 1):
            if (-1) ** (Z.p - 1) * pair(I + (n, 1))[0] <= 0:
                return False
    else:
        sign_k = (-1) ** k
        for I in _consecutive_pair_sets(2, n, r):
            if sign_k * pair((1,) + I)[0] <= 0:
                return False
        for I in _consecutive_pair_sets(1, n - 1, r):
            if pair(I + (n,))[0] <= 0:
                return False
    seq = [pair(tuple(range(1, m)) + (j,))[0] for j in range(m, n + 1)]
    return var(seq) == k


def tile_membership_m2(Y: AmplituhedronPoint, Z: ZMatrix, T: BicoloredTriangulation,
                       strict: bool = False):
    """Tile inequalities: (-1)^area(h->j) <YZ_h Z_j> >= 0 over arcs of T,
    read off Y's sign masks against T's arc and odd-area masks.

    ``strict`` asks for the open tile; the closed test returns "boundary"
    when it passes with at least one vanishing twistor.  T must have the
    type (k, n) of Y and Z.
    """
    rec = Y.signs[Z]
    if (T.n, T.k) != (Z.n, rec.Y.rows):
        raise ValueError("sizes do not match")
    neg, zero = rec.masks
    arcs, odd = T.arc_masks
    if (neg ^ odd) & arcs & ~zero:
        return False
    if zero & arcs:
        return False if strict else "boundary"
    return True


def w_chamber_membership(Y: AmplituhedronPoint, Z: ZMatrix, ws: WSimplex):
    """Sign-flip chamber test: for each a the flip positions of the twisted
    sequence at a must be exactly the descent set minus a.

    Returns True/False, or "boundary" when a tested twistor vanishes (at
    the first a that does not match).
    """
    if ws.n != Z.n:
        raise ValueError("sizes do not match")
    rec = Y.signs[Z]
    flips = rec.flips
    if flips == ws.flip_masks:
        return True
    if not rec.masks[1]:
        return False
    first_miss = next(f for f, g in zip(flips, ws.flip_masks) if f != g)
    return "boundary" if first_miss is None else False


def witness_audit(tiles: Sequence[BicoloredTriangulation], Z: ZMatrix) -> list[str]:
    """The violations of m = 2 tiles of type (p - 2, n) on the witness of
    every catalog tile: a listed tile holds its own strictly, no other
    listed tile holds it even on its boundary, and each lies in some closed
    listed tile.  A tile is the image of its T-dual cell (Parisi-Sherman-
    Bennett-Williams), so that cell's Z-image at unit bridge parameters is a
    witness in the open tile.  Z keeps the witnesses, their catalog
    positions and, per T, its position and the masks of the witnesses that
    its closed and open tile hold."""
    if Z.witnesses is None:
        from .hypersimplex import tile_catalog

        labels = tile_catalog(Z.p - 1, Z.n)
        cells = [t_dual(pi) for pi in labels]
        Z.witnesses = ([amp_map(matrix_realization(c, [1] * cell_dim_of_perm(c)), Z)
                        for c in cells], {pi: j for j, pi in enumerate(labels)}, {})
    points, position, held = Z.witnesses
    for T in tiles:
        if T not in held:
            got = [tile_membership_m2(Y, Z, T) for Y in points]
            held[T] = (position[T.subdivision.trip_permutation()],
                       sum(1 << j for j, v in enumerate(got) if v is not False),
                       sum(1 << j for j, v in enumerate(got) if v is True))
    rows, labels = [held[T] for T in tiles], list(position)
    covered = reduce(or_, (closed for _, closed, _ in rows), 0)
    audit = [f"no listed tile holds the witness of tile {t_dual(pi)!r}"
             for j, pi in enumerate(labels) if not covered >> j & 1]
    for i, (a, _, strict) in enumerate(rows):
        if not strict >> a & 1:
            audit.append(f"tile {t_dual(labels[a])!r} does not hold its witness strictly")
        audit.extend(f"tile {t_dual(labels[b])!r} holds the witness of tile {t_dual(labels[a])!r}"
                     for j, (b, closed, _) in enumerate(rows) if j != i and closed >> a & 1)
    return audit


def verify_amp_tiling_m2(tiles: Sequence[BicoloredTriangulation], Z: ZMatrix) -> dict:
    """T-dualize the tiles and verify the rank-(k+1) hypersimplex tiling,
    then run ``witness_audit``.  The type (k, n) = (p - 2, n) is read off
    Z; a tile of another type is a violation and stays out of the audit.
    The result is the JSON record {valid, k, n, tiles, hypersimplex
    (``verify_tiling``'s record), sample_audit_ok, violations}."""
    from .hypersimplex import verify_tiling

    k, n = Z.p - 2, Z.n
    if k < 0:
        raise ValueError(f"m = 2 tiles need Z with p >= 2 columns, not {Z.p}")
    hrep = verify_tiling(tiles, k + 1, n)
    audit = witness_audit([T for T in tiles if (T.n, T.k) == (n, k)], Z)
    violations = ([f"tile {T!r} has mismatched type" for T in tiles if (T.n, T.k) != (n, k)]
                  + ["T-dual: " + v for v in hrep["violations"]] + audit)
    return {"valid": not violations, "k": k, "n": n, "tiles": [T.to_json() for T in tiles],
            "hypersimplex": hrep, "sample_audit_ok": not audit, "violations": violations}


def b_point(C: RatMatrix, Z: ZMatrix) -> dict:
    """Intersect the orthogonal complement of C's row space with the column
    span of Z and compare its coordinates against the twistors of Y = CZ.

    x = Z a is orthogonal to C's rows exactly when Y a = 0, so the
    intersection is spanned by Z times the kernel of Y.  The two coordinate
    vectors must agree up to one global scalar: the twistor over the
    coordinate at X's first nonzero one.  The result is the JSON record
    {consistent, dim_ok, X, scalar}, with a scalar only when consistent.
    """
    m = Z.p - C.rows
    Y = AmplituhedronPoint(C.matmul(Z.mat))
    X = kernel_basis(Y.Y).matmul(Z.mat.transpose())
    dim_ok = rank(X) == m and X.rows == m
    consistent, scalar = False, None
    if dim_ok:
        PX = plucker_of_matrix(X).coords
        table = twistor_table(Y, Z)
        first = next(I for I in subsets(C.cols, m) if PX[I])
        scalar = table[first] / PX[first]
        consistent = scalar != 0 and all(table[I] == scalar * PX[I] for I in table)
    return {"consistent": consistent, "dim_ok": dim_ok, "X": X.to_json(),
            "scalar": rat_to_str(scalar) if consistent else None}
