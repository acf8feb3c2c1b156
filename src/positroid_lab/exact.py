"""Exact rational matrices, one integer elimination, and sign variation.

A ``RatMatrix`` keeps each row as integers over one positive denominator
in lowest terms, and builds ``fractions.Fraction`` entries only when
asked; nothing here ever rounds.  One fraction-free (Bareiss) elimination
gives the rank, kernel, determinant and adjugate of integer rows
(``integer_rank``, ``integer_kernel``, ``integer_det``,
``integer_adjugate``); ``rank``, ``kernel_basis`` and
``det`` run it on copies of the stored rows.  Every maximal minor of k
integer rows comes from one Laplace table (``integer_minors``), and
``maximal_minors`` takes it on the stored rows.  ``RatMatrix.matmul``
multiplies the left factor's integer rows by the right factor's columns
cleared over one denominator.  The sign variation statistics ``var`` and
``varbar`` serve the Gantmakher-Krein style tests elsewhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .util import rat_from_str, rat_to_str, sign


class RatMatrix:
    """Immutable dense matrix over Q.  Row i is kept as the integers
    ``ints[i]`` over one denominator ``dens[i]`` in lowest terms: d > 0 and
    gcd(row, d) = 1, so d is the lcm of the row's reduced denominators.
    Equal matrices keep equal rows whatever they were built from; ``row``,
    ``entry`` and ``to_json`` build reduced ``Fraction``s only when asked."""

    __slots__ = ("rows", "cols", "ints", "dens")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ent = [x if isinstance(x, Fraction) else Fraction(x) for x in entries]
        if len(ent) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ent)}")
        split = [ent[i * cols:(i + 1) * cols] for i in range(rows)]
        self.rows, self.cols = rows, cols
        self.dens = tuple(lcm(*(x.denominator for x in row)) for row in split)
        self.ints = tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                          for row, d in zip(split, self.dens))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        r, c = len(rows), len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    @classmethod
    def from_integer_rows(cls, ints: Sequence[Sequence[int]], dens: Sequence[int],
                          cols: int) -> "RatMatrix":
        """The matrix with row i equal to ints[i] / dens[i]: integer rows of
        length ``cols`` over nonzero integer denominators."""
        if len(ints) != len(dens) or not all(dens) or any(len(row) != cols for row in ints):
            raise ValueError(f"need a nonzero denominator per row and {cols} entries per row")
        out, outd = [], []
        for row, d in zip(ints, dens):
            g = gcd(*row, d) if d > 0 else -gcd(*row, d)
            out.append(tuple(row) if g == 1 else tuple(x // g for x in row))
            outd.append(d // g)
        M = object.__new__(cls)
        M.rows, M.cols, M.ints, M.dens = len(out), cols, tuple(out), tuple(outd)
        return M

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.ints[i][j], self.dens[i])

    def row(self, i: int) -> tuple[Fraction, ...]:
        d = self.dens[i]
        return tuple(Fraction(x, d) for x in self.ints[i])

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entry(i, j) for i in range(self.rows))

    def _cleared_cols(self) -> tuple[list[list[int]], int]:
        """The columns as integers over one denominator D, the lcm of the
        rows' denominators, and D."""
        D = lcm(*self.dens)
        return [[row[j] * (D // d) for row, d in zip(self.ints, self.dens)]
                for j in range(self.cols)], D

    def transpose(self) -> "RatMatrix":
        cols, D = self._cleared_cols()
        return RatMatrix.from_integer_rows(cols, [D] * self.cols, self.rows)

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        """Each integer row a over d of the left factor times the right
        factor's columns c cleared over one D: row a.c over d D."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols, D = other._cleared_cols()
        return RatMatrix.from_integer_rows(
            [[sum(map(mul, a, c)) for c in cols] for a in self.ints],
            [d * D for d in self.dens], other.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        return RatMatrix.from_integer_rows(
            [[self.ints[i][j] for j in col_idx] for i in row_idx],
            [self.dens[i] for i in row_idx], len(col_idx))

    def columns(self, col_idx: Sequence[int]) -> "RatMatrix":
        return self.submatrix(range(self.rows), col_idx)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.ints == other.ints
                and self.dens == other.dens)

    def __hash__(self):
        return hash((self.rows, self.cols, self.ints, self.dens))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def to_json(self) -> list[list[str]]:
        return [[rat_to_str(x) for x in self.row(i)] for i in range(self.rows)]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str]]) -> "RatMatrix":
        """ValueError unless ``data`` is a list of equally long lists of "p/q"
        strings; a bad entry is named by its row and column, from 1."""
        if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
            raise ValueError("a matrix is a list of rows of rationals as strings")
        return cls.from_rows([[rat_from_str(x, f"row {i}, column {j}")
                               for j, x in enumerate(row, start=1)]
                              for i, row in enumerate(data, start=1)])


def _eliminate(a: list[list[int]], full: bool = False) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of the integer rows ``a`` in place,
    each entry staying a minor of the input; returns the pivot columns and the
    sign of the row swaps.  The forward pass updates only rows below a pivot,
    right of it: a nonsingular square matrix ends with sign * det in its last
    entry.  The full (Gauss-Jordan) pass reduces every other row; each pivot
    then equals the last one, d, and the first rank rows over d are the RREF."""
    m, ncols = len(a), len(a[0]) if a else 0
    pivots: list[int] = []
    sgn, prev = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        if not a[r][c]:
            for i in range(r + 1, m):
                if a[i][c]:
                    a[r], a[i] = a[i], a[r]
                    sgn = -sgn
                    break
            else:
                continue
        row = a[r]
        p = row[c]
        lo = 0 if full else c + 1
        for i in range(0 if full else r + 1, m):
            if i != r:
                ai = a[i]
                f = ai[c]
                for j in range(lo, ncols):
                    ai[j] = (p * ai[j] - f * row[j]) // prev
        pivots.append(c)
        prev = p
    return pivots, sgn


def _det(a: list[list[int]]) -> int:
    pivots, sgn = _eliminate(a)
    if len(pivots) < len(a):
        return 0
    return sgn * a[-1][-1] if a else 1


def _kernel(a: list[list[int]], cols: int) -> tuple[list[list[int]], int]:
    """The ``integer_kernel`` of the rows ``a``, eliminated in place, and |d|."""
    pivots, _ = _eliminate(a, full=True)
    d = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    s = 1 if d > 0 else -1
    out = []
    for f in range(cols):
        if f not in pivots:
            v = [0] * cols
            v[f] = abs(d)
            for r, p in enumerate(pivots):
                v[p] = -s * a[r][f]
            out.append(v)
    return out, abs(d)


# Every entry point copies its rows before the elimination, which works in
# place: the RatMatrix functions below copy the stored integer rows.

def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square matrix of integer rows."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant requires a square matrix")
    return _det([list(row) for row in rows])


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of a matrix of integer rows."""
    return len(_eliminate([list(row) for row in rows])[0])


def integer_kernel(rows: Sequence[Sequence[int]], cols: int) -> list[list[int]]:
    """Integer vectors spanning {x : Ax = 0} for the ``cols``-column matrix A
    of integer rows: the rows of ``kernel_basis``, each scaled by |d| (d the
    last pivot of the full elimination), so |d| at its free column."""
    return _kernel([list(row) for row in rows], cols)[0]


def integer_adjugate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int] | None:
    """The adjugate and determinant of a square matrix A of integer rows, or
    None when A is singular.  One full elimination of [A | I] ends as
    [d I | d A^-1] with d = sgn det A, sgn that of its row swaps, so
    adj A = sgn d A^-1 is read off its right block."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("adjugate requires a square matrix")
    a = [[*row, *[0] * i, 1, *[0] * (n - 1 - i)] for i, row in enumerate(rows)]
    pivots, sgn = _eliminate(a, full=True)
    if pivots != list(range(n)):
        return None
    adj = [row[n:] if sgn > 0 else [-x for x in row[n:]] for row in a]
    return adj, sgn * a[-1][n - 1] if n else 1


@lru_cache(maxsize=None)
def _laplace_plan(k: int, n: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """For each r = 1..k and each r-set S of the n columns in lexicographic
    order, the terms (c, i) of the expansion of the minor of rows 1..r on S
    along row r: c is the column S_p, plus n when the sign (-1)^(r-1+p) is
    negative, and i the lexicographic index of S minus S_p among the
    (r-1)-sets."""
    plan, index = [], {(): 0}
    for r in range(1, k + 1):
        sets = list(combinations(range(n), r))
        plan.append(tuple(tuple((S[p] + n * ((r - 1 + p) % 2), index[S[:p] + S[p + 1:]])
                                for p in range(r)) for S in sets))
        index = {S: i for i, S in enumerate(sets)}
    return tuple(plan)


def integer_minors(a: Sequence[Sequence[int]], n: int) -> list[int]:
    """Every k x k column minor of the k integer rows ``a`` of length n, on
    the column sets in lexicographic order.  The minors of rows 1..r on all
    r-sets are expanded along row r from those of rows 1..r-1, with no
    division: sum over r <= k of r C(n, r) products, at most n 2^(n-1)."""
    if any(len(row) != n for row in a):
        raise ValueError(f"every row needs {n} entries")
    minors = [1]
    for row, level in zip(a, _laplace_plan(len(a), n)):
        signed = [*row, *[-x for x in row]]
        minors = [sum([signed[c] * minors[i] for c, i in terms]) for terms in level]
    return minors


def det(M: RatMatrix) -> Fraction:
    """Exact determinant by fraction-free elimination over the integers."""
    if M.rows != M.cols:
        raise ValueError("determinant requires a square matrix")
    return Fraction(_det([list(row) for row in M.ints]), prod(M.dens))


def maximal_minors(M: RatMatrix) -> dict[tuple[int, ...], Fraction]:
    """Every k x k column minor of a k x n matrix, keyed by its 1-based
    column set in lexicographic order, from the minors of M's integer rows."""
    k, n = M.rows, M.cols
    if k > n:
        raise ValueError("need k <= n")
    scale = prod(M.dens)
    return {tuple(j + 1 for j in I): Fraction(m, scale)
            for I, m in zip(combinations(range(n), k), integer_minors(M.ints, n))}


def rank(M: RatMatrix) -> int:
    return len(_eliminate([list(row) for row in M.ints])[0])


def kernel_basis(M: RatMatrix) -> RatMatrix:
    """Rows span the right null space {x : Mx = 0}; row count = cols - rank.
    One row per free column f of the reduced row echelon form: 1 at f and
    minus the echelon entries of column f at the pivots."""
    K, d = _kernel([list(row) for row in M.ints], M.cols)
    return RatMatrix.from_integer_rows(K, [d] * len(K), M.cols)


def var(v: Sequence) -> int:
    """Number of sign changes, zeros ignored."""
    signs = [sign(x) for x in v if sign(x) != 0]
    if not signs:
        raise ValueError("sign variation of the zero vector is undefined")
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def varbar(v: Sequence) -> int:
    """Max of var over all sign completions of the zero entries.

    Computed run by run: a gap of L zeros between nonzero signs s, t
    contributes L + 1 changes when the parity works out ((s == t) == (L odd))
    and L otherwise; leading/trailing runs of L zeros contribute L.
    """
    signs = [sign(x) for x in v]
    nz = [i for i, s in enumerate(signs) if s != 0]
    if not nz:
        raise ValueError("sign variation of the zero vector is undefined")
    total = nz[0] + (len(signs) - 1 - nz[-1])
    for a, b in zip(nz, nz[1:]):
        gap = b - a - 1
        same = signs[a] == signs[b]
        if same == (gap % 2 == 1):
            total += gap + 1
        else:
            total += gap
    return total
