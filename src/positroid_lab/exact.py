"""Exact rational matrices, one integer elimination, and sign variation.

All entries are ``fractions.Fraction``; nothing here ever rounds.  One
fraction-free (Bareiss) elimination gives the rank, kernel and determinant
of integer rows (``integer_rank``, ``integer_kernel``, ``integer_det``);
``rank``, ``kernel_basis`` and ``det`` run it on rows cleared of
denominators once.  Every maximal minor of k integer rows comes from one
Laplace table (``integer_minors``), and ``maximal_minors`` takes it on
rows cleared once.
``RatMatrix.matmul`` scales each left row by its own denominator lcm and
the right factor by one common lcm: an entry is one ``Fraction`` of an
integer dot product.  The sign variation statistics ``var`` and
``varbar`` are the workhorses behind the Gantmakher-Krein style tests
elsewhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .util import rat_from_str, rat_to_str, sign


class RatMatrix:
    """Immutable dense matrix over Q, stored row-major."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ent = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in entries)
        if len(ent) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ent)}")
        self.rows, self.cols, self._entries = rows, cols, ent

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        r, c = len(rows), len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self._entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows, [self.entry(i, j) for j in range(self.cols)
                                                for i in range(self.rows)])

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        b, D = _integer_row(other._entries)
        cols = [b[j::other.cols] for j in range(other.cols)]
        out = []
        for a, d in map(_integer_row, map(self.row, range(self.rows))):
            out.extend(Fraction(sum(map(mul, a, c)), d * D) for c in cols)
        return RatMatrix(self.rows, other.cols, out)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        return self.matmul(other)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        out = [self.entry(i, j) for i in row_idx for j in col_idx]
        return RatMatrix(len(row_idx), len(col_idx), out)

    def columns(self, col_idx: Sequence[int]) -> "RatMatrix":
        return self.submatrix(range(self.rows), col_idx)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._entries == other._entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def to_json(self) -> list[list[str]]:
        return [[rat_to_str(x) for x in self.row(i)] for i in range(self.rows)]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str]]) -> "RatMatrix":
        """ValueError unless ``data`` is a list of equally long lists of "p/q" strings."""
        if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
            raise ValueError("a matrix is a list of rows of rationals as strings")
        return cls.from_rows([[rat_from_str(x) for x in row] for row in data])


def _integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """``row`` scaled to integers by the lcm d of its denominators, and d."""
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def _integer_rows(M: RatMatrix) -> tuple[list[list[int]], int]:
    """M's rows, each scaled to integers by the lcm of its denominators, and
    the product of those scales."""
    rows = [_integer_row(M.row(i)) for i in range(M.rows)]
    return [a for a, _ in rows], prod(d for _, d in rows)


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


# The integer entry points copy their rows; the RatMatrix functions below
# hand their freshly scaled rows straight to the elimination.

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
    a, scale = _integer_rows(M)
    return Fraction(_det(a), scale)


def maximal_minors(M: RatMatrix) -> dict[tuple[int, ...], Fraction]:
    """Every k x k column minor of a k x n matrix, keyed by its 1-based
    column set in lexicographic order; the rows are scaled to integers once."""
    k, n = M.rows, M.cols
    if k > n:
        raise ValueError("need k <= n")
    a, scale = _integer_rows(M)
    return {tuple(j + 1 for j in I): Fraction(m, scale)
            for I, m in zip(combinations(range(n), k), integer_minors(a, n))}


def rank(M: RatMatrix) -> int:
    return len(_eliminate(_integer_rows(M)[0])[0])


def kernel_basis(M: RatMatrix) -> RatMatrix:
    """Rows span the right null space {x : Mx = 0}; row count = cols - rank.
    One row per free column f of the reduced row echelon form: 1 at f and
    minus the echelon entries of column f at the pivots."""
    K, d = _kernel(_integer_rows(M)[0], M.cols)
    return RatMatrix(len(K), M.cols, [Fraction(x, d) for v in K for x in v])


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
