"""Exact rational matrices, determinants, kernels, and sign variation.

All entries are ``fractions.Fraction``; nothing here ever rounds.  The sign
variation statistics ``var`` and ``varbar`` are the workhorses behind the
Gantmakher-Krein style tests elsewhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .util import rat_from_str, rat_to_str, sign


class RatMatrix:
    """Immutable dense matrix over Q, stored row-major."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ent = tuple(Fraction(x) for x in entries)
        if len(ent) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ent)}")
        self.rows = rows
        self.cols = cols
        self._entries = ent

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
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
        return RatMatrix(
            self.cols,
            self.rows,
            [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        ocols = [other.col(j) for j in range(other.cols)]
        for i in range(self.rows):
            r = self.row(i)
            for j in range(other.cols):
                out.append(sum(a * b for a, b in zip(r, ocols[j])))
        return RatMatrix(self.rows, other.cols, out)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        return self.matmul(other)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        out = [self.entry(i, j) for i in row_idx for j in col_idx]
        return RatMatrix(len(row_idx), len(col_idx), out)

    def columns(self, col_idx: Sequence[int]) -> "RatMatrix":
        return self.submatrix(range(self.rows), col_idx)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def to_json(self) -> list[list[str]]:
        return [[rat_to_str(x) for x in self.row(i)] for i in range(self.rows)]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str]]) -> "RatMatrix":
        return cls.from_rows([[rat_from_str(x) for x in row] for row in data])


def det(M: RatMatrix) -> Fraction:
    """Exact determinant: each row is scaled to integers by the lcm of its
    denominators, then fraction-free (Bareiss) elimination runs over the
    integers, where every division is exact."""
    if M.rows != M.cols:
        raise ValueError("determinant requires a square matrix")
    n = M.rows
    if n == 0:
        return Fraction(1)
    a = []
    scale = 1
    for i in range(n):
        row = M.row(i)
        d = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    sgn = 1
    prev = 1
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
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return Fraction(sgn * a[n - 1][n - 1], scale)


def rref(M: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    a = M.row_list()
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


def rank(M: RatMatrix) -> int:
    if M.rows == 0 or M.cols == 0:
        return 0
    return len(rref(M)[1])


def kernel_basis(M: RatMatrix) -> RatMatrix:
    """Rows span the right null space {x : Mx = 0}; row count = cols - rank."""
    if M.rows == 0:
        return RatMatrix.identity(M.cols)
    R, pivots = rref(M)
    free = [c for c in range(M.cols) if c not in pivots]
    rows = []
    for f in free:
        v = [Fraction(0)] * M.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -R.entry(r, f)
        rows.append(v)
    if not rows:
        return RatMatrix.zero(0, M.cols)
    return RatMatrix.from_rows(rows)


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


class SignVector:
    """Sequence over {-1, 0, +1}; projective form has first nonzero +."""

    __slots__ = ("entries", "projective")

    def __init__(self, values: Iterable, projective: bool = True):
        ent = tuple(sign(x) for x in values)
        if projective:
            for s in ent:
                if s != 0:
                    if s < 0:
                        ent = tuple(-x for x in ent)
                    break
        self.entries = ent
        self.projective = projective

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignVector)
            and self.entries == other.entries
            and self.projective == other.projective
        )

    def __hash__(self):
        return hash((self.entries, self.projective))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        glyph = {1: "+", -1: "-", 0: "0"}
        return "(" + "".join(glyph[s] for s in self.entries) + ")"

    def to_json(self) -> str:
        glyph = {1: "+", -1: "-", 0: "0"}
        return "".join(glyph[s] for s in self.entries)
