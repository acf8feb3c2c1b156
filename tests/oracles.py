"""Slow reference implementations that the fast paths in ``src/`` replaced.

``fraction_det`` is Bareiss elimination carried out in ``Fraction``
arithmetic; ``rank_decorated_permutation`` reads the decorated permutation
of a totally nonnegative matrix off ranks of column spans.  The tests
compare ``exact.det`` and ``grassmann.decorated_permutation_of`` with them.
"""

from __future__ import annotations

from fractions import Fraction

from positroid_lab.exact import RatMatrix, rank
from positroid_lab.grassmann import is_tnn, plucker_of_matrix
from positroid_lab.perms import DecoratedPermutation


def fraction_det(M: RatMatrix) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination over Fraction."""
    if M.rows != M.cols:
        raise ValueError("determinant requires a square matrix")
    n = M.rows
    if n == 0:
        return Fraction(1)
    a = M.row_list()
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
