"""Exact linear algebra and sign variation."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, strategies as st

from positroid_lab.exact import (
    RatMatrix,
    SignVector,
    det,
    kernel_basis,
    rank,
    var,
    varbar,
)

from oracles import fraction_det, varbar_bruteforce


def test_det_identity():
    assert det(RatMatrix.identity(3)) == 1


def test_det_row_swap_sign():
    M = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert det(M) == -1


def test_det_pinned_minor_vanishes():
    C = RatMatrix.from_rows([[1, 0, -1, -2], [0, 1, 2, 4]])
    assert det(C.columns([2, 3])) == 0


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(RatMatrix.from_rows([[1, 2, 3]]))


def test_det_multiplicative_random():
    rng = Random(0)
    for _ in range(10):
        A = RatMatrix(4, 4, [Fraction(rng.randint(-9, 9)) for _ in range(16)])
        B = RatMatrix(4, 4, [Fraction(rng.randint(-9, 9)) for _ in range(16)])
        assert det(A.matmul(B)) == det(A) * det(B)


def test_kernel_of_full_rank_square():
    assert kernel_basis(RatMatrix.from_rows([[2, 1], [1, 1]])).rows == 0


def test_kernel_one_dim():
    K = kernel_basis(RatMatrix.from_rows([[1, 1]]))
    assert K.rows == 1
    x, y = K.row(0)
    assert x == -y != 0


def test_kernel_orthogonal_to_rows():
    C = RatMatrix.from_rows([[1, 0, -1, -2], [0, 1, 2, 4]])
    K = kernel_basis(C)
    assert K.rows == 2
    for r in range(2):
        for s in range(K.rows):
            assert sum(a * b for a, b in zip(C.row(r), K.row(s))) == 0
    assert rank(C) + K.rows == C.cols


def test_var_examples():
    assert var([2, 0, 2, -1]) == 1
    assert var([1, 1, 1]) == 0
    assert var([1, -1, 1, -1]) == 3


def test_varbar_examples():
    assert varbar([2, 0, 2, -1]) == 3
    assert varbar([3, -2, 5]) == var([3, -2, 5])
    assert varbar([1, 0, 1]) == 2 == varbar_bruteforce([1, 0, 1])


def test_var_rejects_zero_vector():
    with pytest.raises(ValueError):
        var([0, 0])
    with pytest.raises(ValueError):
        varbar([0])


def test_varbar_matches_bruteforce_all_ternary_up_to_8():
    for length in range(1, 9):
        for v in product((-1, 0, 1), repeat=length):
            if all(x == 0 for x in v):
                continue
            assert varbar(v) == varbar_bruteforce(v), v


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=10)
       .filter(lambda v: any(x != 0 for x in v)))
def test_var_le_varbar_le_len(v):
    assert var(v) <= varbar(v) <= len(v) - 1


def test_sign_vector_projective_normalization():
    s = SignVector([-2, 0, 3, -1])
    assert s.entries == (1, 0, -1, 1)
    assert s == SignVector([4, 0, -6, 2])
    t = SignVector([-2, 0, 3, -1], projective=False)
    assert t.entries == (-1, 0, 1, -1)


def test_matrix_json_round_trip():
    M = RatMatrix.from_rows([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    assert RatMatrix.from_json(M.to_json()) == M


def _random_rational_matrix(rng: Random, n: int) -> RatMatrix:
    """Mixed denominators, a few zero entries and often a zero leading pivot."""
    entries = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 5, 7, 9, 16, 25]))
               if rng.random() < 0.8 else Fraction(0) for _ in range(n * n)]
    rows = [entries[i * n:(i + 1) * n] for i in range(n)]
    if n >= 2 and rng.random() < 0.2:
        rows[rng.randrange(1, n)] = list(rows[0])  # repeated row: singular
    if n >= 2 and rng.random() < 0.3:
        rows[0][0] = Fraction(0)  # forces a row swap unless column 1 is zero
    return RatMatrix.from_rows(rows) if n else RatMatrix.zero(0, 0)


def test_det_matches_fraction_bareiss_and_sympy():
    import sympy

    rng = Random(21)
    singular = 0
    for t in range(600):
        M = _random_rational_matrix(rng, t % 7)
        d = det(M)
        assert isinstance(d, Fraction)
        assert d == fraction_det(M), M
        if M.rows and t % 3 == 0:
            ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                for row in M.row_list()]).det()
            assert d == Fraction(int(ref.p), int(ref.q)), M
        singular += d == 0
    assert singular >= 30


@pytest.mark.parametrize("rows, value", [
    ([], 1),
    ([[Fraction(-3, 7)]], Fraction(-3, 7)),
    ([[0]], 0),
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
    ([[0, 2, 1], [0, 1, 3], [Fraction(1, 2), 5, 7]], Fraction(5, 2)),
    ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 0),
    ([[1, Fraction(1, 2)], [2, 1]], 0),
    ([[Fraction(1, 3), Fraction(1, 6)], [Fraction(1, 3), Fraction(1, 6)]], 0),
])
def test_det_pinned_cases(rows, value):
    M = RatMatrix.from_rows(rows) if rows else RatMatrix.zero(0, 0)
    assert det(M) == value == fraction_det(M)
