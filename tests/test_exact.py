"""Exact linear algebra and sign variation."""

from fractions import Fraction
from itertools import combinations, product
from math import comb
from operator import mul
from random import Random

import pytest
from hypothesis import given, strategies as st

from positroid_lab.exact import (
    RatMatrix,
    det,
    integer_adjugate,
    integer_det,
    integer_kernel,
    integer_minors,
    integer_rank,
    kernel_basis,
    maximal_minors,
    rank,
    var,
    varbar,
)
from positroid_lab.amplituhedron import amp_map, make_positive_Z, sign_stratum
from positroid_lab.util import rat_from_str

from oracles import (bareiss_minors, fraction_det, fraction_matmul, fraction_rref, row_list,
                     varbar_bruteforce)


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


@pytest.mark.parametrize("call, message", [
    (lambda: RatMatrix(2, 2, [1, 2, 3]), r"^expected 4 entries, got 3$"),
    (lambda: maximal_minors(RatMatrix.from_rows([[1, 0], [0, 1], [1, 1]])), r"^need k <= n$"),
], ids=["entry-count", "tall-minors"])
def test_shape_refusals_name_the_shape(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
    # A sign vector is the "+-0" string of sign_stratum, scaled so the first
    # nonzero sign is "+"; zeros are kept in place.
    Z = make_positive_Z(4, 3, [0, 1, 2, 3])
    # twistors (-2, -2, 0, 0, 2, 2)
    assert sign_stratum(amp_map(RatMatrix.from_rows([[0, 1, -1, 0]]), Z), Z) == "++00--"
    assert sign_stratum(amp_map(RatMatrix.from_rows([[0, -2, 2, 0]]), Z), Z) == "++00--"
    assert sign_stratum(amp_map(RatMatrix.from_rows([[-1, 0, 0, 0]]), Z), Z) == "000+++"


def test_matrix_json_round_trip():
    M = RatMatrix.from_rows([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    assert RatMatrix.from_json(M.to_json()) == M


@pytest.mark.parametrize("doc", [{"rows": []}, {"1": "1"}, [["1", "0"], "1"], [[1, 0, 0]],
                                 [["x"]], [["1"], ["1", "2"]], [[None]], "12"])
def test_malformed_matrix_json_is_a_value_error(doc):
    with pytest.raises(ValueError):
        RatMatrix.from_json(doc)


@pytest.mark.parametrize("text", [1, None, ["1"], "1/0", "1/2/3", "x"])
def test_rat_from_str_takes_only_rational_strings(text):
    with pytest.raises(ValueError):
        rat_from_str(text)


def _random_rational_matrix(rng: Random, n: int, cols: int | None = None) -> RatMatrix:
    """Mixed denominators, a few zero entries and often a zero leading pivot.

    Square n x n by default.  Given ``cols``, the matrix is n x cols and
    often also has a row that combines two others, a zero row or a zero
    column; those extra draws are made only when ``cols`` is given."""
    m = n if cols is None else cols
    entries = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 5, 7, 9, 16, 25]))
               if rng.random() < 0.8 else Fraction(0) for _ in range(n * m)]
    rows = [entries[i * m:(i + 1) * m] for i in range(n)]
    if n >= 2 and rng.random() < 0.2:
        rows[rng.randrange(1, n)] = list(rows[0])  # repeated row: singular
    if n >= 2 and m and rng.random() < 0.3:
        rows[0][0] = Fraction(0)  # forces a row swap unless column 1 is zero
    if cols is not None:
        if n >= 3 and rng.random() < 0.4:
            a, b = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3)
            rows[rng.randrange(2, n)] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        if n and rng.random() < 0.15:
            rows[rng.randrange(n)] = [Fraction(0)] * m
        if m and rng.random() < 0.2:
            j = rng.randrange(m)
            for row in rows:
                row[j] = Fraction(0)
    return RatMatrix(n, m, [x for row in rows for x in row])


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
                                for row in row_list(M)]).det()
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


def _rref_kernel(M: RatMatrix) -> list[list[Fraction]]:
    """The kernel basis read off ``fraction_rref``: one row per free column."""
    R, pivots = fraction_rref(M)
    return [[Fraction(int(j == f)) if j not in pivots else -R.entry(pivots.index(j), f)
             for j in range(M.cols)] for f in range(M.cols) if f not in pivots]


def _sympy_matrix(M: RatMatrix):
    import sympy

    return sympy.Matrix(M.rows, M.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in row_list(M) for x in row])


def test_rectangular_det_rank_kernel_match_fraction_oracles_and_sympy():
    rng = Random(17)
    shapes = [(r, c) for r in range(7) for c in range(8)] * 6
    deficient = 0
    for t, (r, c) in enumerate(shapes):
        M = _random_rational_matrix(rng, r, c)
        _, pivots = fraction_rref(M)
        assert rank(M) == len(pivots), M
        K = kernel_basis(M)
        assert (K.rows, K.cols) == (c - len(pivots), c), M
        assert row_list(K) == _rref_kernel(M), M
        if r == c:
            assert det(M) == fraction_det(M), M
        deficient += len(pivots) < min(r, c)
        if t % 3 == 0:
            S = _sympy_matrix(M)
            assert S.rank() == rank(M), M
            if r and c:
                _, spiv = S.rref()
                assert tuple(spiv) == pivots, M
            if r:
                null = [[Fraction(int(x.p), int(x.q)) for x in v] for v in S.nullspace()]
                assert null == row_list(K), M
            if r == c:
                ref = S.det()
                assert det(M) == Fraction(int(ref.p), int(ref.q)), M
    assert deficient >= 40


def test_ratmatrix_keeps_canonical_integer_rows():
    """Each row is integers over its denominator lcm, in lowest terms, and
    every view of it gives the entries' values as reduced Fractions."""
    xs = [Fraction(1, 3), Fraction(-2), Fraction(5, 7), Fraction(0), Fraction(9, 4), Fraction(1)]
    M = RatMatrix(2, 3, xs)
    assert M.ints == ((7, -42, 15), (0, 9, 4)) and M.dens == (21, 4)
    assert list(M.row(0) + M.row(1)) == xs
    assert all(type(x) is Fraction for x in M.row(0) + M.row(1))
    C = M.columns([2, 0])
    assert row_list(C) == [[xs[2], xs[0]], [xs[5], xs[3]]]
    assert C.ints == ((15, 7), (1, 0)) and C.dens == (21, 1)
    S = M.submatrix([1], [1, 2])
    assert row_list(S) == [[xs[4], xs[5]]] and S.dens == (4,)
    T = M.transpose()
    assert all(T.entry(j, i) == M.entry(i, j) for i in range(2) for j in range(3))
    assert T.col(1) == M.row(1) and T.transpose() == M
    F = RatMatrix.from_rows(row_list(M))
    assert F == M and hash(F) == hash(M) and F.to_json() == M.to_json()
    # the same values over other denominators give the same rows
    G = RatMatrix.from_integer_rows([[14, -84, 30], [0, -27, -12]], [42, -12], 3)
    assert G == M and hash(G) == hash(M) and repr(G) == repr(M)
    assert RatMatrix.from_integer_rows([[0, 0]], [5], 2).dens == (1,)
    with pytest.raises(ValueError):
        RatMatrix.from_integer_rows([[1, 2]], [0], 2)
    with pytest.raises(ValueError):
        RatMatrix.from_integer_rows([[1, 2]], [1], 3)
    N = RatMatrix.from_rows([[1, -2], [0, 7]])
    assert all(type(x) is Fraction for x in N.row(0) + N.row(1))
    assert row_list(N) == [[Fraction(1), Fraction(-2)], [Fraction(0), Fraction(7)]]


def _random_integer_rows(rng: Random, r: int, c: int) -> list[list[int]]:
    """r x c integer rows, often with a zero row or a row that combines two
    others."""
    rows = [[rng.randint(-6, 6) if rng.random() < 0.8 else 0 for _ in range(c)]
            for _ in range(r)]
    if r and rng.random() < 0.25:
        rows[rng.randrange(r)] = [0] * c
    if r >= 3 and rng.random() < 0.4:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[rng.randrange(2, r)] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


def test_integer_rank_kernel_det_match_fraction_oracles():
    rng = Random(29)
    shapes = [(r, c) for r in range(7) for c in range(8)] * 4 + [(r, r) for r in range(7)] * 16
    deficient = zero_rows = 0
    for r, c in shapes:
        rows = _random_integer_rows(rng, r, c)
        before = [list(row) for row in rows]
        M = RatMatrix(r, c, [x for row in rows for x in row])
        _, pivots = fraction_rref(M)
        assert integer_rank(rows) == len(pivots), rows
        K = integer_kernel(rows, c)
        B = _rref_kernel(M)
        assert row_list(kernel_basis(M)) == B, rows
        assert len(K) == len(B) == c - len(pivots), rows
        for v, b in zip(K, B):
            assert all(type(x) is int for x in v), rows
            j = next(j for j, x in enumerate(b) if x)
            scale = Fraction(v[j]) / b[j]
            assert scale > 0 and v == [scale * x for x in b], rows
        if r == c:
            assert integer_det(rows) == fraction_det(M), rows
        assert rows == before, rows  # the rows are not eliminated in place
        deficient += len(pivots) < min(r, c)
        zero_rows += [0] * c in rows and c > 0
    assert len(shapes) >= 300 and deficient >= 40 and zero_rows >= 40


def test_integer_adjugate_times_its_matrix_is_the_det():
    import sympy

    rng = Random(31)
    singular = 0
    for n in range(8):
        for _ in range(24):
            rows = _random_integer_rows(rng, n, n)
            before = [list(row) for row in rows]
            got, d = integer_adjugate(rows), integer_det(rows)
            assert rows == before, rows  # the rows are not eliminated in place
            if d == 0:
                assert got is None, rows
                singular += 1
                continue
            adj, got_det = got
            assert got_det == d and all(type(x) is int for row in adj for x in row), rows
            scalar = [[d * (i == j) for j in range(n)] for i in range(n)]
            assert [[sum(map(mul, row, col)) for col in zip(*adj)] for row in rows] == scalar
            assert [[sum(map(mul, row, col)) for col in zip(*rows)] for row in adj] == scalar
            if n in (3, 7):
                assert adj == sympy.Matrix(rows).adjugate().tolist(), rows
    assert singular >= 20
    zero_one = 0
    for n in range(1, 4):
        for bits in product((0, 1), repeat=n * n):
            rows = [list(bits[i * n:(i + 1) * n]) for i in range(n)]
            got = integer_adjugate(rows)
            if integer_det(rows) == 0:
                assert got is None, rows
                zero_one += 1
            else:
                assert got[1] == integer_det(rows), rows
    assert zero_one == 1 + 10 + 338  # the singular 0/1 matrices of size 1, 2 and 3
    assert integer_adjugate([]) == ([], 1)
    with pytest.raises(ValueError):
        integer_adjugate([[1, 2, 3], [4, 5, 6]])


def test_integer_minors_match_bareiss_per_minor_and_sympy():
    import sympy

    rng = Random(25)
    zeros = negatives = 0
    for n in range(8):
        for k in range(n + 3):
            for _ in range(8):
                rows = _random_integer_rows(rng, k, n)
                got = integer_minors(rows, n)
                assert got == bareiss_minors(rows, n), rows
                assert len(got) == comb(n, k) and all(type(m) is int for m in got), rows
                zeros += 0 in got
                negatives += any(m < 0 for m in got)
    assert integer_minors([], 4) == [1] and integer_minors([[1, 2]] * 3, 2) == []
    assert zeros >= 100 and negatives >= 100
    for _ in range(3):
        rows = _random_integer_rows(rng, 4, 8)
        S = sympy.Matrix(rows)
        assert integer_minors(rows, 8) == [int(S.extract(list(range(4)), list(I)).det())
                                           for I in combinations(range(8), 4)], rows


def test_integer_minors_reject_rows_of_the_wrong_length():
    with pytest.raises(ValueError):
        integer_minors([[1, 2, 3], [4, 5]], 3)
    with pytest.raises(ValueError):
        integer_minors([[1, 2, 3]], 2)


def test_integer_det_rejects_non_square():
    with pytest.raises(ValueError):
        integer_det([[1, 2, 3], [4, 5, 6]])


def test_integer_matmul_matches_fraction_products():
    rng = Random(20)
    pinned = [
        (RatMatrix.from_rows([[Fraction(1, 2), Fraction(-2, 3), 3]]),       # 1 x n
         RatMatrix.from_rows([[Fraction(5, 4)], [7], [Fraction(-1, 6)]])),  # n x 1
        (RatMatrix.from_rows([[Fraction(-3, 8)], [2], [0]]),                 # n x 1
         RatMatrix.from_rows([[Fraction(1, 3), -4, Fraction(9, 10)]])),      # 1 x n
        (RatMatrix.from_rows([[1, -2, 3], [0, 0, 0], [4, 5, -6]]),          # a zero row
         RatMatrix.from_rows([[Fraction(1, 2), 1], [Fraction(-1, 3), 0], [2, Fraction(7, 5)]])),
        (RatMatrix.from_rows([[2, -1], [3, 5]]), RatMatrix.from_rows([[4, 0, -7], [1, 1, 9]])),
    ]
    for A, B in pinned:
        assert A.matmul(B) == fraction_matmul(A, B)
    for _ in range(200):
        r, c, q = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        A, B = _random_rational_matrix(rng, r, c), _random_rational_matrix(rng, c, q)
        AB = A.matmul(B)
        assert (AB.rows, AB.cols) == (r, q)
        assert AB == fraction_matmul(A, B)
        Ai = RatMatrix.from_rows(_random_integer_rows(rng, r, c))
        assert Ai.matmul(B) == fraction_matmul(Ai, B)
        assert all(x.denominator == 1 for x in Ai.matmul(Ai.transpose()).row(0))
    with pytest.raises(ValueError):
        RatMatrix.identity(2).matmul(RatMatrix.identity(3))
