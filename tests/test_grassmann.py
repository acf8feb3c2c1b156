"""Plücker vectors, matroids, positivity, and the sign-variation test."""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from positroid_lab import exact
from positroid_lab.amplituhedron import ZMatrix
from positroid_lab.cells import sample_cell_matrix
from positroid_lab.exact import RatMatrix, kernel_basis, maximal_minors, var, varbar
from positroid_lab.grassmann import (
    Matroid,
    PluckerVector,
    decorated_permutation_of,
    exchange_quads,
    is_positroid,
    is_tnn,
    is_tp,
    is_tp_by_sign_variation,
    matrix_of_plucker,
    matroid_of,
    necklace_of_bases,
    plucker_of_matrix,
    positroid_of_necklace,
    vandermonde_matrix,
)
from positroid_lab.perms import (enumerate_decorated, necklace, parse_decorated,
                                 top_cell_permutation)

from oracles import (
    fraction_det,
    permutation_of_plucker,
    rank_decorated_permutation,
    realized_positroid,
    row_list,
    satisfies_basis_exchange,
    sorted_key_necklace,
    three_term_relation_holds,
    uniform_matroid,
)


def test_exchange_quads_order():
    got = list(exchange_quads(6, 3))
    assert len(got) == len(set(got)) == 6 * 5
    assert got[:6] == [((1,), 2, 3, 4, 5), ((1,), 2, 3, 4, 6), ((1,), 2, 3, 5, 6),
                       ((1,), 2, 4, 5, 6), ((1,), 3, 4, 5, 6), ((2,), 1, 3, 4, 5)]
    assert list(exchange_quads(4, 2)) == [((), 1, 2, 3, 4)]
    assert list(exchange_quads(5, 1)) == list(exchange_quads(5, 0)) == []
    assert list(exchange_quads(5, 4)) == []


def pinned_matrix() -> RatMatrix:
    return RatMatrix.from_rows([[1, 0, -1, -2], [0, 1, 2, 4]])


def test_plucker_pinned_values():
    P = plucker_of_matrix(pinned_matrix())
    expected = {(1, 2): 1, (1, 3): 2, (1, 4): 4, (2, 3): 1, (2, 4): 2, (3, 4): 0}
    for I, v in expected.items():
        assert P.coord(I) == v


def test_plucker_zero_column():
    C = RatMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    P = plucker_of_matrix(C)
    assert P.coord((1, 2)) == 1
    assert P.coord((1, 3)) == 0 and P.coord((2, 3)) == 0


def test_plucker_rejects_rank_deficient():
    with pytest.raises(ValueError):
        plucker_of_matrix(RatMatrix.from_rows([[1, 2], [2, 4]]))


def test_three_term_identity_random():
    rng = Random(3)
    for _ in range(20):
        C = RatMatrix(2, 4, [Fraction(rng.randint(-9, 9)) for _ in range(8)])
        try:
            P = plucker_of_matrix(C)
        except ValueError:
            continue
        assert three_term_relation_holds(P)
        assert P.coord((1, 3)) * P.coord((2, 4)) == \
            P.coord((1, 2)) * P.coord((3, 4)) + P.coord((1, 4)) * P.coord((2, 3))


def test_matroid_pinned():
    M = matroid_of(plucker_of_matrix(pinned_matrix()))
    assert M.sorted_bases() == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    assert satisfies_basis_exchange(M)


def test_matroid_uniform_and_single():
    C = vandermonde_matrix(2, [1, 2, 3, 4])
    assert matroid_of(plucker_of_matrix(C)).bases == uniform_matroid(2, 4).bases
    single = PluckerVector(2, 4, {(1, 3): Fraction(5)})
    M = matroid_of(single)
    assert M.sorted_bases() == [(1, 3)]
    assert satisfies_basis_exchange(M)


def test_tnn_tp_pinned():
    P = plucker_of_matrix(pinned_matrix())
    assert is_tnn(P) and not is_tp(P)


def test_tp_vandermonde_and_sign_flip():
    P = plucker_of_matrix(vandermonde_matrix(2, [1, 2, 3, 4]))
    for Q in (P, P.scale(-3)):
        assert is_tp(Q) and is_tnn(Q)
        flipped = dict(Q.coords)
        flipped[(2, 3)] = -flipped[(2, 3)]
        assert not is_tnn(PluckerVector(2, 4, flipped))


def test_tnn_global_sign_irrelevant():
    P = plucker_of_matrix(pinned_matrix())
    assert is_tnn(P.scale(-3)) and not is_tp(P.scale(-3))
    # the first nonzero coordinate in lex order is the one at (2, 3)
    L = plucker_of_matrix(RatMatrix.from_rows([[0, 1, 0], [0, 0, 1]])).scale(-3)
    assert is_tnn(L) and not is_tp(L)


def test_decorated_permutation_pinned():
    assert decorated_permutation_of(pinned_matrix()) == parse_decorated("(3,1,4,2)")


def test_decorated_permutation_lollipops():
    C = RatMatrix.from_rows([[1, 0, 0], [0, 0, 1]])
    pi = decorated_permutation_of(C)
    assert pi.coloops == frozenset({1, 3})
    assert pi.loops == frozenset({2})


def test_decorated_permutation_rejects_non_tnn():
    C = RatMatrix.from_rows([[1, 0, -1], [0, 1, 1]])  # minors 1, 1, 1
    decorated_permutation_of(C)
    bad = RatMatrix.from_rows([[1, 0, 1], [0, 1, 1]])  # p23 = -1
    with pytest.raises(ValueError):
        decorated_permutation_of(bad)
    # minors p12, p13, p24, p34 = 1, 1, -1, -1, then with either lead sign
    for rows in ([[1, 0, 0, 1], [0, 1, 1, 0]], [[-1, 0, 0, -1], [0, 1, 1, 0]]):
        with pytest.raises(ValueError, match="totally nonnegative"):
            decorated_permutation_of(RatMatrix.from_rows(rows))


def test_decorated_permutation_refuses_a_rank_deficient_matrix():
    C = RatMatrix.from_rows([[1, 2, 3], [Fraction(1, 2), 1, Fraction(3, 2)]])
    with pytest.raises(ValueError, match="rank deficient"):
        decorated_permutation_of(C)


def test_matrix_of_plucker_round_trip():
    P = plucker_of_matrix(pinned_matrix())
    C = matrix_of_plucker(P)
    assert plucker_of_matrix(C) == P
    # the point of Gr(0, 3) is the zero row space
    C = matrix_of_plucker(PluckerVector(0, 3, {(): Fraction(2)}))
    assert (C.rows, C.cols) == (0, 3)


def test_matrix_of_plucker_rejects_non_grassmannian_vector():
    # all ones: p13 p24 = 1 but p12 p34 + p14 p23 = 2
    P = PluckerVector(2, 4, {I: Fraction(1) for I in
                             [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]})
    assert not three_term_relation_holds(P)
    with pytest.raises(ValueError):
        matrix_of_plucker(P)


def test_matrix_of_plucker_checks_values_not_only_the_support():
    # p13 p24 = p12 p34 + p14 p23 needs p34 = 1 here; 3 keeps the support
    coords = {(1, 2): 1, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 2, (3, 4): 3}
    with pytest.raises(ValueError, match="Pluecker relations"):
        matrix_of_plucker(PluckerVector(2, 4, coords))
    P = PluckerVector(2, 4, {**coords, (3, 4): 1})
    assert plucker_of_matrix(matrix_of_plucker(P)) == P


def test_matrix_of_plucker_round_trip_on_rational_points():
    rng = Random(3)
    for pi in [parse_decorated("(4,5,6,1,2,3)"), parse_decorated("(3,2^,4,5,6,1)"),
               parse_decorated("(4,5,3_,6,1,2)"), top_cell_permutation(4, 7)]:
        P = plucker_of_matrix(sample_cell_matrix(pi, rng))
        assert any(v.denominator > 1 for v in P.coords.values())
        for c in (1, Fraction(-3, 7)):
            assert plucker_of_matrix(matrix_of_plucker(P.scale(c))) == P


def test_plucker_projective_invariance_under_row_ops():
    C = pinned_matrix()
    L = RatMatrix.from_rows([[2, 1], [1, 1]])  # det 1 > 0
    assert plucker_of_matrix(L.matmul(C)) == plucker_of_matrix(C)


def test_sign_variation_tp_pinned_and_vandermonde():
    assert not is_tp_by_sign_variation(pinned_matrix())  # TNN, p34 = 0
    assert is_tp_by_sign_variation(vandermonde_matrix(2, [1, 2, 3, 4]))
    assert is_tp_by_sign_variation(vandermonde_matrix(3, [-2, 0, 1, 5, 7]))
    assert not is_tp_by_sign_variation(RatMatrix.from_rows([[1, 0, 1], [0, 1, -1]]))
    assert is_tp_by_sign_variation(RatMatrix.zero(0, 4))


def test_sign_variation_refuses_rank_deficient_input():
    for rows in ([[1, 2, 3], [2, 4, 6]], [[0, 0, 0]], [[1, 0], [0, 0]]):
        with pytest.raises(ValueError):
            is_tp_by_sign_variation(RatMatrix.from_rows(rows))


def test_sign_variation_decides_tp_on_every_cell_up_to_n6():
    count = 0
    for n in range(7):
        rng = Random(n)
        for pi in enumerate_decorated(n):
            C = sample_cell_matrix(pi, rng)
            assert is_tp_by_sign_variation(C) == is_tp(plucker_of_matrix(C))
            count += 1
    assert count == 2372


def test_sign_variation_decides_tp_on_random_integer_matrices():
    rng = Random(23)
    seen = {True: 0, False: 0, "deficient": 0}
    for _ in range(2400):
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        if rng.random() < 0.5:  # a totally positive point, in either orientation
            C = sample_cell_matrix(top_cell_permutation(k, n), rng)
            sign = rng.choice((-1, 1))
            C = RatMatrix.from_rows([[sign * x for x in C.row(0)]] + row_list(C)[1:])
        else:
            C = RatMatrix(k, n, [rng.choice((0, 0, 1, 2, 5, -1, -3)) for _ in range(k * n)])
        if exact.rank(C) < k:
            with pytest.raises(ValueError):
                is_tp_by_sign_variation(C)
            seen["deficient"] += 1
            continue
        verdict = is_tp_by_sign_variation(C)
        assert verdict == is_tp(plucker_of_matrix(C))
        seen[verdict] += 1
    assert min(seen.values()) > 100, seen


def sampled_var_witness(C: RatMatrix, rng: Random, trials: int) -> list | None:
    """A sampled vector refuting Gantmakher-Krein for TNN, else None: a
    row-space vector with var > k - 1 or a kernel vector with varbar < k.
    No finite vector test for TNN is known, so this check is one-sided."""
    k, n = C.rows, C.cols
    K = kernel_basis(C)
    for _ in range(trials):
        for M, bad in ((C, lambda v: var(v) > k - 1), (K, lambda v: varbar(v) < k)):
            c = [rng.choice((-1, 1)) * rng.randint(1, 1000) for _ in range(M.rows)]
            v = [sum(x * M.entry(r, j) for r, x in enumerate(c)) for j in range(n)]
            if any(v) and bad(v):
                return v
    return None


def test_sampled_gk_check_is_one_sided_on_tnn_points():
    rng = Random(5)
    for n in range(1, 6):
        for pi in enumerate_decorated(n):
            assert sampled_var_witness(sample_cell_matrix(pi, rng), rng, 10) is None


def test_gk_test_tnn_pinned():
    C = pinned_matrix()
    P = plucker_of_matrix(C)
    assert is_tnn(P) and not is_tp(P)
    assert not is_tp_by_sign_variation(C)
    assert sampled_var_witness(C, Random(1), 40) is None


def test_gk_test_finds_witness_on_negative_minor():
    C = RatMatrix.from_rows([[1, 0, 1], [0, 1, -1]])  # p23 = -1
    assert not is_tnn(plucker_of_matrix(C))
    witness = sampled_var_witness(C, Random(3), 200)
    assert witness is not None
    assert var(witness) > C.rows - 1 or varbar(witness) < C.rows


def test_plucker_json_round_trip():
    P = plucker_of_matrix(pinned_matrix())
    assert PluckerVector.from_json(P.to_json()) == P
    assert P.to_json()["coords"]["1,2"] == "1/1"


@pytest.mark.parametrize("doc, message", [
    ({"k": 2, "n": 4, "coords": {"1,3": "0.5"}},
     r"^coordinate '1,3': '0\.5' is not a rational: write \"p/q\" or an integer$"),
    ({"k": "2", "n": 4, "coords": {"1,2": "1"}}, r"^k and n must be integers, not '2' and 4$"),
    ({"k": 2, "n": 4.0, "coords": {"1,2": "1"}}, r"^k and n must be integers, not 2 and 4\.0$"),
    ({"k": 2, "n": 4, "coords": [["1,2", "1"]]},
     r"^coords must be an object of \"i,j,\.\.\.\": \"p/q\" entries$"),
], ids=["bad-coordinate", "string-k", "float-n", "list-coords"])
def test_plucker_vector_json_refusals_name_the_bad_entry(doc, message):
    with pytest.raises(ValueError, match=message):
        PluckerVector.from_json(doc)


def test_plucker_vector_refuses_the_zero_vector():
    with pytest.raises(ValueError, match="the zero vector is not a Grassmannian point"):
        PluckerVector(2, 4, {(1, 2): 0})


def test_plucker_vector_refuses_a_key_that_is_no_sorted_k_subset():
    with pytest.raises(ValueError, match=r"key \(2, 1\) is not a sorted 2-subset of \[4\]"):
        PluckerVector(2, 4, {(1, 2): 1, (2, 1): 5, (1, 5): 7})
    with pytest.raises(ValueError, match=r"key \(1, 5\) is not a sorted 2-subset of \[4\]"):
        PluckerVector(2, 4, {(1, 2): 1, (1, 5): 7})
    bad = {"k": 2, "n": 4, "coords": {"1,2": "1/1", "1,5": "3/1", "3": "2/1"}}
    with pytest.raises(ValueError, match=r"key \(1, 5\) is not a sorted 2-subset"):
        PluckerVector.from_json(bad)
    with pytest.raises(ValueError, match=r"key \(3,\) is not a sorted 2-subset"):
        PluckerVector.from_json({"k": 2, "n": 4, "coords": {"1,2": "1/1", "3": "2/1"}})
    with pytest.raises(ValueError, match="key '2,1' repeats the subset 1,2"):
        PluckerVector.from_json({"k": 2, "n": 4, "coords": {"1,2": "1/1", "2,1": "5/1"}})
    # a key written out of order still names its one subset
    assert (PluckerVector.from_json({"k": 2, "n": 4, "coords": {"2,1": "3/1"}})
            == PluckerVector(2, 4, {(1, 2): 1}))


def random_matrix(rows: int, cols: int, rng: Random) -> RatMatrix:
    """Independent nonzero integer entries in [-9, 9]; a zero is redrawn."""
    entries = []
    while len(entries) < rows * cols:
        v = rng.randint(-9, 9)
        if v:
            entries.append(v)
    return RatMatrix(rows, cols, entries)


def test_basis_exchange_holds_for_sampled_matroids_up_to_n8():
    rng = Random(14)
    for (k, n) in [(2, 6), (3, 7), (3, 8)]:
        for _ in range(3):
            while True:
                try:
                    C = random_matrix(k, n, rng)
                    M = matroid_of(plucker_of_matrix(C))
                    break
                except ValueError:
                    continue
            assert satisfies_basis_exchange(M)


def test_positroid_catalog_satisfies_basis_exchange():
    from positroid_lab.cells import positroid_catalog

    for bases in positroid_catalog(2, 5):
        M = Matroid(5, 2, bases)
        assert satisfies_basis_exchange(M)


def test_necklace_permutation_matches_rank_oracle_up_to_n6():
    from positroid_lab.cells import positroid_of_perm

    count = 0
    for n in range(1, 7):
        for pi in enumerate_decorated(n):
            C = sample_cell_matrix(pi, Random(n))
            assert decorated_permutation_of(C) == pi == rank_decorated_permutation(C)
            assert permutation_of_plucker(plucker_of_matrix(C)) == pi
            if C.rows:
                # one negated row flips every minor: a TNN point in negative orientation
                rows = row_list(C)
                rows[0] = [-x for x in rows[0]]
                D = RatMatrix.from_rows(rows)
                assert decorated_permutation_of(D) == pi
                assert permutation_of_plucker(plucker_of_matrix(D)) == pi
            support = matroid_of(plucker_of_matrix(C)).bases
            assert positroid_of_perm(pi).bases == support
            assert necklace(pi) == necklace_of_bases(support, n)
            count += 1
    assert count == 2371


def _families(k, n):
    """Every nonempty family of k-subsets of [n], as a Matroid record."""
    subs = [frozenset(I) for I in combinations(range(1, n + 1), k)]
    for mask in range(1, 1 << len(subs)):
        yield Matroid(n, k, frozenset(S for b, S in enumerate(subs) if mask >> b & 1))


@pytest.mark.parametrize("k, n, matroids, positroids", [
    (2, 4, 36, 33), (2, 5, 171, 131), (3, 5, 171, 131)])
def test_is_positroid_matches_realized_catalog(k, n, matroids, positroids):
    catalog = {realized_positroid(pi).bases for pi in enumerate_decorated(n, k=k)}
    assert len(catalog) == positroids
    seen = 0
    for M in _families(k, n):
        assert is_positroid(M) == (M.bases in catalog), M
        seen += satisfies_basis_exchange(M)
    assert seen == matroids


def test_necklace_of_bases_matches_the_sorted_key_oracle():
    from positroid_lab.cells import positroid_catalog

    positroids = 0
    for n in range(1, 7):
        for k in range(n + 1):
            for bases in positroid_catalog(k, n):
                assert necklace_of_bases(bases, n) == sorted_key_necklace(bases, n)
                positroids += 1
    assert positroids == 2371
    # seeded families of k-sets, most of them not matroids, and {13, 24}
    rng = Random(16)
    families = [(4, 2, frozenset({frozenset({1, 3}), frozenset({2, 4})}))]
    for _ in range(400):
        n = rng.randint(4, 8)
        k = rng.randint(2, n - 2)
        subs = list(combinations(range(1, n + 1), k))
        families.append((n, k, frozenset(frozenset(I) for I in
                                         rng.sample(subs, rng.randint(1, len(subs))))))
    others = 0
    for n, k, bases in families:
        assert necklace_of_bases(bases, n) == sorted_key_necklace(bases, n)
        others += not satisfies_basis_exchange(Matroid(n, k, bases))
    assert others > 200


def test_minors_and_bases_reach_one_necklace_reader(monkeypatch):
    from positroid_lab import grassmann

    reader, calls = grassmann._necklace, []

    def counting(bases, k, n):
        calls.append((sorted(bases), k, n))
        return reader(bases, k, n)

    pi = parse_decorated("(3,4,1,2,5_)")
    C = sample_cell_matrix(pi, Random(3))
    minors = [v.numerator for v in plucker_of_matrix(C).coords.values()]
    monkeypatch.setattr(grassmann, "_necklace", counting)
    assert grassmann.perm_of_minors(minors, 2, 5) == pi
    assert necklace_of_bases(matroid_of(plucker_of_matrix(C)).bases, 5) == necklace(pi)
    assert len(calls) == 2 and calls[0] == calls[1]


def test_is_positroid_rejects_a_gale_cut_non_matroid():
    # {13, 24} equals the envelope of its lexicographic minima, but it
    # fails basis exchange, and those minima are no Grassmann necklace
    M = Matroid(4, 2, frozenset({frozenset({1, 3}), frozenset({2, 4})}))
    assert not satisfies_basis_exchange(M)
    assert positroid_of_necklace(necklace_of_bases(M.bases, 4)).bases == M.bases
    assert not is_positroid(M)


@pytest.mark.parametrize("rows, perm", [
    # zero columns 2 and 5 are loops
    ([[1, 0, 1, 1, 0], [0, 0, 1, 2, 0]], "(4,2_,1,3,5_)"),
    # column 3 is the only one with a second coordinate: a coloop
    ([[1, 1, 0, -1], [0, 0, 1, 0]], "(2,4,3^,1)"),
    # every column is a coloop or a loop
    ([[1, 0, 0], [0, 0, 1]], "(1^,2_,3^)"),
    ([[1, 2, 3, 4]], "(2,3,4,1)"),
])
def test_necklace_permutation_on_loops_and_coloops(rows, perm):
    C = RatMatrix.from_rows(rows)
    assert decorated_permutation_of(C) == parse_decorated(perm)
    assert rank_decorated_permutation(C) == parse_decorated(perm)


def test_necklace_permutation_of_empty_matrix_is_all_loops():
    C = RatMatrix.zero(0, 4)
    assert decorated_permutation_of(C) == parse_decorated("(1_,2_,3_,4_)")
    assert rank_decorated_permutation(C) == parse_decorated("(1_,2_,3_,4_)")


def test_necklace_permutation_rejects_non_tnn():
    C = RatMatrix.from_rows([[1, 0, 1], [0, 1, -1]])
    for f in (decorated_permutation_of, rank_decorated_permutation):
        with pytest.raises(ValueError, match="totally nonnegative"):
            f(C)


def _count_det_and_ratmatrix(monkeypatch) -> dict:
    """Count exact.det calls, under every module name that holds it, and
    RatMatrix constructions."""
    import sys

    counts = {"det": 0, "RatMatrix": 0}
    det, init = exact.det, RatMatrix.__init__

    def counted_det(M):
        counts["det"] += 1
        return det(M)

    def counted_init(self, *args, **kwargs):
        counts["RatMatrix"] += 1
        init(self, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("positroid_lab") and getattr(mod, "det", None) is det:
            monkeypatch.setattr(mod, "det", counted_det)
    monkeypatch.setattr(RatMatrix, "__init__", counted_init)
    return counts


def test_maximal_minors_take_no_det_call_and_no_matrix_per_minor(monkeypatch):
    C = sample_cell_matrix(parse_decorated("(4,5,6,1,2,3)"), Random(0))
    Zmat = RatMatrix.from_rows([[t ** j for j in range(4)] for t in range(6)])
    expected = {I: fraction_det(C.columns([i - 1 for i in I]))
                for I in combinations(range(1, 7), 3)}
    counts = _count_det_and_ratmatrix(monkeypatch)
    P = plucker_of_matrix(C)
    assert counts == {"det": 0, "RatMatrix": 0}
    assert P.coords == expected
    Z = ZMatrix(Zmat)
    assert counts["det"] == 0 and counts["RatMatrix"] <= 1
    assert (Z.n, Z.p) == (6, 4)


def test_plucker_vector_keeps_fraction_coordinates_by_identity(monkeypatch):
    from positroid_lab import grassmann

    C = sample_cell_matrix(parse_decorated("(4,5,6,1,2,3)"), Random(0))
    returned = []

    def recorded(C):
        returned.append(maximal_minors(C))
        return returned[-1]

    monkeypatch.setattr(grassmann, "maximal_minors", recorded)
    P = plucker_of_matrix(C)
    [minors] = returned
    assert list(P.coords) == list(minors)
    assert all(P.coords[I] is v for I, v in minors.items())
    Q = PluckerVector(1, 3, {(1,): 2, (3,): Fraction(1, 2)})
    assert [type(v) for v in Q.coords.values()] == [Fraction] * 3
    assert Q.coords == {(1,): 2, (2,): 0, (3,): Fraction(1, 2)}


def test_maximal_minors_match_fraction_det_on_every_cell_up_to_n5():
    cells = 0
    for n in range(1, 6):
        for pi in enumerate_decorated(n):
            C = sample_cell_matrix(pi, Random(n))
            minors = maximal_minors(C)
            assert list(minors) == list(combinations(range(1, n + 1), C.rows))
            for I, m in minors.items():
                assert m == fraction_det(C.columns([i - 1 for i in I])), (pi, I)
            assert plucker_of_matrix(C).coords == minors
            cells += 1
    assert cells == 2 + 5 + 16 + 65 + 326  # sum of n!/j! over j <= n
