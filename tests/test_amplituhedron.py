"""Amplituhedron membership tests, chambers, tiles, and the B-model identity."""

import json
from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest

from positroid_lab import amplituhedron, exact
from positroid_lab.amplituhedron import (
    AmplituhedronPoint,
    ZMatrix,
    amp_map,
    b_point,
    general_m_boundary_signs,
    m1_membership,
    m2_interior_test,
    make_positive_Z,
    sign_stratum,
    tile_membership_m2,
    twistor,
    twistor_table,
    verify_amp_tiling_m2,
    w_chamber_membership,
    witness_audit,
)
from positroid_lab.cells import cell_dim_of_perm, matrix_realization, sample_cell_matrix
from positroid_lab.cluster import build_seed, cluster_adjacency_check
from positroid_lab.exact import RatMatrix, det, integer_minors, rank, var, varbar
from positroid_lab.grassmann import (decorated_permutation_of, perm_of_minors,
                                     plucker_of_matrix, vandermonde_matrix)
from positroid_lab.hypersimplex import (
    cover_mask,
    enumerate_D,
    enumerate_tiling_indices,
    enumerate_tilings,
    tile_catalog,
    verify_tiling,
    w_simplex,
)
from positroid_lab.perms import (
    enumerate_decorated,
    make,
    t_dual,
    top_cell_permutation,
    type_of,
)
from positroid_lab.triangulations import BicoloredTriangulation, area
from positroid_lab.util import rat_to_str

from oracles import (
    cleared_rows,
    moment_curve_rows,
    recursive_pair_sets,
    fraction_arc_value,
    fraction_entry_matmul,
    fraction_twistor_table,
    per_arc_tile_membership,
    row_list,
    sample_interior_point,
    sample_tile_point,
    sampled_tiling_audit,
    simplex_in_positroid,
    twisted_shift,
    twistor_via_expansion,
    walked_chamber_membership,
    walked_flip_sets,
)

Z4 = make_positive_Z(4, 3, [0, 1, 2, 3])
Z42 = make_positive_Z(4, 2, [0, 1, 2, 3])
T123 = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
T134 = BicoloredTriangulation.make(4, black=[(1, 3, 4)], white=[(1, 2, 3)])
T124 = BicoloredTriangulation.make(4, black=[(1, 2, 4)], white=[(2, 3, 4)])
T234 = BicoloredTriangulation.make(4, black=[(2, 3, 4)], white=[(1, 2, 4)])


def test_make_positive_Z_minors():
    # the constructor checks every maximal minor; failure raises
    assert Z4.n == 4 and Z4.p == 3
    with pytest.raises(ValueError):
        make_positive_Z(3, 2, [1, 1, 2])
    with pytest.raises(ValueError):
        ZMatrix(RatMatrix.from_rows([[1, 0], [0, 1], [1, 1]][::-1]))


@pytest.mark.parametrize("n, p, nodes", [
    (4, 3, [0, 1, 2, 3]),
    (5, 3, range(5)),
    (6, 4, [0, 1, 2, 3, 4, 6]),
    (4, 4, [-2, Fraction(-1, 3), Fraction(1, 2), 5]),
    (5, 2, [Fraction(1, 7), Fraction(2, 7), 1, Fraction(9, 4), 3]),
    (3, 1, ["1/2", "2/3", 7]),
])
def test_make_positive_Z_rows_are_the_moment_curve(n, p, nodes):
    assert make_positive_Z(n, p, nodes).mat == moment_curve_rows(n, p, nodes)


def test_consecutive_pair_sets_match_the_recursive_builder_and_brute_force():
    pair_sets = amplituhedron._consecutive_pair_sets
    for lo in range(1, 5):
        for hi in range(10):
            pairs = [(i, i + 1) for i in range(lo, hi)]
            for r in range(5):
                brute = [sum(c, ()) for c in combinations(pairs, r)
                         if len(set(sum(c, ()))) == 2 * r]
                assert list(pair_sets(lo, hi, r)) == brute == recursive_pair_sets(lo, hi, r)
    assert pair_sets(2, 5, -1) == () and recursive_pair_sets(2, 5, -1) == []
    assert pair_sets(1, 6, 2) is pair_sets(1, 6, 2)  # one table per (lo, hi, r)


def test_square_Z_single_minor():
    Z = make_positive_Z(3, 3, [0, 1, 2])
    assert Z.n == Z.p == 3


def test_twisted_shift_stays_positive():
    twisted_shift(Z4)  # would raise if a minor went nonpositive
    twisted_shift(make_positive_Z(5, 3, [0, 1, 2, 3, 4]))


def test_amp_map_unit_vector_hits_Z_row():
    C = RatMatrix.from_rows([[1, 0, 0, 0]])
    Y = amp_map(C, Z4)
    assert tuple(Y.Y.row(0)) == Z4.row(1)


@pytest.mark.parametrize("C,Z", [
    # k > p: three rows against Z with two columns
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], make_positive_Z(4, 2, [0, 1, 2, 3])),
    # C Z = 0: the fourth difference kills the cubic moment curve
    ([[1, -4, 6, -4, 1, 0]], make_positive_Z(6, 4, range(6))),
    # Y of rank 1: the second row is the first plus that difference
    ([[1, 0, 0, 0, 0, 0], [2, -4, 6, -4, 1, 0]], make_positive_Z(6, 4, range(6))),
], ids=["k-above-p", "image-zero", "image-rank-1"])
def test_amp_map_refuses_an_image_of_lower_rank(C, Z):
    with pytest.raises(RuntimeError, match=r"^image lost rank; input was not in the domain$"):
        amp_map(RatMatrix.from_rows(C), Z)


@pytest.mark.parametrize("call, message", [
    (lambda: ZMatrix(RatMatrix.from_rows([[1, 0, 0], [0, 1, 0]])), r"^need p <= n$"),
    (lambda: make_positive_Z(4, 2, [0, 1, 2]), r"^need 4 nodes$"),
    (lambda: amp_map(RatMatrix.from_rows([[1, 1, 1]]), Z4),
     r"^column count of C must match the rows of Z$"),
    (lambda: m1_membership(amp_map(RatMatrix.from_rows([[1, 1, 1, 0]]), Z4), Z4),
     r"^m1 test needs p = k \+ 1$"),
    (lambda: m2_interior_test(amp_map(RatMatrix.from_rows([[1, 1, 1, 0]]), Z42), Z42),
     r"^m2 test needs p = k \+ 2$"),
], ids=["p-above-n", "node-count", "C-columns", "m1-shape", "m2-shape"])
def test_shape_checks_refuse_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_amp_map_square_Z_projective_identity():
    Z = make_positive_Z(4, 4, [0, 1, 2, 3])
    C = vandermonde_matrix(2, [1, 2, 5, 7])
    Y = amp_map(C, Z)
    assert rank(Y.Y) == 2
    # the Z action is an invertible change of coordinates
    P1 = plucker_of_matrix(C.matmul(Z.mat))
    P2 = plucker_of_matrix(Y.Y)
    assert P1 == P2


def test_twistor_duplicate_index_vanishes():
    C = RatMatrix.from_rows([[1, 1, 1, 1]])
    Y = amp_map(C, Z4)
    assert twistor(Y, Z4, (2, 2)) == 0


def test_twistor_k0_is_minor():
    Z = make_positive_Z(4, 2, [0, 1, 2, 3])
    Y = AmplituhedronPoint(RatMatrix.zero(0, 2))
    for I in combinations(range(1, 5), 2):
        assert twistor(Y, Z, I) > 0


def test_expansion_path_agrees_with_determinant():
    rng = Random(6)
    for (k, m, n) in [(1, 2, 4), (2, 1, 4), (2, 2, 5)]:
        Z = make_positive_Z(n, k + m, list(range(n)))
        for _ in range(20):
            C = sample_cell_matrix(top_cell_permutation(k, n), rng)
            P = plucker_of_matrix(C)
            Y = amp_map(C, Z)
            for I in combinations(range(1, n + 1), m):
                assert twistor(Y, Z, I) == twistor_via_expansion(P, Z, I)


def _stacked_det(Y: RatMatrix, Z, I) -> Fraction:
    """The determinant oracle: Y's rows over the rows of Z named by I."""
    return det(RatMatrix.from_rows([list(Y.row(r)) for r in range(Y.rows)]
                                   + [list(Z.row(i)) for i in I]))


@pytest.mark.parametrize("k,n,m", [(1, 5, 2), (2, 6, 2), (2, 7, 2), (1, 6, 4)])
def test_memoized_twistor_matches_det_and_expansion(k, n, m):
    Z = make_positive_Z(n, k + m, list(range(n)))
    rng = Random(10 * n + k)
    for _ in range(2):
        C = sample_cell_matrix(top_cell_permutation(k, n), rng)
        Y = amp_map(C, Z)
        for I in product(range(1, n + 1), repeat=m):
            expected = _stacked_det(Y.Y, Z, I)
            assert twistor(Y, Z, I) == expected
            assert twistor(AmplituhedronPoint(Y.Y), Z, I) == expected
            assert twistor_via_expansion(plucker_of_matrix(C), Z, I) == expected
        assert len(Y.signs[Z].memo) == len(list(combinations(range(n), m)))
        assert all(list(I) == sorted(I) for I in Y.signs[Z].memo)


def _same_matrix(M: RatMatrix, rows: list[list[Fraction]]) -> None:
    """M equals the matrix built from the Fraction entries ``rows`` on
    ==, hash, row(), entry() and to_json()."""
    F = RatMatrix(len(rows), M.cols, [x for row in rows for x in row])
    assert M == F and hash(M) == hash(F)
    assert [list(M.row(i)) for i in range(M.rows)] == rows
    assert all(type(x) is Fraction for i in range(M.rows) for x in M.row(i))
    assert all(M.entry(i, j) == x for i, row in enumerate(rows) for j, x in enumerate(row))
    assert M.to_json() == [[rat_to_str(x) for x in row] for row in rows]


@pytest.mark.parametrize("n", range(7))
def test_integer_rows_and_twistor_pairs_match_the_fraction_paths(n):
    """Every cell with this n, at unit bridge parameters and at one seeded
    draw: the integer replay equals the matrix built from its Fraction
    entries, and its decorated permutation is the one read off the minors
    of those entries' rows cleared again.
    Where k + 2 <= n, Y = C Z (Z on the moment curve) equals the product
    built from Fraction entries, its twistor table equals the Fraction
    memo, and every default seed of type (k, n) evaluates to the Fraction
    ratios of that table."""
    rng, checked, Zs = Random(n), 0, {}
    for pi in enumerate_decorated(n):
        dim = cell_dim_of_perm(pi)
        for params in ([1] * dim, [Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
                                   for _ in range(dim)]):
            C = matrix_realization(pi, params)
            F = row_list(C)
            _same_matrix(C, F)
            k = C.rows
            perm = perm_of_minors(integer_minors(cleared_rows(F)[0], n), k, n)
            assert decorated_permutation_of(C) == perm == pi
            if k + 2 > n:
                continue
            if k not in Zs:
                seeds = ([build_seed(rec.triangulation) for rec in tile_catalog(k + 1, n).values()]
                         if n >= 3 else [])
                Zs[k] = make_positive_Z(n, k + 2, range(n)), seeds
            Z, seeds = Zs[k]
            Y = amp_map(C, Z)
            rows = fraction_entry_matmul(row_list(C), row_list(Z.mat))
            _same_matrix(Y.Y, rows)
            table = fraction_twistor_table(rows, Z)
            assert twistor_table(Y, Z) == table
            for S in seeds:
                assert S.evaluate(Y, Z) == {key: fraction_arc_value(S.variables[key], table)
                                            for key in S.keys}
            checked += 1
    assert checked == [0, 0, 2, 16, 98, 588, 3786][n]


def _gr26_sweep(Y, Z, tiles, ws, seeds):
    """Every m = 2 verdict the (2, 6) sweep asks of one point."""
    return ([tile_membership_m2(Y, Z, T, strict=True) for T in tiles],
            [w_chamber_membership(Y, Z, w) for w in ws],
            m2_interior_test(Y, Z),
            [S.evaluate(Y, Z) for S in seeds])


def _gr26_setup():
    Z = make_positive_Z(6, 4, list(range(6)))
    tiles = [rec.triangulation for rec in tile_catalog(3, 6).values()]
    pinned = enumerate_tilings(3, 6)[0]
    seeds = [build_seed(rec.triangulation) for rec in pinned.tiles]
    return Z, tiles, enumerate_D(3, 6), seeds


def test_a_fresh_point_gives_the_verdicts_of_the_mapped_one():
    """A point wrapped around Y = C Z with no sign record yet gives the
    verdicts of the point amp_map built, whose record amp_map started."""
    Z, tiles, ws, seeds = _gr26_setup()
    assert (len(tiles), len(ws)) == (48, 66)
    rng = Random(12)
    points = [amp_map(sample_cell_matrix(top_cell_permutation(2, 6), rng), Z)
              for _ in range(3)]
    points.append(sample_tile_point(tiles[5], Z, rng))
    # Z_1 is a row of Y: every twistor <Y Z_1 Z_j> vanishes
    points.append(amp_map(RatMatrix.from_rows([[1, 0, 0, 0, 0, 0],
                                               [0, 1, 1, 1, 1, 1]]), Z))
    for Y in points:
        fresh = AmplituhedronPoint(Y.Y)
        assert not fresh.signs
        assert _gr26_sweep(Y, Z, tiles, ws, seeds) == _gr26_sweep(fresh, Z, tiles, ws, seeds)
    assert "boundary" in _gr26_sweep(points[-1], Z, tiles, ws, seeds)[1]


def _first_tile() -> BicoloredTriangulation:
    return next(iter(tile_catalog(3, 6).values())).triangulation


@pytest.mark.parametrize("m, verdict", [
    (2, lambda Y, Z: twistor(Y, Z, (1, 2))),
    (2, twistor_table),
    (2, sign_stratum),
    (1, m1_membership),
    (2, m2_interior_test),
    (2, general_m_boundary_signs),
    (2, lambda Y, Z: tile_membership_m2(Y, Z, _first_tile())),
    (2, lambda Y, Z: w_chamber_membership(Y, Z, enumerate_D(3, 6)[0])),
    (2, lambda Y, Z: build_seed(_first_tile()).evaluate(Y, Z)),
], ids=["twistor", "twistor_table", "sign_stratum", "m1_membership", "m2_interior_test",
        "general_m_boundary_signs", "tile_membership_m2", "w_chamber_membership",
        "Seed.evaluate"])
def test_every_verdict_refuses_a_bare_matrix(m, verdict):
    """A verdict reads the sign record a point keeps per Z, so a bare
    matrix, which keeps none, is refused rather than evaluated uncached;
    wrapped once, it gives the verdict of the mapped point."""
    Z = make_positive_Z(6, 2 + m, list(range(6)))
    Y = amp_map(sample_cell_matrix(top_cell_permutation(2, 6), Random(3)), Z)
    with pytest.raises(AttributeError, match="'RatMatrix' object has no attribute 'signs'"):
        verdict(Y.Y, Z)
    assert verdict(AmplituhedronPoint(Y.Y), Z) == verdict(Y, Z)


def test_a_point_keeps_one_sign_record_per_z_from_the_first_verdict_on():
    Z1 = make_positive_Z(6, 4, list(range(6)))
    Z2 = make_positive_Z(6, 4, [1, 2, 4, 8, 16, 32])
    Y = AmplituhedronPoint(amp_map(sample_cell_matrix(top_cell_permutation(2, 6),
                                                      Random(7)), Z1).Y)
    assert Y.signs == {}
    m2_interior_test(Y, Z1)
    rec = Y.signs[Z1]
    assert list(Y.signs) == [Z1] and rec.Y is Y.Y
    twistor_table(Y, Z1)
    w_chamber_membership(Y, Z1, enumerate_D(3, 6)[0])
    assert list(Y.signs) == [Z1] and Y.signs[Z1] is rec
    sign_stratum(Y, Z2)
    assert list(Y.signs) == [Z1, Z2] and Y.signs[Z1] is rec


def test_point_memo_keeps_each_Z_apart():
    Z1 = make_positive_Z(5, 3, [0, 1, 2, 3, 4])
    Z2 = make_positive_Z(5, 3, [1, 2, 4, 8, 16])
    Y = amp_map(sample_cell_matrix(top_cell_permutation(1, 5), Random(2)), Z1)
    for I in product(range(1, 6), repeat=2):
        assert twistor(Y, Z1, I) == _stacked_det(Y.Y, Z1, I)
        assert twistor(Y, Z2, I) == _stacked_det(Y.Y, Z2, I)
    assert set(Y.signs) == {Z1, Z2}
    assert Y.signs[Z1].memo != Y.signs[Z2].memo


def test_gr26_points_take_no_det_and_share_the_z_minor_tables(monkeypatch):
    """Mapping and sweeping a (2, 6) point calls exact.det under no module
    name that holds it.  Z keeps at most 15 minor tables, built on the
    first point and reused unchanged by the second.  The minors kernel runs
    once per new Z table on the first point, for none on the second, and
    once per point for the list of Y minors, which amp_map takes."""
    import sys

    Z, tiles, ws, seeds = _gr26_setup()
    rng = Random(3)
    C1, C2 = (sample_cell_matrix(top_cell_permutation(2, 6), rng) for _ in range(2))
    dets, minors = [], []
    kernel = exact.integer_minors

    def counting_det(M):
        dets.append(M)
        return det(M)

    def counting_minors(a, n):
        minors.append(kernel(a, n))
        return minors[-1]

    for name, mod in list(sys.modules.items()):
        if name.startswith("positroid_lab"):
            if getattr(mod, "det", None) is det:
                monkeypatch.setattr(mod, "det", counting_det)
            if getattr(mod, "integer_minors", None) is kernel:
                monkeypatch.setattr(mod, "integer_minors", counting_minors)
    Y1 = amp_map(C1, Z)
    assert Z.minors == {} and len(minors) == 1
    first = _gr26_sweep(Y1, Z, tiles, ws, seeds)
    tables = dict(Z.minors)
    assert 0 < len(tables) <= 15
    assert all(len(I) == 2 and list(I) == sorted(I) for I in tables)
    z_lists = [table for table, _ in tables.values()]
    assert len(minors) == len(tables) + 1
    assert all(any(m is table for m in minors) for table in z_lists)
    minors.clear()
    Y2 = amp_map(C2, Z)
    assert len(minors) == 1
    second = _gr26_sweep(Y2, Z, tiles, ws, seeds)
    assert len(minors) == 1 and not any(minors[0] is table for table in z_lists)
    assert Z.minors.keys() == tables.keys()
    assert all(Z.minors[I] is tables[I] for I in tables)
    assert dets == []
    assert list(Y1.signs) == list(Y2.signs) == [Z]
    assert first[0].count(True) >= 1 and second[0].count(True) >= 1


def _random_rational_rows(rng: Random, r: int, c: int) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 8])) for _ in range(c)]
            for _ in range(r)]


@pytest.mark.parametrize("k,m,n", [(0, 1, 3), (2, 1, 5), (0, 2, 4), (1, 2, 5), (2, 2, 6),
                                   (1, 3, 5), (2, 3, 6), (0, 4, 5), (1, 4, 6)])
def test_minor_table_twistors_match_stacked_det_on_every_ordered_index(k, m, n):
    """Every ordered I, repeats included, against one determinant of Y over
    Z_I: Z with non-integer rational rows (each moment-curve row at rational
    nodes times a positive rational, so every maximal minor stays
    positive), raw Y with negative entries, images of points, and a Y that
    holds a row of Z."""
    p = k + m
    rng = Random(100 * k + 10 * m + n)
    nodes = [Fraction(2 * i + 1, 3) for i in range(n)]
    Z = ZMatrix(RatMatrix.from_rows([[Fraction(i + 1, 2 * i + 3) * t ** j for j in range(p)]
                                     for i, t in enumerate(nodes)]))
    assert any(x.denominator > 1 for i in range(1, n + 1) for x in Z.row(i))
    Ys = [RatMatrix.from_rows(_random_rational_rows(rng, k, p)) for _ in range(3)]
    if k:
        Ys += [amp_map(sample_cell_matrix(top_cell_permutation(k, n), rng), Z)
               for _ in range(2)]
        held = RatMatrix.from_rows([list(Z.row(2))] + _random_rational_rows(rng, k - 1, p))
        Ys.append(held)
    assert k == 0 or any(x < 0 for Y in Ys[:3] for r in range(k) for x in Y.row(r))
    for Y in Ys:
        point = Y if isinstance(Y, AmplituhedronPoint) else AmplituhedronPoint(Y)
        for I in product(range(1, n + 1), repeat=m):
            assert twistor(point, Z, I) == _stacked_det(point.Y, Z, I), (point.Y, I)
    if k:
        held = AmplituhedronPoint(held)
        assert all(twistor(held, Z, I) == 0 for I in product(range(1, n + 1), repeat=m)
                   if 2 in I)


def test_tile_tests_read_arc_areas_off_the_triangulation(monkeypatch):
    from positroid_lab import triangulations

    Z, tiles, _, _ = _gr26_setup()
    fresh = [BicoloredTriangulation(T.n, T.black, T.white) for T in tiles]
    calls = []

    def counting_area(T, h, j):
        calls.append((T, h, j))
        return area(T, h, j)

    monkeypatch.setattr(triangulations, "area", counting_area)
    rng = Random(6)
    Y1, Y2 = (amp_map(sample_cell_matrix(top_cell_permutation(2, 6), rng), Z)
              for _ in range(2))
    first = [tile_membership_m2(Y1, Z, T, strict=True) for T in fresh]
    assert len(calls) == sum(len(T.arcs()) for T in fresh)
    calls.clear()
    second = [tile_membership_m2(Y2, Z, T, strict=True) for T in fresh]
    assert calls == []
    assert first.count(True) >= 1 and second.count(True) >= 1


def _chamber_oracle(Y, Z, ws):
    """The per-w sign-flip test, each twistor taken from the stacked det."""
    n = Z.n
    for a in range(1, n + 1):
        seq = []
        for j in range(1, n + 1):
            if j == a:
                seq.append(Fraction(0))
            else:
                val = _stacked_det(Y, Z, (a, j))
                seq.append((-1) ** (Z.p - 1) * val if j < a else val)
        if any(v == 0 for idx, v in enumerate(seq, start=1) if idx != a):
            return "boundary"
        flips = {j for j in range(1, n + 1)
                 if seq[j - 1] != 0 and seq[j % n] != 0
                 and (seq[j - 1] > 0) != (seq[j % n] > 0)}
        if flips != set(ws.vertex(a)) - {a}:
            return False
    return True


def test_chamber_verdicts_match_per_w_oracle():
    Z, _, ws, _ = _gr26_setup()
    rng = Random(17)
    points = [amp_map(sample_cell_matrix(top_cell_permutation(2, 6), rng), Z)
              for _ in range(20)]
    # Z_1 is a row of Y: every twistor <Y Z_1 Z_j> vanishes
    points.append(amp_map(RatMatrix.from_rows([[1, 0, 0, 0, 0, 0],
                                               [0, 1, 1, 1, 1, 1]]), Z))
    seen = set()
    for Y in points:
        expected = [_chamber_oracle(Y.Y, Z, w) for w in ws]
        assert [w_chamber_membership(AmplituhedronPoint(Y.Y), Z, w) for w in ws] == expected
        assert [w_chamber_membership(Y, Z, w) for w in ws] == expected
        # again, now from the flip sets kept on the point
        assert [w_chamber_membership(Y, Z, w) for w in ws] == expected
        seen.update(expected)
    assert seen == {True, False, "boundary"}


def _facet_cells(k, n):
    """The n facets of the top cell of Gr(k, n)_{>=0}, 0 < k < n: the top
    permutation with the images of i and i+1 swapped, fixed points
    decorated to keep the type."""
    top = top_cell_permutation(k, n).images
    out = []
    for i in range(n):
        images = list(top)
        images[i], images[(i + 1) % n] = images[(i + 1) % n], images[i]
        fixed = {j for j in range(1, n + 1) if images[j - 1] == j}
        decorated = [make(images, loops, fixed - loops) for loops in (fixed, set())]
        out.append(next(pi for pi in decorated if type_of(pi) == (k, n)))
    assert all(cell_dim_of_perm(pi) == k * (n - k) - 1 for pi in out)
    return out


def _points_with_zero_twistors(k, n, Z, rng):
    """Two top-cell points, and for k > 0 a Y holding the row Z_1 (so
    <Y Z_1 Z_j> = 0 for every j) and one point of each facet cell."""
    points = [sample_interior_point(k, n, Z, rng) for _ in range(2)]
    if k:
        C = sample_cell_matrix(top_cell_permutation(k, n), rng)
        points.append(amp_map(RatMatrix.from_rows(
            [[1] + [0] * (n - 1)] + [list(C.row(r)) for r in range(1, k)]), Z))
        points += [amp_map(sample_cell_matrix(pi, rng), Z) for pi in _facet_cells(k, n)]
    return points


@pytest.mark.parametrize("n", range(3, 8))
def test_sign_masks_match_the_per_arc_and_walked_oracles(n):
    seen_tiles, seen_chambers = set(), set()
    for k in range(n - 1):
        Z = make_positive_Z(n, k + 2, list(range(n)))
        tiles = [rec.triangulation for rec in tile_catalog(k + 1, n).values()]
        ws = enumerate_D(k + 1, n)
        for Y in _points_with_zero_twistors(k, n, Z, Random(100 * n + k)):
            for T in tiles:
                for strict in (True, False):
                    verdict = tile_membership_m2(Y, Z, T, strict)
                    assert verdict == per_arc_tile_membership(Y, Z, T, strict)
                    seen_tiles.add(verdict)
            chambers = [w_chamber_membership(Y, Z, w) for w in ws]
            walked = walked_flip_sets(Y, Z)
            assert chambers == [walked_chamber_membership(walked, w) for w in ws]
            seen_chambers.update(chambers)
            # a point wrapped afresh builds its own sign record; a spread of
            # the tests suffices for it
            fresh = AmplituhedronPoint(Y.Y)
            for T in tiles[::max(1, len(tiles) // 6)]:
                for strict in (True, False):
                    assert (tile_membership_m2(fresh, Z, T, strict)
                            == tile_membership_m2(Y, Z, T, strict))
            for i in range(0, len(ws), max(1, len(ws) // 6)):
                assert w_chamber_membership(fresh, Z, ws[i]) == chambers[i]
    assert seen_tiles == {True, False, "boundary"}
    # at n = 3 each type has one chamber, so no point misses it
    assert seen_chambers == ({True, False, "boundary"} if n > 3 else {True, "boundary"})


def test_open_tiles_are_the_t_dual_tiles_that_cover_the_chamber():
    Z, _, ws, _ = _gr26_setup()
    recs = list(tile_catalog(3, 6).values())
    covers = [cover_mask(rec.matroid) for rec in recs]
    rng = Random(18)
    for _ in range(300):
        Y = sample_interior_point(2, 6, Z, rng)
        (i,) = [i for i, w in enumerate(ws) if w_chamber_membership(Y, Z, w) is True]
        assert ([tile_membership_m2(Y, Z, rec.triangulation, strict=True) for rec in recs]
                == [bool(c >> i & 1) for c in covers])


@pytest.mark.parametrize("T", [BicoloredTriangulation.make(3, black=[(1, 2, 3)]),
                               BicoloredTriangulation.make(4, black=[(1, 2, 3), (1, 3, 4)])])
def test_tile_of_another_type_is_refused(T):
    Y = amp_map(sample_cell_matrix(top_cell_permutation(1, 4), Random(5)), Z4)
    for strict in (True, False):
        with pytest.raises(ValueError, match="sizes do not match"):
            tile_membership_m2(Y, Z4, T, strict)


def test_chamber_of_another_n_is_refused():
    Y = amp_map(sample_cell_matrix(top_cell_permutation(1, 4), Random(5)), Z4)
    with pytest.raises(ValueError, match="^sizes do not match$"):
        w_chamber_membership(Y, Z4, enumerate_D(1, 5)[0])


@pytest.mark.parametrize("I", [(0, 2), (2, 7), (-1, 3)])
def test_twistor_rejects_index_outside_range(I):
    Z = make_positive_Z(6, 4, list(range(6)))
    Y = amp_map(sample_cell_matrix(top_cell_permutation(2, 6), Random(4)), Z)
    twistor_table(Y, Z)
    bad = next(i for i in I if not 1 <= i <= 6)
    with pytest.raises(ValueError, match=rf"index {bad} is outside 1\.\.6"):
        twistor(Y, Z, I)


@pytest.mark.parametrize("k, n", [(1, 5), (2, 6), (3, 7)])
def test_pair_memo_hit_equals_the_checked_pair(k, n):
    Z = make_positive_Z(n, k + 2, list(range(n)))
    rng = Random(k)
    for hit_first in (True, False):
        Y = amp_map(sample_cell_matrix(top_cell_permutation(k, n), rng), Z)
        rec = Y.signs[Z]
        for J in combinations(range(1, n + 1), 2):
            # the reversed J misses the memo and goes through every check
            if hit_first:
                rec.pair(J)
            assert (J in rec.memo) == hit_first
            num, den = rec.pair(J[::-1])
            assert J in rec.memo and rec.pair(J) == rec.memo[J] == (-num, den)
            assert Fraction(num, den) == -twistor(Y, Z, J) == twistor(Y, Z, J[::-1])
    # pair and twistor keep every size, range and order check
    for I in [(1,), (1, 2, 3), (0, 2), (2, n + 1)]:
        with pytest.raises(ValueError):
            twistor(Y, Z, I)
        with pytest.raises(ValueError):
            rec.pair(I)
    assert rec.pair((2, 2)) == (0, 1) and (2, 2) not in rec.memo


@pytest.mark.parametrize("rows,I", [([[1, 0, 0, 0, 0]], (1, 2, 3)), ([[1, 0, 0]], (1, 2, 3)),
                                    ([[1, 0, 0, 0]] * 5, ())])
def test_twistor_refuses_y_of_another_shape(rows, I):
    """Y needs the p columns of Z: the minors of a wider Y would drop its
    last columns, and a narrower one has no minor on some column sets."""
    Z = make_positive_Z(6, 4, list(range(6)))
    with pytest.raises(ValueError, match="Y must have 4 columns and at most 4 rows"):
        twistor(AmplituhedronPoint(RatMatrix.from_rows(rows)), Z, I)


def test_twistor_plucker_relation():
    rng = Random(8)
    for (k, m, n) in [(1, 2, 4), (2, 2, 5)]:
        Z = make_positive_Z(n, k + m, list(range(n)))
        for _ in range(40):
            C = sample_cell_matrix(top_cell_permutation(k, n), rng)
            Y = amp_map(C, Z)
            t = twistor_table(Y, Z)
            for a, b, c, d in combinations(range(1, n + 1), 4):
                assert t[(a, c)] * t[(b, d)] == \
                    t[(a, b)] * t[(c, d)] + t[(a, d)] * t[(b, c)]


def test_sign_stratum_projective():
    C = RatMatrix.from_rows([[1, 2, 1, 1]])
    Y = amp_map(C, Z4)
    s1 = sign_stratum(Y, Z4)
    assert s1 == "++-+++"
    Yneg = AmplituhedronPoint(RatMatrix.from_rows([[-x for x in Y.Y.row(0)]]))
    assert sign_stratum(Yneg, Z4) == s1


def test_sign_stratum_boundary_point():
    Y = amp_map(RatMatrix.from_rows([[1, 0, 0, 0]]), Z4)
    t = twistor_table(Y, Z4)
    assert t[(1, 2)] == 0 and t[(1, 3)] == 0 and t[(1, 4)] == 0
    assert t[(2, 3)] > 0 and t[(2, 4)] > 0 and t[(3, 4)] > 0


def test_m1_membership_and_stratum_variation():
    rng = Random(3)
    for (k, n) in [(1, 4), (2, 5)]:
        Z = make_positive_Z(n, k + 1, list(range(n)))
        for _ in range(25):
            C = sample_cell_matrix(top_cell_permutation(k, n), rng)
            Y = amp_map(C, Z)
            assert m1_membership(Y, Z)
            seq = [twistor(Y, Z, (i,)) for i in range(1, n + 1)]
            assert varbar(seq) == k


def test_m1_membership_all_positive_fails_for_k_ge_1():
    Z = make_positive_Z(4, 2, [0, 1, 2, 3])
    Y = AmplituhedronPoint(RatMatrix.from_rows([[0, -1]]))  # twistors <YZ_i> = t_i... all strictly increasing
    vals = [twistor(Y, Z, (i,)) for i in range(1, 5)]
    assert varbar(vals) != 1 or not m1_membership(Y, Z)


def test_m1_sampled_membership_over_random_cells():
    rng = Random(12)
    pool = [p for p in enumerate_decorated(5, k=2)]
    Z = make_positive_Z(5, 3, [0, 1, 2, 3, 4])
    for pi in rng.sample(pool, 12):
        C = sample_cell_matrix(pi, rng)
        Y = amp_map(C, Z)
        assert m1_membership(Y, Z)


def test_hyperplane_figure_sign_vectors_have_varbar_two():
    labels = ["+++-+", "++--+", "+---+", "+--++", "++-++", "+-+++"]
    for text in labels:
        vals = [1 if ch == "+" else -1 for ch in text]
        assert varbar(vals) == 2


def test_m2_interior_on_interior_and_boundary():
    rng = Random(5)
    for _ in range(20):
        Y = sample_interior_point(1, 4, Z4, rng)
        assert m2_interior_test(Y, Z4)
    corner = amp_map(RatMatrix.from_rows([[1, 0, 0, 0]]), Z4)
    assert not m2_interior_test(corner, Z4)


def test_general_m_reduces_to_m2():
    rng = Random(10)
    Z = make_positive_Z(5, 3, [0, 1, 2, 3, 4])
    points = [sample_interior_point(1, 5, Z, rng) for _ in range(30)]
    points.append(amp_map(RatMatrix.from_rows([[1, 0, 0, 0, 0]]), Z))  # the corner
    points += [amp_map(sample_cell_matrix(pi, rng), Z) for pi in enumerate_decorated(5, k=1)
               if pi != top_cell_permutation(1, 5)]
    verdicts = [m2_interior_test(Y, Z) for Y in points]
    assert verdicts == [general_m_boundary_signs(Y, Z) for Y in points]
    assert True in verdicts and False in verdicts


def test_general_m_odd_case_m1():
    rng = Random(11)
    for (k, n) in [(1, 4), (2, 5)]:
        Z = make_positive_Z(n, k + 1, list(range(n)))
        for _ in range(10):
            C = sample_cell_matrix(top_cell_permutation(k, n), rng)
            Y = amp_map(C, Z)
            assert general_m_boundary_signs(Y, Z)
            s = Fraction(-1) ** k
            assert s * twistor(Y, Z, (1,)) > 0
            assert twistor(Y, Z, (n,)) > 0


def test_general_m4_totally_positive_passes():
    rng = Random(13)
    Z = make_positive_Z(6, 5, [0, 1, 2, 3, 4, 5])
    for _ in range(10):
        C = sample_cell_matrix(top_cell_permutation(1, 6), rng)
        Y = amp_map(C, Z)
        assert general_m_boundary_signs(Y, Z)


def test_general_m_even_refuses_a_point_failing_only_a_wrapped_sign():
    # m = 4, k = 1: every consecutive-pair twistor is positive and the flip
    # sequence makes one flip, but the wrapped <Y 4 5 6 1> is negative.  At
    # m = 2 no point fails the wrapped sign alone: the wrapped twistor is the
    # flip sequence's last, -<Y 1 n>, whose sign the flip count fixes, and a
    # zero there would give <Y 1 j> more flips than a positive Z allows.
    Z = make_positive_Z(6, 5, [-16, -13, -12, -4, 11, 16])
    Y = AmplituhedronPoint(RatMatrix.from_rows([[8, 3, 2, 6, 98624]]))
    pairs = [(1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 5, 6), (2, 3, 4, 5), (2, 3, 5, 6), (3, 4, 5, 6)]
    assert all(twistor(Y, Z, I) > 0 for I in pairs)
    assert [twistor(Y, Z, I) > 0 for I in [(2, 3, 6, 1), (3, 4, 6, 1), (4, 5, 6, 1)]] == [
        True, True, False]
    assert var([twistor(Y, Z, (1, 2, 3, j)) for j in (4, 5, 6)]) == 1
    assert general_m_boundary_signs(Y, Z) is False


@pytest.mark.parametrize("row, starting_at_1, ending_at_n", [
    ([2, -3, -1, 6], [True, False, False], [True, True, True]),
    ([-1, 2, 3, 6], [True, True, True], [True, False, False]),
], ids=["a-set-starting-at-1", "a-set-ending-at-n"])
def test_general_m_odd_refuses_a_point_failing_only_one_family_of_signs(
        row, starting_at_1, ending_at_n):
    # m = 3, k = 1: the sets starting at 1 carry the sign (-1)^k = -1, those
    # ending at n are positive, and the flip sequence makes one flip
    Z = make_positive_Z(5, 4, [0, 1, 2, 3, 4])
    Y = AmplituhedronPoint(RatMatrix.from_rows([row]))
    assert [-twistor(Y, Z, I) > 0 for I in [(1, 2, 3), (1, 3, 4), (1, 4, 5)]] == starting_at_1
    assert [twistor(Y, Z, I) > 0 for I in [(1, 2, 5), (2, 3, 5), (3, 4, 5)]] == ending_at_n
    assert var([twistor(Y, Z, (1, 2, j)) for j in (3, 4, 5)]) == 1
    assert general_m_boundary_signs(Y, Z) is False


def test_general_m_refuses_m_zero_by_name():
    # k = p = 2: a twistor takes no row of Z, and the flip sequence has none
    Z = make_positive_Z(4, 2, [0, 1, 2, 3])
    Y = amp_map(sample_cell_matrix(top_cell_permutation(2, 4), Random(3)), Z)
    with pytest.raises(ValueError, match="m = 0"):
        general_m_boundary_signs(Y, Z)


def test_tile_membership_pinned():
    Y = amp_map(RatMatrix.from_rows([[1, 1, 1, 0]]), Z4)
    assert tile_membership_m2(Y, Z4, T123, strict=True) is True
    assert tile_membership_m2(Y, Z4, T134, strict=True) is False


def test_tile_samples_localize():
    rng = Random(2)
    for T, other in [(T123, T134), (T134, T123), (T124, T234)]:
        for _ in range(15):
            Y = sample_tile_point(T, Z4, rng)
            assert tile_membership_m2(Y, Z4, T, strict=True) is True
            assert tile_membership_m2(Y, Z4, other, strict=True) is False


def test_tile_boundary_verdict():
    Y = amp_map(RatMatrix.from_rows([[1, 1, 0, 0]]), Z4)  # on edge Z1Z2
    assert tile_membership_m2(Y, Z4, T123) == "boundary"
    assert tile_membership_m2(Y, Z4, T123, strict=True) is False


def test_w_chamber_pinned_1324():
    ws = w_simplex((1, 3, 2, 4))
    rng = Random(1)
    hit = False
    for _ in range(400):
        Y = sample_interior_point(1, 4, Z4, rng)
        t = twistor_table(Y, Z4)
        pinned = (t[(1, 4)] < 0 and t[(2, 4)] < 0
                  and all(t[I] > 0 for I in [(1, 2), (1, 3), (2, 3), (3, 4)]))
        got = w_chamber_membership(Y, Z4, ws)
        if got == "boundary":
            continue
        assert got == pinned
        hit = hit or pinned
    assert hit


def test_w_chambers_partition_interior():
    rng = Random(42)
    D = enumerate_D(2, 4)
    chambers = set()
    for _ in range(500):
        Y = sample_interior_point(1, 4, Z4, rng)
        s = sign_stratum(Y, Z4)
        if "0" in s:
            continue
        chambers.add(s)
        hits = [w for w in D if w_chamber_membership(Y, Z4, w) is True]
        assert len(hits) == 1
    assert len(chambers) == 4


def test_w_chamber_boundary_reported():
    Y = amp_map(RatMatrix.from_rows([[1, 1, 0, 0]]), Z4)
    assert w_chamber_membership(Y, Z4, w_simplex((1, 3, 2, 4))) == "boundary"


def test_verify_amp_tilings_quadrilateral():
    rep = verify_amp_tiling_m2([T123, T134], Z4)
    assert rep["valid"] and rep["sample_audit_ok"]
    rep2 = verify_amp_tiling_m2([T124, T234], Z4)
    assert rep2["valid"]
    rep3 = verify_amp_tiling_m2([T123], Z4)
    assert not rep3["valid"]
    rep4 = verify_amp_tiling_m2([T123, T234], Z4)
    assert not rep4["valid"] and not rep4["sample_audit_ok"]


FAN5 = [BicoloredTriangulation.make(5, black=[(1, 2, 3)], white=[(1, 3, 4), (1, 4, 5)]),
        BicoloredTriangulation.make(5, black=[(1, 3, 4)], white=[(1, 2, 3), (1, 4, 5)]),
        BicoloredTriangulation.make(5, black=[(1, 4, 5)], white=[(1, 2, 3), (1, 3, 4)])]


def test_verify_amp_tiling_audits_every_sample():
    Z = make_positive_Z(5, 3, [0, 1, 2, 3, 4])
    rep = verify_amp_tiling_m2(FAN5, Z)
    assert rep["valid"] and rep["sample_audit_ok"] and "hit_counts" not in rep
    assert sampled_tiling_audit(FAN5, Z, 20, 1) == {1: 20}
    # 20 samples at seed 1 miss the tile with black triangle (1,2,3) ...
    assert sampled_tiling_audit(FAN5[1:], Z, 20, 1) == {1: 20}
    # ... and its witness does not
    dropped = verify_amp_tiling_m2(FAN5[1:], Z)
    assert not dropped["valid"] and not dropped["sample_audit_ok"]
    label = t_dual(FAN5[0].subdivision.trip_permutation())
    assert f"no listed tile holds the witness of tile {label!r}" in dropped["violations"]


def test_verify_amp_tiling_names_a_tile_that_does_not_hold_its_witness_strictly(monkeypatch):
    # every witness that lies inside a tile is taken to lie on its boundary
    membership = amplituhedron.tile_membership_m2

    def on_the_boundary(Y, Z, T, strict=False):
        got = membership(Y, Z, T, strict)
        return "boundary" if got is True else got

    monkeypatch.setattr(amplituhedron, "tile_membership_m2", on_the_boundary)
    rep = verify_amp_tiling_m2(FAN5, make_positive_Z(5, 3, [0, 1, 2, 3, 4]))
    assert rep["hypersimplex"]["valid"]
    assert not rep["valid"] and not rep["sample_audit_ok"]
    assert rep["violations"] == [
        f"tile {t_dual(T.subdivision.trip_permutation())!r} does not hold its witness strictly"
        for T in FAN5]


def test_verify_amp_tiling_names_a_tile_that_holds_another_witness():
    Z = make_positive_Z(5, 3, [0, 1, 2, 3, 4])
    T = BicoloredTriangulation.make(5, black=[(1, 2, 4)], white=[(2, 3, 4), (1, 4, 5)])
    rep = verify_amp_tiling_m2(FAN5 + [T], Z)
    name = repr(t_dual(T.subdivision.trip_permutation()))
    audit = [v for v in rep["violations"] if not v.startswith("T-dual:")]
    assert not rep["sample_audit_ok"] and audit
    assert all(v.startswith(f"tile {name} holds the witness of tile ")
               or v.endswith(f"holds the witness of tile {name}") for v in audit)


def _witness_types():
    rng = Random(22)
    for k, n in [(1, 5), (1, 6), (2, 6), (1, 7)]:
        nodes = [list(range(n))] + [sorted(rng.sample(range(3 * n), n)) for _ in range(2)]
        for ts in nodes:
            yield k, n, ts


@pytest.mark.parametrize("k, n, nodes", list(_witness_types()))
def test_witness_audit_passes_every_tiling_and_flags_every_drop(k, n, nodes):
    Z = make_positive_Z(n, k + 2, nodes)
    recs = tuple(tile_catalog(k + 1, n).values())
    tilings = enumerate_tiling_indices(k + 1, n)
    assert tilings
    for sol in tilings:
        tris = [recs[i].triangulation for i in sol]
        rep = verify_amp_tiling_m2(tris, Z)
        assert rep["valid"] and rep["sample_audit_ok"], rep["violations"]
        for d in range(len(tris)):
            dropped = verify_amp_tiling_m2(tris[:d] + tris[d + 1:], Z)
            assert not dropped["sample_audit_ok"]
            kinds = {v.startswith("T-dual:") for v in dropped["violations"]}
            assert kinds == {True, False}


def test_witness_audit_agrees_with_the_sampled_oracle():
    # on tilings the samples each hit one open tile; wherever the samples
    # find a gap or an overlap, a witness does too
    Z = make_positive_Z(6, 4, [0, 1, 3, 4, 7, 8])
    recs = tuple(tile_catalog(3, 6).values())
    tilings = enumerate_tiling_indices(3, 6)[:12]
    for sol in tilings:
        tris = [recs[i].triangulation for i in sol]
        assert sampled_tiling_audit(tris, Z, 10, 5) == {1: 10}
        assert verify_amp_tiling_m2(tris, Z)["sample_audit_ok"]
    flagged = 0
    for sol in tilings[:4]:
        for other in recs:
            tris = [recs[i].triangulation for i in sol][1:] + [other.triangulation]
            if sampled_tiling_audit(tris, Z, 10, 5) != {1: 10}:
                flagged += 1
                assert not verify_amp_tiling_m2(tris, Z)["sample_audit_ok"]
    assert flagged


def test_verify_amp_tiling_draws_audit_points_once_per_z(monkeypatch):
    calls = []
    original = amplituhedron.matrix_realization

    def counting(pi, params):
        calls.append(pi)
        return original(pi, params)

    monkeypatch.setattr(amplituhedron, "matrix_realization", counting)
    Z = make_positive_Z(4, 3, [0, 1, 2, 3])
    reps = [verify_amp_tiling_m2(tiles, Z)
            for tiles in ([T123, T134], [T124, T234], [T123])]
    # one witness per tile of type (1,4), at unit bridge parameters
    assert calls == [t_dual(pi) for pi in tile_catalog(2, 4)]
    assert [r["valid"] for r in reps] == [True, True, False]
    verify_amp_tiling_m2([T123, T134], make_positive_Z(4, 3, [0, 1, 2, 3]))
    assert len(calls) == 2 * len(tile_catalog(2, 4)) == 8


def test_tile_witnesses_lie_in_their_open_tiles():
    for k, n in [(1, 5), (2, 6), (3, 7)]:
        Z = make_positive_Z(n, k + 2, range(n))
        recs = tile_catalog(k + 1, n).values()
        for j, rec in enumerate(recs):
            audit = witness_audit([rec.triangulation], Z)
            own, closed, strict = Z.witnesses[2][rec.triangulation]
            assert own == j and strict >> j & 1 and closed & strict == strict
            # alone, a tile fails only on the witnesses its closed tile misses
            assert audit == [f"no listed tile holds the witness of tile {t_dual(pi)!r}"
                             for i, pi in enumerate(tile_catalog(k + 1, n)) if not closed >> i & 1]
        points, position, held = Z.witnesses
        assert len(points) == len(position) == len(held) == len(recs)
        assert all(m2_interior_test(Y, Z) for Y in points)


def test_a_repeated_tile_holds_the_witness_of_its_copy():
    rep = verify_amp_tiling_m2([T123, T123, T134], Z4)
    label = repr(t_dual(T123.subdivision.trip_permutation()))
    audit = [v for v in rep["violations"] if not v.startswith("T-dual:")]
    assert audit == [f"tile {label} holds the witness of tile {label}"] * 2
    assert "T-dual: repeated tiles" in rep["violations"] and not rep["sample_audit_ok"]


def test_verify_amp_tiling_reads_its_type_off_z():
    # the first tile no longer sets the type: a (1,4) tile first, then (2,4)
    # tiles, against a Z of p = 4
    Z = make_positive_Z(4, 4, [0, 1, 2, 3])
    T2 = BicoloredTriangulation.make(4, black=[(1, 2, 3), (1, 3, 4)], white=[])
    rep = verify_amp_tiling_m2([T123, T2], Z)
    assert (rep["k"], rep["n"]) == (2, 4) and not rep["valid"]
    assert rep["violations"][0] == f"tile {T123!r} has mismatched type"
    assert rep["sample_audit_ok"]  # the (2,4) tile alone is audited
    empty = verify_amp_tiling_m2([], Z4)
    assert not empty["valid"] and "T-dual: simplex of w=1324 uncovered" in empty["violations"]
    with pytest.raises(ValueError, match="p >= 2"):
        verify_amp_tiling_m2([T123], make_positive_Z(4, 1, [0, 1, 2, 3]))


def test_verify_amp_tiling_reports_a_tile_of_another_n():
    T5 = BicoloredTriangulation.make(5, black=[(1, 2, 3)], white=[(1, 3, 4), (1, 4, 5)])
    rep = verify_amp_tiling_m2([T123, T134, T5], Z4)
    assert (rep["k"], rep["n"]) == (1, 4) and not rep["valid"]
    assert rep["violations"][0] == f"tile {T5!r} has mismatched type"
    assert any(v.startswith("T-dual: tile ") and v.endswith("has wrong type (2,5)")
               for v in rep["violations"])
    assert rep["sample_audit_ok"]  # the two (1,4) tiles alone are audited


def test_verify_amp_tiling_25():
    rep = verify_amp_tiling_m2(FAN5, make_positive_Z(5, 3, [0, 1, 2, 3, 4]))
    assert rep["valid"]


def test_b_point_identity_instances():
    rng = Random(4)
    cases = [(1, 1, 4), (2, 1, 5), (1, 2, 4), (2, 2, 5)]
    done = 0
    for (k, m, n) in cases:
        Z = make_positive_Z(n, k + m, list(range(n)))
        pool = [p for p in enumerate_decorated(n, k=k)]
        for pi in rng.sample(pool, 6):
            C = sample_cell_matrix(pi, Random(rng.randrange(10 ** 6)))
            rep = b_point(C, Z)
            assert rep["dim_ok"] and rep["consistent"]
            done += 1
    assert done == 24


def _b_point_at_2_2_5():
    C = matrix_realization(top_cell_permutation(2, 5), [1] * 6)
    return C, make_positive_Z(5, 4, range(5))


def test_verifiers_return_their_json_records():
    tiling_keys = ["valid", "k_plus_1", "n", "tiles", "violations"]
    amp_keys = ["valid", "k", "n", "tiles", "hypersimplex", "sample_audit_ok", "violations"]
    cases = [(verify_tiling([T123, T134], 2, 4), tiling_keys, True),
             (verify_tiling([T123], 2, 4), tiling_keys, False),
             (verify_amp_tiling_m2([T123, T134], Z4), amp_keys, True),
             (verify_amp_tiling_m2([T123], Z4), amp_keys, False),
             (b_point(*_b_point_at_2_2_5()), ["consistent", "dim_ok", "X", "scalar"], True),
             (cluster_adjacency_check(T123), ["facet_arcs", "compatible_tested"], None)]
    for rep, keys, ok in cases:
        assert type(rep) is dict and list(rep) == keys
        assert json.loads(json.dumps(rep)) == rep
        assert rep[keys[0]] is ok or ok is None
        if "hypersimplex" in rep:
            assert list(rep["hypersimplex"]) == tiling_keys
            assert rep["hypersimplex"]["valid"] is ok
    assert cases[1][0]["tiles"] == [repr(T123.subdivision.trip_permutation())]
    assert cases[4][0]["scalar"] == "30/1"
    assert cases[5][0]["facet_arcs"] == [[1, 2], [1, 3], [2, 3]]


def test_b_point_gives_no_scalar_to_a_twistor_off_it(monkeypatch):
    C, Z = _b_point_at_2_2_5()
    rep = b_point(C, Z)
    assert rep["consistent"] and rep["dim_ok"] and rep["scalar"] == "30/1"
    X = plucker_of_matrix(RatMatrix.from_json(rep["X"])).coords
    first = next(I for I in sorted(X) if X[I])
    table = twistor_table(amp_map(C, Z), Z)
    doubled = next(I for I in reversed(list(table)) if table[I])
    assert doubled != first
    for I, factor in [(doubled, 2), (first, 0)]:
        monkeypatch.setattr(amplituhedron, "twistor_table",
                            lambda Y, Z, I=I, f=factor: {**table, I: f * table[I]})
        assert b_point(C, Z) == dict(rep, consistent=False, scalar=None)


def test_b_point_k0():
    Z = make_positive_Z(4, 2, [0, 1, 2, 3])
    rep = b_point(RatMatrix.zero(0, 4), Z)
    assert rep["dim_ok"] and rep["consistent"]


def test_amp_image_dimension_km():
    # multiaffine bridge parameterization: exact unit finite differences
    from positroid_lab.cells import bridge_decomposition

    for (k, m, n) in [(1, 2, 4), (1, 2, 5), (2, 2, 5)]:
        Z = make_positive_Z(n, k + m, list(range(n)))
        pi = top_cell_permutation(k, n)
        steps = bridge_decomposition(pi)
        nb = sum(1 for s in steps if s[0] == "bridge")
        base = [Fraction(3 + 2 * t, 2) for t in range(nb)]

        def charted(params):
            C = matrix_realization(pi, list(params))
            Y = amp_map(C, Z).Y
            P = plucker_of_matrix(Y)
            from positroid_lab.util import subsets

            return [P.coords[I] for I in subsets(k + m, k)]

        p0 = charted(base)
        i0 = next(i for i, v in enumerate(p0) if v != 0)
        rows = []
        for j in range(nb):
            bumped = list(base)
            bumped[j] += 1
            p1 = charted(bumped)
            dp = [a - b for a, b in zip(p1, p0)]
            rows.append([p0[i0] * dp[t] - p0[t] * dp[i0]
                         for t in range(len(p0)) if t != i0])
        assert rank(RatMatrix.from_rows(rows)) == k * m


def test_simplex_containment_matches_chamber_containment():
    # a staircase simplex sits inside a tile's polytope exactly when every
    # sampled point of the matching sign-flip chamber sits in the dual tile
    from positroid_lab.hypersimplex import tile_catalog

    rng = Random(15)
    for (k, n, rounds) in [(1, 4, 120), (1, 5, 120), (2, 5, 150)]:
        Z = make_positive_Z(n, k + 2, list(range(n)))
        catalog = tile_catalog(k + 1, n)
        simplices = enumerate_D(k + 1, n)
        chamber_points = {s.w: [] for s in simplices}
        for _ in range(rounds):
            Y = sample_interior_point(k, n, Z, rng)
            for s in simplices:
                if w_chamber_membership(Y, Z, s) is True:
                    chamber_points[s.w].append(Y)
                    break
        tested = 0
        for s in simplices:
            for rec in catalog.values():
                inside = simplex_in_positroid(s, rec.matroid)
                for Y in chamber_points[s.w]:
                    got = tile_membership_m2(Y, Z, rec.triangulation)
                    assert (got is not False) == inside, (s.w, rec.perm)
                    tested += 1
        assert tested > 0


def test_chamber_count_k2_n5():
    # realized zero-free sign strata at k=2, n=5 are exactly the Eulerian
    # many, and the stratum determines the sign-flip chamber
    from positroid_lab.hypersimplex import eulerian

    Z = make_positive_Z(5, 4, [0, 1, 2, 3, 4])
    D = enumerate_D(3, 5)
    rng = Random(30)
    strata = {}
    for _ in range(600):
        Y = sample_interior_point(2, 5, Z, rng)
        s = sign_stratum(Y, Z)
        if "0" in s:
            continue
        hits = [w for w in D if w_chamber_membership(Y, Z, w) is True]
        assert len(hits) == 1
        strata.setdefault(s, set()).add(hits[0].w)
    assert len(strata) == eulerian(2, 4) == 11
    assert all(len(v) == 1 for v in strata.values())


def test_m2_membership_implies_chamber_catalog():
    # samples over assorted cells: any accepted interior point with no zero
    # twistors lies in one of the Eulerian-many chambers
    Z = make_positive_Z(5, 3, [0, 1, 2, 3, 4])
    D = enumerate_D(2, 5)
    rng = Random(31)
    pool = list(enumerate_decorated(5, k=1))
    accepted = 0
    for _ in range(300):
        pi = pool[rng.randrange(len(pool))]
        C = sample_cell_matrix(pi, rng)
        Y = amp_map(C, Z)
        t = twistor_table(Y, Z)
        if not m2_interior_test(Y, Z) or any(v == 0 for v in t.values()):
            continue
        accepted += 1
        assert sum(1 for w in D if w_chamber_membership(Y, Z, w) is True) == 1
    assert accepted > 50
