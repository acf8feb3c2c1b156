"""Moment map, staircase simplices, tile catalogs, and tilings."""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from positroid_lab.cells import positroid_of_perm, sample_cell_point
from positroid_lab.exact import RatMatrix
from positroid_lab.grassmann import plucker_of_matrix
from positroid_lab.hypersimplex import (
    binomial,
    count_tilings,
    cover_mask,
    cyclic_left_descents,
    enumerate_D,
    enumerate_tiling_indices,
    enumerate_tilings,
    eulerian,
    moment_map,
    narayana,
    plane_partitions,
    point_satisfies_inequalities,
    polytope_vertices,
    tile_catalog,
    tile_inequalities_hypersimplex,
    verify_tiling,
    w_simplex,
)
from positroid_lab.perms import enumerate_decorated, parse_decorated, top_cell_permutation
from positroid_lab.plabic import boundary_measurement
from positroid_lab.triangulations import BicoloredTriangulation

from lp import point_in_hull
from oracles import (
    fraction_moment_map,
    frozenset_tilings,
    is_basis,
    jacobian_cell_dimension,
    rotation_descent_sets,
    scan_verify_tiling,
    scanned_D,
    simplex_in_positroid,
    uniform_matroid,
)


def test_moment_map_pinned():
    C = RatMatrix.from_rows([[1, 0, -1, -2], [0, 1, 2, 4]])
    mu = moment_map(plucker_of_matrix(C))
    assert mu == (Fraction(21, 26), Fraction(6, 26), Fraction(5, 26), Fraction(20, 26))
    assert sum(mu) == 2


def test_moment_map_vertex_image():
    from positroid_lab.grassmann import PluckerVector

    P = PluckerVector(2, 4, {(1, 3): Fraction(3)})
    assert moment_map(P) == (1, 0, 1, 0)


def test_moment_map_matches_the_fraction_sums():
    # one sampled point of every cell with n <= 6, then seeded top-cell
    # points of Gr(4,8), as ``cell --sample`` draws them
    rng = Random(39)
    points = [sample_cell_point(pi, rng)[1] for n in range(1, 7)
              for pi in enumerate_decorated(n)]
    top = top_cell_permutation(4, 8)
    points += [sample_cell_point(top, Random(seed))[1] for seed in range(10)]
    for P in points:
        mu = moment_map(P)
        assert mu == fraction_moment_map(P), P
        assert all(type(x) is Fraction for x in mu)


def test_polytope_vertices():
    assert len(polytope_vertices(uniform_matroid(2, 4))) == 6
    M = positroid_of_perm(parse_decorated("(3,1,4,2)"))
    verts = polytope_vertices(M)
    assert len(verts) == 5 and (0, 0, 1, 1) not in verts


def test_cyclic_left_descents_pinned():
    assert sorted(cyclic_left_descents((1, 3, 2, 4))) == [1, 3]
    assert sorted(cyclic_left_descents((1, 2, 3, 4))) == [1]
    assert sorted(cyclic_left_descents((3, 2, 4, 1))) == [2, 3]


def test_w_simplex_pinned():
    ws = w_simplex((1, 3, 2, 4))
    assert [sorted(I) for I in ws.I] == [[1, 3], [2, 3], [3, 4], [2, 4]]


def test_w_simplex_matches_the_descents_of_each_rotation():
    for n in range(2, 9):
        for k_plus_1 in range(1, n):
            for ws in enumerate_D(k_plus_1, n):
                assert ws.I == rotation_descent_sets(ws.w)


def test_enumerate_D_24():
    D = enumerate_D(2, 4)
    assert [''.join(map(str, s.w)) for s in D] == ["1324", "2134", "2314", "3124"]
    assert len(D) == eulerian(1, 3) == 4


def test_enumerate_D_matches_the_permutation_scan():
    for n in range(2, 9):
        for k_plus_1 in range(1, n):
            assert enumerate_D(k_plus_1, n) == scanned_D(k_plus_1, n)


def test_enumerate_D_eulerian_counts():
    for n in range(3, 9):
        for k_plus_1 in range(1, n):
            assert len(enumerate_D(k_plus_1, n)) == eulerian(k_plus_1 - 1, n - 1)


def test_simplex_in_positroid_pinned():
    ws = w_simplex((1, 3, 2, 4))
    assert simplex_in_positroid(ws, positroid_of_perm(parse_decorated("(2,4,1,3)")))
    assert not simplex_in_positroid(ws, positroid_of_perm(parse_decorated("(3,1,4,2)")))
    assert simplex_in_positroid(ws, uniform_matroid(2, 4))


def test_simplex_in_positroid_agrees_with_lp():
    for (k1, n) in [(2, 4), (2, 5), (3, 5), (2, 6)]:
        catalog = tile_catalog(k1, n)
        for ws in enumerate_D(k1, n):
            verts = ws.vertices()
            bary = [Fraction(sum(col), n) for col in zip(*verts)]
            for rec in catalog.values():
                inside = simplex_in_positroid(ws, rec.matroid)
                hull = [tuple(1 if i in B else 0 for i in range(1, n + 1))
                        for B in rec.matroid.bases]
                assert inside == point_in_hull(bary, hull), (ws, rec.perm)


def test_tile_catalog_builds_triangulations_only_when_read():
    from positroid_lab.triangulations import class_representative

    catalog = tile_catalog.__wrapped__(3, 7)  # fresh records, not the cached ones
    assert not any("triangulation" in vars(rec) for rec in catalog.values())
    rec = next(iter(catalog.values()))
    assert rec.triangulation is rec.triangulation
    assert rec.triangulation == class_representative(rec.subdivision)


def test_verify_tiling_pinned_24():
    good = verify_tiling([parse_decorated("(3,1,4,2)"), parse_decorated("(2,4,1,3)")], 2, 4)
    assert good["valid"]
    good2 = verify_tiling([parse_decorated("(4,3,1,2)"), parse_decorated("(3,4,2,1)")], 2, 4)
    assert good2["valid"]
    bad = verify_tiling([parse_decorated("(3,1,4,2)")], 2, 4)
    assert not bad["valid"] and any("uncovered" in v for v in bad["violations"])
    mixed = verify_tiling([parse_decorated("(3,1,4,2)"), parse_decorated("(3,4,2,1)")], 2, 4)
    assert not mixed["valid"]


def test_verify_tiling_reports_a_tile_on_another_ground_set():
    rep = verify_tiling([parse_decorated("(3,1,4,2)"), parse_decorated("(2,3,4,5,1)")], 2, 4)
    assert not rep["valid"]
    assert "tile (2,3,4,5,1) has wrong type (1,5)" in rep["violations"]
    assert "simplex of w=1324 uncovered" in rep["violations"]


def test_verify_tiling_rejects_non_tile():
    top = parse_decorated("(3,4,1,2)")  # top cell, not a moment-map tile
    rep = verify_tiling([top], 2, 4)
    assert not rep["valid"]
    assert any("not a moment-map tile" in v for v in rep["violations"])


def test_enumerate_tilings_24_pinned():
    tilings = enumerate_tilings(2, 4)
    got = {frozenset(repr(p) for p in t.perms()) for t in tilings}
    assert got == {
        frozenset({"(3,1,4,2)", "(2,4,1,3)"}),
        frozenset({"(4,3,1,2)", "(3,4,2,1)"}),
    }


def test_tiling_cardinalities():
    for (k1, n) in [(2, 4), (2, 5), (3, 5), (2, 6), (3, 6)]:
        tilings = enumerate_tilings(k1, n)
        assert tilings
        for t in tilings:
            assert len(t.tiles) == binomial(n - 2, k1 - 1)
            rep = verify_tiling(list(t.perms()), k1, n)
            assert rep["valid"]


@pytest.mark.parametrize("k1, n", [(k1, n) for n in range(4, 8) for k1 in range(1, n)])
def test_enumerate_tilings_matches_the_frozenset_search(k1, n):
    assert [t.perms() for t in enumerate_tilings(k1, n)] == frozenset_tilings(k1, n)


@pytest.mark.parametrize("k1, n", [(2, 5), (3, 6)])
def test_verify_tiling_matches_the_per_simplex_scan(k1, n):
    wrong_rank = next(iter(tile_catalog(k1 + 1, n).values()))
    for t in enumerate_tilings(k1, n):
        recs = list(t.tiles)
        for tiles in (recs, recs[1:], recs + recs[-1:], recs + [wrong_rank]):
            for form in ([r.perm for r in tiles], [r.triangulation for r in tiles],
                         [r.perm for r in tiles] + [top_cell_permutation(k1, n)]):
                assert verify_tiling(form, k1, n) == scan_verify_tiling(form, k1, n)


def test_verify_tiling_resolves_only_tiles_outside_the_catalog(monkeypatch):
    from positroid_lab import hypersimplex

    tiling = enumerate_tilings(3, 6)[0]  # builds the catalog and its masks
    calls = []
    for name in ("positroid_of_perm", "cover_mask"):
        def counting(*args, _f=getattr(hypersimplex, name)):
            calls.append(_f)
            return _f(*args)
        monkeypatch.setattr(hypersimplex, name, counting)
    assert verify_tiling(list(tiling.perms()), 3, 6)["valid"]
    assert calls == []
    top = top_cell_permutation(3, 6)
    assert repr(top) == "(4,5,6,1,2,3)"
    rep = verify_tiling(list(tiling.perms()) + [top], 3, 6)
    assert "tile (4,5,6,1,2,3) is not a moment-map tile" in rep["violations"]
    assert len(calls) >= 1


def test_cover_mask_bits_are_the_simplices_in_the_tile():
    checked = 0
    for n in range(3, 8):
        for k1 in range(1, n):
            D = enumerate_D(k1, n)
            for rec in tile_catalog(k1, n).values():
                mask = cover_mask(rec.matroid)
                assert rec.mask == mask
                assert [i for i in range(len(D)) if mask >> i & 1] == \
                    [i for i, ws in enumerate(D) if simplex_in_positroid(ws, rec.matroid)]
                assert mask >> len(D) == 0
                checked += 1
    assert checked == 514


@pytest.mark.parametrize("k1, n, count", [(2, n, binomial(2 * (n - 2), n - 2) // (n - 1))
                                           for n in range(4, 10)] + [(3, 6, 120)])
def test_tiling_counts_with_no_repeated_tile_set(k1, n, count):
    tilings = enumerate_tilings(k1, n)
    assert len(tilings) == count  # Catalan(n - 2) for k + 1 = 2
    assert len({frozenset(t.perms()) for t in tilings}) == count


@pytest.mark.parametrize("k1, n", [(k1, n) for n in range(3, 8) for k1 in range(1, n)]
                         + [(2, 8), (2, 9)])
def test_count_tilings_equals_the_enumeration(k1, n):
    assert count_tilings(k1, n) == len(enumerate_tilings(k1, n)) \
        == len(enumerate_tiling_indices(k1, n))


def test_count_tilings_checks_the_staircase_size_before_building_it(monkeypatch):
    from positroid_lab import hypersimplex

    def unbuilt(k_plus_1, n):
        raise AssertionError(f"the staircase of ({k_plus_1},{n}) was built")

    count_tilings.cache_clear()
    monkeypatch.setattr(hypersimplex, "COUNT_STAIRCASE_SIMPLICES", 65)
    with monkeypatch.context() as m:
        m.setattr(hypersimplex, "_tiles_by_least", unbuilt)
        with pytest.raises(ValueError, match=r"of \(3,6\) needs more than 65 staircase "
                                             "simplices"):
            count_tilings(3, 6)  # 66 simplices
    assert count_tilings(2, 6) == count_tilings(4, 6) == 14  # 26 simplices each
    monkeypatch.setattr(hypersimplex, "COUNT_STAIRCASE_SIMPLICES", 66)
    assert count_tilings(3, 6) == 120


def test_count_tilings_is_catalan_for_rank_two_by_counting_alone():
    # past n = 9 nothing is enumerated
    for n in range(10, 13):
        assert count_tilings(2, n) == binomial(2 * (n - 2), n - 2) // (n - 1)


def test_coverage_counts_sum_to_eulerian():
    for (k1, n) in [(2, 4), (2, 5), (3, 5)]:
        for t in enumerate_tilings(k1, n):
            total = 0
            for rec in t.tiles:
                total += sum(1 for ws in enumerate_D(k1, n)
                             if simplex_in_positroid(ws, rec.matroid))
            assert total == eulerian(k1 - 1, n - 1)


def test_tile_catalog_dimensions():
    # every tile in the catalog comes from a dual tree with moment image of
    # full dimension n-1
    from positroid_lab.plabic import dual_graph_of_triangulation

    for (k1, n) in [(2, 4), (2, 5), (3, 5)]:
        for rec in tile_catalog(k1, n).values():
            G = dual_graph_of_triangulation(rec.triangulation)
            assert jacobian_cell_dimension(G, trials=2, seed=0) == n - 1


def test_tile_inequalities_characterize_bases():
    # the arc inequalities of a tile's triangulation are a second oracle for
    # the bases read off its label, on every tile with n <= 7
    tiles = 0
    for n in range(3, 8):
        for k1 in range(1, n):
            for rec in tile_catalog(k1, n).values():
                ineqs = tile_inequalities_hypersimplex(rec.triangulation)
                for B in combinations(range(1, n + 1), k1):
                    point = tuple(1 if i in B else 0 for i in range(1, n + 1))
                    assert point_satisfies_inequalities(point, ineqs) == \
                        is_basis(rec.matroid, B), rec.perm
                tiles += 1
    assert tiles == 514


def test_tile_inequalities_all_white():
    T = BicoloredTriangulation.make(5, white=[(1, 2, 3), (1, 3, 4), (1, 4, 5)])
    for (_, lo, hi) in tile_inequalities_hypersimplex(T):
        assert (lo, hi) == (0, 1)


def test_w_simplex_vertices_satisfy_containing_tile_inequalities():
    for rec in tile_catalog(2, 5).values():
        ineqs = tile_inequalities_hypersimplex(rec.triangulation)
        for ws in enumerate_D(2, 5):
            if simplex_in_positroid(ws, rec.matroid):
                for v in ws.vertices():
                    assert point_satisfies_inequalities(v, ineqs)


def test_moment_map_of_samples_lands_in_tile():
    rng = Random(4)
    for rec in list(tile_catalog(2, 5).values())[:5]:
        ineqs = tile_inequalities_hypersimplex(rec.triangulation)
        from positroid_lab.plabic import dual_graph_of_triangulation

        G = dual_graph_of_triangulation(rec.triangulation)
        for _ in range(20):
            w = {e: Fraction(rng.randint(1, 1000)) for e in range(len(G.edges))}
            mu = moment_map(boundary_measurement(G, w))
            assert point_satisfies_inequalities(mu, ineqs)


def test_counting_formulas():
    assert eulerian(1, 3) == 4
    assert eulerian(0, 5) == 1
    assert plane_partitions(1, 2, 1) == 3
    assert plane_partitions(0, 7, 9) == 1
    for a in range(0, 5):
        for b in range(0, 5):
            assert plane_partitions(a, b, 1) == binomial(a + b, a)
    assert narayana(3, 2) == 3
    assert [narayana(0, b) for b in range(4)] == [1, 1, 0, 0]
    assert binomial(3, 4) == binomial(3, -1) == 0
    # rank-k staircase counts agree with the classical Eulerian triangle
    assert [eulerian(k, 4) for k in range(4)] == [1, 11, 11, 1]


def test_stanley_simplices_tile_small():
    # staircase simplices are unimodular-size pieces: count equals volume,
    # each is a genuine simplex, and sampled points land in exactly one
    from positroid_lab.trop import _aff_rank_sets

    rng = Random(11)
    for (k1, n) in [(2, 4), (2, 5), (3, 6), (2, 7), (4, 7)]:
        simplices = enumerate_D(k1, n)
        assert len(simplices) == eulerian(k1 - 1, n - 1)
        for ws in simplices:
            assert _aff_rank_sets(n, [tuple(sorted(I)) for I in ws.I]) == n - 1
            bary = [Fraction(sum(col), n) for col in zip(*ws.vertices())]
            assert sum(bary) == k1
            assert all(0 <= x <= 1 for x in bary)
        for _ in range(3):
            weights = [Fraction(rng.randint(1, 997)) for _ in range(n)]
            total = sum(weights)
            probe_ws = simplices[rng.randrange(len(simplices))]
            point = [Fraction(sum(w * v[i] for w, v in zip(weights, probe_ws.vertices())), total)
                     for i in range(n)]
            hits = [s for s in simplices
                    if point_in_hull(point, [list(v) for v in s.vertices()])]
            assert probe_ws in hits and len(hits) == 1


def test_tile_catalog_is_exactly_full_dim_loopless_cells():
    # resolves the catalog question: the dual-tree tiles coincide with the
    # loopless rank-(k+1) cells of cell dimension n-1 whose polytope is
    # full dimensional, checked exhaustively at desk scale
    from positroid_lab.cells import cell_dim_of_perm, positroid_of_perm
    from positroid_lab.perms import enumerate_decorated
    from positroid_lab.trop import _aff_rank_sets

    for (k1, n) in [(2, 4), (2, 5), (3, 5)]:
        catalog = {frozenset(rec.matroid.bases)
                   for rec in tile_catalog(k1, n).values()}
        candidates = set()
        for pi in enumerate_decorated(n, k=k1):
            if cell_dim_of_perm(pi) != n - 1:
                continue
            M = positroid_of_perm(pi)
            verts = [tuple(sorted(B)) for B in M.bases]
            if _aff_rank_sets(n, verts) == n - 1:
                candidates.add(frozenset(M.bases))
        assert catalog == candidates


def test_verify_tiling_accepts_triangulation_and_matroid_inputs():
    T1 = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
    T2 = BicoloredTriangulation.make(4, black=[(1, 3, 4)], white=[(1, 2, 3)])
    assert verify_tiling([T1, T2], 2, 4)["valid"]
    assert not verify_tiling([T1, T1], 2, 4)["valid"]


def test_verify_tiling_refuses_a_matroid_tile():
    pi = parse_decorated("(3,1,4,2)")
    # before the repeat check, which hashes the tiles
    for tiles in ([positroid_of_perm(pi)], [pi, [3, 1, 4, 2], [3, 1, 4, 2]],
                  [pi, pi, "(2,4,1,3)"]):
        with pytest.raises(TypeError, match="cannot interpret tile"):
            verify_tiling(tiles, 2, 4)


def test_moment_map_thousand_samples_inside_tiles():
    rng = Random(23)
    from positroid_lab.plabic import dual_graph_of_triangulation

    recs = list(tile_catalog(2, 5).values())[:5]
    per = 200  # five tiles, a thousand exact points in total
    for rec in recs:
        ineqs = tile_inequalities_hypersimplex(rec.triangulation)
        G = dual_graph_of_triangulation(rec.triangulation)
        for _ in range(per):
            w = {e: Fraction(rng.randint(1, 1000)) for e in range(len(G.edges))}
            mu = moment_map(boundary_measurement(G, w))
            assert point_satisfies_inequalities(mu, ineqs)


def test_narayana_agrees_with_cyclic_polytope_row_for_k1():
    # for one black label the four-extra-dimension count collapses to the
    # cyclic polytope count
    for n in range(5, 10):
        assert narayana(n - 3, 2) == binomial(n - 3, 2)


def test_tile_matroids_match_dual_tree_matchings_up_to_n7():
    from positroid_lab.plabic import dual_graph_of_triangulation, positroid_of_graph

    count = 0
    for n in range(3, 8):
        for k_plus_1 in range(1, n):
            for rec in tile_catalog(k_plus_1, n).values():
                G = dual_graph_of_triangulation(rec.triangulation)
                assert rec.matroid == positroid_of_graph(G), rec.perm
                count += 1
    assert count == 514


@pytest.mark.parametrize("w", [(1, 3, 2), (1, 1, 3), (2, 3, 4)])
def test_w_simplex_refuses_a_word_that_is_no_permutation_ending_in_n(w):
    with pytest.raises(ValueError, match=r"^w must be a permutation ending in n$"):
        w_simplex(w)
