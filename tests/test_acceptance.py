"""Acceptance criteria, one test per numbered item.

Each test prints a PASS line once its criterion holds at the stated
tolerance (all tolerances are exact equalities; nothing is floating
point).  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from fractions import Fraction
from itertools import combinations, product
from random import Random

from positroid_lab.amplituhedron import (
    amp_map,
    b_point,
    m1_membership,
    make_positive_Z,
    sign_stratum,
    twistor,
    twistor_table,
    verify_amp_tiling_m2,
    w_chamber_membership,
)
from positroid_lab.cells import sample_cell_matrix
from positroid_lab.cluster import build_seed, cluster_adjacency_check, mutate
from positroid_lab.exact import RatMatrix, var, varbar
from positroid_lab.grassmann import (
    decorated_permutation_of,
    is_tnn,
    is_tp,
    matroid_of,
    plucker_of_matrix,
)
from positroid_lab.hypersimplex import (
    binomial,
    enumerate_D,
    enumerate_tilings,
    eulerian,
    plane_partitions,
    tile_catalog,
    w_simplex,
)
from positroid_lab.perms import enumerate_decorated, parse_decorated, t_dual, top_cell_permutation
from positroid_lab.plabic import (
    apply_move,
    bipartize,
    boundary_measurement,
    dual_graph_of_triangulation,
    enumerate_move_sites,
    matchings,
    positroid_of_graph,
    t_dual_graph,
    trip_permutation,
)
from positroid_lab.triangulations import BicoloredTriangulation, enumerate_subdivisions, flip, flippable_arcs
from positroid_lab.trop import (
    HeightVector,
    faces_are_positroids,
    is_finest,
    random_positive_tropical,
    regular_subdivision,
)

import graphs
from lp import point_in_hull
from oracles import (
    enumerate_bicolored,
    jacobian_cell_dimension,
    sample_interior_point,
    sample_tile_point,
    sampled_adjacency,
    twistor_via_expansion,
    varbar_bruteforce,
)


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_pinned_pipeline():
    start = time.perf_counter()
    C = RatMatrix.from_rows([[1, 0, -1, -2], [0, 1, 2, 4]])
    P = plucker_of_matrix(C)
    assert [P.coord(I) for I in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]] \
        == [1, 2, 4, 1, 2, 0]
    assert matroid_of(P).sorted_bases() == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    assert is_tnn(P) and not is_tp(P)
    assert decorated_permutation_of(C) == parse_decorated("(3,1,4,2)")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"pinned pipeline exact in {elapsed:.3f}s")


def test_criterion_02_sign_variation():
    assert var([2, 0, 2, -1]) == 1
    assert varbar([2, 0, 2, -1]) == 3
    checked = 0
    for length in range(1, 9):
        for v in product((-1, 0, 1), repeat=length):
            if any(x != 0 for x in v):
                assert varbar(v) == varbar_bruteforce(v)
                checked += 1
    report(2, f"var/varbar pinned; completion formula equals oracle on "
              f"{checked} ternary vectors")


def test_criterion_03_plabic_fixtures_and_move_invariance():
    assert trip_permutation(graphs.fig_plabic_graph()) == \
        parse_decorated("(8,5,9,2,3,6_,4,1,7)")
    H, _ = bipartize(graphs.g1())
    ms = matchings(H)
    assert len(ms) == 5
    assert sorted(tuple(sorted(m.boundary)) for m in ms) == \
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    rng = Random(7)
    G = graphs.fig_plabic_graph()
    pi = trip_permutation(G)
    cap = len(G.internal_vertices()) + 6
    for _ in range(200):
        sites = [s for s in enumerate_move_sites(G)
                 if not (s[0] in ("M2_split", "M3_add")
                         and len(G.internal_vertices()) >= cap)]
        move, site = sites[rng.randrange(len(sites))]
        G = apply_move(G, move, site)
        assert trip_permutation(G) == pi
    report(3, "fixture trips pinned; trip permutation invariant under 200 "
              "random applicable moves")


def test_criterion_04_measurement_and_dimensions():
    rng = Random(0)
    for G in (graphs.g1(), graphs.nine_gon_fan(), graphs.fig_plabic_graph()):
        M = positroid_of_graph(G)
        for _ in range(100):
            w = {e: Fraction(rng.randint(1, 1000)) for e in range(len(G.edges))}
            P = boundary_measurement(G, w)
            assert is_tnn(P)
            assert matroid_of(P).bases == M.bases
    counted = 0
    for n in range(3, 7):
        for k in range(1, n - 1):
            for S in enumerate_subdivisions(n, k):
                from positroid_lab.triangulations import class_representative

                G = t_dual_graph(dual_graph_of_triangulation(class_representative(S)))
                assert jacobian_cell_dimension(G, trials=2, seed=1) == 2 * k
                counted += 1
    report(4, f"measurement TNN with stable matroid (300 draws); image "
              f"dimension 2k on {counted} tile cells up to n=6")


def test_criterion_05_hypersimplex_tilings():
    tilings = enumerate_tilings(2, 4)
    got = {frozenset(repr(p) for p in t.perms()) for t in tilings}
    assert got == {
        frozenset({"(3,1,4,2)", "(2,4,1,3)"}),
        frozenset({"(4,3,1,2)", "(3,4,2,1)"}),
    }
    for (k1, n) in [(2, 4), (2, 5), (3, 5), (2, 6)]:
        for t in enumerate_tilings(k1, n):
            assert len(t.tiles) == binomial(n - 2, k1 - 1)
    for n in range(3, 9):
        for k1 in range(1, n):
            assert len(enumerate_D(k1, n)) == eulerian(k1 - 1, n - 1)
    report(5, "two pinned tilings of the rank-2 hypersimplex on [4]; tile "
              "counts binomial(n-2, k); staircase counts Eulerian up to n=8")


def test_criterion_06_w_simplices_and_staircase():
    ws = w_simplex((1, 3, 2, 4))
    assert [sorted(I) for I in ws.I] == [[1, 3], [2, 3], [3, 4], [2, 4]]
    rng = Random(11)
    from positroid_lab.trop import _aff_rank_sets

    for n in range(3, 8):
        for k1 in range(1, n):
            simplices = enumerate_D(k1, n)
            assert len(simplices) == eulerian(k1 - 1, n - 1)
            for s in simplices:
                assert _aff_rank_sets(n, [tuple(sorted(I)) for I in s.I]) == n - 1
                bary = [Fraction(sum(col), n) for col in zip(*s.vertices())]
                assert sum(bary) == k1 and all(0 <= x <= 1 for x in bary)
            probe = simplices[rng.randrange(len(simplices))]
            weights = [Fraction(rng.randint(1, 997)) for _ in range(n)]
            total = sum(weights)
            point = [Fraction(sum(w * v[i] for w, v in zip(weights, probe.vertices())), total)
                     for i in range(n)]
            hits = [s for s in simplices
                    if point_in_hull(point, [list(v) for v in s.vertices()])]
            assert hits == [probe] or (probe in hits and len(hits) == 1)
    report(6, "staircase simplices are unimodular-count simplices inside the "
              "hypersimplex; sampled interior points land in exactly one (n<=7)")


def test_criterion_07_positive_tropical():
    P = HeightVector.make(2, 4, {(1, 2): 1})
    D = regular_subdivision(P)
    assert {frozenset(c.vertices) for c in D.cells} == {
        frozenset({(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}),
        frozenset({(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}),
    }
    rng = Random(2)
    finest_seen = 0
    for _ in range(50):
        Q = random_positive_tropical(2, 5, rng)
        DQ = regular_subdivision(Q)
        assert faces_are_positroids(DQ)
        assert is_finest(DQ) == (len(DQ.cells) == binomial(3, 1))
        finest_seen += is_finest(DQ)
    assert finest_seen > 0
    report(7, f"pinned two-pyramid subdivision; 50 random positive instances "
              f"at (2,5) all positroidal ({finest_seen} finest)")


def test_criterion_08_t_duality():
    pairs = {
        "(3,1,4,2)": "(2,3,1,4_)",
        "(2,4,1,3)": "(3,2_,4,1)",
        "(4,3,1,2)": "(2,4,3_,1)",
        "(3,4,2,1)": "(1_,3,4,2)",
    }
    for src, dst in pairs.items():
        assert t_dual(parse_decorated(src)) == parse_decorated(dst)
    G9 = graphs.nine_gon_fan()
    assert trip_permutation(t_dual_graph(G9)) == t_dual(trip_permutation(G9))
    assert trip_permutation(t_dual_graph(G9)) == \
        trip_permutation(graphs.fig_plabic_graph())
    checked = 0
    for n in (3, 4, 5, 6):
        for k in range(0, n - 1):
            for S in enumerate_subdivisions(n, k):
                from positroid_lab.triangulations import class_representative

                G = dual_graph_of_triangulation(class_representative(S))
                assert trip_permutation(t_dual_graph(G)) == t_dual(trip_permutation(G))
                checked += 1
    report(8, f"pinned rotation images; graph duality matches the rotation "
              f"on {checked} black-trivalent duals plus the drawn pair")


def test_criterion_09_amplituhedron_m2():
    Z = make_positive_Z(4, 3, [0, 1, 2, 3])
    T123 = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
    T134 = BicoloredTriangulation.make(4, black=[(1, 3, 4)], white=[(1, 2, 3)])
    T124 = BicoloredTriangulation.make(4, black=[(1, 2, 4)], white=[(2, 3, 4)])
    T234 = BicoloredTriangulation.make(4, black=[(2, 3, 4)], white=[(1, 2, 4)])
    assert verify_amp_tiling_m2([T123, T134], Z)["valid"]
    assert verify_amp_tiling_m2([T124, T234], Z)["valid"]
    for single in (T123, T134, T124, T234):
        assert not verify_amp_tiling_m2([single], Z)["sample_audit_ok"]
    for crossed in ([T123, T234], [T124, T134]):
        assert not verify_amp_tiling_m2(crossed, Z)["sample_audit_ok"]
    rng = Random(42)
    D = enumerate_D(2, 4)
    chambers = set()
    for _ in range(1000):
        Y = sample_interior_point(1, 4, Z, rng)
        s = sign_stratum(Y, Z)
        if "0" in s:
            continue
        chambers.add(s)
        hits = [w for w in D if w_chamber_membership(Y, Z, w) is True]
        assert len(hits) == 1
    assert len(chambers) == eulerian(1, 3) == 4
    ws = w_simplex((1, 3, 2, 4))
    seen = False
    for _ in range(300):
        Y = sample_interior_point(1, 4, Z, rng)
        t = twistor_table(Y, Z)
        if any(v == 0 for v in t.values()):
            continue
        pinned = (t[(1, 4)] < 0 and t[(2, 4)] < 0
                  and all(t[I] > 0 for I in [(1, 2), (1, 3), (2, 3), (3, 4)]))
        assert (w_chamber_membership(Y, Z, ws) is True) == pinned
        seen = seen or pinned
    assert seen
    report(9, "both pinned tilings accepted, singletons and mismatches "
              "rejected; 1000 samples realize exactly 4 chambers; pinned "
              "chamber signs reproduced")


def test_criterion_10_identities():
    rng = Random(8)
    for (k, m, n, reps) in [(1, 2, 4, 250), (2, 2, 5, 250)]:
        Z = make_positive_Z(n, k + m, list(range(n)))
        for _ in range(reps):
            C = sample_cell_matrix(top_cell_permutation(k, n), rng)
            t = twistor_table(amp_map(C, Z), Z)
            for a, b, c, d in combinations(range(1, n + 1), 4):
                assert t[(a, c)] * t[(b, d)] == \
                    t[(a, b)] * t[(c, d)] + t[(a, d)] * t[(b, c)]
    for (k, m, n, reps) in [(1, 2, 4, 50), (2, 1, 4, 50)]:
        Z = make_positive_Z(n, k + m, list(range(n)))
        pool = list(enumerate_decorated(n, k=k))
        for _ in range(reps):
            pi = pool[rng.randrange(len(pool))]
            C = sample_cell_matrix(pi, rng)
            P = plucker_of_matrix(C)
            Y = amp_map(C, Z)
            for I in combinations(range(1, n + 1), m):
                assert twistor(Y, Z, I) == twistor_via_expansion(P, Z, I)
    done = 0
    for (k, m) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        n = k + m + 2
        Z = make_positive_Z(n, k + m, list(range(n)))
        pool = list(enumerate_decorated(n, k=k))
        for _ in range(13):
            pi = pool[rng.randrange(len(pool))]
            rep = b_point(sample_cell_matrix(pi, Random(rng.randrange(10 ** 6))), Z)
            assert rep["dim_ok"] and rep["consistent"]
            done += 1
    assert done >= 50
    report(10, "twistor three-term identity on 500 samples; expansion path "
               "agrees on 100; orthogonal-intersection identity on 52")


def test_criterion_11_counts_table():
    # one extra dimension, (k, n) = (1, 4): the images of the consecutive
    # supports tile the interval; sampled points land in exactly one
    n, k = 4, 1
    Z = make_positive_Z(n, k + 1, [0, 1, 2, 3])
    tiles = list(range(1, n))  # tile i spans rows i, i+1
    rng = Random(6)
    for _ in range(200):
        Y = sample_interior_point(k, n, Z, rng)
        seq = [twistor(Y, Z, (i,)) for i in range(1, n + 1)]
        assert m1_membership(Y, Z)
        if any(v == 0 for v in seq):
            continue
        flips = [i for i in range(1, n) if (seq[i - 1] > 0) != (seq[i] > 0)]
        assert len(flips) == 1
        assert flips[0] in tiles
    assert len(tiles) == binomial(n - 1, k)
    for t in enumerate_tilings(2, 4):
        assert len(t.tiles) == binomial(4 - 2, 1)
    for k_ in range(0, 6):
        for n_ in range(k_ + 2, 11):
            assert plane_partitions(k_, n_ - k_ - 2, 1) == binomial(n_ - 2, k_)
    report(11, "one-extra-dimension tiling has binomial(n-1,k) tiles; box "
               "count specializes to binomial(n-2,k) for k<=5, n<=10")


def test_criterion_12_cluster():
    rng = Random(9)
    arcs_checked = 0
    for n in (4, 5):
        for k in range(1, n - 1):
            Z = make_positive_Z(n, k + 2, list(range(n)))
            for T in enumerate_bicolored(n, k):
                S = build_seed(T)
                for arc in flippable_arcs(T):
                    t1, t2 = (t for t in T.black if set(arc) <= set(t))
                    new_arc = tuple(sorted((set(t1) | set(t2)) - set(arc)))
                    Sf = build_seed(flip(T, arc))
                    Sm = mutate(S, arc, new_key=new_arc)
                    assert Sm.arrow_multiset() == Sf.arrow_multiset()
                    for _ in range(20):
                        Y = sample_interior_point(k, n, Z, rng)
                        assert Sf.evaluate(Y, Z) == Sm.evaluate(Y, Z)
                    arcs_checked += 1
    assert arcs_checked >= 20
    Z5 = make_positive_Z(5, 3, [0, 1, 2, 3, 4])
    tiling = enumerate_tilings(2, 5)[0]
    for rec in tiling.tiles:
        S = build_seed(rec.triangulation)
        for _ in range(100):
            Y = sample_tile_point(rec.triangulation, Z5, rng)
            vals = S.evaluate(Y, Z5)
            assert all(v != "boundary" and v > 0 for v in vals.values())
        # samples from the other tiles of the same tiling must break
        # positivity, since open tiles of one tiling are disjoint
        for other in tiling.tiles:
            if other.perm == rec.perm:
                continue
            for _ in range(10):
                Y = sample_tile_point(other.triangulation, Z5, rng)
                vals = S.evaluate(Y, Z5)
                assert any(v == "boundary" or v <= 0 for v in vals.values())
    tiles_checked = 0
    for k1, n in [(2, 4), (2, 5), (2, 6), (3, 5), (3, 6)]:
        Z = make_positive_Z(n, k1 + 1, list(range(n)))
        for rec in tile_catalog(k1, n).values():
            sampled, noncrossing, signs_fixed = sampled_adjacency(
                rec.triangulation, Z, samples=25, seed=4)
            assert noncrossing and signs_fixed
            assert cluster_adjacency_check(rec.triangulation) == sampled
            tiles_checked += 1
    report(12, f"flip equals mutation at 20 samples per internal arc (n<=5); "
               f"cluster positivity separates tiles; facets and compatible "
               f"signs by theorem match samples on {tiles_checked} tiles up to n=6")
