"""Seeds from triangulations: variables, mutation, positivity, adjacency."""

from itertools import combinations
from random import Random

import pytest

from positroid_lab.amplituhedron import make_positive_Z, twistor
from positroid_lab.cluster import (
    Seed,
    black_polygons,
    build_seed,
    cluster_adjacency_check,
    default_distinguished,
    mutate,
)
from positroid_lab.triangulations import (
    BicoloredTriangulation,
    flip,
    flippable_arcs,
)
from positroid_lab.util import FrozenRecordError

from oracles import (bookkeeping_mutate, enumerate_bicolored, noncrossing, sample_interior_point,
                     sample_tile_point, sampled_adjacency)


def flipped_arc(T, arc):
    t1, t2 = (t for t in T.black if set(arc) <= set(t))
    return tuple(sorted((set(t1) | set(t2)) - set(arc)))


def test_cluster_size_is_2k():
    for n in (4, 5, 6):
        for k in range(0, n - 1):
            for T in enumerate_bicolored(n, k)[:12]:
                assert build_seed(T).cluster_size() == 2 * k


def test_empty_seed_for_k0():
    T = BicoloredTriangulation.make(4, white=[(1, 2, 3), (1, 3, 4)])
    S = build_seed(T)
    assert S.cluster_size() == 0


def test_single_black_triangle_seed():
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
    S = build_seed(T)
    assert S.cluster_size() == 2
    assert set(S.keys) == {(1, 3), (2, 3)}
    assert S.frozen == frozenset({(1, 3), (2, 3)})


def test_distinguished_variable_is_one():
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
    dist = default_distinguished(T)[(1, 2, 3)]
    from positroid_lab.cluster import ArcVariable
    from positroid_lab.triangulations import area

    Z = make_positive_Z(4, 3, [0, 1, 2, 3])
    rng = Random(0)
    Y = sample_tile_point(T, Z, rng)
    var = ArcVariable(dist, area(T, *dist), dist, area(T, *dist))
    assert var.value(Y.signs[Z].pair) == 1


def test_build_seed_reads_areas_off_the_triangulation(monkeypatch):
    import sys

    from positroid_lab.triangulations import area

    T = BicoloredTriangulation.make(
        9,
        black=[(7, 8, 9), (1, 7, 9), (2, 3, 7), (3, 4, 7), (4, 5, 7)],
        white=[(1, 2, 7), (5, 6, 7)])
    assert all(a == area(T, *arc) for arc, a in T.arc_areas)  # fills the cache
    calls = []

    def counting_area(*args):
        calls.append(args)
        return area(*args)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("positroid_lab") and getattr(mod, "area", None) is area:
            monkeypatch.setattr(mod, "area", counting_area)
    seeds = [build_seed(T), build_seed(T, {(1, 7, 8, 9): (1, 7), (2, 3, 4, 5, 7): (5, 7)})]
    assert calls == []
    for S in seeds:
        for v in S.variables.values():
            assert (v.arc_area, v.dist_area) == (area(T, *v.arc), area(T, *v.dist_arc))


def test_fig_seed_structure_type_5_9():
    T = BicoloredTriangulation.make(
        9,
        black=[(7, 8, 9), (1, 7, 9), (2, 3, 7), (3, 4, 7), (4, 5, 7)],
        white=[(1, 2, 7), (5, 6, 7)])
    dist = {(1, 7, 8, 9): (1, 7), (2, 3, 4, 5, 7): (5, 7)}
    S = build_seed(T, dist)
    assert S.cluster_size() == 10
    assert sorted(black_polygons(T)) == [(1, 7, 8, 9), (2, 3, 4, 5, 7)]
    mutable = set(S.mutable_keys())
    assert mutable == {(7, 9), (3, 7), (4, 7)}
    # pinned arrows around the quadrilateral and the fan
    assert S.arrows.get(((8, 9), (7, 9))) == 1
    assert S.arrows.get(((7, 9), (7, 8))) == 1
    assert S.arrows.get(((7, 9), (1, 9))) == 1
    assert S.arrows.get(((2, 3), (3, 7))) == 1
    assert S.arrows.get(((3, 7), (2, 7))) == 1
    assert S.arrows.get(((3, 7), (3, 4))) == 1
    assert S.arrows.get(((3, 4), (4, 7))) == 1
    assert S.arrows.get(((4, 7), (3, 7))) == 1
    assert S.arrows.get(((4, 7), (4, 5))) == 1


def test_variables_positive_on_tile_negative_off():
    rng = Random(6)
    Z = make_positive_Z(4, 4, [0, 1, 2, 3])
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3), (1, 3, 4)], white=[])
    S = build_seed(T)
    for _ in range(25):
        Y = sample_tile_point(T, Z, rng)
        vals = S.evaluate(Y, Z)
        assert all(v != "boundary" and v > 0 for v in vals.values())


def test_foreign_tile_sample_breaks_positivity():
    rng = Random(3)
    Z = make_positive_Z(5, 3, [0, 1, 2, 3, 4])
    T = BicoloredTriangulation.make(5, black=[(1, 2, 3)], white=[(1, 3, 4), (1, 4, 5)])
    other = BicoloredTriangulation.make(5, black=[(3, 4, 5)], white=[(1, 2, 3), (1, 3, 5)])
    S = build_seed(T)
    bad = 0
    for _ in range(25):
        Y = sample_tile_point(other, Z, rng)
        vals = S.evaluate(Y, Z)
        if any(v == "boundary" or v <= 0 for v in vals.values()):
            bad += 1
    assert bad == 25


def test_flip_equals_mutation_small():
    rng = Random(9)
    checked = 0
    for n in (4, 5):
        for k in range(1, n - 1):
            Z = make_positive_Z(n, k + 2, list(range(n)))
            for T in enumerate_bicolored(n, k):
                S = build_seed(T)
                for arc in flippable_arcs(T):
                    Tf = flip(T, arc)
                    Sf = build_seed(Tf)
                    Sm = mutate(S, arc, new_key=flipped_arc(T, arc))
                    assert Sm.arrow_multiset() == Sf.arrow_multiset(), (T, arc)
                    for _ in range(5):
                        Y = sample_interior_point(k, n, Z, rng)
                        assert Sf.evaluate(Y, Z) == Sm.evaluate(Y, Z)
                    checked += 1
    assert checked >= 20


def test_mutation_involution():
    Z = make_positive_Z(4, 4, [0, 1, 2, 3])
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3), (1, 3, 4)], white=[])
    S = build_seed(T)
    S2 = mutate(mutate(S, (1, 3), new_key=(2, 4)), (2, 4), new_key=(1, 3))
    assert S2.arrow_multiset() == S.arrow_multiset()
    rng = Random(1)
    for _ in range(10):
        Y = sample_interior_point(2, 4, Z, rng)
        assert S2.evaluate(Y, Z) == S.evaluate(Y, Z)


def test_mutation_rejects_frozen():
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
    S = build_seed(T)
    with pytest.raises(ValueError):
        mutate(S, (2, 3))


def test_mutation_refuses_a_relabel_onto_another_vertex():
    T = BicoloredTriangulation.make(5, black=[(1, 2, 3), (1, 3, 4)], white=[(1, 4, 5)])
    S = build_seed(T)
    with pytest.raises(ValueError, match="another vertex"):
        mutate(S, (1, 3), new_key=(1, 4))
    assert mutate(S, (1, 3), new_key=(3, 1)).keys == S.keys


@pytest.mark.parametrize("call, message", [
    (lambda S, T: build_seed(T, {(1, 2, 4): (1, 2)}), r"^\(1, 2, 4\) is not a black polygon$"),
    (lambda S, T: build_seed(T, {(1, 2, 3, 4): (1, 3)}),
     r"^\(1, 3\) is not a boundary arc of \(1, 2, 3, 4\)$"),
    (lambda S, T: mutate(S, (2, 4)), r"^no vertex \(2, 4\)$"),
], ids=["not-a-black-polygon", "not-a-boundary-arc", "no-vertex"])
def test_build_seed_and_mutate_name_what_they_refuse(call, message):
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3), (1, 3, 4)], white=[])
    with pytest.raises(ValueError, match=message):
        call(build_seed(T), T)


@pytest.mark.parametrize("bad", [(1, 2, 4), (1, 3, 4), (3, 3), (1,)])
def test_mutate_and_build_seed_refuse_arcs_not_on_two_vertices(bad):
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3), (1, 3, 4)], white=[])
    S = build_seed(T)
    with pytest.raises(ValueError, match="two distinct vertices"):
        mutate(S, bad)
    with pytest.raises(ValueError, match="two distinct vertices"):
        mutate(S, (1, 3), new_key=bad)
    with pytest.raises(ValueError, match="two distinct vertices"):
        build_seed(T, {(1, 2, 3, 4): bad})


def assert_clean_quiver(S):
    """No arrow runs both ways, none is a self-arrow, none joins two frozen
    vertices, and every arrow joins two vertices of the seed."""
    for (u, v), m in S.arrows.items():
        assert m > 0 and u != v and (v, u) not in S.arrows, (u, v)
        assert {u, v} <= set(S.keys) and not {u, v} <= S.frozen, (u, v)


def assert_matches_bookkeeping(Sm, So, Z, points):
    assert Sm.to_json() == So.to_json()
    for Y in points:
        assert Sm.evaluate(Y, Z) == So.evaluate(Y, Z)
    assert_clean_quiver(Sm)
    assert_clean_quiver(So)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_exchange_matrix_mutation_matches_arrow_bookkeeping(n):
    rng = Random(n)
    checked = 0
    for k in range(1, n - 1):
        Z = make_positive_Z(n, k + 2, list(range(n)))
        points = [sample_interior_point(k, n, Z, rng) for _ in range(2)]
        for T in enumerate_bicolored(n, k):
            S = build_seed(T)
            assert_clean_quiver(S)
            for key in S.mutable_keys():
                for new_key in (None, flipped_arc(T, key)):
                    assert_matches_bookkeeping(mutate(S, key, new_key),
                                               bookkeeping_mutate(S, key, new_key), Z, points)
                    checked += 1
    assert checked == {4: 4, 5: 40, 6: 336}[n]


@pytest.mark.parametrize("relabel", [False, True], ids=["plain", "flip"])
def test_exchange_matrix_mutation_chains_match_arrow_bookkeeping(relabel):
    n, rng = 7, Random(7)
    steps = 0
    for k in range(2, n - 1):
        Z = make_positive_Z(n, k + 2, list(range(n)))
        points = [sample_interior_point(k, n, Z, rng) for _ in range(2)]
        seeds = [T for T in enumerate_bicolored(n, k) if build_seed(T).mutable_keys()]
        for T in rng.sample(seeds, 3):
            Sm = So = build_seed(T)
            for _ in range(6):
                key = rng.choice(Sm.mutable_keys())
                new_key = flipped_arc(T, key) if relabel else None
                Sm, So = mutate(Sm, key, new_key), bookkeeping_mutate(So, key, new_key)
                assert_matches_bookkeeping(Sm, So, Z, points)
                if relabel:
                    T = flip(T, key)
                steps += 1
    assert steps == 4 * 3 * 6


def test_exchange_matrix_mutation_matches_arrow_bookkeeping_on_multiple_arrows():
    T = BicoloredTriangulation.make(6, black=[(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6)])
    base = build_seed(T)
    Z = make_positive_Z(6, 6, list(range(6)))
    rng = Random(5)
    points = [sample_interior_point(4, 6, Z, rng) for _ in range(2)]
    for _ in range(4):
        arrows = {}
        for u, v in combinations(base.keys, 2):
            m = rng.randint(-2, 2)
            if m and not {u, v} <= base.frozen:
                arrows[(u, v) if m > 0 else (v, u)] = abs(m)
        Sm = So = Seed(base.keys, base.frozen, arrows, base.variables)
        for _ in range(4):
            key = rng.choice(Sm.mutable_keys())
            Sm, So = mutate(Sm, key), bookkeeping_mutate(So, key)
            assert_matches_bookkeeping(Sm, So, Z, points)
        assert max(Sm.arrows.values()) > 1


def test_exchange_reduces_to_twistor_plucker_relation():
    # inside one black quadrilateral the mutation exchange is the three-term
    # relation <ac><bd> = <ab><cd> + <ad><bc> after clearing denominators
    rng = Random(4)
    Z = make_positive_Z(4, 4, [0, 1, 2, 3])
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3), (1, 3, 4)], white=[])
    S = build_seed(T)
    Sm = mutate(S, (1, 3), new_key=(2, 4))
    for _ in range(10):
        Y = sample_interior_point(2, 4, Z, rng)
        lhs = twistor(Y, Z, (1, 3)) * twistor(Y, Z, (2, 4))
        rhs = (twistor(Y, Z, (1, 2)) * twistor(Y, Z, (3, 4))
               + twistor(Y, Z, (1, 4)) * twistor(Y, Z, (2, 3)))
        assert lhs == rhs
        x_new = Sm.evaluate(Y, Z)[(2, 4)]
        x_expected = build_seed(flip(T, (1, 3))).evaluate(Y, Z)[(2, 4)]
        assert x_new == x_expected


def test_adjacency_quadrilateral_tile():
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
    Z = make_positive_Z(4, 3, [0, 1, 2, 3])
    rep = cluster_adjacency_check(T)
    assert rep["facet_arcs"] == [[1, 2], [1, 3], [2, 3]]
    tested = {tuple(a): s for a, s in rep["compatible_tested"]}
    assert tested[(1, 4)] == -1 and tested[(3, 4)] == 1
    sampled, noncrossing_facets, signs_fixed = sampled_adjacency(T, Z, samples=40, seed=1)
    assert noncrossing_facets and signs_fixed
    assert sampled == rep


def test_adjacency_all_tiles_n5():
    from positroid_lab.hypersimplex import tile_catalog

    facet_sets = []
    for k1, n in [(2, 4), (2, 5), (3, 5)]:
        Z = make_positive_Z(n, k1 + 1, list(range(n)))
        for rec in tile_catalog(k1, n).values():
            rep = cluster_adjacency_check(rec.triangulation)
            sampled, noncrossing_facets, signs_fixed = sampled_adjacency(
                rec.triangulation, Z, samples=25, seed=4)
            assert noncrossing_facets and signs_fixed
            assert sampled == rep
            facet_sets.append({tuple(a) for a in rep["facet_arcs"]})
    # no two crossing diagonals ever appear as facets of one tile
    from positroid_lab.triangulations import arcs_cross

    for fs in facet_sets:
        for a in fs:
            for b in fs:
                assert not arcs_cross(a, b)


def test_noncrossing_helper():
    assert noncrossing([(1, 3), (1, 4), (1, 2)])
    assert not noncrossing([(1, 3), (2, 4)])


def test_seed_json():
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3), (1, 3, 4)], white=[])
    payload = build_seed(T).to_json()
    assert {"arc", "frozen", "label"} <= set(payload["vertices"][0].keys())
    assert payload["arrows"]


def test_seeds_are_shared_and_read_only():
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3), (1, 3, 4)], white=[])
    S = build_seed(T)
    assert build_seed(T) is S
    assert build_seed(T, default_distinguished(T)) is S
    assert build_seed(T, {(1, 2, 3, 4): (2, 3)}) is build_seed(T, {(4, 3, 2, 1): (3, 2)})
    assert build_seed(T, {(1, 2, 3, 4): (2, 3)}) is not S
    before = S.to_json()
    with pytest.raises(TypeError):
        S.arrows[((1, 2), (1, 3))] = 5
    with pytest.raises(TypeError):
        del S.variables[(1, 3)]
    with pytest.raises(FrozenRecordError):
        S.keys = ()
    Sm = mutate(S, (1, 3), new_key=(2, 4))
    assert Sm is not S and S.to_json() == before and build_seed(T) is S
    with pytest.raises(TypeError):
        Sm.variables[(2, 4)] = Sm.variables[Sm.keys[0]]


@pytest.mark.parametrize("n", [6, 7])
def test_memoized_seeds_equal_fresh_builds_on_every_tile(n):
    from positroid_lab import cluster
    from positroid_lab.amplituhedron import amp_map
    from positroid_lab.cells import sample_cell_matrix
    from positroid_lab.hypersimplex import tile_catalog
    from positroid_lab.perms import top_cell_permutation

    Z = make_positive_Z(n, 4, list(range(n)))
    rng = Random(n)
    points = [amp_map(sample_cell_matrix(top_cell_permutation(2, n), rng), Z)
              for _ in range(3)]
    tiles = [rec.triangulation for rec in tile_catalog(3, n).values()]
    for T in tiles:
        S, fresh = build_seed(T), cluster._seed.__wrapped__(T)
        assert S is build_seed(T) and S is not fresh
        assert S.to_json() == fresh.to_json(), T
        for Y in points:
            assert S.evaluate(Y, Z) == fresh.evaluate(Y, Z), T
    assert len(tiles) == (48 if n == 6 else 161)
