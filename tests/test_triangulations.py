"""Bicolored triangulations, subdivisions, flips, and the area statistic."""

import hashlib
import math
from itertools import combinations

import pytest

from positroid_lab import triangulations
from positroid_lab.perms import parse_decorated
from positroid_lab.plabic import dual_graph_of_triangulation, trip_permutation
from positroid_lab.triangulations import (
    BicoloredTriangulation,
    _rooted_subdivisions,
    area,
    arcs_cross,
    class_representative,
    enumerate_subdivisions,
    flip,
    flippable_arcs,
)

from oracles import all_triangulations, enumerate_bicolored


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def test_triangulation_counts():
    for n in (3, 4, 5, 6, 7):
        assert len(all_triangulations(n)) == catalan(n - 2)


def test_validation_rejects_crossing():
    with pytest.raises(ValueError):
        BicoloredTriangulation.make(4, black=[(1, 2, 4)], white=[(1, 2, 3)])


@pytest.mark.parametrize("make, message", [
    (lambda: BicoloredTriangulation.make(4, black=[(1, 1, 2), (2, 3, 4)]),
     r"^degenerate triangle \(1, 1, 2\)$"),
    (lambda: BicoloredTriangulation(4, frozenset({(1, 2, 3)}), frozenset({(1, 2, 3)})),
     r"^a triangle cannot be both colours$"),
    (lambda: BicoloredTriangulation(2, frozenset(), frozenset()), r"^need n >= 3$"),
    (lambda: BicoloredTriangulation.make(5, black=[(1, 2, 3)]),
     r"^a triangulated 5-gon has 3 triangles$"),
    (lambda: BicoloredTriangulation.make(4, black=[(1, 2, 5), (2, 3, 4)]),
     r"^arc \([12], 5\) outside the 4-gon$"),
    # the constructor takes triangles in increasing order only, so one
    # triangle in two orders is refused by the order it is written in
    (lambda: BicoloredTriangulation(4, frozenset({(1, 2, 3), (3, 2, 1)}), frozenset()),
     r"^triangle \(3, 2, 1\) is not written in increasing order$"),
    (lambda: BicoloredTriangulation(4, frozenset({(3, 2, 1), (1, 3, 4)}), frozenset()),
     r"^triangle \(3, 2, 1\) is not written in increasing order$"),
], ids=["degenerate", "both-colours", "n-below-3", "count", "arc-outside", "side-twice",
        "unsorted"])
def test_validation_names_each_fault(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_validation_rejects_crossing_diagonals_with_sides_covered_once():
    # each side bounds exactly one triangle, but the diagonals 14 and 36 cross
    with pytest.raises(ValueError, match=r"arcs \(1, 4\) and \(3, 6\) cross"):
        BicoloredTriangulation.make(6, black=[(1, 2, 3), (1, 3, 4)],
                                    white=[(1, 3, 6), (4, 5, 6)])


def test_equivalence_class_merges_like_colors():
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3), (1, 3, 4)], white=[])
    S = T.subdivision
    assert S.black_polygons == frozenset({(1, 2, 3, 4)})
    T2 = BicoloredTriangulation.make(4, black=[(1, 2, 4), (2, 3, 4)], white=[])
    assert T2.subdivision == S


def test_all_white_single_class():
    classes = enumerate_subdivisions(6, 0)
    assert len(classes) == 1
    assert classes[0].white_polygons == frozenset({(1, 2, 3, 4, 5, 6)})


def test_class_representative_round_trip():
    for T in enumerate_bicolored(5, 2):
        S = T.subdivision
        assert class_representative(S).subdivision == S


def test_flip_black_square():
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3), (1, 3, 4)], white=[])
    assert flippable_arcs(T) == [(1, 3)]
    T2 = flip(T, (1, 3))
    assert T2.black == frozenset({(1, 2, 4), (2, 3, 4)})
    assert flip(T2, (2, 4)) == T
    assert T2.subdivision == T.subdivision


def test_flip_rejects_frozen_or_white():
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
    with pytest.raises(ValueError):
        flip(T, (1, 3))  # between black and white
    with pytest.raises(ValueError):
        flip(T, (1, 2))  # boundary side


def test_area_pinned():
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
    assert area(T, 1, 3) == 1
    assert area(T, 1, 4) == 1
    assert area(T, 1, 2) == 0 and area(T, 3, 4) == 0
    T2 = BicoloredTriangulation.make(4, black=[(1, 2, 4)], white=[(2, 3, 4)])
    assert area(T2, 2, 4) == 0
    assert area(T2, 1, 4) == 1


def test_area_incompatible_arc_rejected():
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
    with pytest.raises(ValueError):
        area(T, 2, 4)


def test_area_and_colour_refuse_what_lies_outside_the_triangulation():
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
    with pytest.raises(ValueError, match=r"^arc \(1,5\) outside the 4-gon$"):
        area(T, 1, 5)
    assert T.colour((3, 2, 1)) == "black" and T.colour((1, 4, 3)) == "white"
    with pytest.raises(KeyError):
        T.colour((1, 2, 4))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_the_constructor_and_make_give_equal_records(n):
    # make sorts each triangle; the constructor takes them sorted or refuses
    for k in range(n - 1):
        for T in enumerate_bicolored(n, k):
            M = BicoloredTriangulation.make(n, black=[t[::-1] for t in T.black],
                                            white=[t[::-1] for t in T.white])
            assert M == T and hash(M) == hash(T)


def test_area_total_black():
    for T in enumerate_bicolored(6, 2)[:10]:
        assert area(T, 1, 6) == 2


def test_area_class_invariant():
    T = BicoloredTriangulation.make(5, black=[(1, 2, 3), (1, 3, 4)], white=[(1, 4, 5)])
    Tf = BicoloredTriangulation.make(5, black=[(1, 2, 4), (2, 3, 4)], white=[(1, 4, 5)])
    for h in range(1, 6):
        for j in range(h + 1, 6):
            try:
                a1 = area(T, h, j)
            except ValueError:
                continue
            try:
                a2 = area(Tf, h, j)
            except ValueError:
                continue
            assert a1 == a2


def test_arcs_cross():
    assert arcs_cross((1, 3), (2, 4))
    assert not arcs_cross((1, 3), (3, 5))
    assert not arcs_cross((1, 2), (3, 4))


def test_enumerate_subdivisions_matches_the_triangulation_scan():
    from oracles import scanned_subdivisions

    checked = 0
    for n in range(3, 9):
        for k in range(n - 1):
            scanned = scanned_subdivisions(n, k)
            assert enumerate_subdivisions(n, k) == scanned
            checked += len(scanned)
    assert checked == 2320
    assert enumerate_subdivisions(7, 9) == []
    with pytest.raises(ValueError, match="need n >= 3"):
        enumerate_subdivisions(2, 0)


def test_enumerate_subdivisions_subdivides_no_cell_over_budget():
    _rooted_subdivisions.cache_clear()
    (S,) = enumerate_subdivisions(20, 0)
    assert S.white_polygons == frozenset({tuple(range(1, 21))}) and not S.black_polygons
    # the black root takes no cell, and no white cell but the whole polygon
    # leaves no side to subdivide: no polygon under the root is visited
    assert _rooted_subdivisions.cache_info().currsize == 2
    # the classes at n = 9, as listed before any cell was pruned
    digests = []
    for k in range(8):
        keys = [S.key() for S in enumerate_subdivisions(9, k)]
        digests.append((len(keys), hashlib.sha256(repr(keys).encode()).hexdigest()[:16]))
    assert digests == [(1, "befe2c002c55ba82"), (84, "2c2e028781834cfb"),
                       (1008, "5dd7e1ebea2be025"), (3186, "4d5201a8e71e2c9a"),
                       (3186, "6656610f124a9ce1"), (1008, "0a09debcea14d692"),
                       (84, "794045e8aa0eb1e9"), (1, "0bac90a233edcf5f")]


def test_white_cells_come_from_their_skipped_runs(monkeypatch):
    # at k = 0 a white cell skips no run, so the root side (1, 20) builds
    # one cell, not its 2^18 vertex subsets
    seen = []

    def counting(pool, r):
        for c in combinations(pool, r):
            seen.append(c)
            yield c

    monkeypatch.setattr(triangulations, "combinations", counting)
    _rooted_subdivisions.cache_clear()
    (S,) = enumerate_subdivisions(20, 0)
    assert S.white_polygons == frozenset({tuple(range(1, 21))})
    assert len(seen) < 1000


def test_subdivision_counts_match_tiles():
    # one black triangle: every 3-subset of the n-gon is a class
    assert len(enumerate_subdivisions(5, 1)) == math.comb(5, 3)
    assert len(enumerate_subdivisions(6, 1)) == math.comb(6, 3)


def test_polygon_walk_matches_the_dual_tree_trips():
    S9 = BicoloredTriangulation.make(
        9, black=[(7, 8, 9), (1, 7, 9), (2, 3, 7), (3, 4, 7), (4, 5, 7)],
        white=[(1, 2, 7), (5, 6, 7)]).subdivision
    assert S9.trip_permutation() == parse_decorated("(5,9,2,3,6,4,1,7,8)")
    checked = 0
    for n in range(3, 9):
        for k in range(n - 1):
            for S in enumerate_subdivisions(n, k):
                tree = dual_graph_of_triangulation(class_representative(S))
                assert S.trip_permutation() == trip_permutation(tree), S
                checked += 1
    assert checked == 2320


def test_every_triangulation_of_a_class_walks_the_trips_of_its_tree():
    checked = 0
    for n in range(3, 8):
        for k in range(n - 1):
            for T in enumerate_bicolored(n, k):
                tree = dual_graph_of_triangulation(T)
                assert T.subdivision.trip_permutation() == trip_permutation(tree), T
                checked += 1
    assert checked == 1618


@pytest.mark.parametrize("k_plus_1, n", [(3, 6), (2, 6)])
def test_arc_areas_match_area(k_plus_1, n):
    from positroid_lab.hypersimplex import tile_catalog

    for rec in tile_catalog(k_plus_1, n).values():
        T = rec.triangulation
        assert [arc for arc, _ in T.arc_areas] == sorted(T.arcs())
        assert all(a == area(T, h, j) for (h, j), a in T.arc_areas)
        assert T.subdivision == rec.subdivision


def test_cached_facts_stay_out_of_equality_hash_and_repr():
    T = BicoloredTriangulation.make(6, black=[(1, 2, 3), (1, 3, 4)],
                                    white=[(1, 4, 5), (1, 5, 6)])
    U = BicoloredTriangulation.make(6, black=[(1, 2, 3), (1, 3, 4)],
                                    white=[(1, 4, 5), (1, 5, 6)])
    assert len(T.arc_areas) == 9
    assert "arc_areas" in vars(T) and "subdivision" in vars(T)
    assert "arc_areas" not in vars(U)
    assert T == U and hash(T) == hash(U) and repr(T) == repr(U)
    assert len({T, U}) == 1
