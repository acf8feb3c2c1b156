"""Plabic graphs: trips, moves, matchings, measurement, duality."""

import hashlib
import json
import time
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from positroid_lab.cells import (
    cell_dim_of_perm,
    cell_dimension,
    graph_of_perm,
    perm_of_graph,
    positroid_of_perm,
)
from positroid_lab.grassmann import decorated_permutation_of, is_tnn, matrix_of_plucker, matroid_of
from positroid_lab.perms import enumerate_decorated, parse_decorated, t_dual, top_cell_permutation
from positroid_lab.plabic import (
    PlabicGraph,
    _bridge_insert_graph,
    _empty_graph,
    _lollipop_insert_graph,
    apply_move,
    bipartize,
    boundary_measurement,
    dual_graph_of_triangulation,
    enumerate_move_sites,
    faces,
    is_reduced,
    matchings,
    positroid_of_graph,
    t_dual_graph,
    trip_permutation,
)
from positroid_lab.triangulations import BicoloredTriangulation

import graphs
from move_search import canonical_form, has_parallel_edges, search_is_reduced
from oracles import corner_and_center_graph, enumerate_bicolored, jacobian_cell_dimension


def test_trip_permutation_g1():
    assert trip_permutation(graphs.g1()) == parse_decorated("(3,1,4,2)")


def test_trip_permutation_nine_vertex_fixture():
    assert trip_permutation(graphs.fig_plabic_graph()) == \
        parse_decorated("(8,5,9,2,3,6_,4,1,7)")


def test_trip_single_white_lollipop():
    G = PlabicGraph(1, {"t": "white"}, [("b1", "t")],
                    {"b1": [(0, 0)], "t": [(0, 1)]})
    pi = trip_permutation(G)
    assert pi.coloops == frozenset({1})


def test_g1_matchings_and_positroid():
    H, _ = bipartize(graphs.g1())
    ms = matchings(H)
    assert len(ms) == 5
    supports = sorted(tuple(sorted(m.boundary)) for m in ms)
    assert supports == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    M = positroid_of_graph(graphs.g1())
    assert M.sorted_bases() == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]


def test_matchings_requires_bipartite():
    with pytest.raises(ValueError):
        matchings(graphs.g1().__class__(
            1, {"t": "black"}, [("b1", "t")], {"b1": [(0, 0)], "t": [(0, 1)]}))


def test_boundary_measurement_unit_weights():
    P = boundary_measurement(graphs.g1())
    vals = [P.coord(I) for I in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]]
    assert vals == [1, 1, 1, 1, 1, 0]


def test_boundary_measurement_scaling_projective():
    G = graphs.g1()
    P1 = boundary_measurement(G)
    t = Fraction(7, 2)
    P2 = boundary_measurement(G, {e: t for e in range(len(G.edges))})
    assert P1 == P2  # projective equality


def test_boundary_measurement_rejects_negative_weight():
    with pytest.raises(ValueError):
        boundary_measurement(graphs.g1(), {0: Fraction(-1)})


def test_boundary_measurement_lollipops_only():
    G = PlabicGraph(2, {"t1": "white", "t2": "white"},
                    [("b1", "t1"), ("b2", "t2")],
                    {"b1": [(0, 0)], "t1": [(0, 1)], "b2": [(1, 0)], "t2": [(1, 1)]})
    P = boundary_measurement(G)
    assert P.coord((1, 2)) == 1


def test_measurement_matroid_matches_graph_positroid():
    rng = Random(0)
    for G in (graphs.g1(), graphs.nine_gon_fan()):
        M = positroid_of_graph(G)
        for _ in range(15):
            w = {e: Fraction(rng.randint(1, 1000)) for e in range(len(G.edges))}
            P = boundary_measurement(G, w)
            assert is_tnn(P)
            assert matroid_of(P).bases == M.bases


def test_measurement_realizes_trip_permutation():
    rng = Random(1)
    for G in (graphs.g1(), graphs.nine_gon_fan()):
        pi = trip_permutation(G)
        w = {e: Fraction(rng.randint(1, 1000)) for e in range(len(G.edges))}
        C = matrix_of_plucker(boundary_measurement(G, w))
        assert decorated_permutation_of(C) == pi


def test_cell_dimension_g1():
    assert cell_dimension(graphs.g1()) == 3


def test_cell_dimension_lollipops_zero():
    G = PlabicGraph(2, {"t1": "white", "t2": "black"},
                    [("b1", "t1"), ("b2", "t2")],
                    {"b1": [(0, 0)], "t1": [(0, 1)], "b2": [(1, 0)], "t2": [(1, 1)]})
    assert cell_dimension(G) == 0


def test_cell_dimension_hat_graph_is_2k():
    for n in (4, 5):
        for k in range(1, n - 1):
            for T in enumerate_bicolored(n, k)[:4]:
                G = t_dual_graph(dual_graph_of_triangulation(T))
                assert cell_dimension(G) == 2 * k


def test_moves_preserve_trip_permutation_random_walk():
    rng = Random(7)
    G = graphs.fig_plabic_graph()
    pi = trip_permutation(G)
    cap = len(G.internal_vertices()) + 6
    applied = 0
    while applied < 60:
        sites = [s for s in enumerate_move_sites(G)
                 if not (s[0] in ("M2_split", "M3_add")
                         and len(G.internal_vertices()) >= cap)]
        move, site = sites[rng.randrange(len(sites))]
        G = apply_move(G, move, site)
        assert trip_permutation(G) == pi
        applied += 1


def test_m1_square_move_toggles_colors():
    # build an explicit alternating square bounding a face
    colors = {"a": "black", "b": "white", "c": "black", "d": "white"}
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
             ("b1", "a"), ("b2", "b"), ("b3", "c"), ("b4", "d")]
    rot = {
        "a": [(4, 1), (0, 0), (3, 1)],
        "b": [(5, 1), (1, 0), (0, 1)],
        "c": [(6, 1), (2, 0), (1, 1)],
        "d": [(7, 1), (3, 0), (2, 1)],
        "b1": [(4, 0)], "b2": [(5, 0)], "b3": [(6, 0)], "b4": [(7, 0)],
    }
    G = PlabicGraph(4, colors, edges, rot)
    sites = [s for m, s in enumerate_move_sites(G) if m == "M1"]
    assert sites
    H = apply_move(G, "M1", sites[0])
    assert H.colors["a"] == "white" and H.colors["b"] == "black"
    assert trip_permutation(H) == trip_permutation(G)


def test_m2_merge_split_inverse():
    G = graphs.g1()
    merged = None
    for move, site in enumerate_move_sites(G):
        if move == "M2_split":
            v, start, size = site
            H = apply_move(G, move, site)
            back_sites = [s for m, s in enumerate_move_sites(H) if m == "M2_merge"]
            for bs in back_sites:
                K = apply_move(H, "M2_merge", bs)
                if canonical_form(K) == canonical_form(G):
                    merged = True
                    break
            break
    assert merged


# sha256 and length of the JSON list of [move, site, to_json()] over every
# listed site in the listed order: the sites and the graphs their moves give
MOVE_DIGESTS = {
    "g1": ("abb6aabd267b41073f368b8745ecb568300dc4ce57c81857769fbdde027709a2", 32),
    "fig_plabic_graph":
        ("5beeb1c7bfc45e8feb7116f4a914173a678c1a5461ced99f4f75bf8f306607e6", 138),
    1: ("b621188f59f0a26d6766a76c287412440b9d0abb31177b9cbd57bfd4bb01d11d", 4),
    2: ("ea2c0b72539274b5cfb3567483fa474623c8a06e6dd78cea2b429e39935231ab", 20),
    3: ("88c305de6f6c51b4aa03f59739f00a1eb958d09b7d32eda4611ac44bc9a757c3", 67),
    4: ("dbdb01d945ae4dbf80d08b0ef4b7ab352b40cea2b25bb83739e6299c2b482e6a", 163),
    5: ("ef8686405c85c604fcfeb0dc2ae685f205c4de44a58ad7c60ab19d7597805876", 326),
    6: ("449f2a7c57d3a47f2c35750e88e728ce97cc5deee0d045e72ccd4fa4128ed591", 574),
}


@pytest.mark.parametrize("case", list(MOVE_DIGESTS))
def test_every_listed_site_applies(case):
    # the demo graphs, or the top cells of every k at one n
    Gs = ([graphs.load(f"{case}.json")] if isinstance(case, str)
          else [graph_of_perm(top_cell_permutation(k, case)) for k in range(case + 1)])
    out = [[move, site, apply_move(G, move, site).to_json()]
           for G in Gs for move, site in enumerate_move_sites(G)]
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert (digest, len(out)) == MOVE_DIGESTS[case]


def _strip_degree2(G: PlabicGraph) -> PlabicGraph:
    while True:
        removable = [s for m, s in enumerate_move_sites(G) if m == "M3_remove"]
        if not removable:
            return G
        G = apply_move(G, "M3_remove", removable[0])


def test_a_square_move_applies_in_every_vertex_order():
    Gs = [_strip_degree2(graph_of_perm(top_cell_permutation(k, n)))
          for k, n in ((2, 4), (2, 5), (3, 6))]
    Gs += [t_dual_graph(dual_graph_of_triangulation(T))
           for n, k in ((4, 2), (5, 2), (6, 2), (6, 3)) for T in enumerate_bicolored(n, k)[:6]]
    squares = 0
    for G in Gs:
        for square in (s for m, s in enumerate_move_sites(G) if m == "M1"):
            H = apply_move(G, "M1", square)
            assert {v for v in G.colors if H.colors[v] != G.colors[v]} == set(square)
            for order in permutations(square):
                assert apply_move(G, "M1", order).to_json() == H.to_json()
            squares += 1
    assert squares >= 10


@pytest.mark.parametrize("move, site", [
    ("M2_merge", (999,)),
    ("M3_add", (999, "black")),
    ("M3_remove", ("zz",)),
    ("M2_split", ("zz", 0, 1)),
    ("M3_add", (0, "red")),
    ("M1", ("B", "wa", "wb", "wc")),
    ("M4", ()),
])
def test_apply_move_refuses_a_site_that_is_not_listed(move, site):
    G = graphs.g1()
    assert (move, site) not in enumerate_move_sites(G)
    with pytest.raises(ValueError):
        apply_move(G, move, site)


def test_move_sites_are_listed_once_per_graph():
    G = graphs.fig_plabic_graph()
    assert isinstance(enumerate_move_sites(G), tuple)
    assert enumerate_move_sites(G) is enumerate_move_sites(G)


def test_is_reduced_verdicts():
    assert is_reduced(graphs.g1()) == "reduced"
    colors = {"u": "black", "v": "white"}
    edges = [("b1", "u"), ("u", "v"), ("u", "v"), ("v", "b2")]
    rot = {"b1": [(0, 0)], "b2": [(3, 1)],
           "u": [(0, 1), (1, 0), (2, 0)], "v": [(1, 1), (2, 1), (3, 0)]}
    assert is_reduced(PlabicGraph(2, colors, edges, rot)) == "not_reduced"


def _digon() -> PlabicGraph:
    """Two boundary legs joined through a doubled black-white edge."""
    colors = {"u": "black", "v": "white"}
    edges = [("b1", "u"), ("u", "v"), ("u", "v"), ("v", "b2")]
    rot = {"b1": [(0, 0)], "b2": [(3, 1)],
           "u": [(0, 1), (1, 0), (2, 0)], "v": [(1, 1), (2, 1), (3, 0)]}
    return PlabicGraph(2, colors, edges, rot)


def _round_trip() -> PlabicGraph:
    """Three legs on the corners of an all-white triangle."""
    return PlabicGraph(
        3, {"W1": "white", "W2": "white", "W3": "white"},
        [("b1", "W1"), ("b2", "W2"), ("b3", "W3"),
         ("W1", "W2"), ("W2", "W3"), ("W3", "W1")],
        {"b1": [(0, 0)], "b2": [(1, 0)], "b3": [(2, 0)],
         "W1": [(0, 1), (3, 0), (5, 1)], "W2": [(1, 1), (4, 0), (3, 1)],
         "W3": [(2, 1), (5, 0), (4, 1)]})


# Non-reduced graphs: (graph, trip permutation, permutation and dimension of
# the cell of its matching positroid).
NON_REDUCED_CELLS = [
    (lambda: _bridged(("white", "black", "white", "black"), (1, 3, 2, 2)),
     "(2,1,4,3)", "(2,4,1,3)", 3),
    (_round_trip, "(2,3,1)", "(1_,2_,3_)", 0),
    (_digon, "(2,1)", "(2,1)", 1),
]


def _crossed() -> PlabicGraph:
    """Two white vertices on the chords 13 and 24, which cross: the matching
    matroid {12, 14, 23, 34} has parallel classes 13 and 24 and is not a
    positroid."""
    return PlabicGraph(4, {"W1": "white", "W2": "white"},
                       [("b1", "W1"), ("b3", "W1"), ("b2", "W2"), ("b4", "W2")],
                       {"b1": [(0, 0)], "b3": [(1, 0)], "b2": [(2, 0)], "b4": [(3, 0)],
                        "W1": [(0, 1), (1, 1)], "W2": [(2, 1), (3, 1)]})


def _bridged(colours, bridges) -> PlabicGraph:
    """Lollipops of the given colours, then bridges between legs i and i+1;
    a bridge that would land on a lollipop tip of the wrong colour is skipped.
    """
    G = _empty_graph()
    for i, colour in enumerate(colours, start=1):
        G = _lollipop_insert_graph(G, i, colour)
    for i in bridges:
        try:
            G = _bridge_insert_graph(G, i)
        except RuntimeError:
            continue
    return G


@pytest.mark.parametrize("graph, trip, cell, dim", NON_REDUCED_CELLS,
                         ids=["bridged", "round_trip", "digon"])
def test_perm_of_graph_reads_the_cell_off_the_matching_positroid(graph, trip, cell, dim):
    G = graph()
    assert repr(trip_permutation(G)) == trip
    assert repr(perm_of_graph(G)) == cell
    assert cell_dimension(G) == dim
    M = positroid_of_graph(G)
    assert M == matroid_of(boundary_measurement(G)) == positroid_of_perm(perm_of_graph(G))
    assert M.bases == {m.boundary for m in matchings(bipartize(G)[0])}


def test_perm_of_graph_refuses_a_matching_matroid_that_is_no_positroid():
    G = _crossed()
    assert positroid_of_graph(G).sorted_bases() == [(1, 2), (1, 4), (2, 3), (3, 4)]
    with pytest.raises(ValueError, match="not a positroid"):
        perm_of_graph(G)


def test_is_reduced_bridge_graphs_up_to_n6():
    # bridge graphs are reduced, so inner faces - 1 is the cell dimension,
    # and the cell of their matchings has their trip permutation
    for n in range(1, 7):
        for pi in enumerate_decorated(n):
            G = graph_of_perm(pi)
            assert is_reduced(G) == "reduced", pi
            assert perm_of_graph(G) == pi, pi
            inner = sum(1 for f in faces(G) if not f.is_outer)
            assert inner - 1 == cell_dim_of_perm(pi), pi


def test_is_reduced_top_cell_2_4_is_fast():
    G = graph_of_perm(top_cell_permutation(2, 4))
    t0 = time.perf_counter()
    assert is_reduced(G) == "reduced"
    assert time.perf_counter() - t0 < 1.0


def test_is_reduced_rejects_non_reduced_graphs():
    # the digon itself is in test_is_reduced_verdicts
    for colour in ("black", "white"):
        # padding one of the doubled edges hides the parallel pair
        padded = apply_move(_digon(), "M3_add", (1, colour))
        assert not has_parallel_edges(padded)
        assert is_reduced(padded) == "not_reduced"
    # an all-white inner face: the trip around it never meets the boundary
    assert is_reduced(_round_trip()) == "not_reduced"
    # the trip from b1 comes back to b1 around a triangle, not a lollipop
    fixed_point = PlabicGraph(
        1, {"u": "white", "x": "black", "y": "black"},
        [("b1", "u"), ("u", "x"), ("x", "y"), ("y", "u")],
        {"b1": [(0, 0)], "u": [(0, 1), (1, 0), (3, 1)],
         "x": [(1, 1), (2, 0)], "y": [(2, 1), (3, 0)]})
    assert trip_permutation(fixed_point).images == (1,)
    assert is_reduced(fixed_point) == "not_reduced"
    # no round trip and no self-intersection, but the trips out of legs 2
    # and 3 pass two shared edges in the same order: a bad double crossing
    assert is_reduced(_bridged(("white", "black", "white", "black"),
                               (1, 3, 2, 2))) == "not_reduced"


def test_is_reduced_agrees_with_move_search():
    assert search_is_reduced(graphs.g1(), depth=50, size_slack=1) == "reduced"
    definite = 0
    for seed in range(40):
        rng = Random(seed)
        G = _digon()
        for _ in range(6):
            sites = [s for s in enumerate_move_sites(G)
                     if not (s[0] in ("M2_split", "M3_add")
                             and len(G.internal_vertices()) >= 4)]
            move, site = sites[rng.randrange(len(sites))]
            G = apply_move(G, move, site)
        verdict = search_is_reduced(G, depth=3, size_slack=1)
        if verdict != "unknown":
            definite += 1
            assert is_reduced(G) == verdict, seed
    assert definite >= 30


def test_is_reduced_matches_face_count_oracle():
    # Bridges added at random make reduced and non-reduced graphs alike.
    # A reduced graph has inner faces - 1 = dimension of its image; a
    # non-reduced one is move-equivalent to a graph with a bubble whose
    # removal drops a face but keeps the image, so the count exceeds it.
    rng = Random(0)
    seen = set()
    for _ in range(150):
        n = rng.randrange(2, 6)
        G = _bridged([rng.choice(["black", "white"]) for _ in range(n)],
                     [rng.randrange(1, n) for _ in range(rng.randrange(9))])
        inner = sum(1 for f in faces(G) if not f.is_outer)
        dim = jacobian_cell_dimension(G)
        assert cell_dimension(G) == dim
        expected = "reduced" if inner - 1 == dim else "not_reduced"
        assert is_reduced(G) == expected
        seen.add(expected)
    assert seen == {"reduced", "not_reduced"}


def test_dual_graph_pinned_trips():
    T = BicoloredTriangulation.make(4, black=[(1, 2, 3)], white=[(1, 3, 4)])
    assert trip_permutation(dual_graph_of_triangulation(T)) == parse_decorated("(3,1,4,2)")
    T9 = BicoloredTriangulation.make(
        9,
        black=[(7, 8, 9), (1, 7, 9), (2, 3, 7), (3, 4, 7), (4, 5, 7)],
        white=[(1, 2, 7), (5, 6, 7)])
    assert trip_permutation(dual_graph_of_triangulation(T9)) == \
        parse_decorated("(5,9,2,3,6,4,1,7,8)")


def test_dual_graph_all_white_is_rank_one():
    T = BicoloredTriangulation.make(5, white=[(1, 2, 3), (1, 3, 4), (1, 4, 5)])
    M = positroid_of_graph(dual_graph_of_triangulation(T))
    assert M.k == 1
    assert len(M.bases) == 5


def test_t_dual_graph_matches_hat_and_rotation():
    for n in (3, 4, 5, 6):
        for k in range(0, n - 1):
            for T in enumerate_bicolored(n, k)[:6]:
                G = dual_graph_of_triangulation(T)
                td = t_dual_graph(G)
                assert trip_permutation(td) == t_dual(trip_permutation(G))
                assert trip_permutation(td) == \
                    trip_permutation(corner_and_center_graph(T))


def test_t_dual_of_the_dual_tree_is_the_corner_and_center_graph():
    checked = 0
    for n in range(3, 8):
        for k in range(n - 1):
            for T in enumerate_bicolored(n, k):
                G = t_dual_graph(dual_graph_of_triangulation(T))
                assert canonical_form(G) == canonical_form(corner_and_center_graph(T)), T
                checked += 1
    assert checked == 1618


def test_t_dual_graph_nine_gon_pair():
    G = graphs.nine_gon_fan()
    assert trip_permutation(G) == parse_decorated("(5,9,2,3,6,4,1,7,8)")
    assert trip_permutation(t_dual_graph(G)) == parse_decorated("(8,5,9,2,3,6_,4,1,7)")


def test_t_dual_graph_rejects_non_trivalent_black():
    G = graphs.g1()  # its black vertex is trivalent; split one edge off it
    # onto a new black vertex of degree 2
    H = apply_move(G, "M2_split", ("B", 0, 1))
    with pytest.raises(ValueError):
        t_dual_graph(H)


def test_t_dual_tripod():
    T = BicoloredTriangulation.make(3, black=[(1, 2, 3)])
    G = dual_graph_of_triangulation(T)
    td = t_dual_graph(G)
    whites = [v for v in td.internal_vertices() if td.colors[v] == "white"]
    assert len(whites) == 1 and td.degree(whites[0]) == 3


def test_graph_json_round_trip():
    G = graphs.g1()
    H = PlabicGraph.from_json(G.to_json())
    assert canonical_form(H) == canonical_form(G)
    assert G.to_dot().startswith("graph")
    assert "tikzpicture" in G.to_tikz()


# b1 - w - b2, to which each case below adds or removes one thing
PATH_EDGES = [("b1", "w"), ("w", "b2")]
PATH_ROTATIONS = {"b1": [(0, 0)], "w": [(0, 1), (1, 0)], "b2": [(1, 1)]}


@pytest.mark.parametrize("colors, edges, rotations, message", [
    ({}, PATH_EDGES, {"b1": [(0, 0)], "b2": [(1, 1)]}, r"^missing rotation for w$"),
    ({}, PATH_EDGES, dict(PATH_ROTATIONS, w=[(0, 1)]),
     r"^rotation at w does not match incidences$"),
    ({}, PATH_EDGES + [("w", "w")], dict(PATH_ROTATIONS, w=[(0, 1), (1, 0), (2, 0), (2, 1)]),
     r"^self-loops are not supported$"),
    ({"x": "black"}, PATH_EDGES + [("w", "x")],
     dict(PATH_ROTATIONS, w=[(0, 1), (1, 0), (2, 0)], x=[(2, 1)]),
     r"^internal leaf x is not a lollipop$"),
    ({"u": "white", "v": "black"}, PATH_EDGES + [("u", "v"), ("u", "v")],
     dict(PATH_ROTATIONS, u=[(2, 0), (3, 0)], v=[(2, 1), (3, 1)]),
     r"^vertices not connected to the boundary: \{'[uv]', '[uv]'\}$"),
], ids=["missing-rotation", "rotation-mismatch", "self-loop", "leaf", "stranded"])
def test_plabic_graph_refuses_a_malformed_embedding(colors, edges, rotations, message):
    with pytest.raises(ValueError, match=message):
        PlabicGraph(2, {"w": "white", **colors}, edges, rotations)
    assert PlabicGraph(2, {"w": "white"}, PATH_EDGES, PATH_ROTATIONS).n == 2


def test_from_keyed_numbers_edges_in_dict_order():
    # b1 - w - b2, then edge 0 subdivided by a black vertex m0 by hand
    G = PlabicGraph(2, {"w": "white"}, [("b1", "w"), ("w", "b2")],
                    {"b1": [(0, 0)], "w": [(0, 1), (1, 0)], "b2": [(1, 1)]})
    edges = dict(enumerate(G.edges))
    del edges[0]
    edges["in"] = ("b1", "m0")
    edges["out"] = ("m0", "w")
    rotations = {"b1": [("in", 0)], "m0": [("in", 1), ("out", 0)],
                 "w": [("out", 1), (1, 0)], "b2": [(1, 1)]}
    H = PlabicGraph.from_keyed(2, {"w": "white", "m0": "black"}, edges, rotations)
    assert H.edges == (("w", "b2"), ("b1", "m0"), ("m0", "w"))
    assert H.rotations == {"b1": ((1, 0),), "m0": ((1, 1), (2, 0)),
                           "w": ((2, 1), (0, 0)), "b2": ((0, 1),)}
    assert H.to_json() == apply_move(G, "M3_add", (0, "black")).to_json()


def test_bipartize_skips_vertex_names_the_graph_uses():
    G = PlabicGraph.from_json({
        "n": 2,
        "vertices": [{"id": "x0", "color": "white"}, {"id": "y", "color": "white"}],
        "edges": [["b1", "x0"], ["x0", "y"], ["y", "b2"]],
        "rotations": {"b1": [[0, 0]], "x0": [[0, 1], [1, 0]], "y": [[1, 1], [2, 0]],
                      "b2": [[2, 1]]},
    })
    H, weight_edge = bipartize(G)
    assert H.internal_vertices() == ["x0", "x1", "y"]
    assert H.colors["x1"] == "black" and weight_edge == {0: 0, 1: 1, 2: 3}
    M = positroid_of_graph(G)
    assert (M.k, M.bases) == (1, frozenset({frozenset({1}), frozenset({2})}))


def test_faces_count_euler():
    G = graphs.g1()
    fs = faces(G)
    assert sum(1 for f in fs if f.is_outer) == 1
    assert len(fs) == 5  # four inner faces plus the outer one


def test_matchings_can_be_empty():
    # three internal blacks but only two internal whites: every black must
    # pair with a distinct white, so no almost perfect matching exists
    colors = {"B1": "black", "B2": "black", "B3": "black",
              "w1": "white", "w2": "white"}
    edges = [("B1", "w1"), ("B1", "w2"), ("B2", "w1"), ("B2", "w2"),
             ("B3", "w1"), ("B3", "w2"), ("b1", "w1"), ("b2", "w2")]
    rot = {
        "B1": [(0, 0), (1, 0)],
        "B2": [(2, 0), (3, 0)],
        "B3": [(4, 0), (5, 0)],
        "w1": [(6, 1), (0, 1), (2, 1), (4, 1)],
        "w2": [(7, 1), (1, 1), (3, 1), (5, 1)],
        "b1": [(6, 0)], "b2": [(7, 0)],
    }
    G = PlabicGraph(2, colors, edges, rot)
    assert matchings(G) == ()
    with pytest.raises(ValueError):
        positroid_of_graph(G)


def test_trip_invariant_across_exhausted_move_class():
    # walk the whole size-capped move class of the quadrilateral graph and
    # check the decorated trips of every member
    G0 = graphs.g1()
    pi = trip_permutation(G0)
    cap = len(G0.internal_vertices()) + 1
    seen = {canonical_form(G0)}
    frontier = [G0]
    count = 1
    while frontier:
        nxt = []
        for H in frontier:
            for move, site in enumerate_move_sites(H):
                H2 = apply_move(H, move, site)
                if len(H2.internal_vertices()) > cap:
                    continue
                key = canonical_form(H2)
                if key in seen:
                    continue
                seen.add(key)
                assert trip_permutation(H2) == pi
                assert is_reduced(H2) == "reduced"
                count += 1
                nxt.append(H2)
        frontier = nxt
    assert count > 10
