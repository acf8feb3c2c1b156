"""Pinned example graphs used across the test suite and demos."""

from __future__ import annotations

from .plabic import PlabicGraph, dual_graph_of_triangulation
from .triangulations import BicoloredTriangulation


def g1() -> PlabicGraph:
    """Bipartite quadrilateral graph on four boundary vertices.

    One black centre joined to three whites; whites reach boundary 1, 2 and
    (twice) the bottom white reaches 3 and 4.  Trip permutation (3,1,4,2),
    five almost perfect matchings with supports 12, 13, 14, 23, 24.
    """
    edges = [
        ("b1", "wa"),   # 0
        ("b2", "wb"),   # 1
        ("b3", "wc"),   # 2
        ("b4", "wc"),   # 3
        ("B", "wa"),    # 4
        ("B", "wb"),    # 5
        ("B", "wc"),    # 6
    ]
    colors = {"B": "black", "wa": "white", "wb": "white", "wc": "white"}
    rotations = {
        "b1": [(0, 0)],
        "b2": [(1, 0)],
        "b3": [(2, 0)],
        "b4": [(3, 0)],
        "wa": [(0, 1), (4, 1)],
        "wb": [(1, 1), (5, 1)],
        "B": [(4, 0), (5, 0), (6, 0)],      # clockwise: wa, wb, wc
        "wc": [(6, 1), (2, 1), (3, 1)],     # clockwise: B, b3, b4
    }
    return PlabicGraph(4, colors, edges, rotations)


def nine_gon_fan() -> PlabicGraph:
    """Black-trivalent graph on nine boundary vertices with trip permutation
    (5,9,2,3,6,4,1,7,8); its T-dual graph has trip permutation (8,5,9,2,3,6_,4,1,7)."""
    T = BicoloredTriangulation.make(
        9,
        black=[(7, 8, 9), (1, 7, 9), (2, 3, 7), (3, 4, 7), (4, 5, 7)],
        white=[(1, 2, 7), (5, 6, 7)],
    )
    return dual_graph_of_triangulation(T)


def fig_plabic_graph() -> PlabicGraph:
    """Nine-boundary graph with five trivalent whites, nine blacks on stems,
    and a black lollipop at 6; trip permutation (8,5,9,2,3,6_,4,1,7).

    Rotation data transcribed from a drawn embedding: a1..a9 sit on an
    inner ring (a1 under boundary 1, a2 under 9, a3 under 8, a4 under 7,
    a5 under 6, a6 under 5, a7 under 4, a8 under 3, a9 under 2).
    """
    edges = [
        ("b1", "a1"),    # 0  stems
        ("b9", "a2"),    # 1
        ("b8", "a3"),    # 2
        ("b7", "a4"),    # 3
        ("b6", "a5"),    # 4
        ("b5", "a6"),    # 5
        ("b4", "a7"),    # 6
        ("b3", "a8"),    # 7
        ("b2", "a9"),    # 8
        ("W1", "a1"),    # 9
        ("W1", "a2"),    # 10
        ("W1", "a4"),    # 11
        ("W2", "a2"),    # 12
        ("W2", "a3"),    # 13
        ("W2", "a4"),    # 14
        ("W3", "a4"),    # 15
        ("W3", "a9"),    # 16
        ("W3", "a8"),    # 17
        ("W4", "a4"),    # 18
        ("W4", "a6"),    # 19
        ("W4", "a7"),    # 20
        ("W5", "a4"),    # 21
        ("W5", "a7"),    # 22
        ("W5", "a8"),    # 23
    ]
    colors = {f"a{i}": "black" for i in range(1, 10)}
    colors.update({f"W{i}": "white" for i in range(1, 6)})
    rotations = {
        "b1": [(0, 0)], "b9": [(1, 0)], "b8": [(2, 0)], "b7": [(3, 0)],
        "b6": [(4, 0)], "b5": [(5, 0)], "b4": [(6, 0)], "b3": [(7, 0)],
        "b2": [(8, 0)],
        "a1": [(0, 1), (9, 1)],
        "a2": [(1, 1), (10, 1), (12, 1)],
        "a3": [(2, 1), (13, 1)],
        "a4": [(3, 1), (14, 1), (11, 1), (15, 1), (21, 1), (18, 1)],
        "a5": [(4, 1)],
        "a6": [(5, 1), (19, 1)],
        "a7": [(6, 1), (20, 1), (22, 1)],
        "a8": [(7, 1), (23, 1), (17, 1)],
        "a9": [(8, 1), (16, 1)],
        "W1": [(9, 0), (11, 0), (10, 0)],
        "W2": [(12, 0), (14, 0), (13, 0)],
        "W3": [(16, 0), (17, 0), (15, 0)],
        "W4": [(18, 0), (20, 0), (19, 0)],
        "W5": [(21, 0), (23, 0), (22, 0)],
    }
    return PlabicGraph(9, colors, edges, rotations)
