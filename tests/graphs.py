"""The example plabic graphs of the demos: two read from their JSON files
under ``demos/``, one built from its bicolored triangulation."""

import json
from pathlib import Path

from positroid_lab.plabic import PlabicGraph, dual_graph_of_triangulation
from positroid_lab.triangulations import BicoloredTriangulation

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load(name: str) -> PlabicGraph:
    return PlabicGraph.from_json(json.loads((DEMOS / name).read_text()))


def g1() -> PlabicGraph:
    """Bipartite quadrilateral graph on four boundary vertices: one black
    centre joined to three whites, which reach boundary 1, 2 and (the
    bottom one) 3 and 4.  Trip permutation (3,1,4,2), five almost perfect
    matchings with supports 12, 13, 14, 23, 24."""
    return load("g1.json")


def fig_plabic_graph() -> PlabicGraph:
    """Nine-boundary graph with five trivalent whites, nine blacks on stems,
    and a black lollipop at 6; trip permutation (8,5,9,2,3,6_,4,1,7).  Its
    rotations come from a drawn embedding with a1..a9 on an inner ring
    under boundary 1, 9, 8, ..., 2."""
    return load("fig_plabic_graph.json")


def nine_gon_fan() -> PlabicGraph:
    """Black-trivalent graph on nine boundary vertices with trip permutation
    (5,9,2,3,6,4,1,7,8); its T-dual graph has the trips of ``fig_plabic_graph``."""
    return dual_graph_of_triangulation(BicoloredTriangulation.make(
        9, black=[(7, 8, 9), (1, 7, 9), (2, 3, 7), (3, 4, 7), (4, 5, 7)],
        white=[(1, 2, 7), (5, 6, 7)]))
