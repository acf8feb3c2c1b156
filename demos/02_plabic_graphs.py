"""Plabic graphs: trips, matchings, weighted measurement, moves.

The quadrilateral graph has five almost perfect matchings whose boundary
supports spell out its positroid; weighting the edges sweeps out every
point of the cell, and local moves never change the decorated trips.
"""

import json
from fractions import Fraction
from pathlib import Path
from random import Random

from positroid_lab.cells import cell_dimension
from positroid_lab.grassmann import matroid_of
from positroid_lab.plabic import (
    PlabicGraph,
    apply_move,
    bipartize,
    boundary_measurement,
    enumerate_move_sites,
    is_reduced,
    matchings,
    positroid_of_graph,
    trip_permutation,
)


def load(name: str) -> PlabicGraph:
    return PlabicGraph.from_json(json.loads((Path(__file__).parent / name).read_text()))


G = load("g1.json")
print("graph:", G)
print("trip permutation:", trip_permutation(G))

H, _ = bipartize(G)
print("\nalmost perfect matchings:")
for m in matchings(H):
    print("  boundary support", sorted(m.boundary), "edges", sorted(m.edges))
print("positroid:", positroid_of_graph(G).sorted_bases())

print("\nunit-weight measurement:")
P = boundary_measurement(G)
print("  ", {f"p{I[0]}{I[1]}": str(v) for I, v in sorted(P.coords.items())})

rng = Random(3)
w = {e: Fraction(rng.randint(1, 20)) for e in range(len(G.edges))}
Pw = boundary_measurement(G, w)
print("random weights give another point of the same cell:")
print("  matroid unchanged:", matroid_of(Pw).bases == positroid_of_graph(G).bases)
print("cell dimension from the Grassmann necklace of the positroid:", cell_dimension(G))

print("\nthe nine-boundary drawn graph:")
big = load("fig_plabic_graph.json")
print("  trips:", trip_permutation(big))

print("\napplying six random local moves, trips after each:")
cur = big
for step in range(6):
    sites = enumerate_move_sites(cur)
    move, site = sites[rng.randrange(len(sites))]
    cur = apply_move(cur, move, site)
    print(f"  {move:10s} -> {trip_permutation(cur)}")

print("\ntrip-criterion reducedness of the quadrilateral graph:", is_reduced(G))
