"""Bounded breadth-first search over the move class: a reducedness oracle.

Slow and only conclusive when the size-capped class runs out, so it serves
the tests as an independent check of the trip criterion in
``positroid_lab.plabic.is_reduced``.  ``canonical_form`` names a graph up
to relabelling of its internal vertices, so the search can tell graphs
already seen.
"""

from __future__ import annotations

from positroid_lab.plabic import Dart, PlabicGraph, apply_move, boundary_id, enumerate_move_sites


def canonical_form(G: PlabicGraph) -> tuple:
    """Embedding-aware canonical encoding with boundary labels fixed."""
    name: dict[str, str] = {boundary_id(i): f"B{i:03d}" for i in range(1, G.n + 1)}
    anchor: dict[str, Dart] = {}
    counter = 0
    queue: list[Dart] = [G.dart_partner(G.rotations[boundary_id(i)][0])
                         for i in range(1, G.n + 1)]
    while queue:
        arrival = queue.pop(0)
        vtx = G.dart_vertex(arrival)
        if vtx in name:
            continue
        name[vtx] = f"I{counter:03d}"
        anchor[vtx] = arrival
        counter += 1
        rot = G.rotations[vtx]
        pos = rot.index(arrival)
        for t in range(1, len(rot)):
            queue.append(G.dart_partner(rot[(pos + t) % len(rot)]))
    slot_of: dict[Dart, tuple[str, int]] = {}
    ordered: dict[str, list[Dart]] = {}
    for vtx, rot in G.rotations.items():
        rot = list(rot)
        if vtx in anchor:
            pos = rot.index(anchor[vtx])
            rot = rot[pos:] + rot[:pos]
        ordered[vtx] = rot
        for i, d in enumerate(rot):
            slot_of[d] = (name[vtx], i)
    enc = []
    for vtx in sorted(G.rotations, key=lambda w: name[w]):
        colour = "-" if G.is_boundary(vtx) else G.colors[vtx][0]
        enc.append((name[vtx], colour,
                    tuple(slot_of[G.dart_partner(d)] for d in ordered[vtx])))
    return (G.n, tuple(enc))


def search_is_reduced(G: PlabicGraph, depth: int = 50, size_slack: int = 2) -> str:
    """"not_reduced" once two vertices joined by more than one edge appear;
    "reduced" when the size-capped class is exhausted without one;
    "unknown" when the depth budget runs out first.
    """
    if G.has_parallel_edges():
        return "not_reduced"
    cap = len(G.internal_vertices()) + size_slack
    seen = {canonical_form(G)}
    frontier = [G]
    for _ in range(depth):
        nxt = []
        for H in frontier:
            for move, site in enumerate_move_sites(H):
                try:
                    H2 = apply_move(H, move, site)
                except ValueError:
                    continue
                if len(H2.internal_vertices()) > cap:
                    continue
                key = canonical_form(H2)
                if key in seen:
                    continue
                seen.add(key)
                if H2.has_parallel_edges():
                    return "not_reduced"
                nxt.append(H2)
        frontier = nxt
        if not frontier:
            return "reduced"
    return "unknown"
