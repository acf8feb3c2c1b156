"""Bounded breadth-first search over the move class: a reducedness oracle.

Slow and only conclusive when the size-capped class runs out, so it serves
the tests as an independent check of the trip criterion in
``positroid_lab.plabic.is_reduced``.
"""

from __future__ import annotations

from positroid_lab.plabic import PlabicGraph, apply_move, canonical_form, enumerate_move_sites


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
