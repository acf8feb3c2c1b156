"""Seeds and quiver mutation from bicolored triangulations.

Each black polygon of a triangulated n-gon contributes cluster variables:
one per arc of its triangulation apart from a distinguished boundary arc,
frozen on the remaining boundary arcs and mutable on internal diagonals.
Variables evaluate to signed twistor ratios; flipping a diagonal matches
seed mutation, which the tests check numerically.  Seeds are immutable, so
``build_seed`` keeps one per triangulation and distinguished arcs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from types import MappingProxyType
from typing import Callable, Mapping

from .amplituhedron import AmplituhedronPoint, ZMatrix
from .triangulations import (
    BicoloredTriangulation,
    arcs_cross,
    area,
    flip,
    flippable_arcs,
    polygon_sides,
)
from .util import record

Arc = tuple[int, int]

__all__ = [
    "ArcVariable",
    "ExchangeVariable",
    "Seed",
    "black_polygons",
    "default_distinguished",
    "build_seed",
    "mutate",
    "flip",
    "flippable_arcs",
    "cluster_adjacency_check",
]


Twistor = Callable[[tuple[int, ...]], tuple[int, int]]


@record
class ArcVariable:
    """Signed twistor ratio attached to an arc of a black polygon."""

    arc: Arc
    arc_area: int
    dist_arc: Arc
    dist_area: int

    def value(self, tw: Twistor):
        """(-1)^(arc_area - dist_area) times the ratio of the two twistors of
        one point against one Z, given as pairs ``tw(I) = (num, den)`` with
        den > 0: one Fraction of two pairs."""
        dist_num, dist_den = tw(self.dist_arc)
        if not dist_num:
            return "boundary"
        num, den = tw(self.arc)
        sgn = -1 if (self.arc_area - self.dist_area) % 2 else 1
        return Fraction(sgn * num * dist_den, den * dist_num)

    def label(self) -> str:
        return f"x{self.arc[0]}{self.arc[1]}"


@record
class ExchangeVariable:
    """(product over incoming + product over outgoing) / replaced variable."""

    incoming: tuple
    outgoing: tuple
    old: object

    def value(self, tw: Twistor):
        vals = [v.value(tw) for v in (*self.incoming, *self.outgoing, self.old)]
        if "boundary" in vals or not vals[-1]:
            return "boundary"
        i = len(self.incoming)
        return (prod(vals[:i]) + prod(vals[i:-1])) / vals[-1]

    def label(self) -> str:
        return f"mu({self.old.label()})"


@record
class Seed:
    """Quiver on arc-labelled vertices with attached variables; ``arrows``
    and ``variables`` are read-only copies of the mappings given."""

    keys: tuple[Arc, ...]
    frozen: frozenset[Arc]
    arrows: Mapping[tuple[Arc, Arc], int]
    variables: Mapping[Arc, object]

    def __post_init__(self):
        object.__setattr__(self, "arrows", MappingProxyType(dict(self.arrows)))
        object.__setattr__(self, "variables", MappingProxyType(dict(self.variables)))

    def mutable_keys(self) -> list[Arc]:
        return [k for k in self.keys if k not in self.frozen]

    def cluster_size(self) -> int:
        return len(self.keys)

    def arrow_multiset(self) -> frozenset:
        return frozenset((u, v, m) for (u, v), m in sorted(self.arrows.items()) if m)

    def evaluate(self, Y: AmplituhedronPoint, Z: ZMatrix) -> dict[Arc, object]:
        tw = Y.signs[Z].pair
        return {k: self.variables[k].value(tw) for k in self.keys}

    def to_json(self) -> dict:
        return {
            "vertices": [{"arc": list(k), "frozen": k in self.frozen,
                          "label": self.variables[k].label()} for k in self.keys],
            "arrows": [[list(u), list(v), m]
                       for (u, v), m in sorted(self.arrows.items()) if m],
        }


def black_polygons(T: BicoloredTriangulation) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(p)) for p in T.subdivision.black_polygons)


def default_distinguished(T: BicoloredTriangulation) -> dict[tuple[int, ...], Arc]:
    """Lexicographically smallest boundary arc of each black polygon."""
    return {poly: polygon_sides(poly)[0] for poly in black_polygons(T)}


def build_seed(T: BicoloredTriangulation,
               distinguished: Mapping[tuple[int, ...], Arc] | None = None) -> Seed:
    """Quiver and twistor-ratio cluster of a type (k, n) triangulation.

    The extended cluster has size 2k: each black polygon with v vertices
    carries 2(v - 2) arcs once its distinguished boundary arc is dropped.
    The seed is kept per T and the distinguished arcs, so a second call
    returns the same (immutable) seed.
    """
    if not distinguished:
        return _seed(T)
    default = default_distinguished(T)
    dist = dict(default)
    for poly, arc in distinguished.items():
        poly = tuple(sorted(poly))
        arc = _arc(arc)
        if poly not in dist:
            raise ValueError(f"{poly} is not a black polygon")
        if arc not in polygon_sides(poly):
            raise ValueError(f"{arc} is not a boundary arc of {poly}")
        dist[poly] = arc
    return _seed(T) if dist == default else _seed(T, tuple(sorted(dist.items())))


@lru_cache(maxsize=None)
def _seed(T: BicoloredTriangulation, dist_items: tuple | None = None) -> Seed:
    """``build_seed`` with all distinguished arcs as (polygon, arc) items,
    or the default ones."""
    dist = dict(dist_items) if dist_items else default_distinguished(T)
    areas = dict(T.arc_areas)
    keys: list[Arc] = []
    frozen: set[Arc] = set()
    variables: dict[Arc, object] = {}
    for poly in black_polygons(T):
        boundary = set(polygon_sides(poly))
        d = dist[poly]
        arcs_in_poly = {arc for tri in T.black if set(tri) <= set(poly)
                        for arc in combinations(tri, 2)}
        for arc in sorted(arcs_in_poly - {d}):
            keys.append(arc)
            if arc in boundary:
                frozen.add(arc)
            variables[arc] = ArcVariable(arc, areas[arc], d, areas[d])
    b: dict[tuple[Arc, Arc], int] = {}  # arrows u -> v minus arrows v -> u
    for tri in sorted(T.black):
        ab, ac, bc = combinations(tri, 2)  # clockwise walk a -> b -> c -> a
        for u, v in ((ab, bc), (bc, ac), (ac, ab)):
            if u in variables and v in variables and not {u, v} <= frozen:
                b[u, v] = b.get((u, v), 0) + 1
                b[v, u] = b.get((v, u), 0) - 1
    arrows = {uv: m for uv, m in b.items() if m > 0}
    return Seed(tuple(keys), frozenset(frozen), arrows, variables)


def _arc(arc) -> Arc:
    if len(arc) != 2 or arc[0] == arc[1]:
        raise ValueError(f"{arc} is not an arc on two distinct vertices")
    return (min(arc), max(arc))


def mutate(S: Seed, key: Arc, new_key: Arc | None = None) -> Seed:
    """Fomin-Zelevinsky mutation of the exchange matrix b(u, v), the arrows
    u -> v minus the arrows v -> u, at a mutable vertex.

    The new variable is (product over arrows in + product over arrows out)
    divided by the old one; frozen variables may appear in the products,
    and arrows between two frozen vertices are dropped.  ``new_key``
    optionally relabels the mutated vertex (the flipped arc); it may not
    name another vertex.
    """
    key = _arc(key)
    if key not in S.keys:
        raise ValueError(f"no vertex {key}")
    if key in S.frozen:
        raise ValueError(f"vertex {key} is frozen")
    nk = key if new_key is None else _arc(new_key)
    if nk != key and nk in S.keys:
        raise ValueError(f"{nk} already names another vertex")

    def b(u, v):
        return S.arrows.get((u, v), 0) - S.arrows.get((v, u), 0)

    new_var = ExchangeVariable(tuple(S.variables[u] for u in S.keys for _ in range(b(u, key))),
                               tuple(S.variables[w] for w in S.keys for _ in range(b(key, w))),
                               S.variables[key])
    keys = tuple(nk if k == key else k for k in S.keys)
    arrows = {}
    for u, u2 in zip(S.keys, keys):
        for v, v2 in zip(S.keys, keys):
            m = -b(u, v) if key in (u, v) else (
                b(u, v) + (abs(b(u, key)) * b(key, v) + b(u, key) * abs(b(key, v))) // 2)
            if m > 0 and not {u, v} <= S.frozen:
                arrows[u2, v2] = m
    variables = {k2: new_var if k == key else S.variables[k] for k, k2 in zip(S.keys, keys)}
    return Seed(keys, S.frozen, arrows, variables)


def cluster_adjacency_check(T: BicoloredTriangulation) -> dict:
    """Facet arcs of the m = 2 tile of T and the twistor sign of every arc
    compatible with them, by theorem (Parisi-Sherman-Bennett-Williams,
    arXiv 2104.08254): the facets lie on the sides of T's black polygons,
    which are pairwise noncrossing, and every other arc (h, l) crossing
    none of them has the fixed sign (-1)^area(T, h, l) of <Y Z_h Z_l> on
    the open tile.  The result is the JSON record {facet_arcs: [[h, l], ...],
    compatible_tested: [[[h, l], sign], ...]}."""
    facet_arcs = sorted({a for poly in black_polygons(T) for a in polygon_sides(poly)})
    return {"facet_arcs": [list(a) for a in facet_arcs],
            "compatible_tested": [[[h, l], (-1) ** area(T, h, l)]
                                  for h in range(1, T.n + 1) for l in range(h + 1, T.n + 1)
                                  if (h, l) not in facet_arcs
                                  and not any(arcs_cross((h, l), a) for a in facet_arcs)]}
