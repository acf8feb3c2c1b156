"""Seeds and quiver mutation from bicolored triangulations.

Each black polygon of a triangulated n-gon contributes cluster variables:
one per arc of its triangulation apart from a distinguished boundary arc,
frozen on the remaining boundary arcs and mutable on internal diagonals.
Variables evaluate to signed twistor ratios; flipping a diagonal matches
seed mutation, which the tests check numerically.  Seeds are immutable, so
``build_seed`` keeps one per triangulation and distinguished arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

from .amplituhedron import ZMatrix, _signs
from .triangulations import (
    BicoloredTriangulation,
    arcs_cross,
    area,
    flip,
    flippable_arcs,
    polygon_sides,
)

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


@dataclass(frozen=True)
class ArcVariable:
    """Signed twistor ratio attached to an arc of a black polygon."""

    arc: Arc
    arc_area: int
    dist_arc: Arc
    dist_area: int

    def evaluate(self, Y, Z: ZMatrix):
        """(-1)^(arc_area - dist_area) times the ratio of the two twistors."""
        return self.value(_signs(Y, Z).pair)

    def value(self, tw: Twistor):
        """``evaluate`` on one point's twistors against one Z, as pairs
        ``tw(I) = (num, den)`` with den > 0: one Fraction of two pairs."""
        dist_num, dist_den = tw(self.dist_arc)
        if not dist_num:
            return "boundary"
        num, den = tw(self.arc)
        sgn = -1 if (self.arc_area - self.dist_area) % 2 else 1
        return Fraction(sgn * num * dist_den, den * dist_num)

    def label(self) -> str:
        return f"x{self.arc[0]}{self.arc[1]}"


@dataclass(frozen=True)
class ExchangeVariable:
    """(product over incoming + product over outgoing) / replaced variable."""

    incoming: tuple
    outgoing: tuple
    old: object

    def evaluate(self, Y, Z: ZMatrix):
        return self.value(_signs(Y, Z).pair)

    def value(self, tw: Twistor):
        vals_in, vals_out = Fraction(1), Fraction(1)
        for v in self.incoming:
            x = v.value(tw)
            if x == "boundary":
                return "boundary"
            vals_in *= x
        for v in self.outgoing:
            x = v.value(tw)
            if x == "boundary":
                return "boundary"
            vals_out *= x
        denom = self.old.value(tw)
        if denom == "boundary" or denom == 0:
            return "boundary"
        return (vals_in + vals_out) / denom

    def label(self) -> str:
        return f"mu({self.old.label()})"


@dataclass(frozen=True)
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

    def evaluate(self, Y, Z: ZMatrix) -> dict[Arc, object]:
        tw = _signs(Y, Z).pair
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
        arc = (min(arc), max(arc))
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
        pset = set(poly)
        boundary = set(polygon_sides(poly))
        arcs_in_poly = set()
        for tri in T.black:
            if set(tri) <= pset:
                a, b, c = tri
                arcs_in_poly |= {(a, b), (b, c), (a, c)}
        d = dist[poly]
        for arc in sorted(arcs_in_poly):
            if arc == d:
                continue
            keys.append(arc)
            if arc in boundary:
                frozen.add(arc)
            variables[arc] = ArcVariable(arc, areas[arc], d, areas[d])
    arrows: dict[tuple[Arc, Arc], int] = {}
    for tri in sorted(T.black):
        a, b, c = tri
        cycle = [(a, b), (b, c), (a, c)]  # clockwise walk a -> b -> c -> a
        for t in range(3):
            u, v = cycle[t], cycle[(t + 1) % 3]
            if u in variables and v in variables:
                if u in frozen and v in frozen:
                    continue
                arrows[(u, v)] = arrows.get((u, v), 0) + 1
    _cancel_two_cycles(arrows)
    return Seed(tuple(keys), frozenset(frozen), arrows, variables)


def _cancel_two_cycles(arrows: dict[tuple[Arc, Arc], int]) -> None:
    for (u, v) in list(arrows):
        if arrows.get((u, v), 0) and arrows.get((v, u), 0):
            m = min(arrows[(u, v)], arrows[(v, u)])
            arrows[(u, v)] -= m
            arrows[(v, u)] -= m
    for key in [k for k, m in arrows.items() if m == 0]:
        del arrows[key]


def mutate(S: Seed, key: Arc, new_key: Arc | None = None) -> Seed:
    """Standard quiver mutation at a mutable vertex.

    The new variable is (product over arrows in + product over arrows out)
    divided by the old one; frozen variables may appear in the products.
    ``new_key`` optionally relabels the mutated vertex (the flipped arc).
    """
    key = (min(key), max(key))
    if key not in S.keys:
        raise ValueError(f"no vertex {key}")
    if key in S.frozen:
        raise ValueError(f"vertex {key} is frozen")
    incoming = [(u, m) for (u, v), m in S.arrows.items() if v == key and m]
    outgoing = [(w, m) for (v, w), m in S.arrows.items() if v == key and m]
    new_var = ExchangeVariable(
        tuple(S.variables[u] for u, m in incoming for _ in range(m)),
        tuple(S.variables[w] for w, m in outgoing for _ in range(m)),
        S.variables[key],
    )
    nk = key if new_key is None else (min(new_key), max(new_key))
    rename = {key: nk}
    arrows: dict[tuple[Arc, Arc], int] = {}
    for (u, v), m in S.arrows.items():
        if not m:
            continue
        if u == key or v == key:
            u2, v2 = rename.get(v, v), rename.get(u, u)  # reversal
            arrows[(u2, v2)] = arrows.get((u2, v2), 0) + m
        else:
            arrows[(u, v)] = arrows.get((u, v), 0) + m
    for u, mu in incoming:
        for w, mw in outgoing:
            arrows[(u, w)] = arrows.get((u, w), 0) + mu * mw
    _cancel_two_cycles(arrows)
    for pair in [p for p, m in arrows.items() if m and _both_frozen(S, rename, p)]:
        del arrows[pair]
    keys = tuple(nk if k == key else k for k in S.keys)
    variables = {nk if k == key else k: (new_var if k == key else S.variables[k])
                 for k in S.keys}
    return Seed(keys, S.frozen, arrows, variables)


def _both_frozen(S: Seed, rename, pair) -> bool:
    back = {new: old for old, new in rename.items()}
    u, v = pair
    return back.get(u, u) in S.frozen and back.get(v, v) in S.frozen


@dataclass
class AdjacencyReport:
    facet_arcs: list[Arc]
    compatible_tested: list[tuple[Arc, int]]

    def to_json(self) -> dict:
        return {
            "facet_arcs": [list(a) for a in self.facet_arcs],
            "compatible_tested": [[list(a), s] for a, s in self.compatible_tested],
        }


def cluster_adjacency_check(T: BicoloredTriangulation) -> AdjacencyReport:
    """Facet arcs of the m = 2 tile of T and the twistor sign of every arc
    compatible with them, by theorem (Parisi-Sherman-Bennett-Williams,
    arXiv 2104.08254): the facets lie on the sides of T's black polygons,
    which are pairwise noncrossing, and every other arc (h, l) crossing
    none of them has the fixed sign (-1)^area(T, h, l) of <Y Z_h Z_l> on
    the open tile."""
    facet_arcs = sorted({a for poly in black_polygons(T) for a in polygon_sides(poly)})
    compatible_tested = [((h, l), (-1) ** area(T, h, l))
                         for h in range(1, T.n + 1) for l in range(h + 1, T.n + 1)
                         if (h, l) not in facet_arcs
                         and not any(arcs_cross((h, l), a) for a in facet_arcs)]
    return AdjacencyReport(facet_arcs, compatible_tested)
