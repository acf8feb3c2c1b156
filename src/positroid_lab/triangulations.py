"""Bicolored triangulations and subdivisions of a convex n-gon.

Vertices are labelled 1..n clockwise.  A type (k, n) triangulation has k
black triangles; erasing diagonals between like-coloured neighbours gives
the bicolored subdivision that represents its equivalence class.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations

from .perms import DecoratedPermutation
from .util import record

Triangle = tuple[int, int, int]
Arc = tuple[int, int]

__all__ = [
    "BicoloredTriangulation",
    "BicoloredSubdivision",
    "first_triangulation_containing",
    "enumerate_subdivisions",
    "class_representative",
    "flip",
    "flippable_arcs",
    "area",
    "arcs_cross",
    "polygon_sides",
    "fan_triangulation",
]


def _norm_tri(t) -> Triangle:
    a, b, c = sorted(t)
    if len({a, b, c}) != 3:
        raise ValueError(f"degenerate triangle {t}")
    return (a, b, c)


@record
class BicoloredTriangulation:
    n: int
    black: frozenset[Triangle]
    white: frozenset[Triangle]

    def __post_init__(self):
        tris = self.black | self.white
        for t in tris:
            if len(t) != 3 or not t[0] < t[1] < t[2]:
                raise ValueError(f"triangle {t} is not written in increasing order")
        if self.black & self.white:
            raise ValueError("a triangle cannot be both colours")
        if self.n < 3:
            raise ValueError("need n >= 3")
        if len(tris) != self.n - 2:
            raise ValueError(f"a triangulated {self.n}-gon has {self.n - 2} triangles")
        arcs = arcs_of_triangles(tris)
        for x, y in arcs:
            if not (1 <= x < y <= self.n):
                raise ValueError(f"arc {(x, y)} outside the {self.n}-gon")
        # a side of the polygon strictly crosses no chord, so only pairs of
        # diagonals can cross
        diagonals = sorted(a for a in arcs if not self.is_side(a))
        for a, b in combinations(diagonals, 2):
            if arcs_cross(a, b):
                raise ValueError(f"arcs {a} and {b} cross")
        # n - 2 distinct triangles whose arcs do not cross are the regions of
        # those arcs, so they triangulate the polygon: each side bounds one

    @classmethod
    def make(cls, n: int, black=(), white=()) -> "BicoloredTriangulation":
        return cls(n, frozenset(_norm_tri(t) for t in black),
                   frozenset(_norm_tri(t) for t in white))

    @property
    def k(self) -> int:
        return len(self.black)

    @property
    def triangles(self) -> frozenset[Triangle]:
        return self.black | self.white

    def colour(self, tri: Triangle) -> str:
        tri = _norm_tri(tri)
        if tri in self.black:
            return "black"
        if tri in self.white:
            return "white"
        raise KeyError(tri)

    def arcs(self) -> frozenset[Arc]:
        return arcs_of_triangles(self.triangles)

    def diagonals(self) -> frozenset[Arc]:
        return frozenset(a for a in self.arcs() if not self.is_side(a))

    def is_side(self, arc: Arc) -> bool:
        x, y = arc
        return y == x + 1 or (x == 1 and y == self.n)

    @cached_property
    def subdivision(self) -> "BicoloredSubdivision":
        """The subdivision of T's class: like-coloured neighbours merged.

        Computed once per instance, like ``arc_areas`` and ``arc_masks``;
        all stay out of equality, hashing and ``repr``, which read the
        fields only."""
        tris = sorted(self.triangles)
        parent = {t: t for t in tris}

        def find(t):
            while parent[t] != t:
                parent[t] = parent[parent[t]]
                t = parent[t]
            return t

        for i, t1 in enumerate(tris):
            for t2 in tris[i + 1:]:
                if len(set(t1) & set(t2)) == 2 and self.colour(t1) == self.colour(t2):
                    parent[find(t1)] = find(t2)
        groups: dict[Triangle, set[int]] = {}
        colour_of: dict[Triangle, str] = {}
        for t in tris:
            r = find(t)
            groups.setdefault(r, set()).update(t)
            colour_of[r] = self.colour(t)
        black, white = set(), set()
        for r, verts in groups.items():
            poly = tuple(sorted(verts))
            (black if colour_of[r] == "black" else white).add(poly)
        return BicoloredSubdivision(self.n, frozenset(black), frozenset(white))

    @cached_property
    def arc_areas(self) -> tuple[tuple[Arc, int], ...]:
        """(arc, area) for each arc of T in sorted order."""
        return tuple(((h, j), area(self, h, j)) for h, j in sorted(self.arcs()))

    @cached_property
    def arc_masks(self) -> tuple[int, int]:
        """(arcs, odd): bit (h-1)*n + (j-1) set for each arc (h, j) of T, and
        for each arc of odd area."""
        arcs = odd = 0
        for (h, j), a in self.arc_areas:
            bit = 1 << ((h - 1) * self.n + j - 1)
            arcs |= bit
            if a % 2:
                odd |= bit
        return arcs, odd

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "black": sorted(sorted(t) for t in self.black),
            "white": sorted(sorted(t) for t in self.white),
        }

    def __repr__(self):
        b = ",".join("".join(map(str, t)) if self.n < 10 else str(t)
                     for t in sorted(self.black))
        return f"BicoloredTriangulation(n={self.n}, black=[{b}])"


@record
class BicoloredSubdivision:
    """Black/white polygons of the n-gon; the class invariant of a triangulation."""

    n: int
    black_polygons: frozenset[tuple[int, ...]]
    white_polygons: frozenset[tuple[int, ...]]

    def key(self) -> tuple:
        return (self.n, tuple(sorted(self.black_polygons)))

    def trip_permutation(self) -> DecoratedPermutation:
        """The trip permutation of the dual tree, walked on the polygons: leg
        i sits on the side (i, i+1); a trip entering a polygon (vertices in
        increasing order) through its side (a, b) leaves a white one through
        the next side (b, c) and a black one through the previous side
        (z, a); a diagonal (x, y) leads on into the side (y, x) of the
        neighbouring polygon; the trip of i stops at a side (j, j+1) of the
        n-gon, and pi(i) = j.  The tree has no lollipop, so no fixed point."""
        n, turn = self.n, {}
        for polygons, step in ((self.white_polygons, 1), (self.black_polygons, -1)):
            for poly in polygons:
                ps = sorted(poly)
                sides = list(zip(ps, ps[1:] + ps[:1]))
                for s, side in enumerate(sides):
                    turn[side] = sides[(s + step) % len(sides)]
        images = []
        for i in range(1, n + 1):
            a, b = turn[(i, i % n + 1)]
            while b != a % n + 1:
                a, b = turn[(b, a)]
            images.append(a)
        return DecoratedPermutation(tuple(images), frozenset(), frozenset())


def _norm_arc(x: int, y: int) -> Arc:
    return (x, y) if x < y else (y, x)


def _has_arc(tri: Triangle, arc: Arc) -> bool:
    return arc[0] in tri and arc[1] in tri


def arcs_of_triangles(tris) -> frozenset[Arc]:
    out = set()
    for a, b, c in tris:
        out |= {_norm_arc(a, b), _norm_arc(b, c), _norm_arc(a, c)}
    return frozenset(out)


def polygon_sides(poly) -> list[Arc]:
    """The sides of the convex polygon on the vertices ``poly``, as sorted arcs."""
    ps = sorted(poly)
    return sorted(_norm_arc(a, b) for a, b in zip(ps, ps[1:] + ps[:1]))


def arcs_cross(a: Arc, b: Arc) -> bool:
    """Strict crossing of chords of a convex polygon."""
    (p, q), (r, s) = a, b
    return (p < r < q < s) or (r < p < s < q)


def first_triangulation_containing(n: int, tris) -> frozenset[Triangle]:
    """The first triangulation of the n-gon that contains the triangles
    ``tris``, where those of a polygon a..z sort by the apex of their
    triangle on (a, z), lowest first, then by their parts on (a, apex) and
    (apex, z) in that order.  No other is listed: split each polygon at the
    first apex whose two new sides cross no arc of ``tris``, then complete
    both parts (from a stack, so no recursion depth grows with n).  If the
    arcs of ``tris`` cross, no triangulation holds them and the result
    misses some of ``tris``; callers check."""
    arcs = arcs_of_triangles(tris)
    out, stack = set(), [tuple(range(1, n + 1))]
    while stack:
        cycle = stack.pop()
        if len(cycle) < 3:
            continue
        a, z = cycle[0], cycle[-1]
        m = next((m for m in range(1, len(cycle) - 1)
                  if not any(arcs_cross(side, arc) for arc in arcs
                             for side in ((a, cycle[m]), (cycle[m], z)))), 1)
        out.add(_norm_tri((a, cycle[m], z)))
        stack += [cycle[: m + 1], cycle[m:]]
    return frozenset(out)


def fan_triangulation(poly: tuple[int, ...]) -> frozenset[Triangle]:
    """Fan a convex polygon (given by sorted vertex tuple) from its first vertex."""
    return frozenset(_norm_tri((poly[0], poly[i], poly[i + 1]))
                     for i in range(1, len(poly) - 1))


def class_representative(S: BicoloredSubdivision) -> BicoloredTriangulation:
    """Canonical triangulation of a subdivision: fan every polygon."""
    black, white = set(), set()
    for p in S.black_polygons:
        black |= fan_triangulation(p)
    for p in S.white_polygons:
        white |= fan_triangulation(p)
    return BicoloredTriangulation(S.n, frozenset(black), frozenset(white))


def _chains(a: int, j: int, runs: int) -> list[tuple[int, ...]]:
    """The chains a < ... < j that skip at most ``runs`` runs of vertices."""
    if a == j:
        return [(j,)]
    return [(a, *c) for b in range(a + 1, j + 1) if b == a + 1 or runs
            for c in _chains(b, j, runs - (b > a + 1))]


@lru_cache(maxsize=None)
def _rooted_subdivisions(i: int, j: int, black: bool, k: int) -> tuple[tuple, ...]:
    """Bicolored subdivisions of the polygon on i..j with k black triangles
    whose cell on the side (i, j) is black (or white), as pairs (black
    polygons, white polygons).  That cell keeps i, j and some vertices in
    between; the polygon cut off under each of its other sides is
    subdivided in turn, with the other colour on that side.  A black cell
    takes r of the k triangles, and under a white one each cut-off polygon
    takes at least one, so a white cell is a chain from i to j that skips
    at most k runs of vertices, and no cell over budget is built."""
    if black:
        cells = [(i, *mid, j) for r in range(1, min(j - i, k + 1))
                 for mid in combinations(range(i + 1, j), r)]
    else:
        cells = [c for c in _chains(i, j, k) if len(c) > 2]
    out = []
    for cell in cells:
        rest = k - len(cell) + 2 if black else k
        cuts = [(a, b) for a, b in zip(cell, cell[1:]) if b - a >= 2]
        partial = [(0, (cell,), ()) if black else (0, (), (cell,))]
        for a, b in cuts:
            partial = [(used + m, bl + sub_bl, wh + sub_wh)
                       for used, bl, wh in partial
                       for m in range(rest - used + 1)
                       for sub_bl, sub_wh in _rooted_subdivisions(a, b, not black, m)]
        out += [(bl, wh) for used, bl, wh in partial if used == rest]
    return tuple(out)


def enumerate_subdivisions(n: int, k: int) -> list[BicoloredSubdivision]:
    """Equivalence classes of type (k, n) triangulations, ordered by key.

    A class is a dissection of the n-gon whose neighbouring polygons have
    different colours, so the subdivisions are generated directly, from
    the cell on the side (1, n) down."""
    if n < 3:
        raise ValueError("need n >= 3")
    return sorted((BicoloredSubdivision(n, frozenset(bl), frozenset(wh))
                   for black in (True, False)
                   for bl, wh in _rooted_subdivisions(1, n, black, k)),
                  key=BicoloredSubdivision.key)


def flippable_arcs(T: BicoloredTriangulation) -> list[Arc]:
    """Diagonals interior to one black polygon (both incident triangles black)."""
    out = []
    for arc in T.diagonals():
        touching = [t for t in T.triangles if _has_arc(t, arc)]
        if len(touching) == 2 and all(t in T.black for t in touching):
            out.append(arc)
    return sorted(out)


def flip(T: BicoloredTriangulation, arc: Arc) -> BicoloredTriangulation:
    """Exchange the diagonal of the black quadrilateral around ``arc``."""
    arc = _norm_arc(*arc)
    if arc not in flippable_arcs(T):
        raise ValueError(f"arc {arc} is not flippable (frozen, boundary, or white)")
    t1, t2 = (t for t in T.triangles if _has_arc(t, arc))
    others = (set(t1) | set(t2)) - set(arc)
    b, d = sorted(others)
    new1, new2 = _norm_tri((arc[0], b, d)), _norm_tri((arc[1], b, d))
    black = (T.black - {t1, t2}) | {new1, new2}
    return BicoloredTriangulation(T.n, frozenset(black), T.white)


def area(T: BicoloredTriangulation, h: int, j: int) -> int:
    """Black triangles of T on the side of arc h -> j cut off by {h..j}.

    The arc must be compatible with the subdivision class of T: either an
    arc of T or a chord crossing no region boundary.  The count only
    depends on the class.
    """
    h, j = _norm_arc(h, j)
    if not (1 <= h < j <= T.n):
        raise ValueError(f"arc ({h},{j}) outside the {T.n}-gon")
    S = T.subdivision
    interval = set(range(h, j + 1))
    if any(arcs_cross((h, j), a) for poly in S.black_polygons | S.white_polygons
           for a in polygon_sides(poly)):
        raise ValueError(f"arc ({h},{j}) is incompatible with the subdivision of T")
    # a compatible chord meets at most one region's interior, so the piece of
    # each black polygon on the {h..j} side triangulates into |P & I| - 2 parts
    total = 0
    for poly in S.black_polygons:
        inside = len(set(poly) & interval)
        total += max(inside - 2, 0)
    return total
