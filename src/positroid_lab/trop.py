"""Positive tropical Plücker vectors and the subdivisions they induce.

A height vector lifts the hypersimplex vertices; projecting the lower hull
of the lift gives a regular subdivision.  Heights satisfying the positive
three-term tropical exchange produce subdivisions all of whose faces are
positroid polytopes, and the finest ones are exactly the moment-map
tilings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_
from random import Random

from .exact import RatMatrix, kernel_basis, rank
from .grassmann import Matroid, exchange_quads, is_positroid
from .hypersimplex import cover_mask, enumerate_D
from .util import rat_from_str, rat_to_str, subset_from_key, subset_key, subsets

Subset = tuple[int, ...]

__all__ = [
    "HeightVector",
    "is_positive_tropical",
    "positivity_violation",
    "Subdivision",
    "SubdivisionCell",
    "regular_subdivision",
    "argmin_face",
    "faces_are_positroids",
    "is_finest",
    "octahedra_all_subdivided",
    "walls",
    "interior_face_count",
    "random_positive_tropical",
]


@dataclass(frozen=True)
class HeightVector:
    """Rational height per k-subset of [n]."""

    k: int
    n: int
    heights: tuple[Fraction, ...]  # aligned with subsets(n, k) in lex order

    @classmethod
    def make(cls, k: int, n: int, table) -> "HeightVector":
        order = subsets(n, k)
        if isinstance(table, dict):
            vals = [Fraction(table.get(I, table.get(subset_key(I), 0))) for I in order]
        else:
            vals = [Fraction(x) for x in table]
            if len(vals) != len(order):
                raise ValueError(f"expected {len(order)} heights")
        return cls(k, n, tuple(vals))

    def table(self) -> dict[Subset, Fraction]:
        return dict(zip(subsets(self.n, self.k), self.heights))

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "heights": {subset_key(I): rat_to_str(v)
                        for I, v in self.table().items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "HeightVector":
        """ValueError unless 0 <= k <= n are ints and heights maps distinct
        k-subsets of [n] to strings; absent subsets get height 0."""
        k, n = data["k"], data["n"]
        for key, v in (("k", k), ("n", n)):
            if type(v) is not int:
                raise ValueError(f"{key} must be an integer, not {v!r}")
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, not k = {k}, n = {n}")
        if not isinstance(data["heights"], dict):
            raise ValueError("heights must be an object of \"i,j,...\": \"p/q\" entries")
        table = {}
        for key, v in data["heights"].items():
            if not isinstance(v, str):
                raise ValueError(f"height of {key!r} must be a string \"p/q\", not {v!r}")
            I = subset_from_key(key)
            if len(set(I)) != k or len(I) != k or not all(1 <= i <= n for i in I):
                raise ValueError(f"height key {key!r} is not a {k}-subset of [{n}]")
            if I in table:
                raise ValueError(f"height key {key!r} repeats the subset {subset_key(I)}")
            table[I] = rat_from_str(v)
        return cls.make(k, n, table)


def positivity_violation(P: HeightVector):
    """First (S; a, b, c, d) where the positive exchange fails, else None.

    The requirement: P_Sac + P_Sbd equals min(P_Sab + P_Scd, P_Sad + P_Sbc).
    """
    tab = P.table()
    for S, a, b, c, d in exchange_quads(P.n, P.k):
        mid = tab[tuple(sorted(S + (a, c)))] + tab[tuple(sorted(S + (b, d)))]
        lo = min(tab[tuple(sorted(S + (a, b)))] + tab[tuple(sorted(S + (c, d)))],
                 tab[tuple(sorted(S + (a, d)))] + tab[tuple(sorted(S + (b, c)))])
        if mid != lo:
            return (S, a, b, c, d)
    return None


def is_positive_tropical(P: HeightVector) -> bool:
    return positivity_violation(P) is None


@dataclass(frozen=True)
class SubdivisionCell:
    vertices: frozenset[Subset]
    witness: tuple[Fraction, ...]

    def sorted_vertices(self) -> list[Subset]:
        return sorted(self.vertices)

    def matroid(self, k: int, n: int) -> Matroid:
        return Matroid(n, k, frozenset(frozenset(I) for I in self.vertices))


@dataclass(frozen=True)
class Subdivision:
    k: int
    n: int
    cells: tuple[SubdivisionCell, ...]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "cells": [{
                "vertices": [subset_key(I) for I in c.sorted_vertices()],
                "witness": [rat_to_str(x) for x in c.witness],
            } for c in self.cells],
        }


def _aff_rank_sets(n: int, sets: list[Subset]) -> int:
    if len(sets) <= 1:
        return 0
    base = set(sets[0])
    rows = []
    for I in sets[1:]:
        s = set(I)
        rows.append([Fraction(int(i in s) - int(i in base)) for i in range(1, n + 1)])
    return rank(RatMatrix.from_rows(rows))


def _face(gaps: dict[Subset, Fraction]) -> frozenset[Subset]:
    """The vertices I of least gap g_I = P_I - y . e_I: the face of tilt y."""
    low = min(gaps.values())
    return frozenset(I for I, g in gaps.items() if g == low)


def argmin_face(P: HeightVector, y) -> frozenset[Subset]:
    """Face of the subdivision selected by tilt y: argmin of P_I - y . e_I."""
    y = [Fraction(t) for t in y]
    return _face({I: h - sum(y[i - 1] for i in I) for I, h in P.table().items()})


def _shoot(y: list[Fraction], gaps: dict[Subset, Fraction], face: frozenset[Subset],
           u, d: dict[Subset, int]):
    """Move the tilt y along u, so that each gap g_I of y moves as g_I - t d_I
    (d_I = u . e_I), until a vertex outside ``face`` ties the face, whose
    gaps are equal and least: the next tilt, its gaps and its face, or None
    when no vertex J has d_J above the largest d on ``face``, so that none
    ever ties."""
    b = max(d[I] for I in face)
    g0 = gaps[next(iter(face))]
    t = min(((g - g0) / (d[J] - b) for J, g in gaps.items() if d[J] > b), default=None)
    if t is None:
        return None
    moved = {I: g - t * d[I] for I, g in gaps.items()}
    return [yi + t * ui for yi, ui in zip(y, u)], moved, _face(moved)


def _grow_to_cell(n: int, gaps: dict[Subset, Fraction], steps):
    """From the flat tilt, whose gaps are the heights, ray-shoot along the
    (u, d) of ``steps`` constant on the face until the face is
    full-dimensional (0 < k < n); returns (cell, witness, its gaps)."""
    y = [Fraction(0)] * n
    face = _face(gaps)
    while _aff_rank_sets(n, sorted(face)) < n - 1:
        for u, d in steps:
            if len({d[I] for I in face}) != 1:
                continue
            shot = _shoot(y, gaps, face, u, d)
            if shot is not None and face < shot[2]:
                y, gaps, face = shot
                break
        else:
            raise RuntimeError("could not grow a full-dimensional cell with "
                               "cyclic-interval tilts; heights are not positroidal")
    return face, y, gaps


def _interval_directions(n: int) -> list[list[int]]:
    """The indicator vectors of the n(n - 1) proper cyclic intervals of [n]
    and their negatives, by size and then lexicographically.  Positroid
    polytopes are cut out by inequalities on cyclic intervals
    (Ardila-Rincon-Williams), so these are the normals of every wall of a
    positroidal subdivision."""
    out = []
    for size in range(1, n):
        for S in sorted(tuple(sorted((i + t) % n + 1 for t in range(size)))
                        for i in range(n)):
            u = [int(i in S) for i in range(1, n + 1)]
            out.append(u)
            out.append([-x for x in u])
    return out


def _cells_by_wall_search(P: HeightVector) -> list[SubdivisionCell]:
    """Walk from a grown cell across every wall, shooting the witness of a
    cell along each cyclic-interval direction u that is not constant on it.
    Each cell keeps the gap table of its witness, and d_I = u . e_I is
    tabulated once per direction, so a shot moves gaps instead of summing."""
    n = P.n
    tab = P.table()
    steps = [(u, {I: sum(u[i - 1] for i in I) for I in tab})
             for u in _interval_directions(n)]
    start, y0, gaps0 = _grow_to_cell(n, tab, steps)
    cells = {start: (y0, gaps0)}
    queue = [start]
    while queue:
        cell = queue.pop()
        y, gaps = cells[cell]
        for u, d in steps:
            if len({d[I] for I in cell}) == 1:
                continue
            shot = _shoot(y, gaps, cell, u, d)
            if shot is None:
                continue
            y2, gaps2, nb = shot
            if nb not in cells and _aff_rank_sets(n, sorted(nb)) == n - 1:
                cells[nb] = (y2, gaps2)
                queue.append(nb)
    return [SubdivisionCell(c, tuple(cells[c][0])) for c in sorted(cells, key=sorted)]


def _cells_by_span_scan(P: HeightVector) -> list[SubdivisionCell]:
    """Complete lower-hull scan over candidate facet hyperplanes.

    Every facet hyperplane is spanned by n affinely independent lifted
    points, so scanning n-subsets finds them all; exponential in n but
    exact, and only used when the heights are not positive tropical.
    """
    n = P.n
    pts = [(I, h) for I, h in P.table().items()]
    if len(pts) == 1:
        return [SubdivisionCell(frozenset([pts[0][0]]), tuple([Fraction(0)] * n))]
    found: dict[frozenset, tuple[Fraction, ...]] = {}
    for combo in combinations(range(len(pts)), min(n, len(pts))):
        base_I, base_h = pts[combo[0]]
        rows = []
        for idx in combo[1:]:
            I, h = pts[idx]
            rows.append([Fraction(int(i in I) - int(i in base_I))
                         for i in range(1, n + 1)] + [h - base_h])
        K = kernel_basis(RatMatrix.from_rows(rows))
        normal = None
        for r in range(K.rows):
            cand = list(K.row(r))
            if cand[-1] != 0:
                normal = cand
                break
        if normal is None:
            continue
        a, b = normal[:-1], normal[-1]
        if b < 0:
            a, b = [-x for x in a], -b
        # phi(I) = a . e_I + b P_I, constant = c on the candidate plane
        c = sum(a[i - 1] for i in base_I) + b * base_h
        tight, ok = [], True
        for I, h in pts:
            val = sum(a[i - 1] for i in I) + b * h
            if val == c:
                tight.append(I)
            elif val < c:
                ok = False
                break
        if not ok:
            continue
        if _aff_rank_sets(n, tight) != (n - 1 if 0 < P.k < n else 0):
            continue
        witness = tuple(-Fraction(x, b) for x in a)
        found.setdefault(frozenset(tight), witness)
    return [SubdivisionCell(c, found[c]) for c in sorted(found, key=sorted)]


def regular_subdivision(P: HeightVector) -> Subdivision:
    """All full-dimensional cells of the regular subdivision, each with an
    exact witness tilt whose argmin reproduces the cell.

    Positive tropical heights use an exact wall-crossing search (walls of
    positroidal subdivisions have cyclic-interval normals), audited as an
    exact cover of the staircase simplices; anything else falls back to a
    complete hyperplane scan.
    """
    n, k = P.n, P.k
    if k == 0 or k == n:
        only = subsets(n, k)[0]
        return Subdivision(k, n, (SubdivisionCell(frozenset([only]),
                                                  tuple([Fraction(0)] * n)),))
    if is_positive_tropical(P):
        try:
            cells = _cells_by_wall_search(P)
            D = enumerate_D(k, n)
            masks = [cover_mask(D, cell.matroid(k, n)) for cell in cells]
            # an exact cover: the union is all of D and no simplex is counted twice
            if (reduce(or_, masks, 0) != (1 << len(D)) - 1
                    or sum(mask.bit_count() for mask in masks) != len(D)):
                cells = _cells_by_span_scan(P)
        except RuntimeError:
            cells = _cells_by_span_scan(P)
    else:
        cells = _cells_by_span_scan(P)
    for cell in cells:
        if argmin_face(P, cell.witness) != cell.vertices:
            raise RuntimeError("witness does not certify its cell")
    return Subdivision(k, n, tuple(cells))


def faces_are_positroids(D: Subdivision) -> bool:
    """Every full-dimensional cell must be a positroid polytope."""
    return all(is_positroid(cell.matroid(D.k, D.n)) for cell in D.cells)


def octahedra_all_subdivided(D: Subdivision) -> bool:
    """No cell may contain all six vertices of a 3-dimensional octahedral
    face {Sab, Sac, Sad, Sbc, Sbd, Scd}."""
    for S, *quad in exchange_quads(D.n, D.k):
        octa = {tuple(sorted(S + pair)) for pair in combinations(quad, 2)}
        if any(octa <= cell.vertices for cell in D.cells):
            return False
    return True


def is_finest(D: Subdivision) -> bool:
    """Finest positroid subdivision test by cell count, cross-checked on
    octahedral faces when those exist."""
    by_count = len(D.cells) == comb(D.n - 2, D.k - 1)
    if D.k >= 2 and D.n - D.k >= 2:
        octa = octahedra_all_subdivided(D)
        if octa != by_count:
            raise RuntimeError("finest-subdivision criteria disagree; "
                               "subdivision is not positroidal")
    return by_count


def walls(D: Subdivision) -> list[frozenset[Subset]]:
    """Shared codimension-one faces between pairs of cells."""
    out = set()
    for i in range(len(D.cells)):
        for j in range(i + 1, len(D.cells)):
            shared = D.cells[i].vertices & D.cells[j].vertices
            if shared and _aff_rank_sets(D.n, sorted(shared)) == D.n - 2:
                out.add(frozenset(shared))
    return sorted(out, key=sorted)


def interior_face_count(D: Subdivision, c: int) -> int:
    """Interior faces of dimension n - c, implemented for c = 1, 2."""
    if c == 1:
        return len(D.cells)
    if c == 2:
        return len(walls(D))
    raise NotImplementedError("only codimensions 1 and 2 are tabulated")


def random_positive_tropical(k: int, n: int, rng: Random,
                             hi: int = 40) -> HeightVector:
    """Valuations of a totally positive point: from the coordinate point of
    {1..k}, sweeps of bridges x_j += t x_i (i = 1..n, j = i mod n + 1,
    val(t) drawn from 0..hi) until every coordinate is finite, at most k
    sweeps.  A bridge adds t * Delta_{I-j+i} to Delta_I when j is in I and
    i is not; on a totally nonnegative point nothing cancels, so P_I
    becomes min(P_I, val(t) + P_{I-j+i}) and the result is positive."""
    P: dict[Subset, int | None] = dict.fromkeys(subsets(n, k))
    P[tuple(range(1, k + 1))] = 0
    while None in P.values():
        for i in range(1, n + 1):
            j = i % n + 1
            w = rng.randint(0, hi)
            before = dict(P)
            for I in P:
                if j not in I or i in I:
                    continue
                src = before[tuple(sorted(set(I) - {j} | {i}))]
                if src is not None and (P[I] is None or w + src < P[I]):
                    P[I] = w + src
    return HeightVector.make(k, n, P)
