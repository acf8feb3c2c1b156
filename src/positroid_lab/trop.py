"""Positive tropical Plücker vectors and the subdivisions they induce.

A height vector lifts the hypersimplex vertices; projecting the lower hull of
the lift gives a regular subdivision.  Heights satisfying the positive
three-term tropical exchange produce subdivisions all of whose faces are
positroid polytopes, and the finest ones are exactly the moment-map tilings.
One walk finds the cells of every subdivision, shooting the tilt of a cell
across cyclic-interval walls (n(n - 1) normals, one per class modulo
(1, ..., 1)) for positive tropical heights, and for all others across the
simplex facets of P + εr, a fixed lift r breaking P's ties.  A face the
wall walk meets is a positroid polytope, a cell exactly when its matroid is
connected (Ardila-Rincon-Williams, Feichtner-Sturmfels), which bit masks
tell with no elimination.  The walk runs on integers: each tilt and its
gaps over one positive denominator each, the tables u . e_I of each
direction with their largest entry, so that a shot leaving Delta(k, n) is
told without a scan, and a simplex's facet normals and |det| off one
elimination (``integer_adjugate``) once per distinct face per process, in a
cache bounded at 1024 faces; the cached |det| are summed afresh on every
call.  The witness tilts become fractions once per cell, and each cell is
certified afresh on integer gaps, on heights scaled to integers once per
subdivision as for the exchange check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import combinations
from math import comb, gcd, isqrt, lcm
from operator import or_
from random import Random

from . import obs
from .exact import integer_adjugate, integer_kernel, integer_rank
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
    "random_positive_tropical",
]


@dataclass(frozen=True)
class HeightVector:
    """Rational height per k-subset of [n]."""

    k: int
    n: int
    heights: tuple[Fraction, ...]  # aligned with subsets(n, k) in lex order

    @classmethod
    def make(cls, k: int, n: int, table: dict) -> "HeightVector":
        """Heights from a table of k-subsets; absent subsets get 0."""
        return cls(k, n, tuple(Fraction(table.get(I, 0)) for I in subsets(n, k)))

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
            table[I] = rat_from_str(v, f"height of {key!r}")
        return cls.make(k, n, table)


def _scaled(P: HeightVector) -> tuple[int, list[int]]:
    """The lcm L of the heights' denominators and the L P_I, I in lex order."""
    L = lcm(*(h.denominator for h in P.heights))
    return L, [h.numerator * (L // h.denominator) for h in P.heights]


@lru_cache(maxsize=None)
def _quad_plan(k: int, n: int) -> tuple:
    """Each exchange quad (S, a, b, c, d) with the lexicographic positions
    of Sac, Sbd, Sab, Scd, Sad and Sbc among the k-subsets."""
    at = {I: p for p, I in enumerate(subsets(n, k))}
    return tuple(((S, a, b, c, d), *(at[tuple(sorted(S + pair))] for pair in
                                     ((a, c), (b, d), (a, b), (c, d), (a, d), (b, c))))
                 for S, a, b, c, d in exchange_quads(n, k))


def positivity_violation(P: HeightVector):
    """First (S; a, b, c, d) where the positive exchange fails, else None.

    The requirement, on the integers L P_I: L P_Sac + L P_Sbd equals
    min(L P_Sab + L P_Scd, L P_Sad + L P_Sbc).
    """
    return _violation(P.k, P.n, _scaled(P)[1])


def _violation(k: int, n: int, H: list[int]):
    """``positivity_violation`` on the scaled heights H = ``_scaled(P)[1]``."""
    for quad, ac, bd, ab, cd, ad, bc in _quad_plan(k, n):
        if H[ac] + H[bd] != min(H[ab] + H[cd], H[ad] + H[bc]):
            return quad
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
    """Affine rank of the e_I: their rank less one, as sum x = k > 0 on them.
    Only ``walls`` takes it: faces met on positive heights are told by
    ``_connected``, and those met by the facet walk by ``_spans``."""
    rows = _rows(len(sets[0]), n)
    return integer_rank([rows[I] for I in sets]) - 1


@lru_cache(maxsize=None)
def _swaps(k: int, n: int) -> dict[Subset, tuple]:
    """Each k-subset I of [n] with, for each i in I, the pairs (2^j, I - i + j)
    over the j in [n] off I."""
    return {I: tuple(tuple((1 << j, tuple(sorted(set(I) - {i} | {j})))
                           for j in range(1, n + 1) if j not in I) for i in I)
            for I in subsets(n, k)}


def _connected(k: int, n: int, face: frozenset[Subset]) -> bool:
    """Whether the matroid whose bases are ``face`` is connected (0 < k < n).
    Its fundamental graph on a basis B joins i in B to j off B when
    B - i + j is a basis, and it is connected exactly when the matroid is.
    A matroid polytope has dimension n - c(M), c(M) the number of connected
    components (Feichtner-Sturmfels, math/0411260), and every face of a
    positroidal subdivision is a positroid polytope (Ardila-Rincon-Williams,
    1308.2698), so there a face is a cell exactly when this holds: k(n - k)
    set lookups, with no elimination."""
    rows = [sum([bit for bit, J in row if J in face]) for row in _swaps(k, n)[next(iter(face))]]
    reach, rest = rows[0], rows[1:]  # the j off B joined to B's first i, then grown
    while rest:
        near = [row for row in rest if row & reach]
        if not near:
            return False
        rest = [row for row in rest if not row & reach]
        reach = reduce(or_, near, reach)
    return reach.bit_count() == n - k


def _face(gaps: dict) -> frozenset[Subset]:
    """The vertices I of least gap g_I = P_I - y . e_I, given as g_I or as
    G_I = q g_I for one q > 0: the face of tilt y."""
    low = min(gaps.values())
    return frozenset(I for I, g in gaps.items() if g == low)


def argmin_face(P: HeightVector, y) -> frozenset[Subset]:
    """Face of the subdivision selected by tilt y: argmin of P_I - y . e_I.
    Raises ValueError unless y has n entries."""
    if len(y) != P.n:
        raise ValueError(f"a tilt needs n = {P.n} entries, not {len(y)}")
    return _argmin(P, _scaled(P), [Fraction(t) for t in y])


def _argmin(P: HeightVector, scaled: tuple[int, list[int]], y) -> frozenset[Subset]:
    """``argmin_face`` of the n rationals y on ``scaled = _scaled(P)``: the
    gaps M L P_I - L M y . e_I, M the lcm of y's denominators, as integers."""
    L, H = scaled
    M = lcm(*(t.denominator for t in y))
    LMy = [L * t.numerator * (M // t.denominator) for t in y]  # LMy[i - 1] = L M y_i
    at = LMy.__getitem__
    return _face({I: M * h - sum(map(at, ix)) for (I, ix), h in zip(_index(P.k, P.n).items(), H)})


def _shoot(gaps: dict[Subset, int], face: frozenset[Subset], d: dict[Subset, int], top: int,
           narrow=None):
    """Move the tilt along u, each gap g_I = G_I / q moving as g_I - t d_I
    (d_I = u . e_I), until a vertex J off ``face`` ties the face's equal,
    least gaps: t q is the least (G_J - G_face) / (d_J - b) over the J with
    d_J > b, b the largest d on ``face``.  Returns t q as a pair (N, M), the
    ratios compared by cross-multiplying, and the next face (the vertices of
    ``face`` with d = b and the J that attain t, narrowed by ``narrow(face,
    hits, d, b)`` if several), or None when no d_J exceeds b: none ties.
    That is so, with no scan, when b is ``top``, the largest d over all
    vertices, and only then if ``gaps`` holds every vertex."""
    b = max(map(d.__getitem__, face))
    if b == top:
        return None
    g0 = gaps[next(iter(face))]
    N = M = None
    hits: list[Subset] = []
    for J, g in gaps.items():
        m = d[J] - b
        if m > 0:
            g -= g0
            if N is None or g * M < N * m:
                N, M, hits = g, m, [J]
            elif g * M == N * m:
                hits.append(J)
    if N is None:
        return None
    if narrow is not None and len(hits) > 1:
        hits = narrow(face, hits, d, b)
    return (N, M), frozenset([I for I in face if d[I] == b] + hits)


def _moved(Y: list[int], r: int, gaps: dict[Subset, int], q: int, u: list[int],
           d: dict[Subset, int], step: tuple[int, int]):
    """The tilt y + t u for t = N / (q M), and its gaps g_I - t d_I, all on
    integers: y = Y / r becomes (Y q M + N r u) / (r q M) and the gaps the
    integers G_I M - N d_I over q M, each divided by its gcd."""
    N, M = step
    q *= M
    Nr = N * r
    Y = [a * q + Nr * x for a, x in zip(Y, u)]
    r *= q
    c = gcd(r, *Y)
    if c > 1:
        Y, r = [a // c for a in Y], r // c
    gaps = {I: g * M - N * d[I] for I, g in gaps.items()}
    c = gcd(q, *gaps.values())
    if c > 1:
        gaps, q = {I: g // c for I, g in gaps.items()}, q // c
    return Y, r, gaps, q


@lru_cache(maxsize=None)
def _index(k: int, n: int) -> dict[Subset, tuple[int, ...]]:
    """Each k-subset I of [n], in lexicographic order, with its 0-based
    indices."""
    return {I: tuple(i - 1 for i in I) for I in subsets(n, k)}


@lru_cache(maxsize=None)
def _rows(k: int, n: int) -> dict[Subset, tuple[int, ...]]:
    """Each k-subset I of [n], in lexicographic order, with its 0/1 row e_I."""
    return {I: tuple(int(i in I) for i in range(1, n + 1)) for I in subsets(n, k)}


def _step(index: dict[Subset, tuple[int, ...]], u: list[int]) -> tuple:
    """An integer direction u, its table d_I = u . e_I over the vertices of
    ``index``, summed over their 0-based indices, and the table's largest
    entry, ``_shoot``'s ``top``."""
    at = u.__getitem__
    d = {I: sum(map(at, ix)) for I, ix in index.items()}
    return u, d, max(d.values())


def _grow_to_cell(n: int, gaps: dict[Subset, int], q: int, directions, full):
    """From the flat tilt of the heights G_I / q, given as the integers
    ``gaps`` over one q > 0, shoot along the first (u, d, top) of
    ``directions(face)`` constant on the face that hits, until
    ``full(face)``; returns the cell and its state, as ``_walk`` keeps it."""
    Y, r = [0] * n, 1
    face = _face(gaps)
    while not full(face):
        for u, d, top in directions(face):
            shot = _shoot(gaps, face, d, top) if len({d[I] for I in face}) == 1 else None
            if shot is not None:
                step, face = shot
                Y, r, gaps, q = _moved(Y, r, gaps, q, u, d, step)
                break
        else:
            raise RuntimeError("no direction grows a full-dimensional cell")
    return face, (Y, r, gaps, q)


def _walk(start: frozenset[Subset], state: tuple, directions, full, narrow=None) -> dict:
    """Shoot from the cell ``start``, with its ``state``, and from each cell
    found along every (u, d, top) of ``directions(cell)``; a face reached is a
    new cell when ``full(face)`` and not yet found.  Returns each cell's
    state: its witness tilt y = Y / r as integers over one r > 0, and that
    tilt's gap table as integers G_I over one q > 0, G_I / q = P_I - y . e_I,
    each pair in lowest terms.  Ties break by ``narrow`` (``_shoot``).
    Shots add to ``trop.shots``, those that leave Delta(k, n) to
    ``trop.boundary_shots`` (the gaps hold every vertex, so ``_shoot`` tells
    them by ``top`` alone) and faces that are not full to ``trop.flat_faces``."""
    cells = {start: state}
    flat: set[frozenset[Subset]] = set()  # faces reached that are not cells
    queue, shots, boundary = [start], 0, 0
    while queue:
        cell = queue.pop()
        Y, r, gaps, q = cells[cell]
        steps = directions(cell)
        shots += len(steps)
        for u, d, top in steps:
            shot = _shoot(gaps, cell, d, top, narrow)
            if shot is None:
                boundary += 1
                continue
            step, nb = shot
            if nb in cells or nb in flat:
                continue
            if full(nb):
                cells[nb] = _moved(Y, r, gaps, q, u, d, step)
                queue.append(nb)
            else:
                flat.add(nb)
    obs.count("trop.shots", shots)
    obs.count("trop.boundary_shots", boundary)
    obs.count("trop.flat_faces", len(flat))
    return cells


@lru_cache(maxsize=None)
def _interval_steps(k: int, n: int) -> tuple:
    """``_step`` of each cyclic-interval direction u of
    ``_interval_directions`` over the k-subsets: they depend on (k, n) only,
    so they are tabulated once."""
    return tuple(_step(_index(k, n), u) for u in _interval_directions(n))


def _interval_directions(n: int) -> list[list[int]]:
    """e_S and -e_S for the proper cyclic intervals S of [n] with 2|S| < n,
    or 2|S| = n and 1 in S, by size and then lexicographically: one per
    class modulo (1, ..., 1), n(n - 1) in all.  Positroid polytopes are cut
    out by inequalities on cyclic intervals (Ardila-Rincon-Williams), so
    these are the normals of every wall of a positroidal subdivision; as
    e_S = 1 - e_{[n]-S}, the S left out shoot to the same faces."""
    out = []
    for size in range(1, n // 2 + 1):
        for S in sorted(tuple(sorted((i + t) % n + 1 for t in range(size)))
                        for i in range(n)):
            if 2 * size < n or S[0] == 1:
                u = [int(i in S) for i in range(1, n + 1)]
                out.append(u)
                out.append([-x for x in u])
    return out


def _cells_by_wall_search(P: HeightVector, gaps: dict, q: int) -> list[SubdivisionCell]:
    """Grow a cell from P's heights, the integers ``gaps`` over q, and cross
    every wall along the cyclic-interval directions.  Growing never fails:
    faces of positroidal subdivisions are positroid polytopes, cut out by
    these directions, and a face is a cell exactly when ``_connected``."""
    steps = _interval_steps(P.k, P.n)
    directions, full = (lambda face: steps), partial(_connected, P.k, P.n)
    cells = _walk(*_grow_to_cell(P.n, gaps, q, directions, full), directions, full)
    return [SubdivisionCell(c, tuple(Fraction(a, cells[c][1]) for a in cells[c][0]))
            for c in sorted(cells, key=sorted)]


@lru_cache(maxsize=None)
def _lift(k: int, n: int) -> dict[Subset, int]:
    """r_I = B^p, p the lexicographic position of I, B = isqrt(n^n) + 2: a
    circuit of the e_I has integer coefficients below B - 1 (Hadamard), so
    none lifts flat, and r triangulates every set of vertices."""
    B = isqrt(n ** n) + 2
    return {I: B ** p for p, I in enumerate(subsets(n, k))}


_FACES = 1 << 10  # each face cache's bound: every set of the 10 vertices of Delta(2, 5)


@lru_cache(maxsize=_FACES)
def _table(k: int, n: int, u: tuple[int, ...]) -> tuple:
    """``_step`` of u over the k-subsets, shared by the faces that shoot
    along it."""
    return _step(_index(k, n), list(u))


@lru_cache(maxsize=_FACES)
def _face_steps(k: int, n: int, face: frozenset[Subset]) -> tuple[int, tuple]:
    """The facet walk's (|det E|, directions) of ``face``, E its rows e_I in
    lexicographic order; they depend on (k, n, face) alone, so each face is
    eliminated once per process while it stays among the last ``_FACES``.
    On a simplex, one ``integer_adjugate``: u . e_I is 0 on it but at its
    j-th vertex, where it is -|det E|, for u the j-th column of -sign(det E)
    adj(E).  On any other face, |det| 0 and +-u for u spanning its integer
    kernel (0 on the face, to grow along), or none when the face spans."""
    E = [_rows(k, n)[I] for I in sorted(face)]
    got = integer_adjugate(E) if len(face) == n else None
    if got is not None:
        adj, det = got
        s = -1 if det > 0 else 1
        return abs(det), tuple(_table(k, n, tuple(s * x for x in col)) for col in zip(*adj))
    K = integer_kernel(E, n)
    return 0, tuple(_table(k, n, tuple(m * x for x in K[0])) for m in (1, -1)) if K else ()


def _spans(k: int, n: int, face: frozenset[Subset]) -> bool:
    """Whether the e_I of ``face`` span an affine (n - 1)-space, read off its
    ``_face_steps``: a simplex, or a face with no kernel."""
    det, steps = _face_steps(k, n, face)
    return det > 0 or not steps


def _cells_by_facet_walk(P: HeightVector, gaps: dict, q: int) -> list[SubdivisionCell]:
    """Gift-wrap the lower hull of P + εr (ε > 0 infinitesimal, r the
    ``_lift``) along the facet normals of its simplices, read off their
    ``_face_steps``.  That hull triangulates the subdivision of P
    (Edelsbrunner-Mücke; De Loera-Rambau-Santos), so the walk moves P's
    tilt alone, and ``narrow`` picks the J that tie a shot from simplex s of
    least (r_J - z . e_J) / (d_J - b), z = adj(E) r_s / det E, on integers:
    |det E| z . e_J = -sum_j r_(s_j) d_j[J], d_j the table of s's j-th
    facet normal.  That J is unique: two would put a circuit of the e_I on
    one hyperplane of the lift, and r lifts no circuit flat (``_lift``).  A
    simplex lies in the cell its gaps select, witnessed by its tilt less
    y_n.  Cells of a triangulation do not overlap, so none is missing once
    the |det|/k of the simplices (a face that is no simplex, under a lift
    that is not generic, has none) add up to A(n-1, k-1) =
    len(enumerate_D(k, n)); the cached |det| are summed afresh on every
    call.  Narrowed shots add to ``trop.facet_walk.ties``, faces eliminated
    in this call to ``trop.facet_walk.eliminations``."""
    n, k = P.n, P.k
    lift, misses = _lift(k, n), _face_steps.cache_info().misses
    ties: list[frozenset[Subset]] = []  # the simplices of the shots narrowed

    def directions(face):
        return _face_steps(k, n, face)[1]

    def narrow(s, hits, d, b):
        ties.append(s)
        D, steps = _face_steps(k, n, s)
        r_s = [lift[I] for I in sorted(s)]
        A, m0, low = None, None, None  # least a / m, as in _shoot: the ratio is a / (D m)
        for J in hits:
            a, m = D * lift[J] + sum(r * dj[J] for r, (_, dj, _) in zip(r_s, steps)), d[J] - b
            if A is None or a * m0 < A * m:
                A, m0, low = a, m, J
        return [low]

    spans = partial(_spans, k, n)
    start, state = _grow_to_cell(n, gaps, q, directions, spans)
    if len(start) > n:
        start = _grow_to_cell(n, {I: lift[I] for I in start}, 1, directions, spans)[0]
    # a face reached across a facet holds it and a vertex off its plane
    walked = _walk(start, state, directions, lambda face: True, narrow)
    obs.count("trop.facet_walk.ties", len(ties))
    obs.count("trop.facet_walk.eliminations", _face_steps.cache_info().misses - misses)
    if sum(_face_steps(k, n, s)[0] for s in walked) != k * len(enumerate_D(k, n)):
        raise RuntimeError("the facet walk missed a simplex")
    cells: dict[frozenset[Subset], tuple[Fraction, ...]] = {}
    for Y, den, gaps, _ in walked.values():
        cells.setdefault(_face(gaps), tuple(Fraction(a - Y[-1], den) for a in Y))
    return [SubdivisionCell(c, cells[c]) for c in sorted(cells, key=sorted)]


def regular_subdivision(P: HeightVector) -> Subdivision:
    """All full-dimensional cells of the regular subdivision, each with an
    exact witness tilt whose argmin reproduces the cell: by the wall walk,
    audited as an exact cover of the staircase simplices, on positive
    tropical heights, and by the facet walk, audited by volume, on all
    others.  A failed audit raises RuntimeError."""
    n, k = P.n, P.k
    if k == 0 or k == n:
        only = subsets(n, k)[0]
        return Subdivision(k, n, (SubdivisionCell(frozenset([only]),
                                                  tuple([Fraction(0)] * n)),))
    L, H = scaled = _scaled(P)
    gaps = dict(zip(_index(k, n), H))  # the heights as integers over L
    if _violation(k, n, H) is None:
        obs.count("trop.wall_walk")
        cells = _cells_by_wall_search(P, gaps, L)
        D = enumerate_D(k, n)
        masks = [cover_mask(cell.matroid(k, n)) for cell in cells]
        # an exact cover: the union is all of D and no simplex is counted twice
        if (reduce(or_, masks, 0) != (1 << len(D)) - 1
                or sum(mask.bit_count() for mask in masks) != len(D)):
            raise RuntimeError("wall walk cells are not an exact cover of the "
                               "staircase simplices")
    else:
        obs.count("trop.facet_walk")
        cells = _cells_by_facet_walk(P, gaps, L)
    obs.count("trop.cells", len(cells))
    for cell in cells:
        if _argmin(P, scaled, cell.witness) != cell.vertices:
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
    if D.k in (0, D.n):
        return True  # a point hypersimplex has one cell and nothing finer
    by_count = len(D.cells) == comb(D.n - 2, D.k - 1)
    if D.k >= 2 and D.n - D.k >= 2:
        octa = octahedra_all_subdivided(D)
        if octa != by_count:
            raise RuntimeError("finest-subdivision criteria disagree; "
                               "subdivision is not positroidal")
    return by_count


def walls(D: Subdivision) -> list[frozenset[Subset]]:
    """Shared codimension-one faces between pairs of cells."""
    shared = {a.vertices & b.vertices for a, b in combinations(D.cells, 2)}
    return sorted((s for s in shared if s and _aff_rank_sets(D.n, sorted(s)) == D.n - 2),
                  key=sorted)


def random_positive_tropical(k: int, n: int, rng: Random) -> HeightVector:
    """Valuations of a totally positive point: from the coordinate point of
    {1..k}, sweeps of bridges x_j += t x_i (i = 1..n, j = i mod n + 1,
    val(t) drawn from 0..40) until every coordinate is finite, at most k
    sweeps.  A bridge adds t * Delta_{I-j+i} to Delta_I when j is in I and
    i is not; on a totally nonnegative point nothing cancels, so P_I
    becomes min(P_I, val(t) + P_{I-j+i}) and the result is positive."""
    P: dict[Subset, int | None] = dict.fromkeys(subsets(n, k))
    P[tuple(range(1, k + 1))] = 0
    while None in P.values():
        for i in range(1, n + 1):
            j = i % n + 1
            w = rng.randint(0, 40)
            before = dict(P)
            for I in P:
                if j not in I or i in I:
                    continue
                src = before[tuple(sorted(set(I) - {j} | {i}))]
                if src is not None and (P[I] is None or w + src < P[I]):
                    P[I] = w + src
    return HeightVector.make(k, n, P)
