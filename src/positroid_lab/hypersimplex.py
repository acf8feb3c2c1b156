"""Moment map, positroid polytopes, w-simplices, and hypersimplex tilings.

The hypersimplex here is the moment-map image of rank k+1 points, so tile
catalogs are generated from bicolored subdivisions with k black triangles,
labelled by the trips of their dual trees walked on the polygons.  Tilings
are verified, enumerated and counted purely combinatorially: each w-simplex
of the staircase triangulation must land in exactly one tile.  All three
read a tile's simplices off the bits of its ``cover_mask``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from .cells import positroid_of_perm
from .grassmann import Matroid, PluckerVector
from .perms import DecoratedPermutation
from .triangulations import (
    BicoloredSubdivision,
    BicoloredTriangulation,
    class_representative,
    enumerate_subdivisions,
)
from .util import record

__all__ = [
    "moment_map",
    "polytope_vertices",
    "cyclic_left_descents",
    "WSimplex",
    "w_simplex",
    "enumerate_D",
    "cover_mask",
    "TileRecord",
    "tile_catalog",
    "verify_tiling",
    "Tiling",
    "enumerate_tiling_indices",
    "count_tilings",
    "enumerate_tilings",
    "tile_inequalities_hypersimplex",
    "point_satisfies_inequalities",
    "eulerian",
    "narayana",
    "plane_partitions",
    "binomial",
]


def moment_map(P: PluckerVector) -> tuple[Fraction, ...]:
    """Sum of squared coordinates times indicator vectors, normalised.  The
    sums run on the coordinates scaled to integers by the lcm of their
    denominators, a scale that the normalisation cancels."""
    coords = P.coords.items()
    D = math.lcm(*(v.denominator for _, v in coords))
    total, out = 0, [0] * P.n
    for I, v in coords:
        if v:
            w = (v.numerator * (D // v.denominator)) ** 2
            total += w
            for i in I:
                out[i - 1] += w
    return tuple(Fraction(x, total) for x in out)


def polytope_vertices(M: Matroid) -> frozenset[tuple[int, ...]]:
    """Indicator vectors of the bases, as 0/1 tuples."""
    out = set()
    for B in M.bases:
        out.add(tuple(1 if i in B else 0 for i in range(1, M.n + 1)))
    return frozenset(out)


def cyclic_left_descents(w: tuple[int, ...]) -> frozenset[int]:
    """{i >= 2 : i sits left of i-1} plus 1 when 1 sits left of n."""
    n = len(w)
    pos = {v: i for i, v in enumerate(w)}
    out = {i for i in range(2, n + 1) if pos[i] < pos[i - 1]}
    if pos[1] < pos[n]:
        out.add(1)
    return frozenset(out)


@record
class WSimplex:
    """Simplex of the staircase triangulation attached to w with w_n = n.

    ``I[r]`` is the cyclic left descent set of the rotation of w ending at
    r (indices 1..n; the rotation ending at n is w itself)."""

    w: tuple[int, ...]
    I: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return len(self.w)

    def vertex(self, r: int) -> frozenset[int]:
        return self.I[r - 1]

    @cached_property
    def flip_masks(self) -> tuple[int, ...]:
        """For a = 1..n, I[a] minus a as a mask with bit j-1 for j: the flip
        positions that a point of w's sign-flip chamber has at a."""
        return tuple(sum(1 << (j - 1) for j in Ia - {a})
                     for a, Ia in enumerate(self.I, start=1))

    def vertices(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        return tuple(tuple(1 if i in Ir else 0 for i in range(1, n + 1))
                     for Ir in self.I)

    def __repr__(self):
        return f"WSimplex({''.join(map(str, self.w))})"


def w_simplex(w) -> WSimplex:
    """The simplex of w, whose vertices are the cyclic left descent sets of
    its rotations, all in one pass: moving the first entry a of a rotation
    to its end flips its order with every other entry, so exactly the
    descents a and a + 1 (mod n) toggle."""
    w = tuple(w)
    n = len(w)
    if sorted(w) != list(range(1, n + 1)) or w[-1] != n:
        raise ValueError("w must be a permutation ending in n")
    descents = set(cyclic_left_descents(w))
    ending_at = {n: frozenset(descents)}
    for a in w[:-1]:
        descents ^= {a, a % n + 1}
        ending_at[a] = frozenset(descents)
    return WSimplex(w, tuple(ending_at[n if r == 1 else r - 1] for r in range(1, n + 1)))


@lru_cache(maxsize=None)
def enumerate_D(k_plus_1: int, n: int) -> tuple[WSimplex, ...]:
    """All w with w_n = n and k+1 cyclic left descents, with their simplices.

    1 is always one of them, so w is a word on 1..n-1 with k inverse
    descents (m left of m-1), then n; the words grow by inserting m = 2..n-1.
    """
    if not (1 <= k_plus_1 <= n - 1):
        raise ValueError("need 1 <= k+1 <= n-1")
    words = [((1,), 0)]  # (word on 1..m-1, its inverse descents)
    for m in range(2, n):
        grown = ((w[:p] + (m,) + w[p:], d + (p <= w.index(m - 1)))
                 for w, d in words for p in range(m))
        words = [(w, d) for w, d in grown if d < k_plus_1]
    return tuple(w_simplex(w + (n,)) for w, d in sorted(words) if d == k_plus_1 - 1)


@lru_cache(maxsize=None)
def _cover_table(k_plus_1: int, n: int) -> tuple[int, dict[frozenset[int], int]]:
    """All bits of the staircase simplices ``enumerate_D(k+1, n)``, and for
    each (k+1)-subset the bits of the simplices that have it as a vertex."""
    simplices = enumerate_D(k_plus_1, n)
    bits: dict[frozenset[int], int] = {}
    for i, ws in enumerate(simplices):
        for I in ws.I:
            bits[I] = bits.get(I, 0) | 1 << i
    return (1 << len(simplices)) - 1, bits


def cover_mask(M: Matroid) -> int:
    """Bit i is set exactly when the i-th staircase simplex of
    ``enumerate_D(M.k, M.n)`` lies in the polytope of M: all bits less those
    of the vertices that are not bases of M, read from a table built once
    per (k+1, n)."""
    full, bits = _cover_table(M.k, M.n)
    missed = 0
    for I, b in bits.items():
        if I not in M.bases:
            missed |= b
    return full & ~missed


@record
class TileRecord:
    """A moment-map tile: a subdivision's trip permutation, its positroid,
    the subdivision, its ``cover_mask`` and, built on first use, its fan
    triangulation."""

    perm: DecoratedPermutation
    matroid: Matroid
    subdivision: BicoloredSubdivision
    mask: int

    @cached_property
    def triangulation(self) -> BicoloredTriangulation:
        return class_representative(self.subdivision)

    def to_json(self) -> dict:
        return {
            "perm": self.perm.to_json(),
            "bases": [list(b) for b in self.matroid.sorted_bases()],
            "black_polygons": sorted(list(p) for p in self.subdivision.black_polygons),
        }


@lru_cache(maxsize=None)
def tile_catalog(k_plus_1: int, n: int) -> dict[DecoratedPermutation, TileRecord]:
    """Positroid tiles of the rank-(k+1) hypersimplex on [n], keyed by the
    trip permutation of the dual tree (walked on the polygons, no graph
    built) and ordered by its label (repr); one entry per bicolored
    subdivision of type (k, n).  The dual tree is reduced, so its positroid
    is that of its trip permutation."""
    if not (1 <= k_plus_1 <= n - 1):
        raise ValueError("need 1 <= k+1 <= n-1")
    out: dict[DecoratedPermutation, TileRecord] = {}
    for S in enumerate_subdivisions(n, k_plus_1 - 1):
        pi = S.trip_permutation()
        if pi in out:
            raise RuntimeError(f"two subdivisions share the tile label {pi}")
        M = positroid_of_perm(pi)
        out[pi] = TileRecord(pi, M, S, cover_mask(M))
    return {pi: out[pi] for pi in sorted(out, key=repr)}


def verify_tiling(tiles, k_plus_1: int, n: int) -> dict:
    """Exactly-once coverage of every w-simplex plus tile-catalog membership,
    as the JSON record {valid, k_plus_1, n, tiles (labels), violations}.
    Tiles may be decorated permutations or triangulations; a catalog tile
    brings its mask, and any other tile is resolved to its positroid."""
    catalog = tile_catalog(k_plus_1, n)
    perms = []
    for t in tiles:
        if isinstance(t, BicoloredTriangulation):
            t = t.subdivision.trip_permutation()
        elif not isinstance(t, DecoratedPermutation):
            raise TypeError(f"cannot interpret tile {t!r}")
        perms.append(t)
    violations = ["repeated tiles"] if len(set(perms)) != len(perms) else []
    masks = []
    for p in perms:
        if p in catalog:
            masks.append(catalog[p].mask)
            continue
        M = positroid_of_perm(p)
        right_type = (M.k, M.n) == (k_plus_1, n)
        if not right_type:
            violations.append(f"tile {p} has wrong type ({M.k},{M.n})")
        violations.append(f"tile {p} is not a moment-map tile")
        masks.append(cover_mask(M) if right_type else 0)
    seen = twice = 0
    for mask in masks:
        twice |= seen & mask
        seen |= mask
    simplices = enumerate_D(k_plus_1, n)
    failed = twice | ((1 << len(simplices)) - 1 & ~seen)
    while failed:  # in simplex order
        i = (failed & -failed).bit_length() - 1
        failed ^= 1 << i
        hits = ", ".join(repr(p) for p, mask in zip(perms, masks) if mask >> i & 1)
        violations.append(f"simplex of w={''.join(map(str, simplices[i].w))} "
                          + (f"covered by {hits}" if hits else "uncovered"))
    return {"valid": not violations, "k_plus_1": k_plus_1, "n": n,
            "tiles": [repr(p) for p in perms], "violations": violations}


@record
class Tiling:
    k_plus_1: int
    n: int
    tiles: tuple[TileRecord, ...]

    def perms(self) -> tuple[DecoratedPermutation, ...]:
        return tuple(t.perm for t in self.tiles)

    def to_json(self) -> dict:
        return {
            "space": "hypersimplex",
            "k_plus_1": self.k_plus_1,
            "n": self.n,
            "tiles": [t.to_json() for t in self.tiles],
        }


@lru_cache(maxsize=None)
def _tiles_by_least(k_plus_1: int, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each staircase simplex, the (catalog index, cover mask) of the
    tiles whose least simplex it is, in catalog order."""
    by_least: list[list[tuple[int, int]]] = [[] for _ in enumerate_D(k_plus_1, n)]
    for idx, rec in enumerate(tile_catalog(k_plus_1, n).values()):
        if rec.mask:
            by_least[(rec.mask & -rec.mask).bit_length() - 1].append((idx, rec.mask))
    return tuple(map(tuple, by_least))


@lru_cache(maxsize=None)
def enumerate_tiling_indices(k_plus_1: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Exact cover of the w-simplices by catalog tiles, over bit masks: each
    step branches on the least uncovered simplex, over the tiles whose least
    simplex it is (Knuth's Algorithm X), so each tile set comes once.  A
    tiling is the sorted tuple of its catalog indices, and tilings sort as
    these tuples, that is, by labels."""
    by_least = _tiles_by_least(k_plus_1, n)
    found: list[tuple[int, ...]] = []

    def search(uncovered: int, chosen: tuple[int, ...]) -> None:
        for idx, mask in by_least[(uncovered & -uncovered).bit_length() - 1]:
            if mask & uncovered == mask:
                if mask == uncovered:
                    found.append(tuple(sorted(chosen + (idx,))))
                else:
                    search(uncovered ^ mask, chosen + (idx,))

    search((1 << len(by_least)) - 1, ())
    found.sort()
    return tuple(found)


# ``count_tilings`` gives up past this many bits of memo keys: (4,8) needs
# 1.38e10 bits (2.4 GB), and (3,9) would need more memory than 7 GB.
COUNT_MEMO_BITS = 15_000_000_000
# ... and before it builds a staircase of more simplices than this: (2,18)
# has 131 054 (13 s and 630 MB with its cover table on a 2-vCPU host), and
# each step of n doubles them at k+1 = 2 and at k+1 = n-2.
COUNT_STAIRCASE_SIMPLICES = 2 ** 17


@lru_cache(maxsize=None)
def count_tilings(k_plus_1: int, n: int) -> int:
    """Number of tilings: the search of ``enumerate_tiling_indices``
    memoized on the uncovered mask, so no tiling is listed.  Each memo key
    is as wide as the staircase, so ValueError once the memo holds more
    than ``COUNT_MEMO_BITS`` bits of keys, or before the staircase is
    built when it has more than ``COUNT_STAIRCASE_SIMPLICES`` simplices."""
    if 1 <= k_plus_1 < n and eulerian(k_plus_1 - 1, n - 1) > COUNT_STAIRCASE_SIMPLICES:
        raise ValueError(f"counting the tilings of ({k_plus_1},{n}) needs more than "
                         f"{COUNT_STAIRCASE_SIMPLICES} staircase simplices "
                         "(COUNT_STAIRCASE_SIMPLICES)")
    by_least = _tiles_by_least(k_plus_1, n)
    most_states = COUNT_MEMO_BITS // len(by_least)
    memo = {0: 1}

    def count(uncovered: int) -> int:
        c = memo.get(uncovered)
        if c is None:
            if len(memo) > most_states:
                raise ValueError(f"counting the tilings of ({k_plus_1},{n}) needs more than "
                                 f"{COUNT_MEMO_BITS} bits of memo keys (COUNT_MEMO_BITS)")
            c = memo[uncovered] = sum(
                count(uncovered ^ mask)
                for _, mask in by_least[(uncovered & -uncovered).bit_length() - 1]
                if mask & uncovered == mask)
        return c

    return count((1 << len(by_least)) - 1)


@lru_cache(maxsize=None)
def enumerate_tilings(k_plus_1: int, n: int) -> tuple[Tiling, ...]:
    """The tilings of ``enumerate_tiling_indices`` as catalog tiles."""
    recs = tuple(tile_catalog(k_plus_1, n).values())
    return tuple(Tiling(k_plus_1, n, tuple(map(recs.__getitem__, sol)))
                 for sol in enumerate_tiling_indices(k_plus_1, n))


def tile_inequalities_hypersimplex(T: BicoloredTriangulation):
    """Per arc h -> j of T: bounds area <= x_h + ... + x_{j-1} <= area + 1."""
    return [(arc, a, a + 1) for arc, a in T.arc_areas]


def point_satisfies_inequalities(point, ineqs) -> bool:
    for (h, j), lo, hi in ineqs:
        s = sum(Fraction(point[i - 1]) for i in range(h, j))
        if not (lo <= s <= hi):
            return False
    return True


# -- counting formulas ---------------------------------------------------------


def binomial(a: int, b: int) -> int:
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def eulerian(k: int, m: int) -> int:
    """E_{k,m} = sum over l of (-1)^l C(m+1, l) (k+1-l)^m."""
    n = m + 1
    return sum((-1) ** l * binomial(n, l) * (k + 1 - l) ** m
               for l in range(0, k + 2))


def narayana(a: int, b: int) -> int:
    """N_{a,b} = C(a,b) C(a,b-1) / a."""
    if a <= 0:
        return 1 if b in (0, 1) else 0
    return binomial(a, b) * binomial(a, b - 1) // a


def plane_partitions(a: int, b: int, c: int) -> int:
    """Number of plane partitions in an a x b x c box (box product formula)."""
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                num *= i + j + k - 1
                den *= i + j + k - 2
    return num // den
