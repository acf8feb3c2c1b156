"""Grassmannian points as Plücker vectors; matroids and positivity tests.

A point of Gr(k, n) is stored projectively as its full list of maximal
minors.  Total nonnegativity/positivity, the matroid of a point, and the
decorated permutation attached to a totally nonnegative matrix all live
here, together with the exact sign-variation test for total positivity of
Gantmakher-Krein and Karp.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .exact import (
    RatMatrix,
    integer_minors,
    kernel_basis,
    maximal_minors,
    rank,
    varbar,
)
from .perms import DecoratedPermutation, perm_of_necklace
from .util import (
    perm_sign,
    rat_from_str,
    record,
    rat_to_str,
    subset_from_key,
    subset_key,
    subsets,
)

Subset = tuple[int, ...]


class PluckerVector:
    """Projective vector of exact rationals keyed by sorted k-subsets of [n] only."""

    __slots__ = ("k", "n", "coords")

    def __init__(self, k: int, n: int, coords: dict[Subset, Fraction]):
        self.k = k
        self.n = n
        full = dict.fromkeys(subsets(n, k), Fraction(0))
        for I, v in coords.items():
            if I not in full:
                raise ValueError(f"coordinate key {I!r} is not a sorted {k}-subset of [{n}]")
            full[I] = v if isinstance(v, Fraction) else Fraction(v)
        if all(v == 0 for v in full.values()):
            raise ValueError("the zero vector is not a Grassmannian point")
        self.coords = full

    def coord(self, I) -> Fraction:
        return self.coords[tuple(sorted(I))]

    def normalized_tuple(self) -> tuple[Fraction, ...]:
        """Scale so the first nonzero coordinate (lex subset order) is 1."""
        lead = next(v for v in self.coords.values() if v != 0)
        return tuple(v / lead for v in self.coords.values())

    def __eq__(self, other) -> bool:
        # projective equality
        return (
            isinstance(other, PluckerVector)
            and (self.k, self.n) == (other.k, other.n)
            and self.normalized_tuple() == other.normalized_tuple()
        )

    def __hash__(self):
        return hash((self.k, self.n, self.normalized_tuple()))

    def scale(self, c) -> "PluckerVector":
        c = Fraction(c)
        return PluckerVector(self.k, self.n, {I: c * v for I, v in self.coords.items()})

    def __repr__(self):
        nz = {subset_key(I): str(v) for I, v in self.coords.items() if v != 0}
        return f"PluckerVector(k={self.k}, n={self.n}, {nz})"

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "coords": {subset_key(I): rat_to_str(v) for I, v in self.coords.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "PluckerVector":
        """ValueError unless k and n are integers and coords is an object of
        distinct k-subsets of [n] to rationals; a bad entry names its key."""
        if type(data["k"]) is not int or type(data["n"]) is not int:
            raise ValueError(f"k and n must be integers, not {data['k']!r} and {data['n']!r}")
        if not isinstance(data["coords"], dict):
            raise ValueError("coords must be an object of \"i,j,...\": \"p/q\" entries")
        coords = {}
        for key, v in data["coords"].items():
            I = subset_from_key(key)
            if I in coords:
                raise ValueError(f"coordinate key {key!r} repeats the subset {subset_key(I)}")
            coords[I] = rat_from_str(v, f"coordinate {key!r}")
        return cls(data["k"], data["n"], coords)


@record
class Matroid:
    n: int
    k: int
    bases: frozenset[frozenset[int]]

    def __post_init__(self):
        if not self.bases:
            raise ValueError("a matroid needs at least one basis")
        ground = frozenset(range(1, self.n + 1))
        for B in self.bases:
            if len(B) != self.k or not B <= ground:
                raise ValueError(f"bad basis {sorted(B)}")

    def sorted_bases(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(B)) for B in self.bases)

    def __repr__(self):
        body = ",".join("".join(map(str, B)) if self.n < 10 else str(B)
                        for B in self.sorted_bases())
        return f"Matroid(k={self.k}, n={self.n}, bases={{{body}}})"


def plucker_of_matrix(C: RatMatrix) -> PluckerVector:
    """All k x k column minors of a full-row-rank k x n matrix."""
    coords = maximal_minors(C)
    if not any(coords.values()):
        raise ValueError("matrix is rank deficient: all maximal minors vanish")
    return PluckerVector(C.rows, C.cols, coords)


def matroid_of(P: PluckerVector) -> Matroid:
    bases = frozenset(frozenset(I) for I, v in P.coords.items() if v != 0)
    return Matroid(P.n, P.k, bases)


def _lead_positive(P: PluckerVector) -> bool:
    """Whether the first nonzero coordinate (lex subset order) is positive."""
    return next(v for v in P.coords.values() if v) > 0


def is_tnn(P: PluckerVector) -> bool:
    """Every coordinate is zero or has the sign of the first nonzero one."""
    if _lead_positive(P):
        return all(v >= 0 for v in P.coords.values())
    return all(v <= 0 for v in P.coords.values())


def is_tp(P: PluckerVector) -> bool:
    """Every coordinate has the sign of the first nonzero one."""
    if _lead_positive(P):
        return all(v > 0 for v in P.coords.values())
    return all(v < 0 for v in P.coords.values())


def exchange_quads(n: int, k: int):
    """Every (S, a, b, c, d) with S a (k - 2)-subset of [n] and a < b < c < d
    outside S: S in lex order, then the quads in lex order; none when k < 2."""
    if k < 2:
        return
    for S in subsets(n, k - 2):
        rest = [x for x in range(1, n + 1) if x not in S]
        for quad in combinations(rest, 4):
            yield (S, *quad)


def matrix_of_plucker(P: PluckerVector) -> RatMatrix:
    """Recover a k x n representative, exact, via a chart where p_I0 != 0.

    Row r, column j holds the signed coordinate of the index sequence
    obtained from the chart basis with its r-th element replaced by j; on
    the chart columns this is p_I0 times the identity.  The minors m_J of
    its rows, cleared to integers, must be proportional to P's coordinates
    q_J, cleared to integers: m_J q_I0 = q_J m_I0 for every J.  Raises
    ValueError when P is not a point of the Grassmannian.
    """
    k, n = P.k, P.n
    if k == 0:
        return RatMatrix.zero(0, n)
    I0 = next(I for I in subsets(n, k) if P.coords[I] != 0)
    rows = []
    for r in range(k):
        row = []
        for j in range(1, n + 1):
            seq = list(I0)
            seq[r] = j
            s = perm_sign(seq)
            row.append(Fraction(0) if s == 0 else s * P.coord(seq))
        rows.append(row)
    C = RatMatrix.from_rows(rows)
    minors = dict(zip(subsets(n, k), integer_minors(C.ints, n)))
    q = dict(zip(P.coords, RatMatrix.from_rows([list(P.coords.values())]).ints[0]))
    if any(minors[I] * q[I0] != q[I] * minors[I0] for I in q):
        raise ValueError("coordinates fail the Pluecker relations; "
                         "not a point of the Grassmannian")
    return C


def _necklace(bases, k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """(I_1, ..., I_n) of a set of sorted k-tuples: I_i is the first of them
    in the lexicographic order of the cyclic order i < i+1 < ... < i-1."""
    necklace = []
    for i in range(1, n + 1):
        for J in combinations([*range(i, n + 1), *range(1, i)], k):
            I = tuple(sorted(J))
            if I in bases:
                necklace.append(I)
                break
    return tuple(necklace)


def necklace_of_bases(bases, n: int) -> tuple[tuple[int, ...], ...]:
    """(I_1, ..., I_n): I_i is the basis lexicographically least in the
    cyclic order i < i+1 < ... < i-1, which for a matroid is its least
    basis in the Gale order <=_i."""
    sets = {tuple(sorted(B)) for B in bases}
    return _necklace(sets, len(next(iter(sets))), n)


@lru_cache(maxsize=None)
def positroid_of_necklace(necklace) -> Matroid:
    """{B : I_i <=_i B for all i}: the intersection of the cyclically
    shifted Schubert matroids of a Grassmann necklace, which is the
    positroid of its cell (Oh, arXiv 0803.1018).

    I <=_i B holds exactly when each initial interval {i, i+1, ..., i+t}
    of the order <_i holds at most as many elements of B as of I.  The
    intervals are kept as bitmasks with their counts from I, leaving out
    the counts no k-set can exceed.  The one positroid table, by necklace.
    """
    n = len(necklace)
    k = len(necklace[0]) if necklace else 0
    bounds = set()
    for i, I in enumerate(necklace, start=1):
        in_I = sum(1 << (x - 1) for x in I)
        interval = 0
        for t in range(n):
            interval |= 1 << (i - 1 + t) % n
            held = (interval & in_I).bit_count()
            if held < min(k, t + 1):
                bounds.add((interval, held))
    bases = []
    for B in subsets(n, k):
        mask = 0
        for x in B:
            mask |= 1 << (x - 1)
        for interval, held in bounds:
            if (mask & interval).bit_count() > held:
                break
        else:
            bases.append(frozenset(B))
    return Matroid(n, k, frozenset(bases))


def _is_grassmann_necklace(necklace) -> bool:
    """I_{i+1} = I_i - {i} + {j} for some j when i is in I_i, else I_{i+1} = I_i."""
    n = len(necklace)
    for i in range(1, n + 1):
        here, after = set(necklace[i - 1]), set(necklace[i % n])
        if not (here - {i} <= after if i in here else here == after):
            return False
    return True


def _positroid_necklace(M: Matroid):
    """M's Grassmann necklace if M is a positroid, else None: M must equal
    the positroid of its own necklace (Knutson-Lam-Speyer, arXiv 1109.5705).

    The necklace check keeps out families of k-sets that are not matroids
    but are cut out by shifted Gale inequalities, such as {13, 24}.
    """
    neck = necklace_of_bases(M.bases, M.n)
    if _is_grassmann_necklace(neck) and positroid_of_necklace(neck).bases == M.bases:
        return neck
    return None


def is_positroid(M: Matroid) -> bool:
    """Whether the bases of M form a positroid (``_positroid_necklace``)."""
    return _positroid_necklace(M) is not None


def decorated_permutation_of(C: RatMatrix) -> DecoratedPermutation:
    """Decorated permutation of a totally nonnegative matrix, read off the
    maximal minors of its integer rows (``perm_of_minors``)."""
    return perm_of_minors(integer_minors(C.ints, C.cols), C.rows, C.cols)


def perm_of_minors(minors: Sequence, k: int, n: int) -> DecoratedPermutation:
    """Decorated permutation of the point of Gr(k, n) with these maximal
    minors, on the k-sets in lexicographic order, read off its Grassmann
    necklace (Postnikov, arXiv math/0609764, §16-17).

    Some minor must be nonzero, and every nonzero one must have the sign
    of the first.  I_i is then the first column set with a nonzero minor in
    the lexicographic order of the cyclic order i < ... < i-1 (``_necklace``).
    """
    lead = next((m for m in minors if m), 0)
    if not lead:
        raise ValueError("matrix is rank deficient: all maximal minors vanish")
    if (min(minors) if lead > 0 else -max(minors)) < 0:
        raise ValueError("decorated permutation is only defined on the "
                         "totally nonnegative part")
    return perm_of_necklace(_necklace({I for I, m in zip(subsets(n, k), minors) if m}, k, n))


def is_tp_by_sign_variation(C: RatMatrix) -> bool:
    """Whether the row space of C is totally positive, decided by sign
    variation on finitely many of its vectors.

    Gantmakher and Krein: a point of Gr(k, n) is totally positive exactly
    when every nonzero vector of it has varbar <= k - 1.  Karp (arXiv
    1503.05622) shows one vector per (k - 1)-subset S of the columns is
    enough: the vector vanishing on S must be unique up to scale and obey
    the bound.  Raises ValueError when C has rank below k.
    """
    k = C.rows
    if rank(C) < k:
        raise ValueError("matrix is rank deficient: all maximal minors vanish")
    if k == 0:
        return True
    for S in combinations(range(C.cols), k - 1):
        K = kernel_basis(C.columns(S).transpose())
        if K.rows != 1:
            return False
        v = K.matmul(C).row(0)
        if varbar(v) > k - 1:
            return False
    return True


def vandermonde_matrix(k: int, nodes: Sequence) -> RatMatrix:
    """Rows (1, t, ..., t^(k-1)) transposed: k x n with columns at the nodes.

    Strictly increasing nodes give a totally positive point.
    """
    nodes = [Fraction(t) for t in nodes]
    return RatMatrix.from_rows([[t ** r for t in nodes] for r in range(k)])
