"""Positroid cells from decorated permutations.

A cell is reconstructed by peeling its decorated permutation down to
lollipops: fixed points strip off directly, and otherwise some adjacent
pair (i, i+1) is an ascent of the bounded affine lift, where a bridge can
be removed.  Replaying the peeling on integer rows gives an exact totally
nonnegative matrix realization, certified by recomputing the decorated
permutation of the realization, so a wrong reconstruction cannot escape.
Replaying it with the lollipop and bridge builders of ``plabic`` gives a
plabic graph, certified by its trip permutation; ``graph_of_perm`` and
``perm_of_graph`` import ``plabic`` when they run, so the matrix side loads
no graph code.  The positroid of a cell needs neither: it is read off the
Grassmann necklace of the permutation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import TYPE_CHECKING

from .exact import RatMatrix
from .grassmann import (
    Matroid,
    PluckerVector,
    _positroid_necklace,
    decorated_permutation_of,
    perm_of_minors,
    plucker_of_matrix,
    positroid_of_necklace,
)
from .perms import (
    DecoratedPermutation,
    affine_lift,
    enumerate_decorated,
    necklace,
    perm_of_necklace,
)

if TYPE_CHECKING:
    from .plabic import PlabicGraph

__all__ = [
    "bridge_decomposition",
    "graph_of_perm",
    "matrix_realization",
    "positroid_of_perm",
    "cell_dim_of_perm",
    "perm_of_graph",
    "cell_dimension",
    "positroid_catalog",
    "sample_cell_matrix",
    "sample_cell_point",
]

Step = tuple  # ("lollipop", i, colour) or ("bridge", i)


def _delete_fixed(pi: DecoratedPermutation, i: int) -> DecoratedPermutation:
    """Remove fixed point i and relabel; other trips are unaffected."""
    images = []
    for pos, v in enumerate(pi.images, start=1):
        if pos == i:
            continue
        images.append(v - 1 if v > i else v)
    shift = lambda S: frozenset(x - 1 if x > i else x for x in S if x != i)
    return DecoratedPermutation(tuple(images), shift(pi.loops), shift(pi.coloops))


def _unbridge(pi: DecoratedPermutation, i: int) -> DecoratedPermutation:
    """Swap the targets of positions i and i+1; new fixed points get the
    colour forced by the bridge endpoints (coloop at i, loop at i+1)."""
    n = pi.n
    images = list(pi.images)
    images[i - 1], images[i] = images[i], images[i - 1]
    loops, coloops = set(pi.loops), set(pi.coloops)
    if images[i - 1] == i:
        coloops.add(i)
    if images[i] == i + 1:
        loops.add(i + 1)
    return DecoratedPermutation(tuple(images), frozenset(loops), frozenset(coloops))


def _ascents(pi: DecoratedPermutation) -> list[int]:
    """Positions i < n with f(i) < f(i+1) in the bounded affine lift.

    Such a position always exists for a permutation without fixed points.
    """
    f = affine_lift(pi)
    return [i for i in range(1, pi.n) if f[i - 1] < f[i]]


@lru_cache(maxsize=None)
def bridge_decomposition(pi: DecoratedPermutation) -> tuple[Step, ...]:
    """Peeling order: lollipop strips and bridge removals down to nothing.

    Replay the steps in reverse to rebuild the cell.  The number of bridge
    steps equals the dimension of the cell.
    """
    steps: list[Step] = []
    current = pi
    while current.n > 0:
        fixed = sorted(current.fixed_points)
        if fixed:
            i = fixed[0]
            colour = "black" if i in current.loops else "white"
            steps.append(("lollipop", i, colour))
            current = _delete_fixed(current, i)
            continue
        asc = _ascents(current)
        if not asc:
            raise RuntimeError(f"no ascent available for {current}")
        i = asc[0]
        steps.append(("bridge", i))
        current = _unbridge(current, i)
    return tuple(steps)


@lru_cache(maxsize=None)
def graph_of_perm(pi: DecoratedPermutation) -> PlabicGraph:
    """Plabic graph whose cell is indexed by ``pi`` (trip permutation checked)."""
    from .plabic import (_bridge_insert_graph, _empty_graph, _lollipop_insert_graph,
                         trip_permutation)

    steps = bridge_decomposition(pi)
    G = _empty_graph()
    for step in reversed(steps):
        if step[0] == "lollipop":
            _, i, colour = step
            G = _lollipop_insert_graph(G, i, colour)
        else:
            G = _bridge_insert_graph(G, step[1])
    got = trip_permutation(G)
    if got != pi:
        raise RuntimeError(f"bridge replay built {got} instead of {pi}")
    return G


def _replay(pi: DecoratedPermutation, params: list[Fraction]) -> RatMatrix:
    """The peeling of pi replayed on integer rows over one common
    denominator D: a loop at i inserts a zero column at i; a coloop at i
    negates the old columns from i on, inserts a zero column at i and
    appends the row D e_i, so expanding a minor on columns J (i p-th in J)
    along the new row gives the sign (-1)^((k+1)+p) (-1)^(k+1-p) = +1; a
    bridge t = p/q adds t c_i to c_{i+1}: every row is scaled by q, p times
    the old c_i is added to c_{i+1}, and D becomes q D."""
    steps = bridge_decomposition(pi)
    nbridges = cell_dim_of_perm(pi)
    if len(params) != nbridges:
        raise ValueError(f"cell of {pi} needs {nbridges} parameters")
    if any(t <= 0 for t in params):
        raise ValueError("bridge parameters must be positive")
    rows: list[list[int]] = []
    n, pidx, D = 0, nbridges, 1
    for step in reversed(steps):
        i = step[1]
        if step[0] == "bridge":
            pidx -= 1
            t = Fraction(params[pidx])
            p, q = t.numerator, t.denominator
            scaled = rows if q == 1 else [[q * x for x in row] for row in rows]
            for new, old in zip(scaled, rows):
                new[i] += p * old[i - 1]
            rows, D = scaled, q * D
        elif step[2] == "black":
            for row in rows:
                row.insert(i - 1, 0)
            n += 1
        else:
            for row in rows:
                row[i - 1:] = [0] + [-x for x in row[i - 1:]]
            n += 1
            rows.append([D if j == i else 0 for j in range(1, n + 1)])
    return RatMatrix.from_integer_rows(rows, [D] * len(rows), n)


def _check_cell(pi: DecoratedPermutation, got: DecoratedPermutation) -> None:
    if got != pi:
        raise RuntimeError(f"realization of {pi} landed in cell {got}")


def matrix_realization(pi: DecoratedPermutation, params: list[Fraction]) -> RatMatrix:
    """Exact totally nonnegative matrix whose point lies in the cell of pi.

    ``params`` supplies one positive rational per bridge (dimension many);
    the peeling is replayed on integer rows (``_replay``).  The result is
    certified by recomputing its decorated permutation from its maximal
    minors.
    """
    C = _replay(pi, params)
    _check_cell(pi, decorated_permutation_of(C))
    return C


def _draw(pi: DecoratedPermutation, rng: Random) -> list[Fraction]:
    """One bridge parameter per dimension, each a ratio of uniform integers,
    so products of them spread both above and below 1; plain integer
    parameters pile up in one corner of the cell and starve whole chambers
    downstream."""
    return [Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
            for _ in range(cell_dim_of_perm(pi))]


def sample_cell_matrix(pi: DecoratedPermutation, rng: Random) -> RatMatrix:
    """Random interior point of the cell, exact and certified."""
    return matrix_realization(pi, _draw(pi, rng))


def sample_cell_point(pi: DecoratedPermutation,
                      rng: Random) -> tuple[RatMatrix, PluckerVector]:
    """``sample_cell_matrix`` and the Plücker vector of its point, whose
    minors also certify it: the signs of its coordinates are those of the
    integer minors."""
    C = _replay(pi, _draw(pi, rng))
    P = plucker_of_matrix(C)
    _check_cell(pi, perm_of_minors([v.numerator for v in P.coords.values()], C.rows, C.cols))
    return C, P


def positroid_of_perm(pi: DecoratedPermutation) -> Matroid:
    """The positroid of the cell indexed by ``pi``, read off its Grassmann
    necklace, in the table of ``positroid_of_necklace``."""
    return positroid_of_necklace(necklace(pi))


@lru_cache(maxsize=None)
def cell_dim_of_perm(pi: DecoratedPermutation) -> int:
    """Dimension of the cell = number of bridges in the peeling."""
    return sum(1 for s in bridge_decomposition(pi) if s[0] == "bridge")


def perm_of_graph(G: PlabicGraph) -> DecoratedPermutation:
    """Decorated permutation of the image of G's boundary measurement map.

    For every plabic graph, reduced or not, that image is the positroid
    cell of the matching positroid of G (Postnikov, arXiv math/0609764),
    whose decorated permutation is read off its Grassmann necklace.  A
    matching matroid that is not that positroid, as a graph that is not
    planar can have, is a ValueError.
    """
    from .plabic import positroid_of_graph

    neck = _positroid_necklace(positroid_of_graph(G))
    if neck is None:
        raise ValueError("the matching matroid of the graph is not a positroid")
    return perm_of_necklace(neck)


def cell_dimension(G: PlabicGraph) -> int:
    """Dimension of the image of G's boundary measurement map."""
    return cell_dim_of_perm(perm_of_graph(G))


@lru_cache(maxsize=None)
def positroid_catalog(k: int, n: int) -> dict[frozenset, DecoratedPermutation]:
    """All rank-k positroids on [n], keyed by basis set."""
    return {positroid_of_perm(pi).bases: pi for pi in enumerate_decorated(n, k=k)}
