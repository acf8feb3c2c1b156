"""Positive tropical heights and their regular subdivisions."""

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import gcd, lcm
from operator import or_
from random import Random

import pytest

from oracles import (fraction_argmin_face, fraction_moved, fraction_positivity_violation,
                     fraction_step, full_interval_directions, kernel_directions,
                     resumming_wall_search, span_scan, zero_one_directions)
from positroid_lab import exact, obs, trop
from positroid_lab.cells import positroid_catalog
from positroid_lab.exact import RatMatrix, det, integer_det
from positroid_lab.grassmann import necklace_of_bases, positroid_of_necklace
from positroid_lab.hypersimplex import (
    binomial,
    cover_mask,
    enumerate_D,
    eulerian,
    tile_catalog,
)
from positroid_lab.trop import (
    HeightVector,
    argmin_face,
    faces_are_positroids,
    is_finest,
    is_positive_tropical,
    octahedra_all_subdivided,
    positivity_violation,
    random_positive_tropical,
    regular_subdivision,
    walls,
)
from positroid_lab.util import subsets


# lifts 13 and 24: splits the octahedron along its non-positroidal diagonal
OCTAHEDRON_SPLIT = {(1, 3): 1, (2, 4): 1}


def scaled_gaps(P):
    """P's heights as ``regular_subdivision`` hands them to either walk: the
    integers L P_I, keyed by I, and the lcm L of their denominators."""
    L, H = trop._scaled(P)
    return dict(zip(trop._index(P.k, P.n), H)), L


def wall_search(P):
    return trop._cells_by_wall_search(P, *scaled_gaps(P))


def test_positivity_pinned_vectors():
    assert is_positive_tropical(HeightVector.make(2, 4, {(1, 2): 1}))
    assert is_positive_tropical(HeightVector.make(2, 4, {}))
    bad = HeightVector.make(2, 4, OCTAHEDRON_SPLIT)
    assert not is_positive_tropical(bad)
    S, a, b, c, d = positivity_violation(bad)
    assert (a, b, c, d) == (1, 2, 3, 4) and S == ()
    # violated at S = (1,), (3,) and (5,), among others; the first S wins
    assert positivity_violation(HeightVector.make(3, 6, {(1, 3, 5): 1})) == ((1,), 2, 3, 4, 5)


def test_two_pyramid_subdivision():
    D = regular_subdivision(HeightVector.make(2, 4, {(1, 2): 1}))
    cells = {frozenset(c.vertices) for c in D.cells}
    assert cells == {
        frozenset({(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}),
        frozenset({(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}),
    }
    assert faces_are_positroids(D)
    assert is_finest(D)


def test_other_pyramid_pair():
    # split along the square through 12, 13, 24, 34
    P = HeightVector.make(2, 4, {(1, 4): 1, (2, 3): 1})
    D = regular_subdivision(P)
    assert is_positive_tropical(P)
    cells = {frozenset(c.vertices) for c in D.cells}
    assert frozenset({(1, 2), (1, 3), (2, 4), (3, 4), (1, 4)}) in cells


def test_trivial_subdivisions():
    D = regular_subdivision(HeightVector.make(2, 4, {}))
    assert len(D.cells) == 1
    assert not is_finest(D)
    D1 = regular_subdivision(HeightVector.make(1, 3, {(1,): 5, (2,): -2, (3,): 0}))
    assert len(D1.cells) == 1


def test_witnesses_certify_cells():
    P = HeightVector.make(2, 4, {(1, 2): 1})
    D = regular_subdivision(P)
    for c in D.cells:
        assert argmin_face(P, c.witness) == c.vertices


def test_random_positive_instances_are_positroidal():
    rng = Random(2)
    for (k, n) in [(2, 4), (2, 5), (3, 5)]:
        for _ in range(8):
            P = random_positive_tropical(k, n, rng)
            D = regular_subdivision(P)
            assert faces_are_positroids(D)
            assert is_finest(D) == (len(D.cells) == binomial(n - 2, k - 1))


def test_faces_are_positroids_builds_one_positroid_per_necklace():
    rng = Random(0)
    positroid_of_necklace.cache_clear()
    cells, necklaces = 0, set()
    for _ in range(50):
        D = regular_subdivision(random_positive_tropical(3, 6, rng))
        assert faces_are_positroids(D)
        cells += len(D.cells)
        necklaces.update(necklace_of_bases(c.matroid(3, 6).bases, 6) for c in D.cells)
    info = positroid_of_necklace.cache_info()
    assert info.misses == len(necklaces) and info.hits + info.misses == cells
    assert (cells, len(necklaces)) == (295, 43)


def test_non_positive_tropical_can_fail_positroid_check():
    P = HeightVector.make(2, 4, OCTAHEDRON_SPLIT)
    assert not is_positive_tropical(P)
    D = regular_subdivision(P)
    assert len(D.cells) == 2
    assert not faces_are_positroids(D)


def test_wall_search_matches_span_scan():
    rng = Random(5)
    for (k, n) in [(2, 4), (2, 5)]:
        for _ in range(5):
            P = random_positive_tropical(k, n, rng)
            a = {c.vertices for c in wall_search(P)}
            b = {c.vertices for c in span_scan(P)}
            assert a == b


def _random_heights(k, n, rng, hi):
    return HeightVector.make(k, n, {I: rng.randint(0, hi) for I in subsets(n, k)})


GENERIC_DRAWS = [(2, 4, 6), (2, 5, 5), (2, 6, 3), (3, 6, 1)]
POSITIVE_DRAWS = [(2, 4, 8), (2, 5, 6), (3, 6, 6), (2, 7, 3), (3, 7, 2), (4, 8, 1)]


def _generic_draws(k, n, count):
    rng = Random(11)
    return [_random_heights(k, n, rng, 10 ** 9) for _ in range(count)]


@pytest.mark.parametrize("k, n, count", GENERIC_DRAWS)
def test_facet_walk_matches_span_scan_on_generic_heights(k, n, count):
    for P in _generic_draws(k, n, count):
        assert not is_positive_tropical(P)
        D = regular_subdivision(P)
        assert len(D.cells) <= eulerian(k - 1, n - 1)
        assert list(D.cells) == span_scan(P)  # vertices, witnesses and order


def _degenerate_draws():
    """Heights that are not positive tropical and not generic: entries in
    0..2 and the octahedron split, also scaled down to 10^-12."""
    rng = Random(4)
    draws = [HeightVector.make(2, 4, OCTAHEDRON_SPLIT)]
    for (k, n, count) in [(2, 4, 4), (2, 5, 4), (2, 6, 2)]:
        found = []
        while len(found) < count:
            P = _random_heights(k, n, rng, 2)
            if not is_positive_tropical(P):
                found.append(P)
        draws += found
    # tiny heights: the octahedron split scaled down to 10^-12
    tiny = {I: Fraction(h, 10 ** 12) for I, h in OCTAHEDRON_SPLIT.items()}
    return draws + [HeightVector.make(2, 4, tiny)]


def test_facet_walk_merges_the_simplices_of_degenerate_heights():
    merged = 0
    for P in _degenerate_draws():
        cells = regular_subdivision(P).cells
        merged += any(len(c.vertices) > P.n for c in cells)
        assert list(cells) == span_scan(P)  # vertices, witnesses and order
    assert merged >= 8


def _check_walk_steps(monkeypatch, draws):
    """Regular subdivisions of ``draws`` with every direction table of the
    facet walk compared with the two-kernel oracle, every move of a tilt
    with the ``Fraction`` one, and every |det| the walk recorded with
    ``integer_det``."""
    walk, grow = trop._walk, trop._grow_to_cell
    moved, adjugate = trop._moved, trop.integer_adjugate
    dets, walks, counts = {}, [], Counter()

    def recording_adjugate(E):
        got = adjugate(E)
        if got is not None:
            dets[tuple(map(tuple, E))] = got[1]
        return got

    def checked_moved(Y, r, G, q, u, d, step):
        got = moved(Y, r, G, q, u, d, step)
        y, G2, q2 = fraction_moved([Fraction(a, r) for a in Y], G, q, u, d, step)
        assert got[2:] == (G2, q2) and trop._face(got[2]) == trop._face(G2)
        assert [Fraction(a, got[1]) for a in got[0]] == y
        counts["moved"] += 1
        return got

    def checking(n, directions):
        def checked(face):
            got = directions(face)
            assert got == kernel_directions(n, subsets(n, len(next(iter(face)))), face)
            counts["directions"] += 1
            return got

        return checked

    def checked_grow(n, gaps, q, directions, full):
        return grow(n, gaps, q, checking(n, directions), full)

    def checked_walk(start, state, directions, full, narrow):
        walks.append(walk(start, state, checking(len(state[0]), directions), full, narrow))
        return walks[-1]

    monkeypatch.setattr(trop, "integer_adjugate", recording_adjugate)
    monkeypatch.setattr(trop, "_moved", checked_moved)
    monkeypatch.setattr(trop, "_grow_to_cell", checked_grow)
    monkeypatch.setattr(trop, "_walk", checked_walk)
    for P in draws:
        walks.clear()
        regular_subdivision(P)
        rows = [tuple(tuple(int(i in I) for i in range(1, P.n + 1)) for I in sorted(s))
                for s in walks[-1]]  # the walk that passed the audit
        assert all(E in dets for E in rows)
    assert all(det == integer_det(E) for E, det in dets.items())
    return counts


@pytest.mark.parametrize("k, n, count", GENERIC_DRAWS)
def test_facet_walk_steps_match_the_kernel_and_fraction_oracles(monkeypatch, k, n, count):
    counts = _check_walk_steps(monkeypatch, _generic_draws(k, n, count))
    assert counts["moved"] >= count * (n - 1) and counts["directions"] >= count * n


def test_degenerate_facet_walk_steps_match_the_kernel_and_fraction_oracles(monkeypatch):
    counts = _check_walk_steps(monkeypatch, _degenerate_draws())
    assert counts["moved"] > 100


def test_facet_walk_takes_one_elimination_per_simplex_visit(monkeypatch):
    eliminations, adjugates = [], []
    eliminate, adjugate = exact._eliminate, trop.integer_adjugate
    monkeypatch.setattr(exact, "_eliminate",
                        lambda a, full=False: eliminations.append(a) or eliminate(a, full))
    monkeypatch.setattr(trop, "integer_adjugate",
                        lambda E: adjugates.append(E) or adjugate(E))
    rng = Random(0)
    for _ in range(5):
        P = _random_heights(2, 5, rng, 10 ** 9)
        eliminations.clear()
        adjugates.clear()
        cells = regular_subdivision(P).cells
        assert len(cells) == len(adjugates) == eulerian(1, 4)
        # one adjugate per simplex and a rank per face grown to the first
        assert len(eliminations) <= 20


def _walked_simplices(monkeypatch, draws) -> tuple[list, list]:
    """The cells of each regular subdivision of ``draws`` and the cells of
    each ``trop._walk`` it took."""
    walk, walks = trop._walk, []
    monkeypatch.setattr(trop, "_walk", lambda *a, **kw: walks.append(walk(*a, **kw)) or walks[-1])
    cells = [regular_subdivision(P).cells for P in draws]
    return cells, [set(w) for w in walks]


def test_facet_walk_does_not_depend_on_the_perturbation(monkeypatch):
    P = HeightVector.make(2, 5, dict(zip(subsets(5, 2), [0, 1, 0, 2, 1, 0, 0, 1, 2, 0])))
    draws = [P] + _degenerate_draws()
    cells, simplices = _walked_simplices(monkeypatch, draws)
    assert sorted(len(c.vertices) for c in cells[0]) == [5, 6, 6, 8]
    lift = trop._lift

    def reversed_lift(k, n):
        # the same powers, in reverse lexicographic order: another generic lift
        r = lift(k, n)
        return dict(zip(r, reversed(r.values())))

    monkeypatch.setattr(trop, "_lift", reversed_lift)
    cells2, simplices2 = _walked_simplices(monkeypatch, draws)
    assert cells2 == cells  # vertices, witnesses and order
    # though the two lifts triangulate some cells differently
    assert simplices2 != simplices


def test_every_height_takes_one_walk(monkeypatch):
    draws = _degenerate_draws() + [P for k, n, count in GENERIC_DRAWS
                                   for P in _generic_draws(k, n, count)]
    _, walks = _walked_simplices(monkeypatch, draws)
    assert len(walks) == len(draws)


def test_facet_walk_matches_span_scan_on_every_small_degenerate_height(monkeypatch):
    # every height in 0..2 at (2, 4) that is not positive, and 60 such 0/1
    # draws at (2, 5)
    draws = [HeightVector.make(2, 4, dict(zip(subsets(4, 2), h)))
             for h in product(range(3), repeat=6)]
    draws = [P for P in draws if not is_positive_tropical(P)]
    assert len(draws) == 558
    rng = Random(8)
    while len(draws) < 558 + 60:
        P = _random_heights(2, 5, rng, 1)
        if not is_positive_tropical(P):
            draws.append(P)
    cells, walks = _walked_simplices(monkeypatch, draws)
    assert len(walks) == len(draws)
    assert all(list(c) == span_scan(P) for P, c in zip(draws, cells))  # and order
    assert sum(any(len(cell.vertices) > P.n for cell in c) for P, c in zip(draws, cells)) > 100


def test_facet_walk_audit_rejects_a_lift_that_is_not_generic(monkeypatch):
    # a constant lift breaks no tie: the walk meets cells that are not
    # simplices, which have no facets to shoot across and add no volume
    monkeypatch.setattr(trop, "_lift", lambda k, n: dict.fromkeys(subsets(n, k), 1))
    for P in (HeightVector.make(2, 4, OCTAHEDRON_SPLIT),
              HeightVector.make(2, 5, dict(zip(subsets(5, 2), [0, 1, 0, 2, 1, 0, 0, 1, 2, 0])))):
        with pytest.raises(RuntimeError, match="missed a simplex"):
            regular_subdivision(P)


def test_facet_walk_certifies_generic_37_heights():
    P = _random_heights(3, 7, Random(0), 10 ** 9)
    D = regular_subdivision(P)
    assert all(argmin_face(P, c.witness) == c.vertices for c in D.cells)
    rows = [[[int(i in I) for i in range(1, 8)] for I in c.sorted_vertices()] for c in D.cells]
    assert all(len(r) == 7 for r in rows)
    assert sum(abs(det(RatMatrix.from_rows(r))) for r in rows) == 3 * eulerian(2, 6)


def test_facet_walk_audit_rejects_a_dropped_simplex(monkeypatch):
    walk = trop._walk

    def dropping(*args, **kw):
        cells = walk(*args, **kw)
        del cells[next(iter(cells))]
        return cells

    monkeypatch.setattr(trop, "_walk", dropping)
    with pytest.raises(RuntimeError, match="missed a simplex"):
        regular_subdivision(_random_heights(2, 5, Random(0), 10 ** 9))


def _constant_class(u) -> tuple:
    """u less u_1 (1, ..., 1): equal for two vectors exactly when they
    differ by a constant vector."""
    return tuple(x - u[0] for x in u)


def test_interval_directions_are_cyclic_interval_indicators():
    for n in range(2, 9):
        intervals = {frozenset((i + t) % n + 1 for t in range(size))
                     for i in range(n) for size in range(1, n)}
        expected = [u for u in zero_one_directions(n)
                    if frozenset(i + 1 for i, x in enumerate(u) if x) in intervals]
        full = full_interval_directions(n)
        assert len(full) == 2 * n * (n - 1) and full == expected
        # the first member of each class modulo (1, ..., 1), in the same order
        firsts = {}
        for u in full:
            firsts.setdefault(_constant_class(u), u)
        got = trop._interval_directions(n)
        assert got == list(firsts.values()) and len(got) == n * (n - 1)
        assert len({_constant_class(u) for u in got}) == len(got)
        assert all(type(x) is int for u in got for x in u)


def _wall_search_along(monkeypatch, P, directions):
    """``wall_search(P)`` shooting along the integer vectors of
    ``directions(n)`` in place of the cached cyclic-interval steps, and its
    run record."""
    calls = []

    def steps(k, n):
        calls.append((k, n))
        return tuple(trop._step(trop._index(k, n), [int(x) for x in u])
                     for u in directions(n))

    with monkeypatch.context() as m:
        m.setattr(trop, "_interval_steps", steps)
        obs.start()
        try:
            cells = wall_search(P)
        finally:
            record = obs.stop()
    assert calls == [(P.k, P.n)]
    return cells, record


@pytest.mark.parametrize("k, n, count", [(3, 6, 12), (2, 7, 6), (3, 7, 3)])
def test_wall_search_matches_zero_one_oracle(monkeypatch, k, n, count):
    rng = Random(1)
    for _ in range(count):
        P = random_positive_tropical(k, n, rng)
        fast = wall_search(P)
        slow, _ = _wall_search_along(monkeypatch, P, zero_one_directions)
        assert fast == slow
        assert wall_search(P) == fast  # the cached steps are untouched


@pytest.mark.parametrize("k, n, count", POSITIVE_DRAWS)
def test_wall_search_matches_the_full_interval_list(monkeypatch, k, n, count):
    rng = Random(14)
    for _ in range(count):
        P = random_positive_tropical(k, n, rng)
        obs.start()
        try:
            fast = wall_search(P)
        finally:
            record = obs.stop()
        slow, full = _wall_search_along(monkeypatch, P, full_interval_directions)
        assert fast == slow  # vertices, witnesses and order
        assert record["trop.flat_faces"] == full["trop.flat_faces"]
        assert 2 * record["trop.shots"] == full["trop.shots"] == len(fast) * 2 * n * (n - 1)


def _positive_draws():
    rng = Random(14)
    return [random_positive_tropical(k, n, rng) for k, n, count in POSITIVE_DRAWS
            for _ in range(count)]


def _spans(n, face) -> bool:
    """The rank oracle: the e_I of ``face`` span an affine (n - 1)-space."""
    return trop._aff_rank_sets(n, sorted(face)) == n - 1


def test_connectivity_tells_cells_from_flat_faces_as_the_rank_does(monkeypatch):
    connected, verdicts = trop._connected, Counter()
    # every positroid with n <= 6, as a set of bases
    for n in range(2, 7):
        for k in range(1, n):
            for bases in positroid_catalog(k, n):
                face = frozenset(tuple(sorted(B)) for B in bases)
                verdicts[n, connected(k, n, face)] += 1
                assert connected(k, n, face) == _spans(n, face), (k, n, sorted(face))
    # the connected ones are counted by the stabilized-interval-free
    # permutations of [n] (Ardila-Rincon-Williams)
    assert [verdicts[n, True] for n in range(2, 7)] == [1, 2, 7, 34, 206]
    assert sum(verdicts[n, False] for n in range(2, 7)) == 2109
    # and every face that the wall walk meets on positive draws
    faces = []
    monkeypatch.setattr(trop, "_connected",
                        lambda k, n, face: faces.append((k, n, face)) or connected(k, n, face))
    for P in _positive_draws():
        regular_subdivision(P)
    verdicts = Counter(connected(k, n, face) for k, n, face in faces)
    assert verdicts[True] > 100 and verdicts[False] > 100
    assert all(connected(k, n, face) == _spans(n, face) for k, n, face in faces)


def test_positive_subdivisions_take_no_rank(monkeypatch):
    ranks, rank = [], trop.integer_rank
    monkeypatch.setattr(trop, "integer_rank", lambda rows: ranks.append(rows) or rank(rows))
    for P in _positive_draws():
        D = regular_subdivision(P)
        assert faces_are_positroids(D)
        is_finest(D)
    assert ranks == []
    # the facet walk still grows its first cell by rank
    regular_subdivision(_generic_draws(2, 5, 1)[0])
    assert ranks


def test_positivity_violation_matches_the_fraction_oracle():
    rng = Random(15)
    draws = []
    for k, n in [(1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (2, 7), (3, 7), (4, 8), (4, 5)]:
        for _ in range(4):
            # fractional and negative, degenerate, and positive with denominators
            draws.append(HeightVector.make(k, n, {
                I: Fraction(rng.randint(-50, 50), rng.randint(1, 7)) for I in subsets(n, k)}))
            draws.append(HeightVector.make(k, n, {I: rng.randint(0, 2) for I in subsets(n, k)}))
            draws.append(_rational_heights(k, n, rng, True))
    # every single-entry perturbation of a positive draw
    P = random_positive_tropical(3, 6, rng)
    for I, h in P.table().items():
        for delta in (-1, Fraction(1, 3), 1):
            draws.append(HeightVector.make(3, 6, {**P.table(), I: h + delta}))
    verdicts = Counter()
    for Q in draws:
        got = positivity_violation(Q)
        assert got == fraction_positivity_violation(Q)
        verdicts[got is None] += 1
    assert verdicts[True] > 40 and verdicts[False] > 100


@pytest.mark.parametrize("k, n, count",
                         [(2, 4, 6), (2, 5, 6), (3, 6, 4), (2, 7, 3), (3, 7, 2), (4, 8, 1)])
def test_wall_search_matches_resumming_oracle(k, n, count):
    rng = Random(0)
    for _ in range(count):
        P = random_positive_tropical(k, n, rng)
        fast = wall_search(P)
        slow = resumming_wall_search(P)
        assert fast == slow  # vertices, witnesses and order


def _count_argmins(monkeypatch):
    """Record the tilt of every ``trop._argmin`` call and the heights of
    every ``trop._scaled`` call."""
    calls, scalings = [], []
    argmin, scaled = trop._argmin, trop._scaled

    def counting(P, got, y):
        assert got == scaled(P)
        calls.append(y)
        return argmin(P, got, y)

    monkeypatch.setattr(trop, "_argmin", counting)
    monkeypatch.setattr(trop, "_scaled", lambda P: scalings.append(P) or scaled(P))
    return calls, scalings


def test_wall_search_reads_faces_off_its_gap_tables(monkeypatch):
    calls, scalings = _count_argmins(monkeypatch)
    rng = Random(3)
    for (k, n) in [(2, 5), (3, 6), (2, 7)]:
        P = random_positive_tropical(k, n, rng)
        gaps, L = scaled_gaps(P)
        scalings.clear()
        trop._cells_by_wall_search(P, gaps, L)
        assert calls == [] and scalings == []
        # regular_subdivision certifies each cell once, from scratch, on the
        # heights scaled once for the exchange check, the walk and the cells
        cells = regular_subdivision(P).cells
        assert calls == [c.witness for c in cells] and scalings == [P]
        calls.clear()
        scalings.clear()
    # the public argmin_face scales the heights on every call
    assert argmin_face(P, cells[0].witness) == cells[0].vertices
    assert calls == [list(cells[0].witness)] and scalings == [P]


def test_facet_walk_reads_generic_cells_off_its_walk(monkeypatch):
    calls, scalings = _count_argmins(monkeypatch)
    rng = Random(6)
    for (k, n) in [(2, 5), (2, 6), (3, 6)]:
        P = _random_heights(k, n, rng, 10 ** 9)
        assert not is_positive_tropical(P)
        assert all(len(c.vertices) == n for c in trop._cells_by_facet_walk(P, *scaled_gaps(P)))
        assert calls == []
        # regular_subdivision certifies each cell once, from scratch
        cells = regular_subdivision(P).cells
        assert calls == [c.witness for c in cells]
        calls.clear()
    # degenerate heights too: each simplex of the one walk lies in the cell
    # that its gaps select, with no argmin and no scaling of the heights
    P = HeightVector.make(2, 4, OCTAHEDRON_SPLIT)
    gaps, L = scaled_gaps(P)
    scalings.clear()
    cells = trop._cells_by_facet_walk(P, gaps, L)
    assert len(cells) == 2 and calls == [] and scalings == []


def _rational_heights(k, n, rng, positive):
    """Heights with denominators 2..7: a positive tropical draw, rescaled and
    tilted by a rational linear function (which keeps it positive), or
    generic ones."""
    if not positive:
        return HeightVector.make(k, n, {I: Fraction(rng.randint(0, 10 ** 6), rng.randint(2, 7))
                                        for I in subsets(n, k)})
    P = random_positive_tropical(k, n, rng)
    a = [Fraction(rng.randint(-20, 20), rng.randint(2, 7)) for _ in range(n)]
    s = Fraction(rng.randint(1, 9), rng.randint(2, 7))
    return HeightVector.make(k, n, {I: h * s + sum(a[i - 1] for i in I)
                                    for I, h in P.table().items()})


@pytest.mark.parametrize("k, n", [(2, 5), (3, 6), (2, 7)])
def test_walk_gap_tables_are_integers_over_one_denominator(monkeypatch, k, n):
    walks = []
    original = trop._walk
    monkeypatch.setattr(trop, "_walk", lambda *a: walks.append(original(*a)) or walks[-1])
    rng = Random(9)
    for positive in (True, False):
        for _ in range(3):
            P = _rational_heights(k, n, rng, positive)
            assert is_positive_tropical(P) == positive
            assert any(h.denominator > 1 for h in P.heights)
            walks.clear()
            regular_subdivision(P)
            assert len(walks) == 1
            tab = P.table()
            for cell, (Y, r, G, q) in walks[0].items():
                assert type(q) is int and q > 0 and type(r) is int and r > 0
                assert all(type(a) is int for a in Y) and gcd(r, *Y) == 1
                assert G.keys() == tab.keys() and all(type(g) is int for g in G.values())
                y = [Fraction(a, r) for a in Y]
                for I, h in tab.items():
                    assert Fraction(G[I], q) == h - sum(y[i - 1] for i in I)
                assert trop._face(G) == cell


def test_step_takes_a_fraction_direction_to_the_faces_of_its_integer_multiple():
    rng = Random(12)
    P = random_positive_tropical(3, 6, rng)
    tab, index, (gaps, L) = P.table(), trop._index(3, 6), scaled_gaps(P)
    steps = [trop._step(index, u) for u in trop._interval_directions(6)]

    def directions(face):
        return steps

    def full(face):
        return trop._connected(3, 6, face)

    cells = trop._walk(*trop._grow_to_cell(6, gaps, L, directions, full), directions, full)
    rational = [[Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(6)]
                for _ in range(20)]
    for w in zero_one_directions(6) + rational:
        w = [Fraction(rng.randint(1, 9), rng.randint(2, 7)) * x for x in w]
        m = 3 * lcm(*(x.denominator for x in w))
        # the oracle scales w to integers by the lcm of its denominators
        u, d = fraction_step(tab, w)
        assert trop._step(index, u) == (u, d)
        ui, di = trop._step(index, [int(m * x) for x in w])
        assert all(type(x) is int for x in u + list(d.values()))
        for cell, (Y, r, G, q) in cells.items():
            shot, shot_i = trop._shoot(G, cell, d), trop._shoot(G, cell, di)
            assert (shot is None) == (shot_i is None)
            if shot is not None:
                assert shot[1] == shot_i[1]
                got = trop._moved(Y, r, G, q, u, d, shot[0])
                assert got == trop._moved(Y, r, G, q, ui, di, shot_i[0])
                # the integer tilt is the Fraction tilt moved along w's multiple
                y, G2, q2 = fraction_moved([Fraction(a, r) for a in Y], G, q, u, d, shot[0])
                assert got[2:] == (G2, q2) and [Fraction(a, got[1]) for a in got[0]] == y


@pytest.mark.parametrize("k, n, count", [(3, 6, 12), (2, 7, 6)])
def test_wall_search_cells_cover_every_staircase_simplex_once(monkeypatch, k, n, count):
    def facet_walk(P, gaps, q):
        raise AssertionError("positive heights took the facet walk")

    monkeypatch.setattr(trop, "_cells_by_facet_walk", facet_walk)
    D = enumerate_D(k, n)
    rng = Random(1)
    for _ in range(count):
        cells = regular_subdivision(random_positive_tropical(k, n, rng)).cells
        masks = [cover_mask(cell.matroid(k, n)) for cell in cells]
        assert all(a & b == 0 for a, b in combinations(masks, 2))
        assert reduce(or_, masks) == (1 << len(D)) - 1
        assert sum(mask.bit_count() for mask in masks) == eulerian(k - 1, n - 1)


def test_audit_rejects_a_double_cover(monkeypatch):
    P = random_positive_tropical(2, 5, Random(0))
    cells = wall_search(P)
    # cells[1] twice in place of cells[2] still counts eulerian(1, 4) simplices;
    # cells[1] once more covers every simplex
    assert [cover_mask(c.matroid(2, 5)).bit_count() for c in cells] == [5, 3, 3]
    for fake in ([cells[0], cells[1], cells[1]], cells + [cells[1]]):
        monkeypatch.setattr(trop, "_cells_by_wall_search", lambda P, gaps, q: fake)
        with pytest.raises(RuntimeError, match="not an exact cover"):
            regular_subdivision(P)


def test_audit_rejects_a_dropped_cell(monkeypatch):
    # positive heights have one path: a wall walk that misses a cell raises
    # and is not retried by the facet walk
    P = random_positive_tropical(3, 6, Random(2))
    cells = wall_search(P)
    assert len(cells) > 1
    for i in range(len(cells)):
        monkeypatch.setattr(trop, "_cells_by_wall_search",
                            lambda P, gaps, q: cells[:i] + cells[i + 1:])
        with pytest.raises(RuntimeError, match="not an exact cover"):
            regular_subdivision(P)


def test_positive_tropical_sampler_never_rejects():
    for (k, n) in [(2, 4), (2, 5), (3, 6), (3, 7), (4, 8)]:
        rng = Random(0)
        draws = [random_positive_tropical(k, n, rng) for _ in range(20)]
        assert all(is_positive_tropical(P) for P in draws)
        assert all(isinstance(h, Fraction) for P in draws for h in P.heights)
        assert len({P.heights for P in draws}) == 20
    for (k, n), finest_types in [((2, 4), 2), ((2, 5), 5)]:
        rng = Random(0)
        seen = set()
        for _ in range(200):
            D = regular_subdivision(random_positive_tropical(k, n, rng))
            if is_finest(D):
                seen.add(frozenset(c.vertices for c in D.cells))
        assert len(seen) == finest_types


def test_sampled_witness_faces_consistent():
    rng = Random(8)
    P = random_positive_tropical(2, 5, rng)
    D = regular_subdivision(P)
    for _ in range(200):
        y = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(5)]
        face = argmin_face(P, y)
        assert any(face <= c.vertices for c in D.cells)


def test_argmin_face_refuses_a_tilt_of_the_wrong_length():
    P = HeightVector.make(2, 4, {(1, 2): 1})
    assert argmin_face(P, [0, 0, 0, 0]) == frozenset(subsets(4, 2)) - {(1, 2)}
    for y in ([0, 0, 0, 0, 5, 7], [0, 0, 0]):
        with pytest.raises(ValueError, match=f"n = 4 entries, not {len(y)}"):
            argmin_face(P, y)


def _argmin_heights():
    """The heights of this module: the pinned ones, positive tropical and
    generic integer draws, and rational ones with denominators 2..7."""
    pinned = [HeightVector.make(2, 4, {(1, 2): 1}), HeightVector.make(2, 4, {}),
              HeightVector.make(2, 4, {(1, 4): 1, (2, 3): 1}),
              HeightVector.make(1, 3, {(1,): 5, (2,): -2, (3,): 0}),
              HeightVector.make(2, 4, OCTAHEDRON_SPLIT),
              HeightVector.make(2, 4, {I: Fraction(h, 10 ** 12)
                                       for I, h in OCTAHEDRON_SPLIT.items()}),
              HeightVector.make(2, 5, dict(zip(subsets(5, 2), [0, 1, 0, 2, 1, 0, 0, 1, 2, 0]))),
              HeightVector.make(3, 6, {(1, 3, 5): 1}),
              HeightVector.make(2, 4, {(1, 2): Fraction(3, 7)})]
    rng = Random(4)
    drawn = [random_positive_tropical(k, n, rng)
             for k, n in [(2, 4), (2, 5), (3, 5), (3, 6), (2, 7)] for _ in range(2)]
    drawn += [_random_heights(k, n, rng, 10 ** 9) for k, n in [(2, 5), (3, 6)]]
    drawn += [_rational_heights(k, n, rng, positive)
              for k, n in [(2, 5), (3, 6)] for positive in (True, False)]
    return pinned + drawn


def test_integer_argmin_matches_the_fraction_oracle():
    subdivisions = [(P, regular_subdivision(P).cells) for P in _argmin_heights()]
    cells = 0
    for P, found in subdivisions:
        for c in found:
            assert argmin_face(P, c.witness) == fraction_argmin_face(P, c.witness) == c.vertices
            cells += 1
    assert cells > 50
    rng = Random(5)
    sizes = Counter()
    for draw in range(500):
        P, found = rng.choice(subdivisions)
        if draw % 2:
            y = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3))
                 for _ in range(P.n)]
        else:
            # a witness moved along a 0/1 direction keeps ties on a face of its cell
            t = Fraction(rng.randint(-3, 3), rng.randint(1, 50))
            y = [w + t * rng.randint(0, 1) for w in rng.choice(found).witness]
        face = argmin_face(P, y)
        assert face == fraction_argmin_face(P, y)
        sizes[len(face) > 1] += 1
    assert sizes[True] > 100 and sizes[False] > 100


def test_cells_cover_every_vertex():
    rng = Random(13)
    for (k, n) in [(2, 5), (3, 5)]:
        P = random_positive_tropical(k, n, rng)
        D = regular_subdivision(P)
        covered = set()
        for c in D.cells:
            covered |= set(c.vertices)
        assert covered == set(subsets(n, k))


def test_finest_iff_count_and_octahedra():
    rng = Random(21)
    for _ in range(10):
        P = random_positive_tropical(2, 4, rng)
        D = regular_subdivision(P)
        assert is_finest(D) == octahedra_all_subdivided(D)


def test_interior_face_counts_25():
    rng = Random(3)
    found = False
    for _ in range(10):
        P = random_positive_tropical(2, 5, rng)
        D = regular_subdivision(P)
        if is_finest(D):
            found = True
            # codimension c interior faces: (n-c-1)! / ((k-c)!(n-k-c)!(c-1)!)
            assert len(D.cells) == 3
            assert len(walls(D)) == 2
    assert found


def test_finest_cells_are_moment_tiles():
    rng = Random(17)
    catalog = {frozenset(rec.matroid.bases): rec
               for rec in tile_catalog(2, 5).values()}
    P = random_positive_tropical(2, 5, rng)
    D = regular_subdivision(P)
    if is_finest(D):
        for c in D.cells:
            key = frozenset(frozenset(I) for I in c.vertices)
            assert key in catalog


def test_heights_json_round_trip():
    P = HeightVector.make(2, 4, {(1, 2): Fraction(3, 7)})
    assert HeightVector.from_json(P.to_json()) == P
    # k = 0: the one empty subset is keyed ""
    P = HeightVector.make(0, 3, {(): Fraction(5)})
    assert P.to_json()["heights"] == {"": "5/1"}
    assert HeightVector.from_json(P.to_json()) == P


def test_positive_instance_26():
    rng = Random(2)
    P = random_positive_tropical(2, 6, rng)
    D = regular_subdivision(P)
    assert faces_are_positroids(D)
    assert is_finest(D) == (len(D.cells) == binomial(4, 1))
    covered = set()
    for c in D.cells:
        covered |= set(c.vertices)
    assert covered == set(subsets(6, 2))


def test_run_records_name_the_walk_its_ties_and_its_cells():
    tiny = HeightVector.make(2, 4, {I: Fraction(h, 10 ** 12)
                                    for I, h in OCTAHEDRON_SPLIT.items()})
    tied = HeightVector.make(2, 5, dict(zip(subsets(5, 2), [0, 1, 0, 2, 1, 0, 0, 1, 2, 0])))
    generic = _random_heights(2, 5, Random(0), 10 ** 9)
    positive = random_positive_tropical(3, 6, Random(0))
    records = []
    for P in (tiny, tied, generic, positive):
        obs.start()
        try:
            regular_subdivision(P)
        finally:
            records.append(obs.stop())
    # every height takes one walk.  The tiny heights split the octahedron
    # into two pyramids of two simplices each, and no shot between them
    # ties; the (2, 5) heights give 4 cells of 11 simplices, and the lift
    # broke the ties of 10 shots.  The facet walk only reaches
    # full-dimensional faces, so every flat face is the wall walk's.  The
    # facet walk shoots n facets per simplex, the wall walk n(n - 1)
    # directions per cell
    assert records[0] == {"trop.cells": 2, "trop.facet_walk": 1, "trop.facet_walk.ties": 0,
                          "trop.flat_faces": 0, "trop.shots": 4 * 4}
    assert records[1] == {"trop.cells": 4, "trop.facet_walk": 1, "trop.facet_walk.ties": 10,
                          "trop.flat_faces": 0, "trop.shots": 5 * eulerian(1, 4)}
    assert records[2] == {"trop.cells": eulerian(1, 4), "trop.facet_walk": 1,
                          "trop.facet_walk.ties": 0, "trop.flat_faces": 0,
                          "trop.shots": 5 * eulerian(1, 4)}
    assert records[3] == {"trop.cells": 6, "trop.wall_walk": 1, "trop.flat_faces": 28,
                          "trop.shots": 180}
    assert len(regular_subdivision(positive).cells) == 6
    # off, nothing is counted
    regular_subdivision(tiny)
    assert obs.counters == records[3] and not obs.enabled
