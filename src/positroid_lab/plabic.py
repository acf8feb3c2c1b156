"""Plabic graphs in a disk: trips, moves, matchings, boundary measurement.

A graph carries its embedding as a rotation system: the clockwise cyclic
order of incident edge-ends (darts) at every vertex.  Boundary vertices
are named ``b1..bn`` clockwise and have degree one.  Trips turn maximally
right at black vertices and maximally left at white ones; with clockwise
rotations that is predecessor and successor respectively.  Every builder
and rewrite names edges by hashable keys, with darts as ``(key, side)``,
and :meth:`PlabicGraph.from_keyed` numbers them in insertion order.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import count
from typing import TYPE_CHECKING, Hashable, Iterator, Mapping, Sequence

from .grassmann import Matroid, PluckerVector
from .perms import DecoratedPermutation
from .util import record

if TYPE_CHECKING:
    from .triangulations import BicoloredTriangulation

Dart = tuple[int, int]  # (edge index, end 0 or 1)


def _is_str(x) -> bool:
    return isinstance(x, str)


def _is_int(x) -> bool:
    return type(x) is int


def _list_of(x, ok) -> bool:
    return isinstance(x, list) and all(ok(y) for y in x)


def boundary_id(i: int) -> str:
    return f"b{i}"


class PlabicGraph:
    """Immutable plabic graph with a rotation-system embedding."""

    __slots__ = ("n", "colors", "edges", "rotations", "_matchings", "_sites")

    def __init__(self, n: int, colors: Mapping[str, str],
                 edges: Sequence[tuple[str, str]],
                 rotations: Mapping[str, Sequence[Dart]]):
        self.n = n
        self.colors = dict(colors)
        self.edges = tuple((str(u), str(v)) for u, v in edges)
        self.rotations = {str(v): tuple((int(e), int(s)) for e, s in rot)
                          for v, rot in rotations.items()}
        self._matchings = self._sites = None
        self._validate()

    @classmethod
    def from_keyed(cls, n: int, colors: Mapping[str, str],
                   edges: Mapping[Hashable, tuple[str, str]],
                   rotations: Mapping[str, Sequence[tuple[Hashable, int]]]
                   ) -> "PlabicGraph":
        """Number the keyed edges in dict order; darts are ``(key, side)``."""
        index = {key: i for i, key in enumerate(edges)}
        return cls(n, colors, list(edges.values()),
                   {v: [(index[key], side) for key, side in rot]
                    for v, rot in rotations.items()})

    def _validate(self):
        inc: dict[str, list[Dart]] = {}
        for idx, (u, v) in enumerate(self.edges):
            inc.setdefault(u, []).append((idx, 0))
            inc.setdefault(v, []).append((idx, 1))
        for v in self.rotations:
            inc.setdefault(v, [])
        for i in range(1, self.n + 1):
            b = boundary_id(i)
            if len(inc.get(b, ())) != 1:
                raise ValueError(f"boundary vertex {b} must have degree 1")
        for vtx in inc:
            if vtx not in self.rotations:
                raise ValueError(f"missing rotation for {vtx}")
            if sorted(self.rotations[vtx]) != sorted(inc[vtx]):
                raise ValueError(f"rotation at {vtx} does not match incidences")
            if not self.is_boundary(vtx) and self.colors.get(vtx) not in ("black", "white"):
                raise ValueError(f"internal vertex {vtx} needs a colour")
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loops are not supported")
        for vtx in inc:  # internal leaves only as (possibly subdivided) lollipops
            if self.is_boundary(vtx) or len(inc[vtx]) != 1:
                continue
            prev, cur = vtx, self.edges[inc[vtx][0][0]][1 - inc[vtx][0][1]]
            while not self.is_boundary(cur) and len(inc[cur]) == 2:
                nxt = next(self.edges[e][1 - s] for e, s in inc[cur]
                           if self.edges[e][1 - s] != prev)
                prev, cur = cur, nxt
            if not self.is_boundary(cur):
                raise ValueError(f"internal leaf {vtx} is not a lollipop")
        seen: set[str] = set()
        stack = [boundary_id(i) for i in range(1, self.n + 1)]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            for eid, side in inc.get(v, ()):
                stack.append(self.edges[eid][1 - side])
        stranded = {v for v in inc if not self.is_boundary(v)} - seen
        if stranded:
            raise ValueError(f"vertices not connected to the boundary: {stranded}")

    # -- queries --

    def is_boundary(self, vtx: str) -> bool:
        return vtx.startswith("b") and vtx[1:].isdigit() and 1 <= int(vtx[1:]) <= self.n

    def boundary_label(self, vtx: str) -> int:
        return int(vtx[1:])

    def degree(self, vtx: str) -> int:
        return len(self.rotations[vtx])

    def internal_vertices(self) -> list[str]:
        return sorted(v for v in self.rotations if not self.is_boundary(v))

    def dart_vertex(self, d: Dart) -> str:
        return self.edges[d[0]][d[1]]

    def dart_partner(self, d: Dart) -> Dart:
        return (d[0], 1 - d[1])

    def neighbor_names(self, vtx: str) -> list[str]:
        return [self.edges[e][1 - s] for e, s in self.rotations[vtx]]

    def __repr__(self):
        return (f"PlabicGraph(n={self.n}, internal={len(self.internal_vertices())}, "
                f"edges={len(self.edges)})")

    # -- serialization --

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vertices": [{"id": v, "color": self.colors[v]}
                         for v in self.internal_vertices()],
            "edges": [[u, v] for u, v in self.edges],
            "rotations": {v: [list(d) for d in rot]
                          for v, rot in sorted(self.rotations.items())},
            "neighbors": {v: self.neighbor_names(v)
                          for v in sorted(self.rotations)},
        }

    @classmethod
    def from_json(cls, data: dict) -> "PlabicGraph":
        """ValueError unless every field has the shape ``to_json`` writes."""
        n, vertices, edges = data["n"], data.get("vertices", []), data["edges"]
        if type(n) is not int or n < 0:
            raise ValueError(f"n must be a non-negative integer, not {n!r}")
        if not (isinstance(vertices, list)
                and all(isinstance(r, dict) and isinstance(r.get("id"), str)
                        for r in vertices)):
            raise ValueError(f"vertices must be a list of {{\"id\": ..., "
                             f"\"color\": ...}} records, not {vertices!r}")
        if not _list_of(edges, lambda e: _list_of(e, _is_str) and len(e) == 2):
            raise ValueError(f"edges must be a list of [u, v] name pairs, not {edges!r}")
        colors = {rec["id"]: rec.get("color") for rec in vertices}
        rotations = data["rotations"]
        if not (isinstance(rotations, dict) and all(
                _list_of(rot, lambda d: _list_of(d, _is_int) and len(d) == 2)
                for rot in rotations.values())):
            raise ValueError("rotations must map each vertex to a list of "
                             f"[edge, side] darts, not {rotations!r}")
        return cls(n, colors, [tuple(e) for e in edges],
                   {v: [tuple(d) for d in rot] for v, rot in rotations.items()})

    def to_dot(self) -> str:
        lines = ["graph plabic {", "  layout=neato;"]
        for i in range(1, self.n + 1):
            lines.append(f'  b{i} [shape=plaintext, label="{i}"];')
        for v in self.internal_vertices():
            fill = self.colors[v]
            lines.append(f'  "{v}" [shape=circle, style=filled, fillcolor={fill}, '
                         f'label="", width=0.15];')
        for u, v in self.edges:
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines)

    def to_tikz(self) -> str:
        """TikZ sketch: boundary on a circle, internal vertices relaxed inward.

        Drawing only; coordinates are floats and never feed a verdict.
        """
        import math

        pos: dict[str, tuple[float, float]] = {}
        for i in range(1, self.n + 1):
            ang = math.pi / 2 - 2 * math.pi * (i - 1) / self.n
            pos[boundary_id(i)] = (2.0 * math.cos(ang), 2.0 * math.sin(ang))
        for v in self.internal_vertices():
            pos[v] = (0.0, 0.0)
        for _ in range(80):
            for v in self.internal_vertices():
                nbrs = self.neighbor_names(v)
                pos[v] = (sum(pos[u][0] for u in nbrs) / len(nbrs) or 0.01,
                          sum(pos[u][1] for u in nbrs) / len(nbrs))
        lines = ["\\begin{tikzpicture}", "  \\draw (0,0) circle (2.0);"]
        for u, v in self.edges:
            (x1, y1), (x2, y2) = pos[u], pos[v]
            lines.append(f"  \\draw ({x1:.3f},{y1:.3f}) -- ({x2:.3f},{y2:.3f});")
        for i in range(1, self.n + 1):
            x, y = pos[boundary_id(i)]
            lines.append(f"  \\fill ({x:.3f},{y:.3f}) circle (1.2pt);")
            lines.append(f"  \\node at ({1.15 * x:.3f},{1.15 * y:.3f}) {{{i}}};")
        for v in self.internal_vertices():
            x, y = pos[v]
            lines.append(f"  \\filldraw[fill={self.colors[v]}] "
                         f"({x:.3f},{y:.3f}) circle (2pt);")
        lines.append("\\end{tikzpicture}")
        return "\n".join(lines)


# -- trips -----------------------------------------------------------------


def trip(G: PlabicGraph, i: int) -> tuple[int, list[Dart]]:
    """Follow the trip starting at boundary vertex i; (endpoint, darts).

    The darts are the ones the trip departs along, in order; every dart of
    G lies on exactly one trip, round trips included.
    """
    departure = G.rotations[boundary_id(i)][0]
    darts = [departure]
    while True:
        arrival = G.dart_partner(departure)
        vtx = G.dart_vertex(arrival)
        if G.is_boundary(vtx):
            return G.boundary_label(vtx), darts
        rot = G.rotations[vtx]
        pos = rot.index(arrival)
        step = -1 if G.colors[vtx] == "black" else 1
        departure = rot[(pos + step) % len(rot)]
        darts.append(departure)
        if len(darts) > 2 * len(G.edges):
            raise RuntimeError("trip failed to reach the boundary")


def trip_permutation(G: PlabicGraph) -> DecoratedPermutation:
    """Decorated trip permutation; fixed points take the lollipop colour.

    A round trip bounces at its lollipop, so the walk is a palindrome and
    the turning vertex sits at the midpoint, even through degree-2 padding.
    """
    images = []
    loops, coloops = set(), set()
    for i in range(1, G.n + 1):
        end, darts = trip(G, i)
        images.append(end)
        if end == i:
            turn = G.dart_vertex(darts[(len(darts) + 1) // 2])
            (loops if G.colors[turn] == "black" else coloops).add(i)
    return DecoratedPermutation(tuple(images), frozenset(loops), frozenset(coloops))


# -- bipartization and matchings --------------------------------------------


def _shade(G: PlabicGraph, v: str) -> str:
    """The colour of v, with boundary vertices acting as black."""
    return "black" if G.is_boundary(v) else G.colors[v]


def bipartize(G: PlabicGraph) -> tuple[PlabicGraph, dict[int, int]]:
    """Insert degree-2 vertices until the graph is bipartite with white
    vertices next to the (black-acting) boundary.

    Returns the new graph and a map old edge -> the split segment that
    carries the old edge's weight.
    """
    colors = dict(G.colors)
    edges: dict = {}
    rotations = dict(G.rotations)
    names = _fresh_names(G, "x")
    for eid, (u, v) in enumerate(G.edges):
        if _shade(G, u) != _shade(G, v):
            edges[eid] = (u, v)
            continue
        mid = next(names)
        colors[mid] = "white" if _shade(G, u) == "black" else "black"
        edges[eid] = (u, mid)
        edges[mid] = (mid, v)
        rotations[mid] = [(eid, 1), (mid, 0)]
        _swap_dart(rotations, v, (eid, 1), (mid, 1))
    weight_edge = {key: i for i, key in enumerate(edges) if type(key) is int}
    return PlabicGraph.from_keyed(G.n, colors, edges, rotations), weight_edge


def _fresh_names(G: PlabicGraph, prefix: str) -> Iterator[str]:
    """``prefix0``, ``prefix1``, ... skipping the vertex names G uses."""
    return (f"{prefix}{t}" for t in count() if f"{prefix}{t}" not in G.rotations)


def _swap_dart(rotations: dict, vertex: str, old, new):
    """Put dart ``new`` where ``old`` sits in the rotation at ``vertex``."""
    rotations[vertex] = [new if d == old else d for d in rotations[vertex]]


def _lollipop_insert_graph(G: PlabicGraph, i: int, colour: str) -> PlabicGraph:
    """Insert a lollipop at boundary position i, shifting labels >= i up."""
    n = G.n + 1

    def shift(v: str) -> str:
        return boundary_id(int(v[1:]) + 1) if G.is_boundary(v) and int(v[1:]) >= i else v

    edges = {eid: (shift(u), shift(v)) for eid, (u, v) in enumerate(G.edges)}
    rotations = {shift(v): rot for v, rot in G.rotations.items()}
    colors = dict(G.colors)
    tip = f"L{i}"
    while tip in colors:
        tip += "'"
    edges[tip] = (boundary_id(i), tip)
    rotations[boundary_id(i)] = [(tip, 0)]
    rotations[tip] = [(tip, 1)]
    colors[tip] = colour
    return PlabicGraph.from_keyed(n, colors, edges, rotations)


def _bridge_insert_graph(G: PlabicGraph, i: int) -> PlabicGraph:
    """Bridge between legs i and i+1: white u on leg i, black v on leg i+1,
    joined by an edge running along the boundary arc from i to i+1.

    A lollipop tip sitting on a bridged leg always has the bridge vertex's
    colour (white tips under u, black under v) and is absorbed into it.
    """
    t = next(t for t in count() if f"u{t}" not in G.rotations and f"v{t}" not in G.rotations)
    u, v = f"u{t}", f"v{t}"
    ei, si = G.rotations[boundary_id(i)][0]
    ej, sj = G.rotations[boundary_id(i + 1)][0]
    x_i = G.edges[ei][1 - si]
    x_j = G.edges[ej][1 - sj]
    tips = {x for x in (x_i, x_j) if G.degree(x) == 1}
    if x_i in tips and G.colors[x_i] != "white":
        raise RuntimeError(f"unexpected {G.colors[x_i]} tip under leg {i}")
    if x_j in tips and G.colors[x_j] != "black":
        raise RuntimeError(f"unexpected {G.colors[x_j]} tip under leg {i + 1}")
    # the new legs and the edge uv go last, then an edge from u (v) to the
    # old leg's inner end under the old leg's key
    edges = {old: e for old, e in enumerate(G.edges) if old not in (ei, ej)}
    edges[boundary_id(i)] = (boundary_id(i), u)
    edges[boundary_id(i + 1)] = (boundary_id(i + 1), v)
    edges[u] = (u, v)
    skip = tips | {boundary_id(i), boundary_id(i + 1)}
    rotations = {w: rot for w, rot in G.rotations.items() if w not in skip}
    rot_u = [(boundary_id(i), 1), (u, 0)]
    rot_v = [(boundary_id(i + 1), 1), (u, 1)]
    if x_i not in tips:
        edges[ei] = (u, x_i)
        _swap_dart(rotations, x_i, (ei, 1 - si), (ei, 1))
        rot_u.append((ei, 0))
    if x_j not in tips:
        edges[ej] = (v, x_j)
        _swap_dart(rotations, x_j, (ej, 1 - sj), (ej, 1))
        rot_v.insert(1, (ej, 0))
    rotations[boundary_id(i)] = [(boundary_id(i), 0)]
    rotations[boundary_id(i + 1)] = [(boundary_id(i + 1), 0)]
    rotations[u] = rot_u
    rotations[v] = rot_v
    colors = {w: c for w, c in G.colors.items() if w not in skip}
    colors[u] = "white"
    colors[v] = "black"
    return PlabicGraph.from_keyed(G.n, colors, edges, rotations)


def _empty_graph() -> PlabicGraph:
    return PlabicGraph(0, {}, [], {})


@record
class Matching:
    """Almost perfect matching: edge subset plus its boundary support."""

    edges: frozenset[int]
    boundary: frozenset[int]


def matchings(G: PlabicGraph) -> tuple[Matching, ...]:
    """All almost perfect matchings, in a deterministic order.

    The graph must already be bipartite with white vertices at the
    boundary; apply :func:`bipartize` first otherwise.
    """
    if any(_shade(G, u) == _shade(G, v) for u, v in G.edges):
        raise ValueError("matchings need a bipartite graph with white vertices "
                         "at the boundary (run bipartize first)")
    internal = G.internal_vertices()
    # every chosen edge has an internal end, so at most one boundary label
    label = [next((G.boundary_label(w) for w in ends if G.is_boundary(w)), None)
             for ends in G.edges]
    out: list[Matching] = []

    def recurse(pos: int, covered: set[str], chosen: list[int]):
        while pos < len(internal) and internal[pos] in covered:
            pos += 1
        if pos == len(internal):
            labels = frozenset(label[e] for e in chosen if label[e] is not None)
            out.append(Matching(frozenset(chosen), labels))
            return
        v = internal[pos]
        for eid, side in G.rotations[v]:
            other = G.edges[eid][1 - side]
            if other in covered:
                continue
            covered.add(v)
            covered.add(other)
            chosen.append(eid)
            recurse(pos + 1, covered, chosen)
            chosen.pop()
            covered.discard(v)
            covered.discard(other)

    recurse(0, set(), [])
    out.sort(key=lambda m: (sorted(m.boundary), sorted(m.edges)))
    return tuple(out)


def bipartite_matchings(G: PlabicGraph) -> tuple[dict[int, int], tuple[Matching, ...]]:
    """The weight-edge map of ``bipartize(G)`` and its matchings, which must
    exist; enumerated once per graph and kept on it."""
    if G._matchings is None:
        H, wmap = bipartize(G)
        ms = matchings(H)
        if not ms:
            raise ValueError("graph has no almost perfect matching")
        G._matchings = wmap, ms
    return G._matchings


def positroid_of_graph(G: PlabicGraph) -> Matroid:
    """Bases are the boundary supports of the almost perfect matchings: the
    support of the unit-weight measurement, whose every term is positive."""
    ms = bipartite_matchings(G)[1]
    return Matroid(G.n, len(ms[0].boundary), frozenset(m.boundary for m in ms))


def matching_monomials(G: PlabicGraph) -> tuple[int, list[tuple[tuple[int, ...], frozenset[int]]]]:
    """Per matching: (sorted boundary support, original edges carrying weight)."""
    wmap, ms = bipartite_matchings(G)
    back = {seg: old for old, seg in wmap.items()}
    k = len(ms[0].boundary)
    return k, [(tuple(sorted(m.boundary)),
                frozenset(back[e] for e in m.edges if e in back))
               for m in ms]


def boundary_measurement(G: PlabicGraph,
                         weights: Mapping[int, Fraction] | None = None
                         ) -> PluckerVector:
    """Weighted matching sums p_I = sum over matchings with support I.

    ``weights`` maps edge indices of G to nonnegative rationals (all 1 by
    default); zeros are tolerated so closures of cells can be probed, but
    the result must stay a nonzero vector.  Nonnegative weights make the
    result totally nonnegative (Postnikov), so only the weights are checked.
    """
    if weights is None:
        weights = {}
    for e, w in weights.items():
        if w < 0:
            raise ValueError(f"edge {e} has negative weight {w}")
    k, monos = matching_monomials(G)
    coords: dict[tuple[int, ...], Fraction | int] = {}
    for I, mono in monos:
        w = 1  # unit weights leave integer counts of matchings
        for e in mono & weights.keys():
            w *= Fraction(weights[e])
        coords[I] = coords.get(I, 0) + w
    return PluckerVector(k, G.n, coords)


# -- faces -------------------------------------------------------------------


@record
class Face:
    """A face of the graph sealed with the boundary circle, walked clockwise.

    ``arrivals`` holds real darts and ("arc", j, +1) markers; the latter
    means the face contains the boundary arc between j and j+1.
    """

    vertex_sequence: tuple[str, ...]
    arrivals: tuple
    is_outer: bool


def faces(G: PlabicGraph) -> list[Face]:
    n = G.n

    rotations: dict[str, list] = {v: list(rot) for v, rot in G.rotations.items()}
    for i in range(1, n + 1):
        leg = G.rotations[boundary_id(i)][0]
        rotations[boundary_id(i)] = [("arc", i, +1), leg, ("arc", i, -1)]

    def partner(d):
        if d[0] == "arc":
            _, i, direction = d
            j = i % n + 1 if direction == +1 else (i - 2) % n + 1
            return ("arc", j, -direction)
        return G.dart_partner(d)

    def vertex_of(d):
        return boundary_id(d[1]) if d[0] == "arc" else G.dart_vertex(d)

    unvisited = set()
    for rot in rotations.values():
        unvisited.update(map(_dkey, rot))
    dep_of = {}
    for rot in rotations.values():
        for d in rot:
            dep_of[_dkey(d)] = d
    out: list[Face] = []
    while unvisited:
        d = dep_of[min(unvisited)]
        start_key = _dkey(d)
        verts, arrs = [], []
        while True:
            unvisited.discard(_dkey(d))
            arrival = partner(d)
            w = vertex_of(arrival)
            verts.append(w)
            arrs.append(arrival)
            rot = rotations[w]
            pos = rot.index(arrival)
            d = rot[(pos + 1) % len(rot)]
            if _dkey(d) == start_key:
                break
        is_outer = all(a[0] == "arc" and a[2] == -1 for a in arrs)
        out.append(Face(tuple(verts), tuple(arrs), is_outer))
    return out


def _dkey(d):
    if d[0] == "arc":
        return ("arc", d[1], d[2])
    return ("edge", d[0], d[1])


# -- local moves ---------------------------------------------------------------


def enumerate_move_sites(G: PlabicGraph) -> tuple[tuple[str, tuple], ...]:
    """Applicable (move, site) pairs, deterministically ordered: the one rule
    of which moves are legal, listed once per graph and kept on it."""
    if G._sites is not None:
        return G._sites
    sites: list[tuple[str, tuple]] = []
    internal = set(G.internal_vertices())
    pair_count = Counter(tuple(sorted(e)) for e in G.edges)
    for f in faces(G):
        vs = f.vertex_sequence
        if len(vs) != 4 or len(set(vs)) != 4:
            continue
        if not all(v in internal and G.degree(v) == 3 for v in vs):
            continue
        if all(G.colors[vs[i]] != G.colors[vs[(i + 1) % 4]] for i in range(4)):
            canon = min(tuple(vs[i:] + vs[:i]) for i in range(4))
            site = ("M1", canon)
            if site not in sites:
                sites.append(site)
    for eid, (u, v) in enumerate(G.edges):
        if (u in internal and v in internal and G.colors[u] == G.colors[v]
                and pair_count[tuple(sorted((u, v)))] == 1):
            sites.append(("M2_merge", (eid,)))
    for v in sorted(internal):
        deg = G.degree(v)
        if deg >= 2:
            for start in range(deg):
                for size in range(1, deg):
                    sites.append(("M2_split", (v, start, size)))
    for eid in range(len(G.edges)):
        for colour in ("black", "white"):
            sites.append(("M3_add", (eid, colour)))
    for v in sorted(internal):
        if G.degree(v) == 2:
            nbrs = G.neighbor_names(v)
            if nbrs[0] != nbrs[1]:
                sites.append(("M3_remove", (v,)))
    G._sites = tuple(sites)
    return G._sites


def apply_move(G: PlabicGraph, move: str, site: tuple) -> PlabicGraph:
    """Apply a local move at a site that ``enumerate_move_sites(G)`` lists,
    an M1 square in any order of its four vertices; returns a new graph."""
    sites = enumerate_move_sites(G)
    if move == "M1":
        site = next((s for m, s in sites if m == "M1" and set(s) == set(site)), site)
    if (move, site) not in sites:
        raise ValueError(f"{move} does not apply at {site!r}")
    return _SURGERY[move](G, *site)


def _square_move(G: PlabicGraph, *square: str) -> PlabicGraph:
    colors = dict(G.colors)
    for v in square:
        colors[v] = "white" if colors[v] == "black" else "black"
    return PlabicGraph(G.n, colors, G.edges, G.rotations)


def _merge_edge(G: PlabicGraph, eid: int) -> PlabicGraph:
    u, v = G.edges[eid]
    edges = {old: (u if a == v else a, u if b == v else b)
             for old, (a, b) in enumerate(G.edges) if old != eid}
    rotations = {w: rot for w, rot in G.rotations.items() if w != v}
    rot_u, rot_v = list(G.rotations[u]), list(G.rotations[v])
    pu, pv = rot_u.index((eid, 0)), rot_v.index((eid, 1))
    rotations[u] = rot_u[:pu] + rot_v[pv + 1:] + rot_v[:pv] + rot_u[pu + 1:]
    colors = {w: c for w, c in G.colors.items() if w != v}
    return PlabicGraph.from_keyed(G.n, colors, edges, rotations)


def _split_vertex(G: PlabicGraph, v: str, start: int, size: int) -> PlabicGraph:
    rot = list(G.rotations[v])
    turned = rot[start:] + rot[:start]
    block, rest = turned[:size], turned[size:]
    new = v + "'"
    while new in G.rotations:
        new += "'"
    moved = set(block)
    edges = {idx: (new if (idx, 0) in moved else a, new if (idx, 1) in moved else b)
             for idx, (a, b) in enumerate(G.edges)}
    edges[new] = (v, new)
    rotations = {w: r for w, r in G.rotations.items() if w != v}
    rotations[v] = rest + [(new, 0)]
    rotations[new] = block + [(new, 1)]
    colors = dict(G.colors)
    colors[new] = G.colors[v]
    return PlabicGraph.from_keyed(G.n, colors, edges, rotations)


def _insert_degree2(G: PlabicGraph, eid: int, colour: str) -> PlabicGraph:
    u, v = G.edges[eid]
    mid = next(_fresh_names(G, "m"))
    edges = dict(enumerate(G.edges))
    del edges[eid]  # both segments go last
    edges[eid] = (u, mid)
    edges[mid] = (mid, v)
    rotations = dict(G.rotations)
    _swap_dart(rotations, v, (eid, 1), (mid, 1))
    rotations[mid] = [(eid, 1), (mid, 0)]
    colors = dict(G.colors)
    colors[mid] = colour
    return PlabicGraph.from_keyed(G.n, colors, edges, rotations)


def _remove_degree2(G: PlabicGraph, v: str) -> PlabicGraph:
    (e1, s1), (e2, s2) = G.rotations[v]
    x, y = G.edges[e1][1 - s1], G.edges[e2][1 - s2]
    edges = {old: e for old, e in enumerate(G.edges) if old not in (e1, e2)}
    edges[v] = (x, y)
    rotations = {w: rot for w, rot in G.rotations.items() if w != v}
    _swap_dart(rotations, x, (e1, 1 - s1), (v, 0))
    _swap_dart(rotations, y, (e2, 1 - s2), (v, 1))
    colors = {w: c for w, c in G.colors.items() if w != v}
    return PlabicGraph.from_keyed(G.n, colors, edges, rotations)


_SURGERY = {"M1": _square_move, "M2_merge": _merge_edge, "M2_split": _split_vertex,
            "M3_add": _insert_degree2, "M3_remove": _remove_degree2}


# -- reducedness -----------------------------------------------------------------


def is_reduced(G: PlabicGraph) -> str:
    """Postnikov's trip criterion (arXiv math/0609764, Thm 13.2).

    Lollipop trips are set aside.  G is "reduced" exactly when no other
    trip is a round trip, none passes an edge twice (an essential
    self-intersection; a fixed point without a lollipop passes its
    boundary leg twice), and no two trips pass shared edges e1 and e2 in
    the same order (a bad double crossing; two trips on one edge run
    along it in opposite directions).  Otherwise "not_reduced".
    """
    trips: list[list[int]] = []
    walked = 0
    for i in range(1, G.n + 1):
        end, darts = trip(G, i)
        walked += len(darts)
        if end == i and all(G.degree(G.dart_vertex(d)) <= 2 for d in darts):
            continue  # a lollipop, possibly padded with degree-2 vertices
        passed = [e for e, _ in darts]
        if len(set(passed)) != len(passed):
            return "not_reduced"
        trips.append(passed)
    if walked != 2 * len(G.edges):
        return "not_reduced"  # the darts left over form round trips
    on_edge: dict[int, list[tuple[int, int]]] = {}
    for t, edges in enumerate(trips):
        for pos, e in enumerate(edges):
            on_edge.setdefault(e, []).append((t, pos))
    shared: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for occ in on_edge.values():
        if len(occ) == 2:
            (t1, p1), (t2, p2) = occ
            shared.setdefault((t1, t2), []).append((p1, p2))
    for pairs in shared.values():
        later = [p2 for _, p2 in sorted(pairs)]
        if any(a < b for a, b in zip(later, later[1:])):
            return "not_reduced"
    return "reduced"


# -- T-duality --------------------------------------------------------------------


def t_dual_graph(G: PlabicGraph) -> PlabicGraph:
    """T-dual: a black vertex in every face, a white vertex over every black
    vertex of G, and boundary legs shifted to sit between i-1 and i.

    The input must be black-trivalent (every internal black vertex of
    degree three).
    """
    for v in G.internal_vertices():
        if G.colors[v] == "black" and G.degree(v) != 3:
            raise ValueError(f"black vertex {v} is not trivalent")
    inner = [f for f in faces(G) if not f.is_outer]
    colors: dict[str, str] = {}
    edges: dict = {}  # boundary legs keyed by name, the rest by corner
    rotations: dict[str, list] = {}

    for fi, f in enumerate(inner):
        fv = f"F{fi}"
        colors[fv] = "black"
        rot = []
        for a in f.arrivals:
            if a[0] == "arc":
                # the face holds the boundary arc (j, j+1); the shifted
                # boundary vertex living there carries label j+1
                leg = boundary_id(a[1] % G.n + 1)
                edges[leg] = (leg, fv)
                rotations[leg] = [(leg, 0)]
                rot.append((leg, 1))
            else:
                w = G.dart_vertex(a)
                if G.is_boundary(w) or G.colors[w] != "black":
                    continue
                edges[(w, _dkey(a))] = (f"W({w})", fv)
                rot.append(((w, _dkey(a)), 1))
        # face orbits run counterclockwise (interior on the left), so the
        # clockwise rotation at the face vertex is the reverse
        rotations[fv] = rot[::-1]
    for b in G.internal_vertices():
        if G.colors[b] != "black":
            continue
        colors[f"W({b})"] = "white"
        rotations[f"W({b})"] = [((b, _dkey(d)), 0) for d in G.rotations[b]]
    return PlabicGraph.from_keyed(G.n, colors, edges, rotations)


# -- the dual tree of a bicolored triangulation ------------------------------------


def _side_leg(n: int, x: int, y: int) -> int | None:
    """Boundary leg label for polygon side (x, y); None for a diagonal."""
    x, y = min(x, y), max(x, y)
    if y == x + 1:
        return x
    if x == 1 and y == n:
        return n
    return None


def dual_graph_of_triangulation(T: BicoloredTriangulation) -> PlabicGraph:
    """Tree dual to a bicolored triangulation: one vertex per triangle with
    the triangle's colour, edges across shared diagonals, and one leg per
    polygon side on the triangle containing it.  Its ``t_dual_graph`` is the
    corner-and-center graph of T."""
    n = T.n
    tris = sorted(T.triangles)
    vid = {t: "D" + "_".join(map(str, t)) for t in tris}
    colors = {vid[t]: T.colour(t) for t in tris}
    edges: dict = {}  # legs keyed by boundary name, diagonals by side
    rotations: dict[str, list] = {}
    for t in tris:
        a, b, c = t
        rot = []
        for side in ((a, b), (b, c), (a, c)):  # clockwise around the triangle
            leg = _side_leg(n, *side)
            if leg is not None:
                edges[boundary_id(leg)] = (boundary_id(leg), vid[t])
                rotations[boundary_id(leg)] = [(boundary_id(leg), 0)]
                rot.append((boundary_id(leg), 1))
            elif side in edges:
                rot.append((side, 1))
            else:
                other = next(s for s in tris if s != t and set(side) <= set(s))
                edges[side] = (vid[t], vid[other])
                rot.append((side, 0))
        rotations[vid[t]] = rot
    return PlabicGraph.from_keyed(n, colors, edges, rotations)
