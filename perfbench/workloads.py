"""The benchmark's workloads: seeded inputs, the timed call, the checks.

Library workloads run warm in this process, one client in a closed loop.
``make_input`` draws from the seeded generator outside the timed region,
``run`` makes only library calls, and ``check`` judges the answer with
the benchmark's own arithmetic (``oracle``) and returns the errors and a
canonical text of the answer for the output digest.  The library is
reached through its module attributes so that the tracer's wrappers see
every call.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import import_module
from math import comb
from pathlib import Path

import oracle

DATA = Path(__file__).resolve().parent / "data"


class SetupError(Exception):
    """The library disagrees with the benchmark's fixed reference data."""


def _lib(name: str):
    return import_module(f"positroid_lab.{name}")


def _rows(M) -> list[list[Fraction]]:
    return [list(M.row(i)) for i in range(M.rows)]


def committed_tilings() -> list:
    """The 120 tilings of A(6,2,2) as tuples of black-polygon keys."""
    data = json.loads((DATA / "tilings_3_6.json").read_text())
    return [tuple(tuple(tuple(p) for p in tile) for tile in t) for t in data["tilings"]]


class AmpSweep:
    """Gr(2,6), m = 2, Z on the moment curve at 0..5.

    One op maps a random top-cell point into the amplituhedron, tests it
    against all 48 tiles and all 66 w-chambers, runs the interior test,
    and evaluates the cluster seed of each tile of one pinned tiling.
    Almost all of its time is determinants of twistor matrices.
    """

    name = "amp-m2-sweep"
    kinds = ("amp",)
    k, n = 2, 6

    def setup(self) -> None:
        self.cells, self.amp = _lib("cells"), _lib("amplituhedron")
        self.cluster, hyper = _lib("cluster"), _lib("hypersimplex")
        self.Z = self.amp.make_positive_Z(self.n, self.k + 2, range(self.n))
        self.Zrows = oracle.vandermonde(range(self.n), self.k + 2)
        self.top = _lib("perms").top_cell_permutation(self.k, self.n)
        catalog = hyper.tile_catalog(self.k + 1, self.n)
        self.ws = hyper.enumerate_D(self.k + 1, self.n)
        label = {}
        self.tiles = []
        for pi, rec in sorted(catalog.items(), key=lambda kv: repr(kv[0])):
            key = tuple(sorted(tuple(sorted(p)) for p in rec.subdivision.black_polygons))
            label[key] = len(self.tiles)
            self.tiles.append((repr(pi), rec.triangulation))
        ref = committed_tilings()
        lib = {tuple(sorted(label[tuple(sorted(tuple(sorted(p)) for p in
                                               r.subdivision.black_polygons))]
                            for r in t.tiles))
               for t in hyper.enumerate_tilings(self.k + 1, self.n)}
        try:
            self.tilings = [tuple(sorted(label[tile] for tile in t)) for t in ref]
        except KeyError as e:
            raise SetupError(f"tile {e} of the reference tilings is not in the catalog")
        if set(self.tilings) != lib or len(lib) != len(ref):
            raise SetupError("enumerate_tilings(3, 6) differs from the reference tilings")
        self.pinned = list(self.tilings[0])

    def make_input(self, rng, i: int):
        dim = self.k * (self.n - self.k)
        return [Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(dim)]

    def run(self, params):
        amp, Z = self.amp, self.Z
        C = self.cells.matrix_realization(self.top, params)
        Y = amp.amp_map(C, Z)
        inside = [amp.tile_membership_m2(Y, Z, T, strict=True) for _, T in self.tiles]
        chambers = [amp.w_chamber_membership(Y, Z, ws) for ws in self.ws]
        interior = amp.m2_interior_test(Y, Z)
        seeds = [self.cluster.build_seed(self.tiles[t][1]).evaluate(Y, Z)
                 for t in self.pinned]
        return C, Y, inside, chambers, interior, seeds

    def check(self, params, out):
        C, Y, inside, chambers, interior, seeds = out
        errors = []
        Crows, Yrows = _rows(C), _rows(Y.Y)
        if (C.rows, C.cols) != (self.k, self.n) or not oracle.minors_positive(Crows):
            errors.append("realization is not a totally positive 2x6 matrix")
        if Yrows != oracle.matmul(Crows, self.Zrows):
            errors.append("Y differs from C Z")
        if interior is not True:
            errors.append(f"m2 interior test gave {interior!r} for a top-cell point")
        if any(v not in (True, False) for v in chambers) or sum(v is True for v in chambers) != 1:
            errors.append("the point is not in exactly one w-chamber")
        if any(v not in (True, False) for v in inside):
            errors.append("a generic point sits on a tile boundary")
        bad = [t for t in self.tilings if sum(inside[i] is True for i in t) != 1]
        if bad:
            errors.append(f"{len(bad)} tilings do not have exactly one tile containing the point")
        for t, values in zip(self.pinned, seeds):
            positive = all(v != "boundary" and v > 0 for v in values.values())
            if positive != (inside[t] is True):
                errors.append(f"cluster seed of tile {self.tiles[t][0]} is "
                              f"{'positive' if positive else 'not positive'} "
                              f"but the tile {'misses' if positive else 'contains'} the point")
        true_w = [ws.w for ws, v in zip(self.ws, chambers) if v is True]
        text = json.dumps([
            [[oracle.frac_str(x) for x in r] for r in Yrows], true_w,
            [self.tiles[i][0] for i, v in enumerate(inside) if v is True],
            [[[list(key), str(v) if v == "boundary" else oracle.frac_str(v)]
              for key, v in sorted(values.items())] for values in seeds]])
        return errors, text


class TropSubdiv:
    """Regular subdivisions of two kinds of heights, in the repeating
    order positive, generic, generic.

    ``positive``: positive tropical heights at (3,6), through the wall
    search, the positroid test of every face and the finest test.
    ``generic``: generic integer heights at (2,5), which take the span
    scan and give a triangulation.  Both are Fraction additions and
    comparisons in ``trop``; no determinant runs in the timed loop.  A
    positive op takes about twice as long as a generic one, so with this
    mix each kind has about half the time, the median op lies inside the
    generic kind and the 90th percentile inside the positive one, away
    from the gap between them.
    """

    name = "trop-subdiv"
    kinds = ("positive", "generic")

    def setup(self) -> None:
        self.trop = _lib("trop")
        _lib("cells").positroid_catalog(3, 6)
        _lib("hypersimplex").enumerate_D(3, 6)

    def make_input(self, rng, i: int):
        if i % 3 == 0:
            return "positive", 3, 6, oracle.positive_heights(rng, 3, 6)
        return "generic", 2, 5, oracle.generic_heights(rng, 2, 5)

    def run(self, inp):
        kind, k, n, heights = inp
        trop = self.trop
        D = trop.regular_subdivision(trop.HeightVector.make(k, n, heights))
        if kind == "positive":
            return D, trop.faces_are_positroids(D), trop.is_finest(D)
        return D, None, None

    def check(self, inp, out):
        kind, k, n, heights = inp
        D, positroids, finest = out
        cells = [(c.vertices, c.witness) for c in D.cells]
        errors = oracle.check_subdivision(heights, k, n, cells)
        if (D.k, D.n) != (k, n):
            errors.append("subdivision has the wrong type")
        if kind == "positive":
            volume = sum(oracle.alcove_count(n, v) for v, _ in cells)
            if volume != oracle.eulerian(n - 1, k - 1):
                errors.append(f"cells cover volume {volume}, not the hypersimplex's")
            if positroids is not True:
                errors.append("a face of a positive tropical subdivision is not a positroid")
            if finest != (len(cells) == oracle.finest_count(k, n)):
                errors.append(f"is_finest gave {finest!r} for {len(cells)} cells")
        elif len(cells) != oracle.eulerian(n - 1, k - 1) or any(len(v) != n for v, _ in cells):
            errors.append("generic heights did not give a unimodular triangulation")
        text = json.dumps([kind, sorted([sorted(v), [oracle.frac_str(x) for x in w]]
                                        for v, w in cells), positroids, finest])
        return errors, text


LIBRARY = {w.name: w for w in (AmpSweep, TropSubdiv)}


class CliCommand:
    """One cold ``positroid-lab`` invocation and the checks on its output."""

    def __init__(self, group: str, label: str, argv: list[str], keys, check):
        self.group, self.label, self.argv = group, label, argv
        self.keys, self._check = keys, check

    def check(self, payload: dict) -> tuple[list[str], str]:
        errors = self._check(payload)
        text = json.dumps({k: payload.get(k) for k in self.keys}, sort_keys=True)
        return errors, text


def _nodes(rng, n: int) -> list[int]:
    return sorted(rng.sample(range(10), n))


def cli_commands(rng, work: Path, root: Path) -> list[CliCommand]:
    """The cli-cold mix, with input files written into ``work``."""
    heights = oracle.positive_heights(rng, 3, 6)
    (work / "heights.json").write_text(json.dumps(
        {"k": 3, "n": 6, "heights": {",".join(map(str, I)): f"{h}/1"
                                     for I, h in heights.items()}}))
    tiling = rng.choice(committed_tilings())
    (work / "tiling.json").write_text(json.dumps(
        {"space": "amplituhedron", "k": 2, "n": 6,
         "tiles": [{"black_polygons": [list(p) for p in tile]} for tile in tiling]}))
    z6, z7 = _nodes(rng, 6), _nodes(rng, 7)
    seed = lambda: str(rng.randrange(10 ** 6))
    zspec = lambda nodes: "vandermonde:" + ",".join(map(str, nodes))
    rel = lambda p: str(p.relative_to(root))

    def cell_perm(d):
        errs = []
        if d.get("type") != [4, 8] or d.get("dimension") != 16 or len(d.get("positroid", [])) != 70:
            errs.append("top cell of Gr(4,8) has the wrong type, dimension or positroid")
        if len(d.get("samples", [])) != 20:
            errs.append("expected 20 samples")
        for s in d.get("samples", []):
            coords = {k: oracle.parse_frac(v) for k, v in s["plucker"]["coords"].items()}
            if len(coords) != 70 or any(v <= 0 for v in coords.values()):
                errs.append("a top-cell sample is not totally positive")
                break
            total = sum(v * v for v in coords.values())
            mm = [sum(v * v for k, v in coords.items() if str(i) in k.split(",")) / total
                  for i in range(1, 9)]
            if [oracle.parse_frac(x) for x in s["moment_map"]] != mm:
                errs.append("moment map differs from the Pluecker coordinates")
                break
        return errs

    def cell_graph(d):
        errs = []
        if d.get("trip_permutation") != "(4,5,6,1,2,3)" or len(d.get("positroid", [])) != 20:
            errs.append("top-cell graph of Gr(3,6) has the wrong trip permutation or positroid")
        bounds = {tuple(m["boundary"]) for m in d.get("matchings", [])}
        if len(bounds) != 20 or any(len(b) != 3 for b in bounds):
            errs.append("matching boundaries are not the 20 bases of the uniform positroid")
        return errs

    def tilings(n_tiles, count=None, audited=False):
        def check(d):
            ts = [tuple(sorted(t)) for t in d.get("tilings", [])]
            errs = []
            if d.get("count") != len(ts) or len(set(ts)) != len(ts) or not ts:
                errs.append("tilings are missing or repeated")
            if count is not None and len(ts) != count:
                errs.append(f"expected {count} tilings, got {len(ts)}")
            if any(len(t) != n_tiles or len(set(t)) != n_tiles for t in ts):
                errs.append(f"a tiling does not have {n_tiles} distinct tiles")
            if audited and d.get("audited") != [True] * len(ts):
                errs.append("a tiling failed its sampled audit")
            return errs
        return check

    def trop_check(d):
        errs = []
        cells = [({tuple(int(x) for x in v.split(",")) for v in c["vertices"]},
                  [oracle.parse_frac(x) for x in c["witness"]]) for c in d.get("cells", [])]
        if d.get("positive_tropical") is not True or d.get("faces_are_positroids") is not True:
            errs.append("positive heights were not recognised as positroidal")
        if d.get("finest") != (len(cells) == oracle.finest_count(3, 6)):
            errs.append("finest flag disagrees with the cell count")
        if sum(oracle.alcove_count(6, v) for v, _ in cells) != oracle.eulerian(5, 2):
            errs.append("cells do not cover the hypersimplex")
        return errs + oracle.check_subdivision(heights, 3, 6, cells)

    def amp_sample(d):
        errs = []
        Z = oracle.vandermonde(z7, 4)
        if len(d.get("samples", [])) != 10:
            errs.append("expected 10 samples")
        for s in d.get("samples", []):
            Y = [[oracle.parse_frac(x) for x in r] for r in s["Y"]]
            if s.get("m2_interior") is not True:
                errs.append("a top-cell image failed the m2 interior test")
            for key, val in s["twistors"].items():
                i, j = (int(x) for x in key.split(","))
                if oracle.det(Y + [Z[i - 1], Z[j - 1]]) != oracle.parse_frac(val):
                    errs.append(f"twistor {key} is wrong")
                    break
            if len(s["twistors"]) != comb(7, 2):
                errs.append("twistor table is incomplete")
        return errs

    def amp_verify(d):
        if d.get("valid") is True and d.get("sample_audit_ok") is True and not d.get("violations"):
            return []
        return ["a valid (2,6) tiling was rejected"]

    return [
        CliCommand("cell", "cell-perm",
                   ["cell", "--perm", "(5,6,7,8,1,2,3,4)", "--sample", "20", "--seed", seed()],
                   ["perm", "type", "dimension", "positroid", "samples"], cell_perm),
        CliCommand("cell", "cell-graph",
                   ["cell", "--graph", rel(DATA / "top36_graph.json"), "--matchings"],
                   ["trip_permutation", "positroid", "matchings"], cell_graph),
        CliCommand("tilings", "tilings-hypersimplex",
                   ["tilings", "--space", "hypersimplex", "--k", "2", "--n", "7"],
                   ["count", "tilings"], tilings(comb(5, 2))),
        CliCommand("tilings", "tilings-amplituhedron",
                   ["tilings", "--space", "amplituhedron", "--k", "1", "--n", "6",
                    "--z", zspec(z6), "--seed", seed()],
                   ["count", "tilings", "audited"], tilings(4, count=14, audited=True)),
        CliCommand("trop", "trop",
                   ["trop", "--heights", rel(work / "heights.json")],
                   ["positive_tropical", "cells", "faces_are_positroids", "finest"], trop_check),
        CliCommand("amp", "amp-sample",
                   ["amp", "sample", "--n", "7", "--k", "2", "--m", "2",
                    "--cell", "(3,4,5,6,7,1,2)", "--count", "10", "--z", zspec(z7),
                    "--seed", seed()],
                   ["cell", "samples"], amp_sample),
        CliCommand("amp", "amp-verify-tiling",
                   ["amp", "verify-tiling", "--file", rel(work / "tiling.json"),
                    "--z", zspec(z6), "--seed", seed()],
                   ["valid", "violations", "sample_audit_ok"], amp_verify),
    ]
