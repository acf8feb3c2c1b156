"""Command-line surface: cells, tilings, tropical subdivisions, membership.

Exit codes: 0 success / verified, 1 mathematical verification failure,
2 malformed input, 141 (SIGPIPE's in a shell) when stdout closed early.
Only ``cell --sample`` and ``amp sample`` are randomized; they embed their
seed in the output so reruns are bit-identical.  The amplituhedron tiling
audits are deterministic.

Each command is a fresh process, so each command and input helper imports
the library modules it runs where it runs them: ``--help`` loads only
``obs`` and ``util``, ``plabic`` loads for ``cell --graph`` alone,
``amplituhedron`` only where a Z is read, and ``trop`` for ``trop`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import obs
from .util import rat_from_str, rat_to_str


# ``tilings --k --n`` lists the tilings only up to this many; above it the
# output has their count alone, with no "tilings" and no "audited" key.
TILINGS_LISTED_UP_TO = 100_000


class InputError(Exception):
    pass


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")


class _InputObject(dict):
    """A top-level input object that names its file when a key is missing."""

    def __init__(self, data: dict, path: str):
        super().__init__(data)
        self.path = path

    def __missing__(self, key):
        raise InputError(f"missing key {key!r} in {self.path}")


def _load_json(path: str) -> dict:
    """Every input file except a Z matrix is a JSON object at the top level."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object at the top level")
    return _InputObject(data, path)


def _int(data: _InputObject, key: str) -> int:
    """data[key], which must be a JSON integer."""
    v = data[key]
    if type(v) is not int:
        raise InputError(f"{key!r} in {data.path} must be an integer, not {v!r}")
    return v


def _parse_z(spec: str | None, n: int, p: int):
    """Z from a --z spec; with none, rows on the moment curve at 0..n-1."""
    from .amplituhedron import ZMatrix, make_positive_Z
    from .exact import RatMatrix

    if spec is None:
        return make_positive_Z(n, p, range(n))
    if spec.startswith("vandermonde:"):
        nodes = [rat_from_str(text, f"--z node {i}")
                 for i, text in enumerate(spec.split(":", 1)[1].split(","), start=1)]
        if len(nodes) != n:
            raise InputError(f"z spec has {len(nodes)} nodes, need {n}")
        return make_positive_Z(n, p, nodes)
    if spec.startswith("file:"):
        mat = RatMatrix.from_json(_read_json(spec.split(":", 1)[1]))
        if (mat.rows, mat.cols) != (n, p):
            raise InputError(f"z file has {mat.rows}x{mat.cols} rows/cols, need {n}x{p}")
        return ZMatrix(mat)
    raise InputError(f"unrecognized z spec {spec!r} (use vandermonde:<nodes> or file:<path>)")


def _parse_perm(text: str):
    """Lenient permutation parse: unmarked fixed points default to loops,
    and the echoed permutation in the output shows the interpretation."""
    from .perms import parse_decorated

    try:
        return parse_decorated(text, fixed_default="loop")
    except (ValueError, IndexError) as e:
        raise InputError(f"bad permutation {text!r}: {e}")


def _parse_tile(rec, n: int):
    """A tile record: a permutation of [n] (text or record) or the black
    polygons of a bicolored subdivision of the n-gon."""
    from .perms import DecoratedPermutation
    from .triangulations import (BicoloredTriangulation, fan_triangulation,
                                 first_triangulation_containing)

    if isinstance(rec, str):
        t = _parse_perm(rec)
    elif not isinstance(rec, dict):
        raise InputError(f"cannot interpret tile record {rec!r}")
    elif "perm" in rec:
        p = rec["perm"]
        t = _parse_perm(p) if isinstance(p, str) else DecoratedPermutation.from_json(p)
    elif "black_polygons" in rec:
        polys = rec["black_polygons"]
        if not (isinstance(polys, list)
                and all(isinstance(p, list) and len(p) >= 3
                        and all(type(v) is int and 1 <= v <= n for v in p)
                        and len(set(p)) == len(p)
                        for p in polys)):
            raise InputError(f"black_polygons must be lists of 3 or more distinct vertices "
                             f"in 1..{n}, not {polys!r}")
        black = frozenset(tuple(sorted(p)) for p in polys)
        blacks = frozenset().union(*map(fan_triangulation, black))
        tris = first_triangulation_containing(n, blacks)
        if not blacks <= tris:
            raise InputError(f"black polygons {sorted(black)} fit no triangulation")
        return BicoloredTriangulation(n, blacks, tris - blacks)
    else:
        raise InputError(f"cannot interpret tile record {rec!r}")
    if t.n != n:
        raise InputError(f"tile {t!r} permutes {t.n} letters, expected n = {n}")
    return t


def _read_tiling(path: str, space: str | None):
    """A tiling file's data, n, space and tiles, each record parsed once; a
    ``space`` of None reads the file's, which defaults to hypersimplex."""
    data = _load_json(path)
    n = _int(data, "n")
    if space is None:
        space = data.get("space", "hypersimplex")
        if space not in ("hypersimplex", "amplituhedron"):
            raise InputError(f"'space' in {path} must be \"hypersimplex\" or "
                             f"\"amplituhedron\", not {space!r}")
    tiles = data["tiles"]
    if not isinstance(tiles, list):
        raise InputError(f"'tiles' in {path} must be a list, not {tiles!r}")
    return data, n, space, [_parse_tile(rec, n) for rec in tiles]


def _tile_triangulation(t, k: int, n: int):
    """A triangulation for a tile given either way: hypersimplex labels are
    type (k+1, n) catalog keys; amplituhedron labels are their rotations."""
    from .hypersimplex import tile_catalog
    from .perms import t_dual_inverse, type_of
    from .triangulations import BicoloredTriangulation

    if isinstance(t, BicoloredTriangulation):
        return t
    cat = tile_catalog(k + 1, n)
    if type_of(t)[0] == k + 1:
        key = t
    elif type_of(t)[0] == k and t.is_coloopless():
        key = t_dual_inverse(t)
    else:
        raise InputError(f"tile {t!r} has type {type_of(t)}, expected "
                         f"({k},{n}) or ({k + 1},{n})")
    if key not in cat:
        raise InputError(f"tile {t!r} does not label a tile")
    return cat[key].triangulation


def _emit(args, payload: dict) -> None:
    if args.format == "text":
        for key, val in payload.items():
            print(f"{key}: {val}")
    else:
        print(json.dumps(payload, indent=2))


def cmd_cell(args) -> int:
    from .cells import cell_dim_of_perm, perm_of_graph, positroid_of_perm, sample_cell_point

    payload = {}
    if args.graph:
        from .plabic import PlabicGraph, bipartite_matchings, trip_permutation

        G = PlabicGraph.from_json(_load_json(args.graph))
        if args.format in ("dot", "tikz"):
            print(G.to_dot() if args.format == "dot" else G.to_tikz())
            return 0
        payload["trip_permutation"] = repr(trip_permutation(G))
        pi = perm_of_graph(G)
    elif args.format in ("dot", "tikz"):
        raise InputError(f"--format {args.format} draws a --graph, not a --perm")
    elif args.matchings:
        raise InputError("--matchings lists the matchings of a --graph, not a --perm")
    else:
        pi = _parse_perm(args.perm)
    M = positroid_of_perm(pi)
    payload.update(perm=repr(pi), type=[M.k, M.n], dimension=cell_dim_of_perm(pi),
                   positroid=[list(b) for b in M.sorted_bases()], seed=args.seed)
    if args.sample:
        from random import Random

        from .hypersimplex import moment_map

        rng = Random(args.seed)
        points = [sample_cell_point(pi, rng)[1] for _ in range(args.sample)]
        payload["samples"] = [{"plucker": P.to_json(),
                               "moment_map": [rat_to_str(x) for x in moment_map(P)]}
                              for P in points]
    if args.matchings:
        payload["matchings"] = [{"boundary": sorted(m.boundary), "edges": sorted(m.edges)}
                                for m in bipartite_matchings(G)[1]]
    _emit(args, payload)
    return 0


def cmd_tilings(args) -> int:
    from .hypersimplex import count_tilings, enumerate_tiling_indices, tile_catalog
    from .perms import t_dual, t_dual_inverse
    from .triangulations import BicoloredTriangulation

    if args.t_dual:
        _, n, space, tiles = _read_tiling(args.t_dual, None)
        out_tiles = []
        for t in tiles:
            if isinstance(t, BicoloredTriangulation):
                # a polygon tile's label in its file's space
                t = t.subdivision.trip_permutation()
                if space == "amplituhedron":
                    t = t_dual(t)
            out_tiles.append(repr(t_dual(t) if space == "hypersimplex" else t_dual_inverse(t)))
        _emit(args, {"space": "amplituhedron" if space == "hypersimplex"
                     else "hypersimplex",
                     "n": n, "tiles": out_tiles})
        return 0
    if args.verify:
        return _verify_file(args, args.verify, None)
    if args.k is None or args.n is None:
        raise InputError("tilings needs --k and --n (or --verify / --t-dual)")
    k_plus_1, n = args.k + 1, args.n
    count = count_tilings(k_plus_1, n)
    if args.space == "hypersimplex":
        payload = {"space": "hypersimplex", "k_plus_1": k_plus_1, "n": n, "count": count}
    else:
        payload = {"space": "amplituhedron", "k": args.k, "n": n, "m": 2, "count": count}
    if count <= TILINGS_LISTED_UP_TO:
        recs = tuple(tile_catalog(k_plus_1, n).values())
        label = [repr(t_dual(rec.perm) if args.space == "amplituhedron" else rec.perm)
                 for rec in recs]
        tilings = enumerate_tiling_indices(k_plus_1, n)
        if len(tilings) != count:
            raise RuntimeError(f"listed {len(tilings)} tilings but counted {count}")
        payload["tilings"] = [[label[i] for i in sol] for sol in tilings]
    # amplituhedron tilings via duality, audited on the tile witnesses when Z is given
    if args.space == "amplituhedron" and args.z:
        from .amplituhedron import witness_audit

        Z = _parse_z(args.z, n, args.k + 2)
        if "tilings" in payload:
            payload["audited"] = [not witness_audit([recs[i].triangulation for i in sol], Z)
                                  for sol in tilings]
    _emit(args, payload)
    return 0 if all(payload.get("audited", ())) else 1


def cmd_trop(args) -> int:
    from .trop import (HeightVector, faces_are_positroids, is_finest, positivity_violation,
                       regular_subdivision)

    data = _load_json(args.heights)
    P = HeightVector.from_json(data)
    violation = positivity_violation(P)
    if violation is not None:
        S, a, b, c, d = violation
        _emit(args, {
            "positive_tropical": False,
            "violation": {"S": list(S), "quad": [a, b, c, d]},
        })
        return 1
    D = regular_subdivision(P)
    payload = {
        "positive_tropical": True,
        "cells": D.to_json()["cells"],
        "faces_are_positroids": faces_are_positroids(D),
        "finest": is_finest(D),
    }
    _emit(args, payload)
    return 0


def cmd_amp_sample(args) -> int:
    from random import Random

    from .amplituhedron import (amp_map, m1_membership, m2_interior_test, sign_stratum,
                                twistor_table, twistor_table_json)
    from .cells import sample_cell_matrix
    from .perms import type_of

    n, k, m = args.n, args.k, args.m
    pi = _parse_perm(args.cell)
    kind = type_of(pi)
    if kind != (k, n):
        raise InputError(f"cell {pi!r} has type ({kind[0]},{kind[1]}), expected ({k},{n})")
    Z = _parse_z(args.z, n, k + m)
    rng = Random(args.seed)
    samples = []
    for _ in range(args.count):
        C = sample_cell_matrix(pi, rng)
        Y = amp_map(C, Z)
        rec = {
            "Y": Y.Y.to_json(),
            "twistors": twistor_table_json(twistor_table(Y, Z)),
            "sign_stratum": sign_stratum(Y, Z),
        }
        if m == 1:
            rec["m1_membership"] = m1_membership(Y, Z)
        if m == 2:
            rec["m2_interior"] = m2_interior_test(Y, Z)
        samples.append(rec)
    _emit(args, {"cell": repr(pi), "n": n, "k": k, "m": m,
                 "seed": args.seed, "samples": samples})
    return 0


def _verify_file(args, path: str, space: str | None) -> int:
    """Verify the tiling file at ``path`` in its space (or in ``space``),
    print its record and return its exit code.  The rank is "k", or else
    "k_plus_1" - 1; an amplituhedron tiling is checked against --z, by
    default on the moment curve at 0..n-1."""
    data, n, space, tiles = _read_tiling(path, space)
    if "k" in data:
        k = _int(data, "k")
    elif "k_plus_1" in data:
        k = _int(data, "k_plus_1") - 1
    else:
        raise InputError(f"missing key 'k' (or 'k_plus_1') in {path}")
    if space == "hypersimplex":
        from .hypersimplex import verify_tiling

        rep = verify_tiling(tiles, k + 1, n)
    else:
        from .amplituhedron import verify_amp_tiling_m2

        tris = [_tile_triangulation(t, k, n) for t in tiles]
        Z = _parse_z(args.z, n, k + 2)
        rep = verify_amp_tiling_m2(tris, Z)
    _emit(args, rep)
    return 0 if rep["valid"] else 1


def cmd_amp_verify(args) -> int:
    return _verify_file(args, args.file, "amplituhedron")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="positroid-lab",
        description="exact computations with positroid cells, hypersimplex "
                    "tilings, tropical subdivisions, and amplituhedron tiles")
    sub = ap.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="seed of cell --sample and amp sample; ignored elsewhere")
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument("--format", choices=["json", "text"], default="json")
    stats = argparse.ArgumentParser(add_help=False)
    stats.add_argument("--stats", action="store_true",
                       help="write the run's counters and seed to stderr as one JSON object")
    common = [seeded, formats, stats]

    p = sub.add_parser("cell", parents=[seeded, stats],
                       help="positroid data of a cell from a permutation or graph file")
    p.add_argument("--format", choices=["json", "text", "dot", "tikz"], default="json",
                   help="dot and tikz draw a --graph")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--perm", help='decorated permutation, e.g. "(3,1,4,2)" or "2,3,1,4_"')
    given.add_argument("--graph", help="path to a plabic graph JSON file")
    p.add_argument("--matchings", action="store_true",
                   help="list almost perfect matchings (graph input)")
    p.add_argument("--sample", type=int, default=0,
                   help="emit this many exact sample points of the cell")
    p.set_defaults(func=cmd_cell)

    p = sub.add_parser("tilings", parents=common,
                       help="count and list the tilings of a type, or verify or "
                            "T-dualize a tiling file",
                       description="With --k and --n: the count of tilings, always, and "
                                   "the tilings themselves only when there are at most "
                                   f"{TILINGS_LISTED_UP_TO}.  Under --space amplituhedron "
                                   "and --z, each listed tiling is also audited on one "
                                   "exact witness point per tile.  Nothing here is random.")
    p.add_argument("--space", choices=["hypersimplex", "amplituhedron"],
                   default="hypersimplex")
    p.add_argument("--k", type=int, help="amplituhedron k (hypersimplex rank k+1)")
    p.add_argument("--n", type=int)
    p.add_argument("--z", help="vandermonde:<nodes> or file:<path>")
    p.add_argument("--verify", help="verify the tiling in this JSON file")
    p.add_argument("--t-dual", dest="t_dual", help="convert a tiling file across the duality")
    p.set_defaults(func=cmd_tilings)

    p = sub.add_parser("trop", parents=[formats, stats],
                       help="positivity check and regular subdivision of a heights file")
    p.add_argument("--heights", required=True, help="path to a heights JSON file")
    p.set_defaults(func=cmd_trop)

    pa = sub.add_parser("amp", help="amplituhedron sampling and verification")
    asub = pa.add_subparsers(dest="amp_command", required=True)
    p = asub.add_parser("sample", parents=common)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--cell", required=True, help="decorated permutation of the cell")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--z")
    p.set_defaults(func=cmd_amp_sample)
    p = asub.add_parser("verify-tiling", parents=common)
    p.add_argument("--file", required=True)
    p.add_argument("--z", required=True)
    p.set_defaults(func=cmd_amp_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.stats:
        obs.start()
    try:
        for name in ("sample", "count", "m"):
            if getattr(args, name, 0) < 0:
                raise InputError(f"--{name} must not be negative")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (InputError, ValueError, KeyError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout: quiet the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if args.stats:
            # only cell --sample and amp sample draw from the seed
            seeded = args.func is cmd_amp_sample or args.func is cmd_cell and args.sample
            print(json.dumps({"seed": args.seed if seeded else None, "counters": obs.stop()}),
                  file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
