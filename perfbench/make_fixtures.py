"""Regenerate the fixed input files in ``perfbench/data``.

The files are committed, so the benchmark never needs this script; it
records how they were made.  They pin inputs that the benchmark cannot
build without the library:

- ``top36_graph.json``: the plabic graph of the top cell of Gr(3,6), the
  input of the ``cell --graph`` command;
- ``tilings_3_6.json``: all 120 tilings of the m=2 amplituhedron A(6,2,2)
  (equivalently of the hypersimplex Delta(3,6)), each tile given by its
  black polygons.  It is the reference the amp-m2-sweep check compares the
  library's tilings against, and the pool the ``amp verify-tiling``
  command draws its input from.

Run from the repository root:  PYTHONPATH=src python3 perfbench/make_fixtures.py
"""

import json
from pathlib import Path

from positroid_lab.cells import graph_of_perm
from positroid_lab.hypersimplex import enumerate_tilings
from positroid_lab.perms import top_cell_permutation

DATA = Path(__file__).resolve().parent / "data"


def main() -> None:
    graph = graph_of_perm(top_cell_permutation(3, 6)).to_json()
    tilings = sorted(
        sorted(sorted(sorted(p) for p in rec.subdivision.black_polygons)
               for rec in t.tiles)
        for t in enumerate_tilings(3, 6))
    (DATA / "top36_graph.json").write_text(json.dumps(graph, indent=1) + "\n")
    (DATA / "tilings_3_6.json").write_text(
        json.dumps({"k": 2, "n": 6, "tilings": tilings}) + "\n")


if __name__ == "__main__":
    main()
