"""Every imported name is used, every exported name exists and every
definition of the library is read: a removal leaves no import, no
``__all__`` entry and no dead method behind."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "positroid_lab").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))
SOURCES = [p for p in MODULES if p.parent.name == "positroid_lab"]
READERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def test_the_library_stays_below_4651_lines():
    # the lines ``wc -l src/positroid_lab/*.py`` sums: a capability that
    # adds code pays for it with deletions
    assert sum(p.read_bytes().count(b"\n") for p in SOURCES) < 4651


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never loads and does not
    list in its ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def undefined_exports(source: str) -> list[str]:
    """Entries of the module's ``__all__`` that no top-level definition,
    assignment or import binds."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                    if target.id == "__all__":
                        exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_the_scan_sees_every_module():
    assert len(MODULES) > 25


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from a import b, c as d\n__all__ = ['b']\n")
    assert unused_imports(source) == ["d (line 3)", "os (line 2)"]
    assert unused_imports(source + "os.sep, d\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    assert undefined_exports(path.read_text()) == []


def test_the_export_scan_finds_a_stale_entry():
    source = ("from a import b\nc: int = 1\ndef d(): pass\nclass E: pass\n"
              "__all__ = ['b', 'c', 'd', 'E', 'gone']\n")
    assert undefined_exports(source) == ["gone"]


def dead_definitions(library: list[str], readers: list[str]) -> list[str]:
    """Top-level functions of the ``library`` sources that no reader names,
    and methods (dunders aside) that no reader reads as an attribute."""
    attrs, names = set(), set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
    dead = []
    for source in library:
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and node.name not in names | attrs:
                dead.append(node.name)
            elif isinstance(node, ast.ClassDef):
                dead += [f"{node.name}.{m.name}" for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                         and m.name not in attrs]
    return dead


def test_every_definition_of_the_library_is_read():
    assert len(READERS) > len(MODULES) + 10
    assert dead_definitions([p.read_text() for p in SOURCES],
                            [p.read_text() for p in READERS]) == []


def test_the_definition_scan_finds_a_dead_method():
    library = ("class P:\n    def __eq__(self, o): pass\n    def used(self): pass\n"
               "    def support(self): pass\ndef f(): pass\ndef g(): pass\n")
    readers = [library, "from lib import f\nP().used()\n"]
    assert dead_definitions([library], readers) == ["P.support", "g"]
    assert dead_definitions([library], readers + ["x.support\ng()\n"]) == []
    # a method named only as a plain name is still dead
    assert dead_definitions([library], readers + ["support\ng\n"]) == ["P.support"]


LIBRARY = {p.stem for p in SOURCES}
# the crossings kept by design: ``graph_of_perm`` builds its graph with
# plabic's bridge and lollipop builders, and ``perm_of_graph`` reads a
# matroid's necklace through the helper behind ``is_positroid``
PRIVATE_CROSSINGS = {
    "cells": {"plabic._lollipop_insert_graph", "plabic._bridge_insert_graph",
              "plabic._empty_graph", "grassmann._positroid_necklace"},
}


def private_imports(source: str, own: str) -> list[str]:
    """Underscore-prefixed names that the module ``own`` takes from another
    library module, by ``from .m import _x`` (or ``positroid_lab.m``) or as
    ``m._x`` after ``from . import m``, each as "m._x (line N)"."""
    tree = ast.parse(source)
    found, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level + (node.module or "")).removeprefix("positroid_lab")
            if module in (".", ""):
                aliases.update((a.asname or a.name, a.name) for a in node.names
                               if a.name in LIBRARY)
            elif module.lstrip(".") in LIBRARY:
                found += [f"{module.lstrip('.')}.{a.name} (line {node.lineno})"
                          for a in node.names if a.name.startswith("_")]
    found += [f"{aliases[node.value.id]}.{node.attr} (line {node.lineno})"
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in aliases]
    return [x for x in found if x.split(".")[0] != own]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "exact.py"],
                         ids=lambda p: p.name)
def test_no_module_takes_a_private_name_from_exact(path):
    assert [x for x in private_imports(path.read_text(), path.stem)
            if x.startswith("exact.")] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_takes_a_private_name_from_another(path):
    kept = PRIVATE_CROSSINGS.get(path.stem, set())
    found = private_imports(path.read_text(), path.stem)
    assert [x for x in found if x.split(" ")[0] not in kept] == []
    assert {x.split(" ")[0] for x in found} == kept


def test_the_private_scan_finds_a_leak():
    source = ("from .exact import RatMatrix, _integer_rows\n"
              "from . import exact as ex\nex._eliminate([])\nex.det\n"
              "from .grassmann import _lead_positive\n"
              "def f():\n    from positroid_lab.amplituhedron import _signs\n"
              "from .cells import _replay\n")
    assert private_imports(source, "cells") == [
        "exact._integer_rows (line 1)", "grassmann._lead_positive (line 5)",
        "amplituhedron._signs (line 7)", "exact._eliminate (line 3)"]
    assert private_imports("from positroid_lab.exact import _det\n", "cluster") == [
        "exact._det (line 1)"]
    assert not any(crossing.startswith("exact.") for kept in PRIVATE_CROSSINGS.values()
                   for crossing in kept)


def dataclass_decorators(source: str) -> list[tuple[ast.ClassDef, ast.expr]]:
    """(class, decorator) for each ``@dataclass``, by name or as
    ``dataclasses.dataclass``, called or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                func = dec.func if isinstance(dec, ast.Call) else dec
                if (func.id if isinstance(func, ast.Name)
                        else getattr(func, "attr", None)) == "dataclass":
                    found.append((node, dec))
    return found


def mutable_dataclasses(source: str) -> list[str]:
    """Classes decorated ``@dataclass`` that do not pass ``frozen=True``."""
    return [f"{node.name} (line {node.lineno})" for node, dec in dataclass_decorators(source)
            if not any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                       and kw.value.value is True for kw in getattr(dec, "keywords", ()))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_dataclass_of_the_library_is_frozen(path):
    assert mutable_dataclasses(path.read_text()) == []


def test_the_dataclass_scan_finds_a_mutable_class():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass\nclass A: pass\n@dataclass(frozen=True)\nclass B: pass\n"
              "@dataclasses.dataclass(eq=False)\nclass C: pass\n"
              "@dataclass(frozen=False)\nclass D: pass\n@other\nclass E: pass\n")
    assert mutable_dataclasses(source) == ["A (line 4)", "C (line 8)", "D (line 10)"]
    assert [node.name for node, _ in dataclass_decorators(source)] == ["A", "B", "C", "D"]


# Every other class is a ``util.record``: a dataclass costs each cold
# command the ``dataclasses`` and ``inspect`` imports and the generated
# code.  trop.py keeps its three, because perfbench/selftest.py plants
# wrong answers with ``dataclasses.replace`` on ``Subdivision`` and
# ``SubdivisionCell``, and the CLI imports trop for ``trop`` alone.
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "trop.py"],
                         ids=lambda p: p.name)
def test_no_module_but_trop_defines_a_dataclass(path):
    assert dataclass_decorators(path.read_text()) == []


def _run_isolated(code: str, *argv: str) -> str:
    # -S: no site-packages hooks, so only the library's own imports count
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def test_importing_the_cli_loads_no_dataclasses_inspect_or_trop():
    code = ("import sys, positroid_lab.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('positroid_lab')"
            " or m in ('dataclasses', 'inspect')))")
    assert _run_isolated(code) == ("['positroid_lab', 'positroid_lab.cli', "
                                   "'positroid_lab.obs', 'positroid_lab.util']\n")


def test_importing_cluster_loads_no_amplituhedron_or_its_kernels():
    # cluster reads a point's twistors through the point alone: the
    # amplituhedron types are annotations
    code = ("import json, sys, positroid_lab.cluster\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('positroid_lab.')]))")
    loaded = {m.split(".")[1] for m in json.loads(_run_isolated(code))}
    assert "cluster" in loaded
    assert loaded & {"amplituhedron", "cells", "exact", "grassmann"} == set()


# One command of each shape the cold benchmark times, plus --help, and the
# library modules it must not load: each command imports what it runs.
LIBRARY = {p.stem for p in SOURCES} - {"__init__"}
_TILES = {"space": "amplituhedron", "k": 1, "n": 4,
          "tiles": [{"black_polygons": [[1, 2, 3]]}, {"black_polygons": [[1, 3, 4]]}]}
COMMAND_SHAPES = {
    "help": (["--help"], LIBRARY - {"cli", "obs", "util"}),
    "cell-perm-sample": (["cell", "--perm", "(3,4,1,2)", "--sample", "2"],
                         {"plabic", "amplituhedron"}),
    "cell-graph-matchings": (["cell", "--graph", "demos/g1.json", "--matchings"],
                             {"amplituhedron", "hypersimplex", "triangulations"}),
    "tilings-hypersimplex": (["tilings", "--space", "hypersimplex", "--k", "1", "--n", "5"],
                             {"plabic", "amplituhedron"}),
    "tilings-amplituhedron": (["tilings", "--space", "amplituhedron", "--k", "1", "--n", "5",
                               "--z", "vandermonde:0,1,2,3,4"], {"plabic"}),
    "trop": (["trop", "--heights", "demos/heights_two_pyramids.json"],
             {"plabic", "amplituhedron"}),
    "amp-sample": (["amp", "sample", "--n", "5", "--k", "1", "--cell", "(2,3,4,5,1)",
                    "--count", "2"], {"plabic", "hypersimplex", "triangulations"}),
    "amp-verify-tiling": (["amp", "verify-tiling", "--file", "TILES",
                           "--z", "vandermonde:0,1,2,3"], {"plabic"}),
}


@pytest.mark.parametrize("shape", COMMAND_SHAPES)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, shape):
    tiles = tmp_path / "tiles.json"
    tiles.write_text(json.dumps(_TILES))
    argv, unloaded = COMMAND_SHAPES[shape]
    code = ("import contextlib, io, json, sys\n"
            "from positroid_lab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        code = main(sys.argv[1:])\n"
            "    except SystemExit as e:\n"
            "        code = e.code\n"
            "print(json.dumps([code, sorted(m.split('.')[1] for m in sys.modules\n"
            "                               if m.startswith('positroid_lab.'))]))\n")
    exit_code, loaded = json.loads(_run_isolated(
        code, *(str(tiles) if a == "TILES" else a for a in argv)))
    assert exit_code == 0
    assert "cli" in loaded and set(loaded) <= LIBRARY
    assert sorted(set(loaded) & (unloaded | {"cluster"})) == []
    assert ("trop" in loaded) == (shape == "trop")


def _is_literal(node) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def seeded_draws(source: str) -> list[str]:
    """``Random(...)`` calls, by name or as ``random.Random``, whose seed is
    a literal: a draw fixed in the code, which an exact algorithm must not
    hide (the CLI seeds from ``--seed``, a name)."""
    return [f"{ast.unparse(node)} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None)) == "Random"
            and any(map(_is_literal, [*node.args, *(kw.value for kw in node.keywords)]))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_draws_from_a_literal_seed(path):
    assert seeded_draws(path.read_text()) == []


def test_the_seed_scan_finds_a_literal_seed():
    source = ("import random\nfrom random import Random\nrng = Random(0)\n"
              "other = random.Random(x=-7)\nrng = Random(seed)\nrng = Random()\n"
              "def f(rng: Random): pass\n")
    assert seeded_draws(source) == ["Random(0) (line 3)", "random.Random(x=-7) (line 4)"]
