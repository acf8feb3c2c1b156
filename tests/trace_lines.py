"""Line trace of the library: which executable lines of ``src/positroid_lab``
no test and no demo runs.

Run from the repository root as ``PYTHONPATH=src python tests/trace_lines.py``.
The script runs tier-1 in-process under ``sys.settrace``, then every demo
in-process with ``runpy`` and its stdout captured, and prints each statement
that never ran and that ``ALLOWED`` does not list.  Statements under
``if TYPE_CHECKING:`` are skipped; a statement inside an unrun block is
reported through the block.  Exit status 0 means every unrun statement is
allowed, 1 that some is not or that a test or demo failed.  Tracing makes
tier-1 several times slower, so this is a report, not a test;
``tests/test_trace_lines.py`` keeps the allowlist honest without tracing.
"""

import ast
import contextlib
import io
import os
import runpy
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "positroid_lab"

# (file, statement's first line without its comment, reason).  Only two
# kinds belong here: a raise that certifies a result the code has already
# proved, and a line that only a subprocess test reaches, which names it.
ALLOWED = [
    ("amplituhedron.py", 'raise RuntimeError("all twistors vanish; Y is degenerate against Z")',
     "a point mapped from a positive cell has a nonzero twistor"),
    ("cells.py", 'raise RuntimeError(f"no ascent available for {current}")',
     "a permutation below the top of the bridge order has an ascent"),
    ("cells.py", 'raise RuntimeError(f"bridge replay built {got} instead of {pi}")',
     "the bridge decomposition rebuilds the permutation it came from"),
    ("cells.py", 'raise RuntimeError(f"realization of {pi} landed in cell {got}")',
     "a positive bridge realization lies in its cell"),
    ("cli.py", 'raise RuntimeError(f"listed {len(tilings)} tilings but counted {count}")',
     "the listing and the memoized count enumerate the same exact covers"),
    ("hypersimplex.py", 'raise RuntimeError(f"two subdivisions share the tile label {pi}")',
     "distinct catalog tiles have distinct trip permutations"),
    ("plabic.py", 'raise RuntimeError("trip failed to reach the boundary")',
     "a trip of a validated graph ends at a boundary vertex"),
    ("trop.py", 'raise RuntimeError("no direction grows a full-dimensional cell")',
     "a generic lift makes every facet walk grow a full-dimensional cell"),
    ("trop.py", 'raise RuntimeError("witness does not certify its cell")',
     "each cell's witness is chosen in its cell's open normal cone"),
    ("trop.py", 'raise RuntimeError("finest-subdivision criteria disagree; "',
     "the octahedron and cell-count criteria of finest are equivalent"),
    ("cli.py", "except BrokenPipeError:",
     "reached in a subprocess by "
     "tests/test_cli.py::test_a_reader_closing_early_meets_exit_141_and_no_traceback"),
    ("cli.py", "sys.exit(main())",
     "reached in a subprocess by tests/test_cli.py::test_the_audits_take_no_sample_count"),
]


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _own_lines(code) -> set[int]:
    # the first line of a function's code holds its RESUME, which fires no
    # line event; the defining code object covers that line
    return {line for _, _, line in code.co_lines() if line} - {code.co_firstlineno}


def executable_lines(path: Path) -> set[int]:
    return {line for code in _code_objects(compile(path.read_text(), str(path), "exec"))
            for _, _, line in code.co_lines() if line}


class Tracer:
    """Records the (file, line) pairs run in ``files``, and stops tracing a
    code object once each of its lines has run."""

    def __init__(self, files: set[str]):
        self.files = files
        self.hits: set[tuple[str, int]] = set()
        self.pending: dict = {}

    def call(self, frame, event, arg):
        code = frame.f_code
        todo = self.pending.get(code)
        if todo is None:
            if code.co_filename not in self.files:
                return None
            todo = self.pending[code] = _own_lines(code)
        return self.line if todo else None

    def line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
            todo = self.pending[frame.f_code]
            todo.discard(frame.f_lineno)
            if not todo:
                return None
        return self.line


def _units(tree: ast.Module) -> list[tuple[int, int]]:
    """(first line, last line) of every statement and except clause,
    decorators included in a definition's span."""
    return [(min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())]),
             node.end_lineno)
            for node in ast.walk(tree) if isinstance(node, (ast.stmt, ast.ExceptHandler))]


def _type_checking_lines(tree: ast.Module) -> set[int]:
    return {line for node in ast.walk(tree)
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
            for stmt in node.body for line in range(stmt.lineno, stmt.end_lineno + 1)}


def line_texts(path: Path) -> dict[int, str]:
    """Each line stripped of its comment and surrounding blanks."""
    lines = path.read_text().splitlines()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.COMMENT:
                row, col = tok.start
                lines[row - 1] = lines[row - 1][:col]
    return {i: text.strip() for i, text in enumerate(lines, 1)}


def unrun_statements(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line, text) of each outermost statement or except clause of ``path``
    with an executable line outside ``ran``, ``if TYPE_CHECKING:`` bodies
    aside; a line that lies in no statement is reported by itself."""
    tree = ast.parse(path.read_text())
    unrun = executable_lines(path) - ran - _type_checking_lines(tree)
    units = _units(tree)

    def innermost(line):
        spans = [(last - first, first) for first, last in units if first <= line <= last]
        return min(spans)[1] if spans else line

    starts = {innermost(line) for line in unrun}
    # an unrun block reports its body through its own first line
    outer = {s for s in starts
             if not any(first in starts and first < s <= last for first, last in units)}
    texts = line_texts(path)
    return [(s, texts[s]) for s in sorted(outer)]


def run_traced(tracer: Tracer) -> list[str]:
    """Tier-1, then each demo, under ``tracer``; the failures, if any."""
    failures = []
    sys.settrace(tracer.call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        if status != 0:
            failures.append(f"tier-1 exited {int(status)}")
        for demo in sorted((ROOT / "demos").glob("*.py")):
            sys.argv = [str(demo)]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(str(demo), run_name="__main__")
            except Exception as exc:  # report the demo and go on tracing the rest
                failures.append(f"demo {demo.name} raised {exc!r}")
    finally:
        sys.settrace(None)
    return failures


def main() -> int:
    os.chdir(ROOT)
    paths = sorted(SRC.glob("*.py"))
    tracer = Tracer({str(p) for p in paths})
    failures = run_traced(tracer)
    allowed = {(file, text): why for file, text, why in ALLOWED}
    lines = sum(len(executable_lines(p)) for p in paths)
    outside, inside = [], []
    for path in paths:
        ran = {line for file, line in tracer.hits if file == str(path)}
        for line, text in unrun_statements(path, ran):
            why = allowed.get((path.name, text))
            (inside if why else outside).append(f"src/positroid_lab/{path.name}:{line}: {text}"
                                               + (f"  [{why}]" if why else ""))
    print(f"\n{lines} executable lines in {len(paths)} files; "
          f"{len(inside) + len(outside)} statements unrun, {len(inside)} of them allowed:")
    print("\n".join(inside))
    print(f"{len(outside)} unrun statements outside the allowlist" + (":" if outside else "."))
    print("\n".join(outside + failures))
    return 1 if outside or failures else 0


if __name__ == "__main__":
    sys.exit(main())
