"""The allowlist of ``trace_lines.py`` stays honest without a traced run:
each entry names a line still in its file, and is a raise that certifies a
result or a line that a named subprocess test reaches."""

import ast
import re

import pytest

from trace_lines import ALLOWED, ROOT, SRC, line_texts, unrun_statements


@pytest.mark.parametrize("file, text, why", ALLOWED, ids=[f"{f}:{t[:40]}" for f, t, _ in ALLOWED])
def test_each_allowed_line_is_a_raise_or_a_subprocess_line(file, text, why):
    assert text in line_texts(SRC / file).values()
    if text.startswith("raise "):
        return
    path, name = re.fullmatch(r".*reached in a subprocess by (tests/\w+\.py)::(\w+)", why).groups()
    source = (ROOT / path).read_text()
    test = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    assert "subprocess" in ast.get_source_segment(source, test)


def test_the_report_folds_unrun_blocks_and_skips_type_checking_imports(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from typing import TYPE_CHECKING\n"     # 1
                    "if TYPE_CHECKING:\n"                    # 2
                    "    import os\n"                        # 3
                    "def f(x):\n"                            # 4
                    "    try:\n"                             # 5
                    "        y = 1 / x\n"                    # 6
                    "    except ZeroDivisionError:  # why\n"  # 7
                    "        y = 0\n"                        # 8
                    "        raise ValueError(\n"            # 9
                    "            'x')\n"                     # 10
                    "    return y\n")                        # 11
    assert unrun_statements(path, {1, 2, 4, 5, 6, 11}) == [(7, "except ZeroDivisionError:")]
    assert unrun_statements(path, {1, 2, 4, 5, 6, 7, 8}) == [(9, "raise ValueError("),
                                                          (11, "return y")]
