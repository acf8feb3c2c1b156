"""The README describes the package as it is."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layout_table_names_exactly_the_modules():
    layout = (ROOT / "README.md").read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", layout, re.M)
    modules = [p.stem for p in (ROOT / "src" / "positroid_lab").glob("*.py")
               if not p.stem.startswith("_")]
    assert len(rows) == len(set(rows))
    assert sorted(rows) == sorted(modules)


def test_obs_row_names_exactly_the_counters_that_src_bumps():
    readme = (ROOT / "README.md").read_text()
    row = next(line for line in readme.splitlines() if line.startswith("| `obs` |"))
    named = set(re.findall(r"`(\w+(?:\.\w+)+)`", row))
    src = "".join(p.read_text() for p in sorted((ROOT / "src" / "positroid_lab").glob("*.py")))
    bumped = re.findall(r'\bobs\.count\("([^"]+)"', src)
    assert len(bumped) == src.count("obs.count(")  # every counter is named by a literal
    assert named == set(bumped)
