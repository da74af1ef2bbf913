"""tools/src_lines.py gives every line of a module exactly one of four kinds."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring,

three lines."""

import math  # a trailing comment leaves a code line

# a comment line
TEMPLATE = """
a string in an expression is code
"""


def f(x):
    """One line."""
    return (x +
            1)
'''


def test_each_line_has_its_kind(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SAMPLE)
    assert src_lines.line_kinds(path) == [
        "docstring", "docstring", "docstring", "blank", "code", "blank", "comment",
        "code", "code", "code", "blank", "blank", "code", "docstring", "code", "code"]


def test_the_kinds_cover_every_line_of_the_package(capsys):
    for path in sorted((ROOT / "src").rglob("*.py")):
        assert len(src_lines.line_kinds(path)) == len(path.read_text().splitlines())
    assert src_lines.main([str(ROOT / "src")]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", *src_lines.KINDS, "total"]
    counts = [list(map(int, row.split()[1:])) for row in rows]
    assert [int(v) for v in total.split()[1:]] == [sum(col) for col in zip(*counts)]
    assert all(sum(row[:4]) == row[4] for row in counts)
