"""Source rules that keep the output bytes the same on every supported Python.

Since Python 3.12 the builtin sum() of floats is a compensated sum, so a
sum() in the package rounds one way on 3.10 and 3.11 and another on 3.12+.
math.hypot and math.dist round differently from the one distance that the
costs and the MM steps share (the sqrt of the squared coordinate
differences added in coordinate order, objective._dists).  A slip shows
only in the last bits, and some of it only on interpreters that a test run
may not use, so the source itself is checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mmloc"
MATH_NORMS = {"hypot", "dist"}


def float_order_violations(source, name="<source>"):
    """Each use of the builtin sum and each reference to math.hypot or
    math.dist (as an attribute of any alias of math, or imported by name)."""
    tree = ast.parse(source, name)
    maths = {"math"} | {a.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
                        for a in node.names if a.name == "math" and a.asname}
    found = []
    for node in ast.walk(tree):
        where = f"{name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Name) and node.id == "sum" and isinstance(node.ctx, ast.Load):
            found.append(f"{where} sum")
        elif (isinstance(node, ast.Attribute) and node.attr in MATH_NORMS
              and isinstance(node.value, ast.Name) and node.value.id in maths):
            found.append(f"{where} math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{where} math.{a.name}" for a in node.names if a.name in MATH_NORMS]
    return found


def test_checker_sees_aliases():
    source = """
import math
import math as m
from math import dist
hypot = math.hypot
total = sum(v * v for v in (1.0, 2.0))
add_up = sum
norm = m.dist((0.0, 0.0), (3.0, 4.0))
"""
    assert [v.split(" ")[1] for v in float_order_violations(source)] == [
        "math.dist", "math.hypot", "sum", "sum", "math.dist"]


def test_package_uses_one_distance_and_entry_order_sums():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += float_order_violations(path.read_text(), path.name)
    assert found == []
