"""Every Euclidean distance in mmloc rounds one way.

The one distance is the sqrt of the squared coordinate differences added in
coordinate order (objective._dists), which np.linalg.norm gives when it is
called with axis.  Without axis it takes the sqrt of a BLAS dot, whose
rounding depends on the BLAS kernel that loads (an FMA kernel rounds
differently), and math.hypot and math.dist round their own ways.  So no
norm in src/ goes without axis, and neither hypot nor math.dist is called;
the AST walk of tests/test_one_loop.py finds the calls.  The reference MM
steps (solvit._step_core_nd, sfp._sfp_step_core_nd) take no sqrt of their
own: each reads its distances from one _dists call.  The hyperbola
start reads one separation: init_points' feasibility filter, its arcs'
focal distances and hyperbola_points' ray check are one number.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import mmloc.initializer
from mmloc import (InitConfig, RangeDiffSet, RayMeasurementError, SensorArray,
                   hyperbola_points, init_point)
from test_one_loop import named, sites

SRC = Path(__file__).resolve().parents[1] / "src" / "mmloc"


def other_distances(source, name="<source>"):
    """file:function:callee of each call that rounds a distance other than
    the one way: np.linalg.norm (by any path) with no axis, by keyword or
    as its third argument, any hypot, and math.dist (or a bare dist)."""
    def match(node, func, _):
        if not isinstance(node, ast.Call):
            return None
        callee = named(node.func)
        if callee == "norm":
            axis = len(node.args) >= 3 or any(k.arg == "axis" for k in node.keywords)
            return None if axis else f"{func}:norm"
        module = getattr(node.func, "value", None)
        if callee == "hypot" or (callee == "dist" and named(module) in ("math", None)):
            return f"{func}:{callee}"
        return None

    return sites(source, name, match)


def test_distance_checker_sees_every_site():
    source = """
scale = np.linalg.norm(y)

def outer(x, y):
    def inner():
        return norm(x - y), np.linalg.norm(x, None, 0), math.hypot(*x)
    return math.dist(x, y), np.hypot(x, y), dist(x, y), np.linalg.norm(x - y, axis=1), inner
"""
    assert other_distances(source) == [
        "<source>:None:norm", "<source>:inner:norm", "<source>:inner:hypot",
        "<source>:outer:dist", "<source>:outer:hypot", "<source>:outer:dist"]


def test_only_row_wise_norms():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += other_distances(path.read_text(), path.name)
    assert found == []


STEPS = ("_step_core_nd", "_sfp_step_core_nd")


def step_distances(source, name="<source>"):
    """file:function:callee of each sqrt or _dists call (by any path) whose
    innermost enclosing function is a reference MM step."""
    def match(node, func, _):
        callee = named(node.func) if isinstance(node, ast.Call) else None
        return f"{func}:{callee}" if func in STEPS and callee in ("sqrt", "_dists") else None

    return sites(source, name, match)


def test_step_checker_sees_every_site():
    source = """
def _step_core_nd(x, ys, pairs, n):
    rho = [math.sqrt(s) for s in squares(x, ys)]
    return _dists(x, ys), objective._dists(x, ys)

def _sfp_step_core_nd(x, ys, r, n):
    return np.sqrt(x), sqrt(x)

def _dists(x, ys):
    return [math.sqrt(s) for s in squares(x, ys)]
"""
    assert step_distances(source) == [
        "<source>:_step_core_nd:sqrt", "<source>:_step_core_nd:_dists",
        "<source>:_step_core_nd:_dists", "<source>:_sfp_step_core_nd:sqrt",
        "<source>:_sfp_step_core_nd:sqrt"]


def test_each_reference_step_reads_one_distance_pass():
    found = []
    for module in ("solvit.py", "sfp.py"):
        found += step_distances((SRC / module).read_text(), module)
    assert found == ["solvit.py:_step_core_nd:_dists", "sfp.py:_sfp_step_core_nd:_dists"]


def separation(pair):
    """The separation init_points' filter reads for this pair of sensors."""
    return np.linalg.norm(pair[:, None, :] - pair[None, :, :], axis=2)[0, 1]


def planar_pairs():
    """Random planar sensor pairs: every one among 2,000 draws whose BLAS
    dot rounds the separation otherwise (none where the BLAS kernel rounds
    as the one distance), up to 25, and 25 whose two norms agree."""
    rng = np.random.default_rng(28)
    differ, agree = [], []
    for pair in rng.uniform(-50.0, 50.0, (2000, 2, 2)):
        diff = pair[1] - pair[0]
        (agree if float(np.sqrt(diff @ diff)) == separation(pair) else differ).append(pair)
    return differ[:25] + agree[:25]


def test_the_filter_and_the_arcs_read_one_separation(monkeypatch):
    # at the separation hyperbola_points refuses a ray and init_point takes
    # the grid; one bit below it both take the arc, and the start is a sample
    calls = []
    fallback = mmloc.initializer._grid_fallback
    monkeypatch.setattr(mmloc.initializer, "_grid_fallback",
                        lambda *a: calls.append(1) or fallback(*a))
    for pair in planar_pairs():
        array, sep, bound = SensorArray(pair), separation(pair), 2.0 * float(np.max(np.abs(pair)))
        with pytest.raises(RayMeasurementError):
            hyperbola_points(pair[0], pair[1], sep, 16, bound)
        for value, grid in ((sep, 1), (np.nextafter(sep, 0.0), 0)):
            calls.clear()
            rd = RangeDiffSet(np.array([1]), np.array([2]), np.array([value]), 2)
            x0 = init_point(array, rd, InitConfig(grid_size=16, seed=0))
            assert len(calls) == grid
        pts = hyperbola_points(pair[0], pair[1], np.nextafter(sep, 0.0), 16, bound)
        assert (pts == x0).all(axis=1).any()
