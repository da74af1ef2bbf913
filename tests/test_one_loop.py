"""Both solvers run one MM loop, solvit._mm_loop, at every dimension.

The start nudge, the stop rule, the max_iter exit, the singular exit and
the trace live in that loop alone; a solver supplies only its sweep.  A
second loop (an accelerated one, say) would have to build its own
SolveTrace, so the source is checked for where a trace is built.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from mmloc import SolverConfig, sfp_solve, solvit_solve
from mmloc import sfp, solvit
from conftest import make_instance, make_range_instance

SRC = Path(__file__).resolve().parents[1] / "src" / "mmloc"


def trace_builders(source, name="<source>"):
    """file:function of each call to SolveTrace (by name or as an attribute),
    named by the innermost enclosing function (None at module level)."""
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                called = callee.attr if isinstance(callee, ast.Attribute) else getattr(
                    callee, "id", None)
                if called == "SolveTrace":
                    sites.append(f"{name}:{func}")
            visit(child, func)

    visit(ast.parse(source, name), None)
    return sites


def test_checker_sees_every_site():
    source = """
trace = SolveTrace(a, b, c, 0)

def outer():
    def inner():
        return solvit.SolveTrace(a, b, c, 0)
    return SolveTrace(a, b, c, 0), inner
"""
    assert trace_builders(source) == ["<source>:None", "<source>:inner", "<source>:outer"]


def test_only_mm_loop_builds_a_trace():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += trace_builders(path.read_text(), path.name)
    assert found == ["solvit.py:_mm_loop"]


@pytest.mark.parametrize("solver", ["solvit", "sfp"])
@pytest.mark.parametrize("n", [2, 3])
def test_every_solve_runs_the_loop_once(monkeypatch, solver, n):
    runs = []
    loop = solvit._mm_loop

    def counted(*args):
        runs.append(args[2])  # the dimension
        return loop(*args)

    monkeypatch.setattr(solvit, "_mm_loop", counted)
    monkeypatch.setattr(sfp, "_mm_loop", counted)
    statuses = set()
    for case in range(12):
        # a start on a sensor every third case; max_iter stops among the rest
        cfg = SolverConfig(max_iter=1 if case % 4 == 1 else 500)
        if solver == "solvit":
            array, _, meas = make_instance(500 + case, m=5, n=n, sigma2=0.3)
            solve = solvit_solve
        else:
            array, _, meas = make_range_instance(500 + case, m=5, n=n, noise_std=0.3)
            solve = sfp_solve
        x0 = array.sensors[case % 5] if case % 3 == 0 else np.full(n, 2.0)
        _, trace = solve(x0, array, meas, cfg)
        statuses.add(trace.status)
        assert runs == [n] * (case + 1)
    assert len(statuses) == 2
