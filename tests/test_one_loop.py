"""Both solvers run one MM loop, solvit._mm_loop, at every dimension.

The start nudge, the stop rule, the max_iter exit, the singular exit, the
outcome and the trace live in that loop alone; a solver supplies only its
sweep.  A second loop (an accelerated one, say) would have to build its
own SolveTrace, so the source is checked for where a trace is built.  The
loop builds one only when the caller asks, and asking changes nothing else.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from mmloc import (CONVERGED, MAX_ITER, SINGULAR_SYSTEM, ExperimentConfig, NoiseModel,
                   Scenario, SolverConfig, rangediffs_from_ranges, run_rmse_sweep,
                   save_scenario, sfp_solve, solvit_solve, write_rangediffs_csv,
                   write_ranges_csv)
from mmloc import sfp, solvit
from mmloc.cli import main
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


def ending_cases(solver, n):
    """(x0, array, measurement, cfg) of solves ending converged, at max_iter and singular."""
    def on_axis(*xs):
        return np.array([[x] + [0.0] * (n - 1) for x in xs])

    if solver == "solvit":
        array, _, meas = make_instance(600 + n, m=5, n=n, sigma2=0.3)
        # collinear sensors, zero differences and a start on their line
        singular = (on_axis(5.0)[0], on_axis(0.0, 1.0, 2.0), rangediffs_from_ranges(np.zeros(3)))
    else:
        array, _, meas = make_range_instance(600 + n, m=5, n=n, noise_std=0.3)
        # the start nudge lands on the second sensor, whose nudge lands on the first
        singular = (on_axis(0.0)[0], on_axis(0.0, 1e-6), np.ones(2))
    start = np.full(n, 2.0)
    return [(start, array, meas, SolverConfig()), (start, array, meas, SolverConfig(max_iter=3)),
            (*singular, SolverConfig())]


@pytest.mark.parametrize("solver", ["solvit", "sfp"])
@pytest.mark.parametrize("n", [2, 3])
def test_asking_for_the_trace_changes_no_outcome(solver, n):
    solve = solvit_solve if solver == "solvit" else sfp_solve
    statuses = []
    for x0, array, meas, cfg in ending_cases(solver, n):
        est, outcome = solve(x0, array, meas, cfg)
        est_traced, traced = solve(x0, array, meas, cfg, trace=True)
        assert outcome.trace is None
        assert est.tobytes() == est_traced.tobytes()
        assert (outcome.status, outcome.iterations) == (traced.status, traced.iterations)
        assert outcome.objective.hex() == traced.objective.hex()
        assert outcome.objective == traced.trace.objectives[-1]
        assert (traced.trace.status, traced.trace.iterations) == (traced.status,
                                                                  traced.iterations)
        statuses.append(outcome.status)
    assert statuses == [CONVERGED, MAX_ITER, SINGULAR_SYSTEM]


def test_only_a_caller_that_asks_builds_a_trace(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise RuntimeError("SolveTrace built")

    monkeypatch.setattr(solvit, "SolveTrace", refuse)
    for solver, init, n in (("solvit", "proposed", 2), ("sfp", "centroid", 2),
                            ("solvit", "random", 3), ("sfp", "random", 3)):
        sensors = {"kind": "random", "m": 5, "lo": -10.0, "hi": 10.0, "n": n}
        cfg = ExperimentConfig(scenario={"sensors": sensors, "source": [1.0, 2.0, 3.0][:n],
                                         "noise": {"f0": 1000.0, "c": 340.0}},
                               snr_grid=[0.0, 20.0], trials=4, solver=solver, init=init)
        assert len(run_rmse_sweep(cfg)) == 2

    array, _, rd = make_instance(610, m=5, sigma2=0.3)
    scen = tmp_path / "scen.json"
    save_scenario(scen, Scenario(array, np.zeros(2), NoiseModel(sigma2=0.0, f0=1000.0, c=340.0)))
    write_rangediffs_csv(tmp_path / "rd.csv", rd)
    write_ranges_csv(tmp_path / "r.csv", np.linspace(5.0, 9.0, 5))
    for solver, meas in (("solvit", "rd.csv"), ("sfp", "r.csv")):
        argv = ["solve", "--scenario", str(scen), "--measurements", str(tmp_path / meas),
                "--solver", solver]
        assert main(argv) == 0
        assert capsys.readouterr().err.startswith("status=")
        # asking for the trace file asks for the trace
        assert main(argv + ["--trace", str(tmp_path / "trace.csv")]) == 2
        assert capsys.readouterr().err == "error: SolveTrace built\n"
