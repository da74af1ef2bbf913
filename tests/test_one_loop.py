"""Both solvers run one MM loop, solvit._mm_loop, at every dimension.

The start nudge, the singular exit, the outcome and the SolveTrace live in
that loop alone; a solver supplies only its cost and its step, which the
loop calls itself, and a planar solver also its generated loop
(solvit._planar_make), which runs the iterations and hands back to _mm_loop
only an iteration it cannot finish.  The stop rule and the max_iter exit
are written twice, in _mm_loop and in the one template of the generated
loops (solvit._STOP_RULE); the source is checked for where the
zero-objective stop is tested, where source is compiled, where a trace is
built and where a singular step is caught, since a second loop (an
accelerated one, say) would need each of its own; one AST walk (sites)
serves the four checks, each with its own match rule.  The loop builds a trace
only when the caller asks, and asking changes nothing else.  The planar
sweeps of the criterion-7 config take every iteration in the generated
loops.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from mmloc import (CONVERGED, MAX_ITER, SINGULAR_SYSTEM, ExperimentConfig, NoiseModel,
                   Scenario, SolverConfig, run_rmse_sweep, save_scenario, sfp_solve,
                   solvit_solve, write_rangediffs_csv, write_ranges_csv)
from mmloc import sfp, solvit
from mmloc.cli import main
from conftest import criterion_7_config, ending_cases, make_instance, make_range_instance

SRC = Path(__file__).resolve().parents[1] / "src" / "mmloc"


def sites(source, name, match):
    """name:label of each node of source that match(node, func, assigned)
    labels, in walk order; match returns a label, or None to pass the node.
    func is the innermost enclosing function (None at module level), and
    assigned the name a module-level assignment around the node binds (else
    None).  Docstrings and other bare constants are not walked."""
    found = []

    def visit(node, func, assigned):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, None)
                continue
            if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                continue  # a docstring
            here = assigned
            if func is None and isinstance(child, ast.Assign):
                here = getattr(child.targets[0], "id", None)
            label = match(child, func, here)
            if label is not None:
                found.append(f"{name}:{label}")
            visit(child, func, here)

    visit(ast.parse(source, name), None, None)
    return found


def named(node):
    """The name node refers to, bare or as an attribute (None for another node)."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def trace_builders(source, name="<source>"):
    """file:function of each call to SolveTrace (by name or as an attribute),
    named by the innermost enclosing function (None at module level)."""
    def match(node, func, _):
        if isinstance(node, ast.Call) and named(node.func) == "SolveTrace":
            return f"{func}"
        return None

    return sites(source, name, match)


def test_checker_sees_every_site():
    source = """
trace = SolveTrace(a, b)

def outer():
    def inner():
        return solvit.SolveTrace(a, b)
    return SolveTrace(a, b), inner
"""
    assert trace_builders(source) == ["<source>:None", "<source>:inner", "<source>:outer"]


def test_only_mm_loop_builds_a_trace():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += trace_builders(path.read_text(), path.name)
    assert found == ["solvit.py:_mm_loop"]


def singular_catches(source, name="<source>"):
    """file:function of each except clause that names SingularSystemError or
    SensorSingularityError (by name or as an attribute, alone or in a
    tuple), named by the innermost enclosing function (None at module level)."""
    errors = ("SingularSystemError", "SensorSingularityError")

    def caught(node):
        if isinstance(node, ast.Tuple):
            return any(caught(e) for e in node.elts)
        return named(node) in errors

    def match(node, func, _):
        if isinstance(node, ast.ExceptHandler) and node.type is not None and caught(node.type):
            return f"{func}"
        return None

    return sites(source, name, match)


def test_singular_checker_sees_every_site():
    source = """
try:
    pass
except SingularSystemError:
    pass

def outer():
    def inner():
        try:
            pass
        except (ValueError, errors.SensorSingularityError):
            pass
    try:
        pass
    except (SensorSingularityError, SingularSystemError) as exc:
        pass
    except ValueError:
        pass
    except:
        pass
    return inner
"""
    assert singular_catches(source) == ["<source>:None", "<source>:inner", "<source>:outer"]


def test_only_mm_loop_catches_a_singular_step():
    """A failing step ends the run in one place: the loop that called it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += singular_catches(path.read_text(), path.name)
    assert found == ["solvit.py:_mm_loop"]


def source_compiles(source, name="<source>"):
    """file:function:builtin of each call to exec, eval or compile by name,
    named by the innermost enclosing function (None at module level)."""
    def match(node, func, _):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("exec", "eval", "compile")):
            return f"{func}:{node.func.id}"
        return None

    return sites(source, name, match)


def test_compile_checker_sees_every_site():
    source = """
exec(code)

def outer():
    def inner():
        return eval("1")
    return compile(src, "<x>", "exec"), re.compile("a"), inner
"""
    assert source_compiles(source) == ["<source>:None:exec", "<source>:inner:eval",
                                       "<source>:outer:compile"]


def test_only_the_planar_builder_compiles_source():
    """Both generated planar sweeps come from solvit._planar_make, which
    writes their skeleton and sensor-guard exit once; a generator that
    copied it would need a compile of its own."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += source_compiles(path.read_text(), path.name)
    assert found == ["solvit.py:_planar_make:exec", "solvit.py:_planar_make:compile"]


def zero_objective_tests(source, name="<source>"):
    """file:place of each comparison with _ZERO_OBJECTIVE, and of each string
    other than a docstring or the bare name that names it (source a template
    compiles): the place is the innermost enclosing function, or at module
    level the name the assignment around it binds."""
    def match(node, func, assigned):
        compared = isinstance(node, ast.Compare) and any(
            isinstance(op, ast.Name) and op.id == "_ZERO_OBJECTIVE"
            for op in (node.left, *node.comparators))
        quoted = (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value != "_ZERO_OBJECTIVE" and "_ZERO_OBJECTIVE" in node.value)
        return f"{func if func is not None else assigned}" if compared or quoted else None

    return sites(source, name, match)


def test_zero_objective_checker_sees_every_site():
    source = """
_RULE = "if f <= _ZERO_OBJECTIVE:"
names = {"_ZERO_OBJECTIVE": _ZERO_OBJECTIVE}

def outer():
    \"""Stops below _ZERO_OBJECTIVE.\"""
    def inner():
        return _ZERO_OBJECTIVE > f
    return f <= _ZERO_OBJECTIVE or f < tol, inner
"""
    assert zero_objective_tests(source) == ["<source>:_RULE", "<source>:inner",
                                            "<source>:outer"]


def test_only_the_loop_and_its_template_test_the_zero_objective():
    """The zero-objective stop is written once in _mm_loop and once in the
    template every generated planar loop ends its iterations with."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += zero_objective_tests(path.read_text(), path.name)
    assert sorted(found) == ["solvit.py:_STOP_RULE", "solvit.py:_mm_loop"]


@pytest.mark.parametrize("solver, init", [("solvit", "proposed"), ("sfp", "centroid")])
def test_planar_sweeps_iterate_in_the_generated_loop(loop_record, solver, init):
    """On the criterion-7 sweep (rd with solvit, ranges with sfp) no iteration
    goes back to _mm_loop: each solve is one call of the generated loop that
    ends with a status, and _mm_loop takes no iteration itself."""
    run_rmse_sweep(criterion_7_config(solver, init))
    assert loop_record.fallbacks == []
    assert len(loop_record.runs) == 11 * 200
    assert {status for *_, status in loop_record.runs} <= {CONVERGED, MAX_ITER}
    assert all(entry == 0 for entry, _, _ in loop_record.runs)


@pytest.mark.parametrize("solver", ["solvit", "sfp"])
@pytest.mark.parametrize("n", [2, 3])
def test_every_solve_runs_the_loop_once(monkeypatch, solver, n):
    runs = []
    loop = solvit._mm_loop

    def counted(*args):
        runs.append(len(args[0]))  # the dimension
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
        _, outcome = solve(x0, array, meas, cfg)
        statuses.add(outcome.status)
        assert runs == [n] * (case + 1)
    assert len(statuses) == 2


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
