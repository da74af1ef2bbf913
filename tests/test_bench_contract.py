"""What the benchmark reads of the package.

bench/run.py wraps package attributes by name: each (module, attribute) of
its SPAN_TARGETS gets a span, and each record_outcomes(...) call wraps a
solver whose returned pair it reads .status and .iterations from.  A
renamed or deleted attribute would crash a traced bench run, so these tests
hold the package to that contract.  The script is read with ast, not
imported.
"""

import ast
from pathlib import Path

import pytest

import mmloc
import mmloc.cli  # the benchmark imports it too
from mmloc import CONVERGED, MAX_ITER, SINGULAR_SYSTEM
from conftest import ending_cases

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def bench_targets():
    """(module, attribute) of each SPAN_TARGETS entry, and of each
    record_outcomes(mmloc.<module>, "<attribute>", ...) call, in bench/run.py."""
    spans, outcomes = [], []
    for node in ast.walk(ast.parse(RUN.read_text(), str(RUN))):
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SPAN_TARGETS"]):
            spans += [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "record_outcomes"):
            module, attr = node.args[:2]
            assert isinstance(module, ast.Attribute) and module.value.id == "mmloc"
            outcomes.append((module.attr, ast.literal_eval(attr)))
    return spans, outcomes


def test_every_wrapped_attribute_is_a_callable_of_the_package():
    spans, outcomes = bench_targets()
    assert spans and {("solvit", "solvit_solve"), ("sfp", "sfp_solve")} <= set(outcomes)
    missing = [f"{module}.{attr}" for module, attr in spans + outcomes
               if not callable(getattr(getattr(mmloc, module, None), attr, None))]
    assert not missing


@pytest.mark.parametrize("solver", ["solvit", "sfp"])
@pytest.mark.parametrize("n", [2, 3])
def test_solvers_return_the_fields_the_bench_counts(solver, n):
    solve = getattr(getattr(mmloc, solver), f"{solver}_solve")
    statuses = []
    for x0, array, meas, cfg in ending_cases(solver, n):
        result = solve(x0, array, meas, cfg)
        assert isinstance(result, tuple) and len(result) == 2
        outcome = result[1]
        assert outcome.status in (CONVERGED, MAX_ITER, SINGULAR_SYSTEM)
        assert type(outcome.iterations) is int
        statuses.append(outcome.status)
    assert statuses == [CONVERGED, MAX_ITER, SINGULAR_SYSTEM]
