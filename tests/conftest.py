"""Shared fixtures: seeded random problem instances."""

import sys

import numpy as np
import pytest

from mmloc import (
    CONVERGED,
    MAX_ITER,
    SINGULAR_SYSTEM,
    NoiseModel,
    SensorArray,
    noisy_rangediffs,
    rangediffs_from_ranges,
    random_array,
    true_ranges,
)
from mmloc.errors import SensorSingularityError, SingularSystemError
from mmloc.solvit import _ZERO_OBJECTIVE, SolveTrace, _nudge_off_sensors


def make_instance(seed, m=4, n=2, box=10.0, sigma2=0.0):
    """Random sensors + source in [-box, box]^n with optional range noise.

    Returns (array, source, rangediff_set).  With sigma2=0 the range
    differences are exact, so the source is a global minimizer of the
    range-difference objective with value 0.
    """
    rng = np.random.default_rng(seed)
    array = random_array(m, -box, box, n=n, seed=rng.integers(2**32))
    source = rng.uniform(-box, box, n)
    if sigma2 == 0.0:
        rd = rangediffs_from_ranges(true_ranges(source, array))
    else:
        noise = NoiseModel(sigma2=sigma2, f0=1000.0, c=340.0)
        rd = noisy_rangediffs(source, array, noise, seed=rng.integers(2**32))
    return array, source, rd


def make_range_instance(seed, m=4, n=2, box=10.0, noise_std=0.0):
    """Random sensors + source with direct range measurements.

    Ranges are distances, so the measurement model only produces
    nonnegative values; a noise draw that would push one below zero is
    redrawn together with the source (rare — it needs the source nearly
    on top of a sensor).
    """
    rng = np.random.default_rng(seed)
    array = random_array(m, -box, box, n=n, seed=rng.integers(2**32))
    source = rng.uniform(-box, box, n)
    r = true_ranges(source, array)
    if noise_std > 0.0:
        r = r + noise_std * rng.standard_normal(m)
        while np.min(r) <= 0.0:
            source = rng.uniform(-box, box, n)
            r = true_ranges(source, array) + noise_std * rng.standard_normal(m)
    return array, source, r


def reference_iterate(x0, ys, n, cfg, stepper, objective):
    """The MM loop as it was before it reused the objective's distances.

    It nudges (one distance pass), steps and evaluates the objective on
    every iteration; objective returns (value, distances) and only the
    value is used.  The solvers' fast paths must reproduce its traces.
    """
    x = list(map(float, x0))
    x = _nudge_off_sensors(x, ys, n)
    f_cur = objective(x)[0]
    iterates = [list(x)]
    objectives = [f_cur]
    status = MAX_ITER
    if f_cur <= _ZERO_OBJECTIVE:
        status = CONVERGED
    else:
        for _ in range(cfg.max_iter):
            x = _nudge_off_sensors(x, ys, n)
            try:
                x_next = stepper(x)
            except (SensorSingularityError, SingularSystemError):
                status = SINGULAR_SYSTEM
                break
            f_next = objective(x_next)[0]
            iterates.append(list(x_next))
            objectives.append(f_next)
            x = x_next
            if f_next <= _ZERO_OBJECTIVE:
                status = CONVERGED
                break
            if abs(f_next - f_cur) / f_cur < cfg.tol:
                status = CONVERGED
                break
            f_cur = f_next
    trace = SolveTrace(np.array(iterates), np.array(objectives), status,
                       len(objectives) - 1)
    return np.array(x), trace


def assert_same_solve(got, ref):
    """Bit-identical estimate, iterates, objectives, status and count.

    got is a traced solve's (estimate, SolveOutcome), whose status, count and
    objective must agree with its own trace; ref is (estimate, SolveTrace).
    """
    (est, outcome), (est_ref, trace_ref) = got, ref
    trace = outcome.trace
    assert (outcome.status, outcome.iterations) == (trace.status, trace.iterations)
    assert outcome.objective == trace.objectives[-1]
    assert est.tobytes() == est_ref.tobytes()
    assert np.array_equal(trace.iterates, trace_ref.iterates)
    assert trace.iterates.tobytes() == trace_ref.iterates.tobytes()
    assert np.array_equal(trace.objectives, trace_ref.objectives)
    assert trace.objectives.tobytes() == trace_ref.objectives.tobytes()
    assert trace.status == trace_ref.status
    assert trace.iterations == trace_ref.iterations


@pytest.fixture
def square_array():
    """Unit-free 2x2 square centred at the origin."""
    return SensorArray(np.array([[1.0, 1.0], [-1.0, 1.0],
                                 [-1.0, -1.0], [1.0, -1.0]]))


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance checklist after capture ends."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "_CHECKLIST", None)
    if lines:
        terminalreporter.section("acceptance checklist")
        for line in lines:
            terminalreporter.write_line(line)
