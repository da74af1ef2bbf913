"""Shared fixtures: seeded random problem instances."""

import sys
from types import SimpleNamespace

import numpy as np
import pytest

from mmloc import (
    CONVERGED,
    ExperimentConfig,
    MAX_ITER,
    SINGULAR_SYSTEM,
    NoiseModel,
    SensorArray,
    SolverConfig,
    noisy_rangediffs,
    rangediffs_from_ranges,
    random_array,
    true_ranges,
)
from mmloc import sfp, solvit
from mmloc.errors import SensorSingularityError, SingularSystemError
from mmloc.solvit import _ZERO_OBJECTIVE, SolveOutcome, SolveTrace, _nudge_off_sensors


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


def criterion_7_config(solver, init):
    """The criterion-7 sweep: the random m = 5 array in +-50 m, 11 SNRs x 200 trials."""
    return ExperimentConfig(
        scenario={"sensors": {"kind": "random", "m": 5, "lo": -50.0, "hi": 50.0},
                  "source": {"uniform": [-10.0, 10.0]},
                  "noise": {"f0": 1000.0, "c": 340.0}},
        snr_grid=[float(v) for v in range(-10, 1)], trials=200, solver=solver,
        init=init, seed=2026, tol=1e-8, max_iter=2000)


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


def reference_iterate(x0, ys, n, cfg, stepper, objective):
    """The MM loop as it was before it reused the objective's distances.

    It nudges (one distance pass), steps and evaluates the objective on
    every iteration; objective returns (value, distances) and only the
    value is used.  The solvers' fast paths must reproduce its traces.
    Returns (estimate, SolveOutcome) with the trace set, as a traced solve does.
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
    trace = SolveTrace(np.array(iterates), np.array(objectives))
    return np.array(x), SolveOutcome(status, len(objectives) - 1, objectives[-1], trace)


def assert_same_solve(got, ref):
    """Bit-identical estimate, status, count, objective, iterates and objectives.

    got is a traced solve's (estimate, SolveOutcome) and ref the same solve
    run by reference_iterate.
    """
    (est, outcome), (est_ref, outcome_ref) = got, ref
    trace, trace_ref = outcome.trace, outcome_ref.trace
    assert est.tobytes() == est_ref.tobytes()
    assert outcome.status == outcome_ref.status
    assert outcome.iterations == outcome_ref.iterations
    assert outcome.objective.hex() == outcome_ref.objective.hex()
    assert np.array_equal(trace.iterates, trace_ref.iterates)
    assert trace.iterates.tobytes() == trace_ref.iterates.tobytes()
    assert np.array_equal(trace.objectives, trace_ref.objectives)
    assert trace.objectives.tobytes() == trace_ref.objectives.tobytes()


@pytest.fixture
def loop_record(monkeypatch):
    """Where the solves' iterations run.  runs gets (iteration on entry,
    iteration on return, status) for each call of a generated planar loop,
    and fallbacks the dimension for each iteration _mm_loop takes itself,
    counted on the cost it calls (solvit._f_pairs, sfp._f_ranges)."""
    record = SimpleNamespace(runs=[], fallbacks=[])
    sweep_2d, sfp_kernel = solvit._solvit_sweep_2d, sfp._sfp_kernel

    def recorded_run(run):
        def recorded(x0, x1, f, it, *rest):
            out = run(x0, x1, f, it, *rest)
            record.runs.append((it, out[2], out[3]))
            return out
        return recorded

    def recorded_cost(cost):
        def counted(x, ys, data):
            record.fallbacks.append(len(x))
            return cost(x, ys, data)
        return counted

    monkeypatch.setattr(solvit, "_solvit_sweep_2d",
                        lambda ys, pairs: recorded_run(sweep_2d(ys, pairs)))
    monkeypatch.setattr(sfp, "_sfp_kernel",
                        lambda m: lambda ys, r: recorded_run(sfp_kernel(m)(ys, r)))
    monkeypatch.setattr(solvit, "_f_pairs", recorded_cost(solvit._f_pairs))
    monkeypatch.setattr(sfp, "_f_ranges", recorded_cost(sfp._f_ranges))
    return record


@pytest.fixture
def step_calls(monkeypatch):
    """How each call of the solvers' steps (solvit._step_core_nd,
    sfp._sfp_step_core_nd) ended: True where it returned an update, False
    where it raised."""
    calls = []

    def recorded(step):
        def counted(*args):
            try:
                x = step(*args)
            except (SensorSingularityError, SingularSystemError):
                calls.append(False)
                raise
            calls.append(True)
            return x
        return counted

    monkeypatch.setattr(solvit, "_step_core_nd", recorded(solvit._step_core_nd))
    monkeypatch.setattr(sfp, "_sfp_step_core_nd", recorded(sfp._sfp_step_core_nd))
    return calls


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
