"""Fixed-point solver for the range least-squares problem.

Minimizing the same kind of quadratic upper bound as the range-difference
solver, but for f_rls, gives an update that is a plain average:

    x^{k+1} = (1/m) sum_i (y_i + r_i w_i),   w_i = (x^k - y_i)/||x^k - y_i||

i.e. each sensor votes for the point at measured range r_i along the ray
from itself through the current iterate, and the iterate moves to the
mean of the votes.  Descent is monotone for nonnegative r_i.

An update is about ten flops per sensor, less than the Python calls that
would wrap it, so for n == 2 sfp_solve runs _sfp_solve_2d: an inlined copy
of solvit._iterate + _sfp_step_core_nd + objective._f_ranges in one frame,
with the same floating-point operations in the same order.  One pass over
the sensors per iteration gives both the cost and the update, since both
take the one norm per sensor (objective._dists' rounding).  It must stay
bit-identical to them: TestPlanarKernel in tests/test_sfp.py compares its
traces with conftest.reference_iterate around those two kernels, and
tests/test_solve_pins.py pins fixed solves.  n == 3 runs the shared loop.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SensorSingularityError
from .objective import _check_ranges, _f_ranges
from .scenario import _unit_vectors, as_position, sensor_coords
from .solvit import (
    _SENSOR_GUARD,
    _ZERO_OBJECTIVE,
    CONVERGED,
    MAX_ITER,
    SINGULAR_SYSTEM,
    SolverConfig,
    SolveTrace,
    _iterate,
    _nudge_off_sensors,
)


def sfp_surrogate_many(X, x_k, array, ranges) -> np.ndarray:
    """Quadratic bound of f_rls around x_k at each row of X -> (B,)."""
    coords = sensor_coords(array)
    xk = as_position(x_k, coords.shape[1])
    r = _check_ranges(ranges, coords.shape[0])
    pts = np.atleast_2d(np.asarray(X, dtype=float))
    _, w = _unit_vectors(xk, coords)
    out = np.zeros(pts.shape[0])
    for k in range(r.size):
        d = pts - coords[k][None, :]
        out += r[k] * r[k] - 2.0 * r[k] * (d @ w[k]) + np.sum(d * d, axis=1)
    return out


def sfp_surrogate(x, x_k, array, ranges) -> float:
    """Quadratic bound of f_rls around x_k at a single point."""
    return float(sfp_surrogate_many(np.asarray(x, dtype=float)[None, :],
                                    x_k, array, ranges)[0])


def _sfp_step_core_nd(x: list[float], ys, r: list[float], n: int) -> list[float]:
    """Generic update for any n; the reference the planar kernel must match."""
    m = len(ys)
    acc = [0.0] * n
    for k in range(m):
        y = ys[k]
        s2 = 0.0
        d = [0.0] * n
        for t in range(n):
            dt = x[t] - y[t]
            d[t] = dt
            s2 += dt * dt
        nrm = math.sqrt(s2)
        if nrm <= 0.0:
            raise SensorSingularityError(k + 1)
        scale = r[k] / nrm
        for t in range(n):
            acc[t] += y[t] + scale * d[t]
    return [a / m for a in acc]


def sfp_step(x_k, array, ranges) -> np.ndarray:
    """One fixed-point update: the mean of per-sensor range projections."""
    coords = sensor_coords(array)
    xk = as_position(x_k, coords.shape[1])
    r = _check_ranges(ranges, coords.shape[0])
    ys = list(map(tuple, coords.tolist()))
    return np.array(_sfp_step_core_nd(xk.tolist(), ys, r.tolist(), coords.shape[1]))


def _sfp_solve_2d(x0: list[float], ys, r: list[float], cfg: SolverConfig):
    """_iterate with _sfp_step_core_nd and _f_ranges inlined, for n == 2.

    The same floating-point operations in the same order as those three,
    so every trace is bit-identical to the shared loop's; an iteration
    then costs its arithmetic and no call.  Each iteration makes one pass
    over the sensors, whose norms give both the cost at x and the update
    from x.  An iterate within _SENSOR_GUARD of a sensor is nudged first,
    and _sfp_step_core_nd forms the update at the nudged point.
    """
    sens = [(y0, y1, rk) for (y0, y1), rk in zip(ys, r)]
    m = len(sens)
    sqrt, guard, max_iter, tol = math.sqrt, _SENSOR_GUARD, cfg.max_iter, cfg.tol
    x0, x1 = _nudge_off_sensors(x0, ys, 2)
    flat = [x0, x1]  # iterates, row after row
    objectives = []
    status = MAX_ITER
    f_cur = math.inf  # no relative change to test at the start
    for it in range(max_iter + 1):
        # one sensor pass: the cost, and the mean of the range projections
        f_next = acc0 = acc1 = 0.0
        near = False
        for y0, y1, rk in sens:
            d0 = x0 - y0
            d1 = x1 - y1
            nrm = sqrt(d0 * d0 + d1 * d1)
            e = rk - nrm
            f_next += e * e
            if nrm < guard:  # nudged before the update, which needs no terms
                near = True
                continue
            scale = rk / nrm
            acc0 += y0 + scale * d0
            acc1 += y1 + scale * d1
        objectives.append(f_next)
        if f_next <= _ZERO_OBJECTIVE or abs(f_next - f_cur) / f_cur < tol:
            status = CONVERGED
            break
        if it == max_iter:
            break
        f_cur = f_next
        if near:
            x0, x1 = _nudge_off_sensors([x0, x1], ys, 2)
            try:
                x0, x1 = _sfp_step_core_nd([x0, x1], ys, r, 2)
            except SensorSingularityError:
                status = SINGULAR_SYSTEM
                break
        else:
            x0 = acc0 / m
            x1 = acc1 / m
        flat += (x0, x1)
    trace = SolveTrace(np.array(flat).reshape(-1, 2), np.array(objectives), status,
                       len(objectives) - 1)
    return np.array([x0, x1]), trace


def sfp_solve(x0, array, ranges,
              cfg: SolverConfig | None = None) -> tuple[np.ndarray, SolveTrace]:
    """Iterate sfp_step until the shared stopping rule fires.

    x0 defaults to the sensor centroid.  Same sensor-coincidence guard,
    stopping rule, and trace format as the range-difference solver.
    """
    cfg = cfg or SolverConfig()
    coords = sensor_coords(array)
    n = coords.shape[1]
    r = _check_ranges(ranges, coords.shape[0])
    xs = coords.mean(axis=0) if x0 is None else as_position(x0, n)
    ys = list(map(tuple, coords.tolist()))
    rl = r.tolist()
    if n == 2:
        return _sfp_solve_2d(xs.tolist(), ys, rl, cfg)
    return _iterate(xs, ys, n, cfg, _sfp_step_core_nd, _f_ranges, rl)
