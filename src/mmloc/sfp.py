"""Fixed-point solver for the range least-squares problem.

Minimizing the same kind of quadratic upper bound as the range-difference
solver, but for f_rls, gives an update that is a plain average:

    x^{k+1} = (1/m) sum_i (y_i + r_i w_i),   w_i = (x^k - y_i)/||x^k - y_i||

i.e. each sensor votes for the point at measured range r_i along the ray
from itself through the current iterate, and the iterate moves to the
mean of the votes.  Descent is monotone for nonnegative r_i.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SensorSingularityError
from .scenario import as_position, sensor_coords
from .solvit import (
    SolverConfig,
    SolveTrace,
    _iterate,
    _unit_vectors,
)


def sfp_surrogate_many(X, x_k, array, ranges) -> np.ndarray:
    """Quadratic bound of f_rls around x_k at each row of X -> (B,)."""
    coords = sensor_coords(array)
    xk = as_position(x_k, coords.shape[1])
    r = np.asarray(ranges, dtype=float).reshape(-1)
    if r.size != coords.shape[0]:
        raise ValueError(f"{r.size} ranges for {coords.shape[0]} sensors")
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


def _sfp_step_core(x: list[float], ys, r: list[float], n: int) -> list[float]:
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
    r = np.asarray(ranges, dtype=float).reshape(-1)
    if r.size != coords.shape[0]:
        raise ValueError(f"{r.size} ranges for {coords.shape[0]} sensors")
    ys = [tuple(float(v) for v in row) for row in coords]
    return np.array(_sfp_step_core(list(map(float, xk)), ys,
                                   [float(v) for v in r], coords.shape[1]))


def sfp_solve(x0, array, ranges,
              cfg: SolverConfig | None = None) -> tuple[np.ndarray, SolveTrace]:
    """Iterate sfp_step until the shared stopping rule fires.

    x0 defaults to the sensor centroid.  Same sensor-coincidence guard,
    stopping rule, and trace format as the range-difference solver.
    """
    cfg = cfg or SolverConfig()
    coords = sensor_coords(array)
    n = coords.shape[1]
    r = np.asarray(ranges, dtype=float).reshape(-1)
    if r.size != coords.shape[0]:
        raise ValueError(f"{r.size} ranges for {coords.shape[0]} sensors")
    if not np.all(np.isfinite(r)):
        raise ValueError("ranges must be finite")
    xs = coords.mean(axis=0) if x0 is None else as_position(x0, n)
    ys = [tuple(float(v) for v in row) for row in coords]
    rl = [float(v) for v in r]

    def f_ranges(x):
        total = 0.0
        for k in range(len(rl)):
            e = rl[k] - math.dist(x, ys[k])
            total += e * e
        return total

    return _iterate(xs, ys, n, cfg,
                    lambda x: _sfp_step_core(x, ys, rl, n),
                    f_ranges)
