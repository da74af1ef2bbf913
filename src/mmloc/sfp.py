"""Fixed-point solver for the range least-squares problem.

Minimizing the same kind of quadratic upper bound as the range-difference
solver, but for f_rls, gives an update that is a plain average:

    x^{k+1} = (1/m) sum_i (y_i + r_i w_i),   w_i = (x^k - y_i)/||x^k - y_i||

i.e. each sensor votes for the point at measured range r_i along the ray
from itself through the current iterate, and the iterate moves to the
mean of the votes.  Descent is monotone for nonnegative r_i.

Both solvers run the one loop solvit._mm_loop over a sweep that returns
(f(x), x_next), and return its SolveOutcome, with the iterate history only
when trace is set; see the solvit module docstring for the contract.  An
update is about ten flops per sensor, less than the Python calls that
would wrap it, so for n == 2 the sweep is generated by _sfp_kernel on
solvit._planar_make (which describes it): _sfp_step_core_nd and
objective._f_ranges unrolled into one pass over the sensors, whose norms
give both the cost at x and the update from x, compiled on the first
solve with m sensors.  It must stay bit-identical to them: TestPlanarKernel
in tests/test_sfp.py compares its traces with conftest.reference_iterate
around those two kernels, and tests/test_solve_pins.py pins fixed solves.
n == 3 sweeps with solvit._reference_sweep around the same two kernels.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import SensorSingularityError
from .objective import _f_ranges, _range_inputs
from .scenario import _unit_vectors, as_position
from .solvit import SolveOutcome, SolverConfig, _mm_loop, _planar_make, _reference_sweep


def sfp_surrogate_many(X, x_k, array, ranges) -> np.ndarray:
    """Quadratic bound of f_rls around x_k at each row of X -> (B,)."""
    coords, _, r = _range_inputs(array, ranges)
    _, w = _unit_vectors(as_position(x_k, coords.shape[1]), coords)
    pts = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.zeros(pts.shape[0])
    for k, rk in enumerate(r):
        d = pts - coords[k][None, :]
        out += rk * rk - 2.0 * rk * (d @ w[k]) + np.sum(d * d, axis=1)
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
    coords, ys, r = _range_inputs(array, ranges)
    xk = as_position(x_k, coords.shape[1]).tolist()
    return np.array(_sfp_step_core_nd(xk, ys, r, coords.shape[1]))


# Source template of the generated planar SFP sweep (see _sfp_kernel): the
# cost and update terms of sensor k after its distance.  Only integers are
# filled in.
_SENSOR_TERMS = """\
        e = r_{k} - n_{k}
        f += e * e
        scale = r_{k} / n_{k}
        acc0 += y0_{k} + scale * d0
        acc1 += y1_{k} + scale * d1
"""


@functools.lru_cache(maxsize=16)
def _sfp_kernel(m: int):
    """make(ys, r) -> sweep (see solvit._planar_make) for m sensors: the sweep
    of _reference_sweep(ys, 2, _f_ranges, _sfp_step_core_nd, r), one pass over
    the sensors that gives the cost at x and the update from x.  make also
    binds each sensor's range r_k."""
    r_names = [f"r_{k}" for k in range(m)]
    return _planar_make(m, f"<planar sfp sweep, m={m}>", _f_ranges, bound=r_names,
                        setup=[f"    [{', '.join(r_names)}] = data"],
                        sums=("f", "acc0", "acc1"), terms=_SENSOR_TERMS,
                        tail=[f"        return f, (acc0 / {m}, acc1 / {m})"])


def sfp_solve(x0, array, ranges, cfg: SolverConfig | None = None, *,
              trace: bool = False) -> tuple[np.ndarray, SolveOutcome]:
    """Iterate sfp_step until the shared stopping rule fires.

    x0 defaults to the sensor centroid.  Same sensor-coincidence guard,
    stopping rule, outcome and trace format as the range-difference solver.
    """
    cfg = cfg or SolverConfig()
    coords, ys, r = _range_inputs(array, ranges)
    n = coords.shape[1]
    xs = coords.mean(axis=0) if x0 is None else as_position(x0, n)
    sweep = (_sfp_kernel(len(ys))(ys, r) if n == 2
             else _reference_sweep(ys, n, _f_ranges, _sfp_step_core_nd, r))
    return _mm_loop(xs.tolist(), ys, n, cfg, sweep, _sfp_step_core_nd, r, trace)
