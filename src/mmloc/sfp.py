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
would wrap it, so for n == 2 the sweep is _sfp_sweep_2d:
_sfp_step_core_nd and objective._f_ranges unrolled into one pass over the
sensors, whose norms give both the cost at x and the update from x, with
the same floating-point operations in the same order.  That pass is
generated as straight-line Python source, one block per sensor, and
compiled on the first solve with m sensors (_sfp_kernel, a bounded cache,
on the helpers of solvit's generated sweep); each solve binds its
coordinates and ranges as arguments, so the source holds only indices
and m.  It must stay bit-identical to them: TestPlanarKernel in
tests/test_sfp.py compares its traces with conftest.reference_iterate
around those two kernels, and tests/test_solve_pins.py pins fixed solves.
n == 3 sweeps with solvit._reference_sweep around the same two kernels.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import SensorSingularityError
from .objective import _check_ranges, _f_ranges
from .scenario import _unit_vectors, as_position, sensor_coords
from .solvit import (SolveOutcome, SolverConfig, _compile_make, _mm_loop, _reference_sweep,
                     _unpack_sensors)


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


# Source template of the generated planar sweep (see _sfp_kernel): the cost
# and update terms of sensor k.  Only integers are filled in.
_SENSOR_TERMS = """\
        d0 = x0 - y0_{k}
        d1 = x1 - y1_{k}
        nrm = sqrt(d0 * d0 + d1 * d1)
        if nrm < guard:
            return _f_ranges(x, ys, r)[0], None
        e = r_{k} - nrm
        f += e * e
        scale = r_{k} / nrm
        acc0 += y0_{k} + scale * d0
        acc1 += y1_{k} + scale * d1
"""


@functools.lru_cache(maxsize=16)
def _sfp_kernel(m: int):
    """make(ys, r) -> sweep, compiled for m sensors; make binds each
    sensor's coordinates and range as defaults of sweep."""
    bound = [f"{v}_{k}" for k in range(m) for v in ("y0", "y1", "r")] + ["ys", "r"]
    lines = ["def make(ys, r):", _unpack_sensors(m),
             f"    [{', '.join(f'r_{k}' for k in range(m))}] = r",
             f"    def sweep(x, {', '.join(f'{v}={v}' for v in bound)},"
             " sqrt=sqrt, guard=_SENSOR_GUARD):",
             "        x0, x1 = x",
             "        f = acc0 = acc1 = 0.0"]
    lines += [_SENSOR_TERMS.format(k=k) for k in range(m)]
    lines += [f"        return f, (acc0 / {m}, acc1 / {m})", "    return sweep"]
    return _compile_make(lines, f"<planar sfp sweep, m={m}>", _f_ranges=_f_ranges)


def _sfp_sweep_2d(ys, r: list[float]):
    """_reference_sweep(ys, 2, _f_ranges, _sfp_step_core_nd, r), unrolled.

    The same floating-point operations in the same order, so every trace
    is bit-identical; one pass over the sensors gives the cost at x and the
    update from x.  At a sensor within the guard the cost comes from
    _f_ranges and x_next is None.  The pass is generated straight-line,
    with no loop, tuple or index, and compiled once per sensor count by
    _sfp_kernel.
    """
    return _sfp_kernel(len(ys))(ys, r)


def sfp_solve(x0, array, ranges, cfg: SolverConfig | None = None, *,
              trace: bool = False) -> tuple[np.ndarray, SolveOutcome]:
    """Iterate sfp_step until the shared stopping rule fires.

    x0 defaults to the sensor centroid.  Same sensor-coincidence guard,
    stopping rule, outcome and trace format as the range-difference solver.
    """
    cfg = cfg or SolverConfig()
    coords = sensor_coords(array)
    n = coords.shape[1]
    r = _check_ranges(ranges, coords.shape[0])
    xs = coords.mean(axis=0) if x0 is None else as_position(x0, n)
    ys = list(map(tuple, coords.tolist()))
    rl = r.tolist()
    sweep = (_sfp_sweep_2d(ys, rl) if n == 2
             else _reference_sweep(ys, n, _f_ranges, _sfp_step_core_nd, rl))
    return _mm_loop(xs.tolist(), ys, n, cfg, sweep, _sfp_step_core_nd, rl, trace)
