"""Fixed-point solver for the range least-squares problem.

Minimizing the same kind of quadratic upper bound as the range-difference
solver, but for f_rls, gives an update that is a plain average:

    x^{k+1} = (1/m) sum_i (y_i + r_i w_i),   w_i = (x^k - y_i)/||x^k - y_i||

i.e. each sensor votes for the point at measured range r_i along the ray
from itself through the current iterate, and the iterate moves to the
mean of the votes.  Descent is monotone for nonnegative r_i.  The update
is one pass over the sensors: each distance comes from objective._dists,
and the first sensor x sits on ends the step.

Both solvers run the one loop solvit._mm_loop and return its
SolveOutcome, with the iterate history only when trace is set; see the
solvit module docstring for the contract.  An update is about ten flops
per sensor, less than the Python call, tuples and loop bookkeeping of one
iteration of _mm_loop, so for n == 2 the iterations run in a loop generated
by _sfp_kernel on solvit._planar_make (which describes it):
_sfp_step_core_nd and objective._f_ranges unrolled into one pass over the
sensors per iteration, whose norms give both the cost at x and the update
from x, with the stop rule inline, compiled on the first solve with m
sensors.  It must stay bit-identical to them: from any iterate, each
iteration it takes has the cost, the update and the stop that _mm_loop
gives with those two kernels, so a solve's outcome and trace are the same
bits whichever loop takes its iterations.  n == 3 takes every iteration in
_mm_loop, which calls those two kernels itself.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import SensorSingularityError
from .objective import _as_points, _dists, _f_ranges, _range_inputs
from .scenario import _unit_vectors, as_position
from .solvit import SolveOutcome, SolverConfig, _mm_loop, _planar_make


def sfp_surrogate_many(X, x_k, array, ranges) -> np.ndarray:
    """Quadratic bound of f_rls around x_k at each row of X -> (B,)."""
    coords, _, r = _range_inputs(array, ranges)
    _, w = _unit_vectors(as_position(x_k, coords.shape[1]), coords)
    pts = _as_points(X, coords.shape[1])
    out = np.zeros(pts.shape[0])
    for k, rk in enumerate(r):
        d = pts - coords[k][None, :]
        out += rk * rk - 2.0 * rk * (d @ w[k]) + np.sum(d * d, axis=1)
    return out


def sfp_surrogate(x, x_k, array, ranges) -> float:
    """Quadratic bound of f_rls around x_k at a single point."""
    return float(sfp_surrogate_many([x], x_k, array, ranges)[0])


def _sfp_step_core_nd(x: list[float], ys, r: list[float], n: int) -> list[float]:
    """The update for n = 2 or 3; the reference the planar kernel must match.

    One pass over the sensors reads each distance d_k from _dists, raises
    SensorSingularityError at the first d_k of 0, and adds
    y_k + (r_k / d_k)(x - y_k) in sensor order; the sum is divided by m."""
    rho = _dists(x, ys)
    acc = [0.0] * n
    for k, (y, rk, dk) in enumerate(zip(ys, r, rho)):
        if dk <= 0.0:
            raise SensorSingularityError(k + 1)
        for t in range(n):
            acc[t] += y[t] + (rk / dk) * (x[t] - y[t])
    return [a / len(ys) for a in acc]


def sfp_step(x_k, array, ranges) -> np.ndarray:
    """One fixed-point update: the mean of per-sensor range projections."""
    coords, ys, r = _range_inputs(array, ranges)
    xk = as_position(x_k, coords.shape[1]).tolist()
    return np.array(_sfp_step_core_nd(xk, ys, r, coords.shape[1]))


# Source template of the generated planar SFP loop (see _sfp_kernel): the
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
    """make(ys, r) -> run (see solvit._planar_make) for m sensors: the
    iterations _mm_loop takes with _f_ranges and _sfp_step_core_nd on
    (ys, r), one pass over the sensors per iteration that gives the cost at
    x and the update from x.  make also binds each sensor's range r_k."""
    r_names = [f"r_{k}" for k in range(m)]
    return _planar_make(m, f"<planar sfp loop, m={m}>", bound=r_names,
                        setup=[f"    [{', '.join(r_names)}] = data"],
                        sums=("f", "acc0", "acc1"), terms=_SENSOR_TERMS,
                        tail=[f"            nx0 = acc0 / {m}", f"            nx1 = acc1 / {m}"])


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
    return _mm_loop(xs.tolist(), ys, cfg, _f_ranges, _sfp_step_core_nd, r, trace,
                    _sfp_kernel(len(ys))(ys, r) if n == 2 else None)
