"""Least-squares objectives for range and range-difference localization.

f_rls(x)  = sum_i (r_i - ||x - y_i||)^2
f_rdls(x) = sum over stored pairs of (r_ij - (||x - y_i|| - ||x - y_j||))^2

Both are nonnegative, nonconvex, and non-smooth exactly at the sensor
positions.  One summation order (entry order, from 0.0) serves every cost
and MM step, and one distance every Euclidean distance in the package: the
sqrt of the squared coordinate differences added in coordinate order
(_dists, or np.linalg.norm with axis).  The costs, the MM steps, the
initializer's sensor separations and focal distances, SensorArray's
coincidence check and grad_fd's default step all take it; a norm without
axis, the sqrt of a BLAS dot, would round by the BLAS kernel that loads.
So the *_many variants, which evaluate a batch of points with numpy, equal
f_rls and f_rdls bit for bit, and a start's feasibility filter and its arc
read one separation.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .scenario import RangeDiffSet, _as_real, _as_reals, as_position, sensor_coords


def _check_ranges(ranges, m: int) -> np.ndarray:
    """Ranges as a flat float vector by _as_reals, named "ranges": finite, then m of them."""
    r = _as_reals("ranges", ranges, "ranges must be finite").ravel()
    if r.size != m:
        raise ValueError(f"{r.size} ranges for {m} sensors")
    return r


def _as_points(X, n: int) -> np.ndarray:
    """Evaluation points as a (B, n) float array, by _as_reals: finite, then of
    the array's dimension n, named "points"."""
    pts = np.atleast_2d(_as_reals("points", X, "points must be finite"))
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"points have shape {pts.shape}, expected (B, {n})")
    return pts


def _check_rd(rd: RangeDiffSet, m: int) -> None:
    """Rejects a range-difference set that indexes other than m sensors."""
    if rd.m != m:
        raise ValueError(f"measurement set indexes {rd.m} sensors, array has {m}")


def _range_inputs(array, ranges):
    """(coords, sensor tuples, ranges as floats): the one boundary of every scalar
    range entry, which checks the sensors, then the ranges against them.  The
    entry checks its position after, so each reports its errors in that order."""
    coords = sensor_coords(array)
    r = _check_ranges(ranges, coords.shape[0])
    return coords, list(map(tuple, coords.tolist())), r.tolist()


def _rd_inputs(array, rd: RangeDiffSet):
    """(coords, sensor tuples, 0-based (i, j, r_ij) in stored order): the one
    boundary of every scalar range-difference entry, as _range_inputs."""
    coords = sensor_coords(array)
    _check_rd(rd, coords.shape[0])
    pairs = [(i - 1, j - 1, v) for i, j, v in rd.entries()]
    return coords, list(map(tuple, coords.tolist())), pairs


def _sum(terms):
    """The terms added one after another from 0.0 (rows of an array elementwise);
    the builtin sum() of floats is compensated on Python >= 3.12."""
    return functools.reduce(operator.add, terms, 0.0)


def _dists(x, ys) -> list[float]:
    """||x - y|| for each row y of ys (n = 2 or 3): the sqrt of the squared
    coordinate differences added in coordinate order, written out per n."""
    if len(x) == 2:
        x0, x1 = x
        return [math.sqrt((x0 - a) * (x0 - a) + (x1 - b) * (x1 - b)) for a, b in ys]
    x0, x1, x2 = x
    return [math.sqrt((x0 - a) * (x0 - a) + (x1 - b) * (x1 - b) + (x2 - c) * (x2 - c))
            for a, b, c in ys]


def _f_ranges(x, ys, r):
    """Range cost and the sensor distances at x, scalar arithmetic (entry order).

    x: position; ys: sensor coordinates (rows); r: one range per sensor.
    Returns (value, distances), so a caller can reuse the distances.
    """
    d = _dists(x, ys)
    total = 0.0
    for rk, dk in zip(r, d):
        e = rk - dk
        total += e * e
    return total, d


def _f_pairs(x, ys, pairs):
    """Range-difference cost and the sensor distances at x (entry order).

    pairs: 0-based (i, j, r_ij).  Returns (value, distances).
    """
    d = _dists(x, ys)
    total = 0.0
    for ii, jj, r in pairs:
        e = r - (d[ii] - d[jj])
        total += e * e
    return total, d


def f_rls(x, array, ranges) -> float:
    """Range least-squares cost at x [m^2]."""
    coords, ys, r = _range_inputs(array, ranges)
    return _f_ranges(as_position(x, coords.shape[1]).tolist(), ys, r)[0]


def f_rdls(x, array, rd: RangeDiffSet) -> float:
    """Range-difference least-squares cost at x [m^2], each unordered pair once."""
    coords, ys, pairs = _rd_inputs(array, rd)
    return _f_pairs(as_position(x, coords.shape[1]).tolist(), ys, pairs)[0]


def f_rls_many(X, array, ranges) -> np.ndarray:
    """f_rls evaluated at each row of X, shape (B, n) -> (B,)."""
    coords = sensor_coords(array)
    pts = _as_points(X, coords.shape[1])
    r = _check_ranges(ranges, coords.shape[0])
    res = r[:, None] - np.linalg.norm(pts[None, :, :] - coords[:, None, :], axis=2)
    return _sum(res * res)


def _rd_costs(pts, coords, i0, j0, values) -> np.ndarray:
    """f_rdls at pts (B, L, n) for B sets given as 0-based i0, j0 and values,
    each (B, P) -> (B, L).  The distances round as _dists does, and each
    point's squared residuals are added in the set's stored pair order, as
    _f_pairs adds them."""
    B, L, n = pts.shape
    diffs = (pts[:, None, :, t] - coords[None, :, t, None] for t in range(n))
    D = np.sqrt(_sum(d * d for d in diffs))  # (B, m, L)
    b = np.arange(B)
    res = (values[:, p, None] - (D[b, i0[:, p]] - D[b, j0[:, p]]) for p in range(i0.shape[1]))
    return _sum(e * e for e in res)


def f_rdls_many(X, array, rd: RangeDiffSet) -> np.ndarray:
    """f_rdls evaluated at each row of X, shape (B, n) -> (B,)."""
    coords = sensor_coords(array)
    pts = _as_points(X, coords.shape[1])
    _check_rd(rd, coords.shape[0])
    return _rd_costs(pts[None], coords, (rd.i - 1)[None], (rd.j - 1)[None],
                     rd.values[None])[0]


def grad_fd(f, x, h: float | None = None, sensors=None) -> np.ndarray:
    """Central-difference gradient of a scalar objective closure.

    Args:
        f: callable taking a position vector and returning a float.
        x: evaluation point.
        h: step size [m]; defaults to 1e-6 * (1 + ||x||), which balances
           truncation against rounding for smooth objectives.
        sensors: optional SensorArray or coordinate array.  When given, x
           must be farther than h from every sensor; the objectives are
           non-smooth there and the stencil would straddle the kink.

    Returns:
        gradient vector, same length as x.
    """
    p = as_position(x)
    if h is None:
        h = 1e-6 * (1.0 + float(np.linalg.norm(p, axis=0)))
    _as_real("h", h, 0)
    if sensors is not None:
        coords = sensor_coords(sensors)
        dmin = float(np.min(np.linalg.norm(p - coords, axis=1)))
        if dmin <= h:
            raise ValueError(
                f"x is within {dmin:.3e} m of a sensor (< step {h:.3e}); "
                "gradient stencil would straddle a non-smooth point"
            )
    g = np.zeros_like(p)
    for k in range(p.size):
        step = np.zeros_like(p)
        step[k] = h
        g[k] = (f(p + step) - f(p - step)) / (2.0 * h)
    return g
