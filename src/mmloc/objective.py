"""Least-squares objectives for range and range-difference localization.

f_rls(x)  = sum_i (r_i - ||x - y_i||)^2
f_rdls(x) = sum over stored pairs of (r_ij - (||x - y_i|| - ||x - y_j||))^2

Both are nonnegative, nonconvex, and non-smooth exactly at the sensor
positions.  Scalar evaluators accumulate in entry order with plain
floating-point sums; the *_many variants evaluate a batch of points with
numpy and exist for grid searches and property tests.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import RangeDiffSet, as_position, sensor_coords


def _check_ranges(ranges, m: int) -> np.ndarray:
    """Ranges as a flat float vector of length m; rejects NaN and inf."""
    r = np.asarray(ranges, dtype=float).reshape(-1)
    if r.size != m:
        raise ValueError(f"{r.size} ranges for {m} sensors")
    if not np.all(np.isfinite(r)):
        raise ValueError("ranges must be finite")
    return r


def _f_ranges(x, ys, r):
    """Range cost and the sensor distances at x, scalar arithmetic (entry order).

    x: position; ys: sensor coordinates (rows); r: one range per sensor.
    Returns (value, distances), so a caller can reuse the distances.
    """
    d = [math.dist(x, y) for y in ys]
    total = 0.0
    for k in range(len(d)):
        e = r[k] - d[k]
        total += e * e
    return total, d


def _f_pairs(x, ys, pairs):
    """Range-difference cost and the sensor distances at x (entry order).

    pairs: 0-based (i, j, r_ij).  Returns (value, distances).
    """
    d = [math.dist(x, y) for y in ys]
    total = 0.0
    for (ii, jj, r) in pairs:
        e = r - (d[ii] - d[jj])
        total += e * e
    return total, d


def f_rls(x, array, ranges) -> float:
    """Range least-squares cost at x [m^2]."""
    coords = sensor_coords(array)
    p = as_position(x, coords.shape[1])
    return _f_ranges(p, coords, _check_ranges(ranges, coords.shape[0]))[0]


def f_rdls(x, array, rd: RangeDiffSet) -> float:
    """Range-difference least-squares cost at x [m^2], each unordered pair once."""
    coords = sensor_coords(array)
    p = as_position(x, coords.shape[1])
    if rd.m != coords.shape[0]:
        raise ValueError(f"measurement set indexes {rd.m} sensors, array has {coords.shape[0]}")
    return _f_pairs(p, coords, [(i - 1, j - 1, v) for i, j, v in rd.entries()])[0]


def f_rls_many(X, array, ranges) -> np.ndarray:
    """f_rls evaluated at each row of X, shape (B, n) -> (B,)."""
    coords = sensor_coords(array)
    pts = np.atleast_2d(np.asarray(X, dtype=float))
    r = _check_ranges(ranges, coords.shape[0])
    D = np.linalg.norm(pts[:, None, :] - coords[None, :, :], axis=2)
    return np.sum((r[None, :] - D) ** 2, axis=1)


def f_rdls_many(X, array, rd: RangeDiffSet) -> np.ndarray:
    """f_rdls evaluated at each row of X, shape (B, n) -> (B,)."""
    coords = sensor_coords(array)
    pts = np.atleast_2d(np.asarray(X, dtype=float))
    if rd.m != coords.shape[0]:
        raise ValueError(f"measurement set indexes {rd.m} sensors, array has {coords.shape[0]}")
    D = np.linalg.norm(pts[:, None, :] - coords[None, :, :], axis=2)
    res = rd.values[None, :] - (D[:, rd.i - 1] - D[:, rd.j - 1])
    return np.sum(res ** 2, axis=1)


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
        h = 1e-6 * (1.0 + float(np.linalg.norm(p)))
    if not h > 0:
        raise ValueError("step h must be > 0")
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
