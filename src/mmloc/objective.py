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


def f_rls(x, array, ranges) -> float:
    """Range least-squares cost at x [m^2]."""
    coords = sensor_coords(array)
    p = as_position(x, coords.shape[1])
    r = np.asarray(ranges, dtype=float).reshape(-1)
    if r.size != coords.shape[0]:
        raise ValueError(f"{r.size} ranges for {coords.shape[0]} sensors")
    if not np.all(np.isfinite(r)):
        raise ValueError("ranges must be finite")
    total = 0.0
    for k in range(r.size):
        e = r[k] - math.dist(p, coords[k])
        total += e * e
    return total


def f_rdls(x, array, rd: RangeDiffSet) -> float:
    """Range-difference least-squares cost at x [m^2], each unordered pair once."""
    coords = sensor_coords(array)
    p = as_position(x, coords.shape[1])
    if rd.m != coords.shape[0]:
        raise ValueError(f"measurement set indexes {rd.m} sensors, array has {coords.shape[0]}")
    d = [math.dist(p, coords[k]) for k in range(coords.shape[0])]
    total = 0.0
    for i, j, v in rd.entries():
        e = v - (d[i - 1] - d[j - 1])
        total += e * e
    return total


def f_rls_many(X, array, ranges) -> np.ndarray:
    """f_rls evaluated at each row of X, shape (B, n) -> (B,)."""
    coords = sensor_coords(array)
    pts = np.atleast_2d(np.asarray(X, dtype=float))
    r = np.asarray(ranges, dtype=float).reshape(-1)
    if r.size != coords.shape[0]:
        raise ValueError(f"{r.size} ranges for {coords.shape[0]} sensors")
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
