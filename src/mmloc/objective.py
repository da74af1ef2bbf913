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


def _check_rd(rd: RangeDiffSet, m: int) -> None:
    """Rejects a range-difference set that indexes other than m sensors."""
    if rd.m != m:
        raise ValueError(f"measurement set indexes {rd.m} sensors, array has {m}")


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
    _check_rd(rd, coords.shape[0])
    return _f_pairs(p, coords, [(i - 1, j - 1, v) for i, j, v in rd.entries()])[0]


def f_rls_many(X, array, ranges) -> np.ndarray:
    """f_rls evaluated at each row of X, shape (B, n) -> (B,)."""
    coords = sensor_coords(array)
    pts = np.atleast_2d(np.asarray(X, dtype=float))
    r = _check_ranges(ranges, coords.shape[0])
    D = np.linalg.norm(pts[:, None, :] - coords[None, :, :], axis=2)
    return np.sum((r[None, :] - D) ** 2, axis=1)


def _rd_costs(pts, coords, i0, j0, values) -> np.ndarray:
    """f_rdls at pts (B, L, n) for B sets given as 0-based i0, j0 and values,
    each (B, P) -> (B, L).  Distances add the squares as np.linalg.norm
    does; residuals lie (B, P, L), points innermost like the one-set gather
    D[:, i], so np.sum rounds each point's sum as that formula did."""
    B, L, n = pts.shape
    m = coords.shape[0]
    d = pts[:, None, :, 0] - coords[None, :, 0, None]
    sq = d * d
    for t in range(1, n):
        d = pts[:, None, :, t] - coords[None, :, t, None]
        sq += d * d
    D = np.sqrt(sq).reshape(B * m, L)
    first = np.arange(0, B * m, m)[:, None]  # row of each set's first sensor in D
    res = values[:, :, None] - (D[first + i0] - D[first + j0])
    return np.sum(res ** 2, axis=1)


def f_rdls_many(X, array, rd: RangeDiffSet) -> np.ndarray:
    """f_rdls evaluated at each row of X, shape (B, n) -> (B,)."""
    coords = sensor_coords(array)
    pts = np.atleast_2d(np.asarray(X, dtype=float))
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
