"""Starting-point selection by grid search along one measurement hyperbola.

A range-difference measurement r_ij constrains the source to one branch
of a hyperbola with foci y_i and y_j (the branch nearer y_j, because the
stored value ||x - y_i|| - ||x - y_j|| = r_ij is nonnegative).  One stored
pair is chosen uniformly at random, l points are placed along that branch
uniformly in the hyperbolic angle, clipped to a bounding box, and the
point with the smallest range-difference cost is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMeasurementError, RayMeasurementError
from .objective import _check_rd, f_rdls_many
from .scenario import RangeDiffSet, _as_count, as_position, sensor_coords


@dataclass(frozen=True)
class InitConfig:
    grid_size: int = 128       # points evaluated along the chosen hyperbola
    coord_bound: float | None = None  # search box half-width [m]; default 2*max|coord|
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "grid_size", _as_count("grid_size", self.grid_size, 2))
        if self.coord_bound is not None and not 0 < self.coord_bound < math.inf:
            raise ValueError("coord_bound must be finite and > 0")


def _exit_angle(center, along, across, bound: float) -> float:
    """Smallest t >= 0 at which center + along*cosh(t) + across*sinh(t)
    leaves the box |x_k| <= bound, for a start (t = 0) inside the box.

    With z = e^t, coordinate k meets the edge e = +-bound where

        (A + S) z^2 + 2 (c_k - e) z + (A - S) = 0,   A = along_k, S = across_k.

    Each quadratic is solved in the cancellation-free form (q = -(h +
    sign(h) sqrt(h^2 - (A+S)(A-S))), roots q/(A+S) and (A-S)/q), whose
    second root is also the root of the linear case A + S = 0.  A root
    z >= 1 is an exit when the coordinate moves outward there, i.e. when
    (A+S) z^2 - (A-S) has the sign of e.  The branch is unbounded (along
    and across are orthogonal and not both zero), so an exit always exists.
    """
    z_exit = math.inf
    for c, A, S in zip(center, along, across):
        lead, const = A + S, A - S
        for edge in (bound, -bound):
            h = c - edge
            disc = h * h - lead * const
            if disc < 0.0:
                continue
            q = -(h + math.copysign(math.sqrt(disc), h))
            roots = (q / lead if lead != 0.0 else math.inf,
                     const / q if q != 0.0 else math.inf)
            for z in roots:
                if 1.0 <= z < z_exit and (lead * z * z > const) == (edge > 0.0):
                    z_exit = z
    return math.log(z_exit)


def hyperbola_points(y_i, y_j, r_ij: float, l: int, coord_bound: float) -> np.ndarray:
    """l points on the branch where ||x - y_i|| - ||x - y_j|| = r_ij (n=2 only).

    Canonical form: semi-transverse a = r_ij/2, focal half-distance
    c = ||y_i - y_j||/2, b^2 = c^2 - a^2, parameterized as
    center + a*cosh(t)*u + b*sinh(t)*p with u the unit vector from y_i to
    y_j and p perpendicular to it.  r_ij = 0 degenerates to the
    perpendicular bisector.  The angle t is sampled uniformly over the
    largest interval around the vertex (t = 0) that keeps every point
    inside ||x||_inf <= coord_bound; its ends are the closed-form angles
    at which the branch first leaves the box on either side (_exit_angle).
    """
    yi = as_position(y_i)
    yj = as_position(y_j)
    if yi.size != 2 or yj.size != 2:
        raise ValueError("hyperbola sampling is 2-D only")
    l = _as_count("l", l, 2)
    if not coord_bound > 0:
        raise ValueError("coord_bound must be > 0")
    if r_ij < 0:
        raise ValueError("r_ij must be >= 0")
    foc = float(np.linalg.norm(yj - yi))
    if r_ij == foc:
        raise RayMeasurementError(
            f"range difference {r_ij} equals the focal distance; the locus is a ray"
        )
    if r_ij > foc:
        raise DegenerateMeasurementError(
            f"range difference {r_ij} exceeds the focal distance {foc}"
        )
    a = r_ij / 2.0
    c = foc / 2.0
    b = math.sqrt(c * c - a * a)
    center = (yi + yj) / 2.0
    u = (yj - yi) / foc
    p = np.array([-u[1], u[0]])
    c_xy, along, across = center.tolist(), (a * u).tolist(), (b * p).tolist()
    if max(abs(c_xy[0] + along[0]), abs(c_xy[1] + along[1])) > coord_bound:
        raise ValueError("hyperbola vertex lies outside the search box; "
                         "increase coord_bound")
    t_lo = _exit_angle(c_xy, along, [-v for v in across], coord_bound)
    t_hi = _exit_angle(c_xy, along, across, coord_bound)
    # np.linspace(-t_lo, t_hi, l), same arithmetic without its call overhead
    ts = np.arange(l, dtype=float)
    ts *= (t_hi + t_lo) / (l - 1)
    ts -= t_lo
    ts[-1] = t_hi
    return (center[None, :]
            + a * np.cosh(ts)[:, None] * u[None, :]
            + b * np.sinh(ts)[:, None] * p[None, :])


def _grid_fallback(coords: np.ndarray, rd: RangeDiffSet, l: int,
                   bound: float) -> np.ndarray:
    """Coarse mesh argmin over the box, used when no pair gives a hyperbola
    and for 3-D problems (the hyperbola scheme is planar)."""
    n = coords.shape[1]
    side = max(2, int(round(l ** (1.0 / n))))
    axes = [np.linspace(-bound, bound, side)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    return _best_sample(pts, coords, rd, bound)


def _best_sample(pts: np.ndarray, coords: np.ndarray, rd: RangeDiffSet,
                 bound: float) -> np.ndarray:
    """The row of pts with the lowest f_rdls, which must be finite: in a
    box too large for float arithmetic the samples or their costs overflow."""
    vals = f_rdls_many(pts, coords, rd)
    k = int(np.argmin(vals))
    if not math.isfinite(vals[k]):
        raise ValueError(f"coord_bound={bound!r} is too large: the cost at the "
                         "best sample is not finite")
    return pts[k]


def init_point(array, rd: RangeDiffSet, cfg: InitConfig | None = None) -> np.ndarray:
    """Pick a starting point for the range-difference solver.

    Chooses one stored pair uniformly at random (seeded), samples
    cfg.grid_size points on its hyperbola, and returns the sample with
    the lowest f_rdls.  Pairs whose value is geometrically infeasible
    (>= the sensor separation, which noise can produce) are excluded from
    the draw; if none remain, or for n=3, a coarse grid over the box is
    searched instead.
    """
    cfg = cfg or InitConfig()
    coords = sensor_coords(array)
    _check_rd(rd, coords.shape[0])
    bound = cfg.coord_bound
    if bound is None:
        bound = 2.0 * float(np.max(np.abs(coords)))
        if bound <= 0:
            bound = 1.0
    if coords.shape[1] != 2:
        return _grid_fallback(coords, rd, cfg.grid_size, bound)
    sep = np.linalg.norm(coords[rd.i - 1] - coords[rd.j - 1], axis=1)
    feasible = np.flatnonzero(rd.values < sep)
    if feasible.size == 0:
        return _grid_fallback(coords, rd, cfg.grid_size, bound)
    rng = np.random.default_rng(cfg.seed)
    k = feasible[int(rng.integers(feasible.size))]
    try:
        pts = hyperbola_points(coords[rd.i[k] - 1], coords[rd.j[k] - 1],
                               float(rd.values[k]), cfg.grid_size, bound)
    except (ValueError, DegenerateMeasurementError):
        # a tight user-supplied box can exclude the branch vertex; a value
        # within rounding of the separation can pass the row-wise-norm filter
        # yet be a ray for hyperbola_points' vector norm
        return _grid_fallback(coords, rd, cfg.grid_size, bound)
    return _best_sample(pts, coords, rd, bound)
