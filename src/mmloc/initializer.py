"""Starting-point selection by grid search along one measurement hyperbola.

A range-difference measurement r_ij constrains the source to one branch
of a hyperbola with foci y_i and y_j (the branch nearer y_j, because the
stored value ||x - y_i|| - ||x - y_j|| = r_ij is nonnegative).  One stored
pair is chosen uniformly at random, l points are placed along that branch
uniformly in the hyperbolic angle, clipped to a bounding box, and the
point with the smallest range-difference cost is returned.

init_points does this for many measurement sets at once (an RMSE sweep's
trials), bit for bit as init_point on each; init_point is init_points on
one row, and hyperbola_points and f_rdls_many share its arc, sample and cost
code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMeasurementError, RayMeasurementError
from .objective import _check_rd, _rd_costs, f_rdls_many
from .scenario import RangeDiffSet, _as_count, _as_real, _freeze, as_position, sensor_coords

# bound on the float64s in the largest temporary of one init_points chunk
# (16 MB): a row counts l * max(m, pairs), at least the l * m of its distances
_CHUNK_FLOATS = 1 << 21
_TOO_LARGE = "coord_bound={!r} is too large: the cost at the best sample is not finite"


@dataclass(frozen=True)
class InitConfig:
    grid_size: int = 128       # points evaluated along the chosen hyperbola
    coord_bound: float | None = None  # search box half-width [m]; default 2*max|coord|
    seed: int | np.random.SeedSequence | None = None  # seeds the pair pick

    def __post_init__(self):
        _freeze(self, grid_size=_as_count("grid_size", self.grid_size, 2))
        if self.seed is not None and not isinstance(self.seed, np.random.SeedSequence):
            _freeze(self, seed=_as_count("seed", self.seed, 0))
        if self.coord_bound is not None:
            _as_real("coord_bound", self.coord_bound, 0)


def _exit_z(center, along, across, bound) -> np.ndarray:
    """Per row of the (B, 2) arrays center and along, e^t at the smallest
    t >= 0 at which center + along*cosh(t) + across*sinh(t) leaves the box
    |x_k| <= bound, for a start (t = 0) inside the box.

    With z = e^t, coordinate k meets the edge e = +-bound where

        (A + S) z^2 + 2 (c_k - e) z + (A - S) = 0,   A = along_k, S = across_k.

    Each quadratic is solved in the cancellation-free form (q = -(h +
    sign(h) sqrt(h^2 - (A+S)(A-S))), roots q/(A+S) and (A-S)/q), whose
    second root is also the root of the linear case A + S = 0.  A root
    z >= 1 is an exit when the coordinate moves outward there, i.e. when
    (A+S) z^2 - (A-S) has the sign of e.  The branch is unbounded (along
    and across are orthogonal and not both zero), so an exit always exists.
    across stacks K such directions, (K, B, 2), and the result is (K, B).
    Every (root, edge, direction, row, coordinate) is one lane; the lanes of
    a negative discriminant or a zero divisor are masked out, so their NaNs
    and infinities raise no warning.
    """
    edge = np.array([bound, -bound], dtype=float)[:, None, None, None]
    lead, const = along + across, along - across
    with np.errstate(all="ignore"):
        h = center - edge
        disc = h * h - lead * const
        q = -(h + np.copysign(np.sqrt(disc), h))
        z = np.stack([np.where(lead != 0.0, q / lead, math.inf),
                      np.where(q != 0.0, const / q, math.inf)])
        exit_ = ~(disc < 0.0) & (1.0 <= z) & ((lead * z * z > const) == (edge > 0.0))
    return np.where(exit_, z, math.inf).min(axis=(0, 1, 4))


def _arcs(yi, yj, foc, r, bound):
    """The branches ||x - y_i|| - ||x - y_j|| = r, one per row (yi, yj:
    (B, 2); foc = ||y_j - y_i|| and r: (B,), 0 <= r < foc), as (arcs, kept):
    arcs holds (center, u, a, b, t_lo, t_hi) in 8 columns for the rows kept,
    whose indices kept lists in order.

    Canonical form: center + a*cosh(t)*u + b*sinh(t)*p with a = r/2,
    b^2 = (foc/2)^2 - a^2, u the unit vector from y_i to y_j, p = (-u_1, u_0).
    [-t_lo, t_hi] is the largest interval around the vertex (t = 0) inside
    ||x||_inf <= bound (_exit_z; infinite if the box overflows floats).  A
    row has no arc when its vertex lies outside the box.  The arithmetic is
    the scalar formulas' per element; the angles take math.log per row.
    """
    a = r / 2.0
    c = foc / 2.0
    b = np.sqrt(c * c - a * a)
    center = (yi + yj) / 2.0
    u = (yj - yi) / foc[:, None]
    along = a[:, None] * u
    across = b[:, None] * np.stack([-u[:, 1], u[:, 0]], axis=1)
    vertex = center + along
    kept = np.flatnonzero(~(np.maximum(np.abs(vertex[:, 0]), np.abs(vertex[:, 1])) > bound))
    center, u, a, b, along, across = (v[kept] for v in (center, u, a, b, along, across))
    t_lo, t_hi = ([math.log(z) for z in zs]
                  for zs in _exit_z(center, along, np.stack([-across, across]), bound).tolist())
    return np.column_stack([center, u, a, b, t_lo, t_hi]), kept


def _arc_samples(arcs, l: int, bound: float) -> np.ndarray:
    """l points on each row of _arcs, uniform in the angle: (B, l, 2), all finite."""
    center, u = arcs[:, 0:2], arcs[:, 2:4]
    a, b, t_lo, t_hi = arcs[:, 4:].T
    p = np.stack([-u[:, 1], u[:, 0]], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        ts = np.arange(l, dtype=float) * ((t_hi + t_lo) / (l - 1))[:, None]
        ts -= t_lo[:, None]
        ts[:, -1] = t_hi
        pts = (center[:, None, :]
               + (a[:, None] * np.cosh(ts))[:, :, None] * u[:, None, :]
               + (b[:, None] * np.sinh(ts))[:, :, None] * p[:, None, :])
    if not np.isfinite(pts).all():
        raise ValueError(_TOO_LARGE.format(bound))
    return pts


def hyperbola_points(y_i, y_j, r_ij: float, l: int, coord_bound: float) -> np.ndarray:
    """l points on the branch where ||x - y_i|| - ||x - y_j|| = r_ij (n=2 only).

    Uniform in the hyperbolic angle over the largest arc around the vertex
    inside ||x||_inf <= coord_bound (_arcs); r_ij = 0 gives the bisector.
    """
    yi = as_position(y_i)
    yj = as_position(y_j)
    if yi.size != 2 or yj.size != 2:
        raise ValueError("hyperbola sampling is 2-D only")
    l = _as_count("l", l, 2)
    _as_real("coord_bound", coord_bound, 0)
    if not _as_real("r_ij", r_ij) >= 0:  # NaN too
        raise ValueError("r_ij must be >= 0")
    foc = float(np.linalg.norm(yj - yi, axis=0))  # init_points' separation, bit for bit
    if r_ij == foc:
        raise RayMeasurementError(
            f"range difference {r_ij} equals the focal distance; the locus is a ray"
        )
    if r_ij > foc:
        raise DegenerateMeasurementError(
            f"range difference {r_ij} exceeds the focal distance {foc}"
        )
    arcs, _ = _arcs(yi[None], yj[None], np.array([foc]), np.array([float(r_ij)]), coord_bound)
    if not len(arcs):
        raise ValueError("hyperbola vertex lies outside the search box; increase coord_bound")
    return _arc_samples(arcs, l, coord_bound)[0]


def _best_rows(pts: np.ndarray, vals: np.ndarray, bound: float) -> np.ndarray:
    """Per row, the sample of pts (B, L, n) with the lowest cost in vals
    (B, L), which must be finite (a box too large for floats overflows)."""
    k = np.argmin(vals, axis=1)
    rows = np.arange(k.size)
    if not np.isfinite(vals[rows, k]).all():
        raise ValueError(_TOO_LARGE.format(bound))
    return pts[rows, k]


def _grid_fallback(coords: np.ndarray, rd: RangeDiffSet, l: int,
                   bound: float) -> np.ndarray:
    """Coarse mesh argmin over the box, used when no pair gives a hyperbola
    and for 3-D problems (the hyperbola scheme is planar)."""
    n = coords.shape[1]
    side = max(2, int(round(l ** (1.0 / n))))
    axes = [np.linspace(-bound, bound, side)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f_rdls_many(pts, coords, rd)
    return _best_rows(pts[None], vals[None], bound)[0]


def _draw(seed, count: int, memo: dict) -> int:
    """default_rng(seed).integers(count), kept in memo for an integer seed."""
    if not isinstance(seed, (int, np.integer)):
        return int(np.random.default_rng(seed).integers(count))
    if (seed, count) not in memo:
        memo[seed, count] = int(np.random.default_rng(seed).integers(count))
    return memo[seed, count]


def init_points(array, rds, seeds, cfg: InitConfig | None = None) -> np.ndarray:
    """Starting points for many range-difference sets on one array, (B, n).

    Row b is init_point(array, rds[b], InitConfig(seed=seeds[b], grid_size=
    cfg.grid_size, coord_bound=cfg.coord_bound)) bit for bit.  The
    feasibility filter, the pair pick and the arcs are array passes over
    the rows, with one seeded draw per row; rows with no usable arc (or
    n = 3) take the grid fallback, and the others' samples, costs and argmin
    run as one numpy pass, _CHUNK_FLOATS at a time.
    """
    cfg = cfg or InitConfig()
    if len(rds) != len(seeds):
        raise ValueError(f"{len(rds)} measurement sets for {len(seeds)} seeds")
    coords = sensor_coords(array)
    m, n = coords.shape
    l = cfg.grid_size
    bound = cfg.coord_bound
    if bound is None:
        bound = 2.0 * float(np.max(np.abs(coords)))
        if bound <= 0:
            bound = 1.0
    for rd in rds:
        _check_rd(rd, m)
    out = np.empty((len(rds), n))
    rows = np.zeros(0, dtype=int)
    if n == 2 and rds:
        I = np.stack([rd.i for rd in rds]) - 1
        J = np.stack([rd.j for rd in rds]) - 1
        V = np.stack([rd.values for rd in rds])
        # the one separation: the feasibility filter's and the arcs' focal distance
        sep = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
        feasible = V < sep[I, J]
        counts = feasible.sum(axis=1).tolist()
        memo = {}
        cand = np.array([b for b, count in enumerate(counts) if count], dtype=int)
        draw = [_draw(seeds[b], counts[b], memo) for b in cand.tolist()]
        # each candidate row's pick is its draw-th feasible pair
        k = np.argmax(np.cumsum(feasible[cand], axis=1) > np.array(draw)[:, None], axis=1)
        i, j = I[cand, k], J[cand, k]
        # a tight user-supplied box can exclude the branch vertex: such a row takes the grid
        arcs, kept = _arcs(coords[i], coords[j], sep[i, j], V[cand, k], bound)
        rows = cand[kept]
    fallback = np.ones(len(rds), dtype=bool)
    fallback[rows] = False
    for b in np.flatnonzero(fallback).tolist():
        out[b] = _grid_fallback(coords, rds[b], l, bound)
    chunk = max(1, _CHUNK_FLOATS // (l * max(m, m * (m - 1) // 2)))  # n == 2 here
    for s in range(0, len(rows), chunk):
        part = rows[s:s + chunk]
        pts = _arc_samples(arcs[s:s + chunk], l, bound)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _rd_costs(pts, coords, I[part], J[part], V[part])
        out[part] = _best_rows(pts, vals, bound)
    return out


def init_point(array, rd: RangeDiffSet, cfg: InitConfig | None = None) -> np.ndarray:
    """Pick a starting point for the range-difference solver.

    Chooses one stored pair uniformly at random (seeded), samples
    cfg.grid_size points on its hyperbola, and returns the sample with
    the lowest f_rdls.  Pairs whose value is geometrically infeasible
    (>= the sensor separation, which noise can produce) are excluded from
    the draw; if none remain, or for n=3, a coarse grid over the box is
    searched instead.  This is init_points on one row.
    """
    cfg = cfg or InitConfig()
    return init_points(array, [rd], [cfg.seed], cfg)[0]
