"""Majorization-minimization solver for the range-difference least-squares problem.

Each iteration builds a quadratic upper bound of f_rdls that touches it at
the current iterate x^k and minimizes the bound in closed form, which
guarantees a monotonically non-increasing objective.  The bound for the
pair (i, j) with measurement r_ij uses, all evaluated at x^k:

    w_i  = (x^k - y_i) / ||x^k - y_i||
    s_ij = r_ij / ||x^k - y_j||
    Q_ij = (x^k - y_j)(x^k - y_i)^T / (||x^k - y_j|| ||x^k - y_i||)

and the minimizer solves (sum M_ij) x = sum p_ij with

    M_ij = (2 + s_ij) I - (Q_ij + Q_ij^T)
    p_ij = y_i + y_j + r_ij w_i + s_ij y_j - Q_ij y_i - Q_ij^T y_j.

The summed matrix is symmetric positive definite away from degenerate
collinear configurations; the step solves the n x n system (n <= 3)
directly instead of via low-rank inverse updates, which is both simpler
and exact at this size.

The per-pair accumulation is written as plain scalar loops on purpose:
the per-iteration cost is then proportional to the number of pairs
(O(n^2 * m_hat)), which keeps the cost model measurable at small m
instead of being buried under vectorization overhead.  Accumulation runs
in entry order, so traces are bit-reproducible.  The planar step
(_step_core_2d) is an unrolled copy of the generic loop (_step_core_nd):
the same floating-point operations in the same order, with the per-sensor
terms computed once instead of once per pair.  It must stay bit-identical
to the generic loop; TestPlanarKernel in tests/test_solvit.py checks this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SensorSingularityError, SingularSystemError
from .objective import _f_pairs
from .scenario import RangeDiffSet, as_position, sensor_coords

# termination labels shared by all iterative solvers
CONVERGED = "converged"
MAX_ITER = "max_iter"
SINGULAR_SYSTEM = "singular_system"

# condition-number ceiling for the per-step linear system
_COND_LIMIT = 1e12
# absolute objective below which the residual is treated as exactly zero [m^2]
_ZERO_OBJECTIVE = 1e-18
# iterates closer than this to a sensor get nudged before bounds are formed [m]
_SENSOR_GUARD = 1e-9
_NUDGE_STEP = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule shared by the iterative solvers."""

    tol: float = 1e-4        # relative objective change threshold
    max_iter: int = 500
    strict_positive_pairs: bool = False  # drop r_ij == 0 pairs (literal textbook sum)

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError("tol must be finite and > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class SolveTrace:
    """Iterate/objective history of one solver run."""

    iterates: np.ndarray    # (k+1, n)
    objectives: np.ndarray  # (k+1,)
    status: str             # converged | max_iter | singular_system
    iterations: int

    def __post_init__(self):
        it = np.asarray(self.iterates, dtype=float)
        ob = np.asarray(self.objectives, dtype=float)
        if it.ndim != 2 or ob.ndim != 1 or it.shape[0] != ob.size:
            raise ValueError("iterates and objectives lengths disagree")
        if self.status not in (CONVERGED, MAX_ITER, SINGULAR_SYSTEM):
            raise ValueError(f"unknown status {self.status!r}")
        if self.iterations != ob.size - 1:
            raise ValueError("iterations must equal len(objectives) - 1")
        it = it.copy(); it.setflags(write=False)
        ob = ob.copy(); ob.setflags(write=False)
        object.__setattr__(self, "iterates", it)
        object.__setattr__(self, "objectives", ob)


@dataclass(frozen=True)
class BoundQuantities:
    """Per-iterate quantities defining the quadratic bound (see module docstring)."""

    w: np.ndarray  # (m, n) unit vectors from sensors to x^k
    s: np.ndarray  # (m_hat,) nonnegative scalars, one per stored pair
    Q: np.ndarray  # (m_hat, n, n) rank-one matrices, one per stored pair


def write_trace_csv(path, trace: SolveTrace) -> None:
    """Export a trace as CSV with header iter,x_1..x_n,objective."""
    n = trace.iterates.shape[1]
    cols = ",".join(f"x_{k + 1}" for k in range(n))
    with open(path, "w") as fh:
        fh.write(f"iter,{cols},objective\n")
        for k in range(trace.objectives.size):
            xs = ",".join(repr(float(v)) for v in trace.iterates[k])
            fh.write(f"{k},{xs},{float(trace.objectives[k])!r}\n")


# ---------------------------------------------------------------------------
# bound quantities and surrogate
# ---------------------------------------------------------------------------

def _unit_vectors(x: np.ndarray, coords: np.ndarray):
    """Distances and unit vectors from every sensor to x; errors at sensors."""
    diffs = x[None, :] - coords
    rho = np.linalg.norm(diffs, axis=1)
    for k, r in enumerate(rho):
        if r <= 0.0:
            raise SensorSingularityError(k + 1)
    return rho, diffs / rho[:, None]


def _active_entries(rd: RangeDiffSet, strict: bool):
    ent = list(rd.entries())
    if strict:
        ent = [(i, j, v) for (i, j, v) in ent if v > 0]
        if not ent:
            raise ValueError("no positive pairs left under strict_positive_pairs")
    return ent


def bound_quantities(x_k, array, rd: RangeDiffSet, *,
                     strict_positive_pairs: bool = False) -> BoundQuantities:
    """Evaluate w_i, s_ij, Q_ij at the iterate x_k (pair order = stored order)."""
    coords = sensor_coords(array)
    xk = as_position(x_k, coords.shape[1])
    if rd.m != coords.shape[0]:
        raise ValueError(f"measurement set indexes {rd.m} sensors, array has {coords.shape[0]}")
    rho, w = _unit_vectors(xk, coords)
    ent = _active_entries(rd, strict_positive_pairs)
    s = np.array([v / rho[j - 1] for (_, j, v) in ent])
    Q = np.stack([np.outer(w[j - 1], w[i - 1]) for (i, j, _) in ent])
    return BoundQuantities(w=w, s=s, Q=Q)


def surrogate_g_many(X, x_k, array, rd: RangeDiffSet, *,
                     strict_positive_pairs: bool = False) -> np.ndarray:
    """Quadratic bound around x_k evaluated at each row of X -> (B,).

    Includes the per-pair constant r_ij * ||x^k - y_j|| produced by the
    concavity bound on 2 r_ij ||x - y_j||; without it the bound would sit
    below the objective at x_k instead of touching it.  The constant does
    not move the minimizer.
    """
    coords = sensor_coords(array)
    xk = as_position(x_k, coords.shape[1])
    if rd.m != coords.shape[0]:
        raise ValueError(f"measurement set indexes {rd.m} sensors, array has {coords.shape[0]}")
    pts = np.atleast_2d(np.asarray(X, dtype=float))
    rho, w = _unit_vectors(xk, coords)
    out = np.zeros(pts.shape[0])
    for i, j, r in _active_entries(rd, strict_positive_pairs):
        yi = coords[i - 1]; yj = coords[j - 1]
        wi = w[i - 1]; wj = w[j - 1]
        s = r / rho[j - 1]
        di = pts - yi[None, :]
        dj = pts - yj[None, :]
        ni2 = np.sum(di * di, axis=1)
        nj2 = np.sum(dj * dj, axis=1)
        cross = (dj @ wj) * (di @ wi)  # (x-y_j)^T Q_ij (x-y_i)
        out += (r * r + ni2 + nj2 - 2.0 * r * (di @ wi)
                + r * rho[j - 1] + s * nj2 - 2.0 * cross)
    return out


def surrogate_g(x, x_k, array, rd: RangeDiffSet, *,
                strict_positive_pairs: bool = False) -> float:
    """Quadratic bound around x_k at a single point (see surrogate_g_many)."""
    return float(surrogate_g_many(np.asarray(x, dtype=float)[None, :], x_k, array, rd,
                                  strict_positive_pairs=strict_positive_pairs)[0])


# ---------------------------------------------------------------------------
# closed-form step (scalar core)
# ---------------------------------------------------------------------------

def _sym_eig_range(A: list[list[float]], n: int) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric 2x2 or 3x3 matrix."""
    if n == 2:
        a, b, d = A[0][0], A[0][1], A[1][1]
        half_tr = 0.5 * (a + d)
        disc = math.sqrt(max(0.25 * (a - d) ** 2 + b * b, 0.0))
        return half_tr - disc, half_tr + disc
    # n == 3: standard trigonometric solution for symmetric eigenvalues
    p1 = A[0][1] ** 2 + A[0][2] ** 2 + A[1][2] ** 2
    q = (A[0][0] + A[1][1] + A[2][2]) / 3.0
    if p1 == 0.0:
        eigs = sorted((A[0][0], A[1][1], A[2][2]))
        return eigs[0], eigs[2]
    p2 = (A[0][0] - q) ** 2 + (A[1][1] - q) ** 2 + (A[2][2] - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    B = [[(A[r][c] - (q if r == c else 0.0)) / p for c in range(3)] for r in range(3)]
    detB = (B[0][0] * (B[1][1] * B[2][2] - B[1][2] * B[2][1])
            - B[0][1] * (B[1][0] * B[2][2] - B[1][2] * B[2][0])
            + B[0][2] * (B[1][0] * B[2][1] - B[1][1] * B[2][0]))
    r = min(max(detB / 2.0, -1.0), 1.0)
    phi = math.acos(r) / 3.0
    lam_max = q + 2.0 * p * math.cos(phi)
    lam_min = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return lam_min, lam_max


def _solve_small(A: list[list[float]], b: list[float], n: int) -> list[float]:
    """Gaussian elimination with partial pivoting for n <= 3."""
    M = [row[:] + [b[k]] for k, row in enumerate(A)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col]))
        if M[piv][col] == 0.0:
            raise SingularSystemError("pivot vanished in the step linear system")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
        inv = 1.0 / M[col][col]
        for r in range(col + 1, n):
            f = M[r][col] * inv
            if f != 0.0:
                for c in range(col, n + 1):
                    M[r][c] -= f * M[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = M[r][n]
        for c in range(r + 1, n):
            acc -= M[r][c] * x[c]
        x[r] = acc / M[r][r]
    return x


def _step_core(x: list[float], ys: list[tuple[float, ...]],
               pairs: list[tuple[int, int, float]], n: int) -> list[float]:
    """One bound-minimization step on plain Python scalars.

    x: current iterate; ys: sensor tuples; pairs: 0-based (i, j, r_ij).
    """
    if n == 2:
        return _step_core_2d(x, ys, pairs)
    return _step_core_nd(x, ys, pairs, n)


def _step_core_2d(x, ys, pairs) -> list[float]:
    """_step_core_nd unrolled for n == 2, bit-identical to it.

    Each sensor's distance, unit vector and w_i . y_i are formed once, with
    the generic loop's operations, instead of once per pair that uses it.
    """
    x0, x1 = x
    sens = []
    for k, (y0, y1) in enumerate(ys):
        d0 = x0 - y0
        d1 = x1 - y1
        nrm = math.sqrt(d0 * d0 + d1 * d1)
        if nrm <= 0.0:
            raise SensorSingularityError(k + 1)
        w0 = d0 / nrm
        w1 = d1 / nrm
        # w_k . y_k, summed from 0.0 as the generic loop does
        sens.append((y0, y1, w0, w1, nrm, 0.0 + w0 * y0 + w1 * y1))

    a00 = a01 = a11 = b0 = b1 = 0.0
    for (ii, jj, r) in pairs:
        yi0, yi1, wi0, wi1, _, wi_yi = sens[ii]
        yj0, yj1, wj0, wj1, rho_j, wj_yj = sens[jj]
        s = r / rho_j
        diag = 2.0 + s
        a00 += diag - 2.0 * wj0 * wi0
        a01 -= wj0 * wi1 + wi0 * wj1
        b0 += yi0 + yj0 + r * wi0 + s * yj0 - wj0 * wi_yi - wi0 * wj_yj
        a11 += diag - 2.0 * wj1 * wi1
        b1 += yi1 + yj1 + r * wi1 + s * yj1 - wj1 * wi_yi - wi1 * wj_yj

    # _sym_eig_range, n == 2 branch
    half_tr = 0.5 * (a00 + a11)
    disc2 = 0.25 * (a00 - a11) ** 2 + a01 * a01
    if 0.0 > disc2:
        disc2 = 0.0
    disc = math.sqrt(disc2)
    lam_min = half_tr - disc
    lam_max = half_tr + disc
    if lam_min <= 0.0 or lam_max / lam_min > _COND_LIMIT:
        raise SingularSystemError(
            f"step system ill-conditioned (eigenvalue range [{lam_min:.3e}, {lam_max:.3e}])"
        )

    # _solve_small: partial pivoting swaps rows only on a strictly larger pivot
    if abs(a01) > abs(a00):
        p0, p1, p2, q0, q1, q2 = a01, a11, b1, a00, a01, b0
    else:
        p0, p1, p2, q0, q1, q2 = a00, a01, b0, a01, a11, b1
    if p0 == 0.0:
        raise SingularSystemError("pivot vanished in the step linear system")
    f = q0 * (1.0 / p0)
    if f != 0.0:
        q1 -= f * p1
        q2 -= f * p2
    if q1 == 0.0:
        raise SingularSystemError("pivot vanished in the step linear system")
    z1 = q2 / q1
    return [(p2 - p1 * z1) / p0, z1]


def _step_core_nd(x: list[float], ys: list[tuple[float, ...]],
                  pairs: list[tuple[int, int, float]], n: int) -> list[float]:
    """Generic step for any n; the reference the planar kernel must match."""
    m = len(ys)
    rho = [0.0] * m
    w = [None] * m
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
        rho[k] = nrm
        w[k] = [dt / nrm for dt in d]

    A = [[0.0] * n for _ in range(n)]
    b = [0.0] * n
    for (ii, jj, r) in pairs:
        wi = w[ii]; wj = w[jj]
        yi = ys[ii]; yj = ys[jj]
        s = r / rho[jj]
        diag = 2.0 + s
        wi_yi = 0.0
        wj_yj = 0.0
        for t in range(n):
            wi_yi += wi[t] * yi[t]
            wj_yj += wj[t] * yj[t]
        for t in range(n):
            wit = wi[t]; wjt = wj[t]
            A[t][t] += diag - 2.0 * wjt * wit
            for u in range(t + 1, n):
                A[t][u] -= wjt * wi[u] + wit * wj[u]
            b[t] += yi[t] + yj[t] + r * wit + s * yj[t] - wjt * wi_yi - wit * wj_yj
    for t in range(n):
        for u in range(t + 1, n):
            A[u][t] = A[t][u]

    lam_min, lam_max = _sym_eig_range(A, n)
    if lam_min <= 0.0 or lam_max / lam_min > _COND_LIMIT:
        raise SingularSystemError(
            f"step system ill-conditioned (eigenvalue range [{lam_min:.3e}, {lam_max:.3e}])"
        )
    return _solve_small(A, b, n)


def _prepare(array, rd: RangeDiffSet, strict: bool):
    coords = sensor_coords(array)
    if rd.m != coords.shape[0]:
        raise ValueError(f"measurement set indexes {rd.m} sensors, array has {coords.shape[0]}")
    ys = [tuple(float(v) for v in row) for row in coords]
    pairs = [(i - 1, j - 1, v) for (i, j, v) in _active_entries(rd, strict)]
    return coords, ys, pairs


def solvit_step(x_k, array, rd: RangeDiffSet, *,
                strict_positive_pairs: bool = False) -> np.ndarray:
    """Minimizer of the quadratic bound formed at x_k (one solver iteration)."""
    coords, ys, pairs = _prepare(array, rd, strict_positive_pairs)
    xk = as_position(x_k, coords.shape[1])
    return np.array(_step_core(list(map(float, xk)), ys, pairs, coords.shape[1]))


# ---------------------------------------------------------------------------
# iteration loop
# ---------------------------------------------------------------------------

def _nudge_off_sensors(x: list[float], ys, n: int) -> list[float]:
    """Move x 1e-6 m toward the centroid of the other sensors if it sits on one.

    The bounds divide by ||x - y_i||, so iterates that land on a sensor
    must be displaced; the direction is deterministic.
    """
    m = len(ys)
    nearest = -1
    best = _SENSOR_GUARD
    for k in range(m):
        dk = math.dist(x, ys[k])
        if dk < best:
            best = dk
            nearest = k
    if nearest < 0:
        return x
    others = [ys[k] for k in range(m) if k != nearest]
    if others:
        ctr = [sum(y[t] for y in others) / len(others) for t in range(n)]
    else:
        ctr = [x[t] + 1.0 if t == 0 else x[t] for t in range(n)]
    direction = [ctr[t] - x[t] for t in range(n)]
    nrm = math.sqrt(sum(v * v for v in direction))
    if nrm <= 0.0:
        direction = [1.0 if t == 0 else 0.0 for t in range(n)]
        nrm = 1.0
    return [x[t] + _NUDGE_STEP * direction[t] / nrm for t in range(n)]


def _iterate(x0, ys, n, cfg, stepper, objective):
    """Shared MM loop: monotone descent with the three-way stopping rule.

    objective(x) returns (value, sensor distances at x); the distances of
    the current iterate decide whether it must be nudged off a sensor.
    """
    x = list(map(float, x0))
    x = _nudge_off_sensors(x, ys, n)
    f_cur, d = objective(x)
    iterates = [list(x)]
    objectives = [f_cur]
    status = MAX_ITER
    if f_cur <= _ZERO_OBJECTIVE:
        status = CONVERGED
    else:
        for _ in range(cfg.max_iter):
            if min(d) < _SENSOR_GUARD:
                x = _nudge_off_sensors(x, ys, n)
            try:
                x_next = stepper(x)
            except (SensorSingularityError, SingularSystemError):
                status = SINGULAR_SYSTEM
                break
            f_next, d = objective(x_next)
            iterates.append(list(x_next))
            objectives.append(f_next)
            x = x_next
            if f_next <= _ZERO_OBJECTIVE:
                status = CONVERGED
                break
            if abs(f_next - f_cur) / f_cur < cfg.tol:
                status = CONVERGED
                break
            f_cur = f_next
    trace = SolveTrace(np.array(iterates), np.array(objectives), status,
                       len(objectives) - 1)
    return np.array(x), trace


def solvit_solve(x0, array, rd: RangeDiffSet,
                 cfg: SolverConfig | None = None) -> tuple[np.ndarray, SolveTrace]:
    """Iterate the bound-minimization step from x0 until convergence.

    Stops when the relative objective change drops below cfg.tol, when the
    objective is exactly zero (absolute value below 1e-18, the
    zero-residual case the relative rule cannot handle), or at
    cfg.max_iter.  Singular linear systems terminate the run with status
    "singular_system" and the last good iterate.

    Returns:
        (final iterate, SolveTrace)
    """
    cfg = cfg or SolverConfig()
    coords, ys, pairs = _prepare(array, rd, cfg.strict_positive_pairs)
    n = coords.shape[1]
    xs = as_position(x0, n)
    return _iterate(xs, ys, n, cfg,
                    lambda x: _step_core(x, ys, pairs, n),
                    lambda x: _f_pairs(x, ys, pairs))
