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
in entry order, so traces are bit-reproducible.  _step_core_nd is the one
step kernel.

Both solvers run one loop, _mm_loop, over a sweep: one pass at x that
returns (f(x), x_next), the cost and the MM update, or None for x_next
where it cannot form the update (x within _SENSOR_GUARD of a sensor, or a
singular system); the loop then nudges x and calls the reference step.
The start nudge, the stop rule, the max_iter exit, the singular exit and
the SolveOutcome every solve returns are each written once there.  The
loop records no history: a caller that passes trace=True gets a
SolveTrace, built there from a wrapper around the sweep that keeps each
swept point and its cost.  n == 3 sweeps with
_reference_sweep around _f_pairs and _step_core_nd; n == 2 with
_solvit_sweep_2d, those two unrolled into one sensor pass, one pair pass
and an inline 2x2 solve.  It must stay bit-identical to them:
TestPlanarKernel in tests/test_solvit.py compares its traces with
conftest.reference_iterate around _step_core_nd and _f_pairs, one step at
a time (test_step_matches_generic_loop and the four tests after it) and
over whole solves, and tests/test_solve_pins.py pins fixed solves, the 25
TDOA fixture solves among them.  tests/test_one_loop.py checks that every
solve runs _mm_loop.  Acceptance criterion 11 times the planar loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SensorSingularityError, SingularSystemError
from .objective import _check_rd, _dists, _f_pairs, _sum
from .scenario import (RangeDiffSet, _as_count, _unit_vectors, _write_table, as_position,
                       sensor_coords)

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

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError("tol must be finite and > 0")
        object.__setattr__(self, "max_iter", _as_count("max_iter", self.max_iter, 1))


@dataclass(frozen=True)
class SolveTrace:
    """Iterate/objective history of one solver run.  Checks one objective per iterate,
    a known status and iterations == len(objectives) - 1; stores read-only copies."""

    iterates: np.ndarray    # (k+1, n)
    objectives: np.ndarray  # (k+1,)
    status: str             # converged | max_iter | singular_system
    iterations: int

    def __post_init__(self):
        it = np.array(self.iterates, dtype=float)
        ob = np.array(self.objectives, dtype=float)
        if it.ndim != 2 or ob.ndim != 1 or it.shape[0] != ob.size:
            raise ValueError("iterates and objectives lengths disagree")
        if self.status not in (CONVERGED, MAX_ITER, SINGULAR_SYSTEM):
            raise ValueError(f"unknown status {self.status!r}")
        if self.iterations != ob.size - 1:
            raise ValueError("iterations must equal len(objectives) - 1")
        for name, arr in (("iterates", it), ("objectives", ob)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, slots=True)
class SolveOutcome:
    """How one solve ended: its status, the MM iterations it took, f at the
    last swept iterate, and its SolveTrace if the caller asked for one."""

    status: str             # converged | max_iter | singular_system
    iterations: int
    objective: float
    trace: SolveTrace | None


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
    rows = []
    for k, (x, f) in enumerate(zip(trace.iterates.tolist(), trace.objectives.tolist())):
        rows.append([str(k), *map(repr, x), repr(f)])
    _write_table(path, f"iter,{cols},objective", rows)


# ---------------------------------------------------------------------------
# bound quantities and surrogate
# ---------------------------------------------------------------------------

def bound_quantities(x_k, array, rd: RangeDiffSet) -> BoundQuantities:
    """Evaluate w_i, s_ij, Q_ij at the iterate x_k (pair order = stored order)."""
    coords = sensor_coords(array)
    xk = as_position(x_k, coords.shape[1])
    _check_rd(rd, coords.shape[0])
    rho, w = _unit_vectors(xk, coords)
    ent = list(rd.entries())
    s = np.array([v / rho[j - 1] for (_, j, v) in ent])
    Q = np.stack([np.outer(w[j - 1], w[i - 1]) for (i, j, _) in ent])
    return BoundQuantities(w=w, s=s, Q=Q)


def surrogate_g_many(X, x_k, array, rd: RangeDiffSet) -> np.ndarray:
    """Quadratic bound around x_k evaluated at each row of X -> (B,).

    Includes the per-pair constant r_ij * ||x^k - y_j|| produced by the
    concavity bound on 2 r_ij ||x - y_j||; without it the bound would sit
    below the objective at x_k instead of touching it.  The constant does
    not move the minimizer.
    """
    coords = sensor_coords(array)
    xk = as_position(x_k, coords.shape[1])
    _check_rd(rd, coords.shape[0])
    pts = np.atleast_2d(np.asarray(X, dtype=float))
    rho, w = _unit_vectors(xk, coords)
    out = np.zeros(pts.shape[0])
    for i, j, r in rd.entries():
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


def surrogate_g(x, x_k, array, rd: RangeDiffSet) -> float:
    """Quadratic bound around x_k at a single point (see surrogate_g_many)."""
    return float(surrogate_g_many(np.asarray(x, dtype=float)[None, :], x_k, array, rd)[0])


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


def _step_core_nd(x: list[float], ys: list[tuple[float, ...]],
                  pairs: list[tuple[int, int, float]], n: int) -> list[float]:
    """One bound-minimization step on plain Python scalars, for n = 2 or 3.

    x: current iterate; ys: sensor tuples; pairs: 0-based (i, j, r_ij).
    """
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


def _prepare(array, rd: RangeDiffSet):
    coords = sensor_coords(array)
    _check_rd(rd, coords.shape[0])
    ys = list(map(tuple, coords.tolist()))
    pairs = [(i - 1, j - 1, v) for i, j, v in rd.entries()]
    return coords, ys, pairs


def solvit_step(x_k, array, rd: RangeDiffSet) -> np.ndarray:
    """Minimizer of the quadratic bound formed at x_k (one solver iteration)."""
    coords, ys, pairs = _prepare(array, rd)
    xk = as_position(x_k, coords.shape[1])
    return np.array(_step_core_nd(xk.tolist(), ys, pairs, coords.shape[1]))


# ---------------------------------------------------------------------------
# iteration loop
# ---------------------------------------------------------------------------

def _nudge_off_sensors(x: list[float], ys, n: int) -> list[float]:
    """x, or if it lies within _SENSOR_GUARD of a sensor (the bounds divide by
    ||x - y_i||), x moved 1e-6 m toward the centroid of the other sensors; the
    nearest sensor is looked up only then.  The direction is deterministic."""
    d = _dists(x, ys)
    if not min(d) < _SENSOR_GUARD:
        return x
    nearest = d.index(min(d))
    others = [y for k, y in enumerate(ys) if k != nearest]
    if others:
        ctr = [_sum(y[t] for y in others) / len(others) for t in range(n)]
    else:
        ctr = [x[t] + 1.0 if t == 0 else x[t] for t in range(n)]
    direction = [ctr[t] - x[t] for t in range(n)]
    nrm = _dists(x, [ctr])[0]
    if nrm <= 0.0:
        direction = [1.0 if t == 0 else 0.0 for t in range(n)]
        nrm = 1.0
    return [x[t] + _NUDGE_STEP * direction[t] / nrm for t in range(n)]


def _mm_loop(x0, ys, n, cfg, sweep, step, data, trace=False):
    """The MM loop of both solvers: monotone descent with the three-way stop rule.

    x0 is the start as a list of floats; sweep(x) returns (f(x), x_next).
    Where x_next is None, x is nudged off the sensor and step(x, ys, data, n)
    forms the update; an error from it ends the run as singular_system at
    the nudged iterate.  x_next is used only when the stop rule lets the
    loop go on.  Returns (estimate, SolveOutcome); with trace set, the
    outcome holds a SolveTrace of the swept points and their costs: the
    nudged start, then each update taken.
    """
    x = _nudge_off_sensors(x0, ys, n)
    if trace:
        points, objectives = [], []
        plain = sweep

        def sweep(x):
            f, x_next = plain(x)
            points.append(x)
            objectives.append(f)
            return f, x_next
    status = MAX_ITER
    max_iter, tol = cfg.max_iter, cfg.tol
    f_cur = math.inf  # no relative change to test at the start
    for it in range(max_iter + 1):
        f_next, x_next = sweep(x)
        if f_next <= _ZERO_OBJECTIVE or abs(f_next - f_cur) / f_cur < tol:
            status = CONVERGED
            break
        if it == max_iter:
            break
        f_cur = f_next
        if x_next is None:
            x = _nudge_off_sensors(x, ys, n)
            try:
                x_next = step(x, ys, data, n)
            except (SensorSingularityError, SingularSystemError):
                status = SINGULAR_SYSTEM
                break
        x = x_next
    history = SolveTrace(points, objectives, status, it) if trace else None
    return np.array(x), SolveOutcome(status, it, f_next, history)


def _reference_sweep(ys, n, objective, step, data):
    """The sweep of the reference kernels: objective(x, ys, data) gives f(x)
    and the sensor distances, and step(x, ys, data, n) the update unless a
    distance is within _SENSOR_GUARD or the system is singular."""
    def sweep(x):
        f, d = objective(x, ys, data)
        if min(d) < _SENSOR_GUARD:
            return f, None
        try:
            return f, step(x, ys, data, n)
        except SingularSystemError:
            return f, None
    return sweep


def _solvit_sweep_2d(ys, pairs):
    """_reference_sweep(ys, 2, _f_pairs, _step_core_nd, pairs), unrolled.

    The same floating-point operations in the same order, so every trace is
    bit-identical.  One pass over the sensors gives the norms that are both
    the cost's distances and the step's divisors, one pass over the pairs
    adds up the cost and the bound system in stored order, and the 2x2
    system is solved inline.  At a sensor within the guard the cost comes
    from _f_pairs and x_next is None, as for a singular system.

    The inline solve needs no zero-pivot test, unlike _solve_small (which
    keeps one for n == 3).  A system that passes the eigenvalue test has
    0 < lam_min and lam_max <= _COND_LIMIT * lam_min.  Its pivot p0 =
    max(|a00|, |a01|) is at least a00 >= lam_min > 0 and at most lam_max,
    and the eliminated pivot is q1 = det / p0 up to sign, with
    det = lam_min * lam_max, so |q1| >= lam_min >= 1e-12 * lam_max.  The
    rounding of the two-term update q1 - k * p1 (|k| <= 1, |p1|, |q1| <=
    lam_max) and of lam_min itself is a few ulps of lam_max, under 1e-15
    * lam_max, so the computed q1 is never 0.
    """
    # per pair: y_i + y_j, the first sum of each b term, and y_j
    prs = [(ii, jj, r, ys[ii][0] + ys[jj][0], ys[ii][1] + ys[jj][1], *ys[jj])
           for ii, jj, r in pairs]

    def sweep(x, ys=ys, prs=prs, sqrt=math.sqrt, guard=_SENSOR_GUARD):
        x0, x1 = x
        # one sensor pass: the distance, and the step's terms
        sens = []
        for y0, y1 in ys:
            d0 = x0 - y0
            d1 = x1 - y1
            nrm = sqrt(d0 * d0 + d1 * d1)
            if nrm < guard:
                return _f_pairs(x, ys, pairs)[0], None
            w0 = d0 / nrm
            w1 = d1 / nrm
            sens.append((nrm, w0, w1, 2.0 * w0, 2.0 * w1, 0.0 + w0 * y0 + w1 * y1))
        # one pair pass: the cost, and the bound system for the step
        f = a00 = a01 = a11 = b0 = b1 = 0.0
        for ii, jj, r, c0, c1, yj0, yj1 in prs:
            di, wi0, wi1, _, _, wi_yi = sens[ii]
            dj, wj0, wj1, tj0, tj1, wj_yj = sens[jj]
            e = r - (di - dj)
            f += e * e
            s = r / dj
            diag = 2.0 + s
            a00 += diag - tj0 * wi0
            a01 -= wj0 * wi1 + wi0 * wj1
            b0 += c0 + r * wi0 + s * yj0 - wj0 * wi_yi - wi0 * wj_yj
            a11 += diag - tj1 * wi1
            b1 += c1 + r * wi1 + s * yj1 - wj1 * wi_yi - wi1 * wj_yj
        # _sym_eig_range and _solve_small for n == 2, without the clamp of
        # the discriminant at 0 (a sum of squares is never negative); partial
        # pivoting swaps the rows only on a strictly larger pivot
        half_tr = 0.5 * (a00 + a11)
        disc = sqrt(0.25 * (a00 - a11) ** 2 + a01 * a01)
        lam_min = half_tr - disc
        if abs(a01) > abs(a00):
            p0, p1, p2, q0, q1, q2 = a01, a11, b1, a00, a01, b0
        else:
            p0, p1, p2, q0, q1, q2 = a00, a01, b0, a01, a11, b1
        if lam_min <= 0.0 or (half_tr + disc) / lam_min > _COND_LIMIT:
            return f, None
        k = q0 * (1.0 / p0)
        if k != 0.0:
            q1 -= k * p1
            q2 -= k * p2
        x1 = q2 / q1
        return f, ((p2 - p1 * x1) / p0, x1)
    return sweep


def solvit_solve(x0, array, rd: RangeDiffSet, cfg: SolverConfig | None = None, *,
                 trace: bool = False) -> tuple[np.ndarray, SolveOutcome]:
    """Iterate the bound-minimization step from x0 until convergence.

    Stops when the relative objective change drops below cfg.tol, when the
    objective is exactly zero (absolute value below 1e-18, the
    zero-residual case the relative rule cannot handle), or at
    cfg.max_iter.  Singular linear systems terminate the run with status
    "singular_system" and the last good iterate.

    Returns:
        (final iterate, SolveOutcome); the outcome's trace is the
        iterate/objective history when trace is set, else None.
    """
    cfg = cfg or SolverConfig()
    coords, ys, pairs = _prepare(array, rd)
    n = coords.shape[1]
    sweep = (_solvit_sweep_2d(ys, pairs) if n == 2
             else _reference_sweep(ys, n, _f_pairs, _step_core_nd, pairs))
    return _mm_loop(as_position(x0, n).tolist(), ys, n, cfg, sweep, _step_core_nd, pairs,
                    trace)
