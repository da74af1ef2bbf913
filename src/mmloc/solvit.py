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

The per-pair accumulation is written as plain scalar code on purpose:
the per-iteration cost is then proportional to the number of pairs
(O(n^2 * m_hat)), which keeps the cost model measurable at small m
instead of being buried under vectorization overhead.  Accumulation runs
in entry order, so traces are bit-reproducible.  _step_core_nd is the one
step kernel: one pass over the sensors reads the distances from
objective._dists, stops at the first sensor x sits on, and forms each w_k
and v_k = w_k . y_k once; one pass over the pairs reads them.

Both solvers run one loop, _mm_loop, which takes an iteration itself with
the solver's cost and step: the cost at x (and the sensor distances), the
stop rule, a nudge of an x within _SENSOR_GUARD of a sensor, then the step,
whose error ends the run as singular.  The start nudge, the singular exit,
the SolveOutcome every solve returns (how it ended) and the SolveTrace of a
caller that passes trace=True (only the swept points and their costs) are
each written once there.  n == 3 takes every iteration there, with _f_pairs
and _step_core_nd.  n == 2 takes them in _solvit_sweep_2d, a loop with
those two unrolled into one sensor pass, one pair pass and an inline 2x2
solve, and with _mm_loop's stop rule and max_iter exit (_STOP_RULE) at the
end of each iteration; an iteration it cannot finish goes back to _mm_loop,
which takes it with _f_pairs and _step_core_nd and enters the generated
loop again.  _planar_make writes that loop and SFP's planar loop, each a
while loop around straight-line source, and describes both; this one is
compiled once per layout, keyed on m and the stored sequence of unordered
pairs (_planar_kernel, a bounded cache).  It must stay bit-identical to the
reference kernels: from any iterate, each iteration it takes has the cost,
the update and the stop that _mm_loop gives with _f_pairs and _step_core_nd,
so a solve's outcome and trace are the same bits whichever loop takes its
iterations.  Every solve runs _mm_loop.  Acceptance criterion 11 times the
planar loop.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import SensorSingularityError, SingularSystemError
from .objective import _as_points, _dists, _f_pairs, _rd_inputs, _sum
from .scenario import (RangeDiffSet, _as_count, _as_flag, _as_real, _as_reals, _freeze,
                       _unit_vectors, _write_table, as_position)

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
        _as_real("tol", self.tol, 0)
        _freeze(self, max_iter=_as_count("max_iter", self.max_iter, 1))


@dataclass(frozen=True)
class SolveTrace:
    """Points one solve swept and their costs, in sweep order (how it ended is its
    SolveOutcome's); checks one objective per iterate and stores read-only copies."""

    iterates: np.ndarray    # (k, n)
    objectives: np.ndarray  # (k,)

    def __post_init__(self):
        it, ob = np.asarray(self.iterates, dtype=float), np.asarray(self.objectives, dtype=float)
        if it.ndim != 2 or ob.ndim != 1 or it.shape[0] != ob.size:
            raise ValueError("iterates and objectives lengths disagree")
        _freeze(self, iterates=it, objectives=ob)


@dataclass(frozen=True, slots=True)
class SolveOutcome:
    """How one solve ended, the one record of it: status, MM iterations, f at the last
    swept iterate, and the swept history (a SolveTrace) if the caller asked for it."""

    status: str             # converged | max_iter | singular_system
    iterations: int
    objective: float
    trace: SolveTrace | None


@dataclass(frozen=True)
class BoundQuantities:
    """Per-iterate quantities defining the quadratic bound (see module docstring),
    stored as read-only copies."""

    w: np.ndarray  # (m, n) unit vectors from sensors to x^k
    s: np.ndarray  # (m_hat,) nonnegative scalars, one per stored pair
    Q: np.ndarray  # (m_hat, n, n) rank-one matrices, one per stored pair

    def __post_init__(self):
        _freeze(self, w=_as_reals("w", self.w), s=_as_reals("s", self.s),
                Q=_as_reals("Q", self.Q))


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
    coords, _, pairs = _rd_inputs(array, rd)
    rho, w = _unit_vectors(as_position(x_k, coords.shape[1]), coords)
    s = np.array([v / rho[j] for (_, j, v) in pairs])
    Q = np.stack([np.outer(w[j], w[i]) for (i, j, _) in pairs])
    return BoundQuantities(w=w, s=s, Q=Q)


def surrogate_g_many(X, x_k, array, rd: RangeDiffSet) -> np.ndarray:
    """Quadratic bound around x_k evaluated at each row of X -> (B,).

    Includes the per-pair constant r_ij * ||x^k - y_j|| produced by the
    concavity bound on 2 r_ij ||x - y_j||; without it the bound would sit
    below the objective at x_k instead of touching it.  The constant does
    not move the minimizer.
    """
    coords, _, pairs = _rd_inputs(array, rd)
    rho, w = _unit_vectors(as_position(x_k, coords.shape[1]), coords)
    pts = _as_points(X, coords.shape[1])
    out = np.zeros(pts.shape[0])
    for i, j, r in pairs:
        yi = coords[i]; yj = coords[j]
        wi = w[i]; wj = w[j]
        s = r / rho[j]
        di = pts - yi[None, :]
        dj = pts - yj[None, :]
        ni2 = np.sum(di * di, axis=1)
        nj2 = np.sum(dj * dj, axis=1)
        cross = (dj @ wj) * (di @ wi)  # (x-y_j)^T Q_ij (x-y_i)
        out += (r * r + ni2 + nj2 - 2.0 * r * (di @ wi)
                + r * rho[j] + s * nj2 - 2.0 * cross)
    return out


def surrogate_g(x, x_k, array, rd: RangeDiffSet) -> float:
    """Quadratic bound around x_k at a single point (see surrogate_g_many)."""
    return float(surrogate_g_many([x], x_k, array, rd)[0])


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
    The sensor pass (see the module docstring) sums v_k from 0.0 in
    coordinate order, as the planar loop's _SENSOR_TERMS do.
    """
    rho = _dists(x, ys)
    w, v = [], []
    for k, (y, dk) in enumerate(zip(ys, rho)):
        if dk <= 0.0:
            raise SensorSingularityError(k + 1)
        wk = [(a - b) / dk for a, b in zip(x, y)]
        w.append(wk)
        v.append(_sum(map(operator.mul, wk, y)))

    A = [[0.0] * n for _ in range(n)]
    b = [0.0] * n
    for (ii, jj, r) in pairs:
        wi = w[ii]; wj = w[jj]
        yi = ys[ii]; yj = ys[jj]
        s = r / rho[jj]
        diag = 2.0 + s
        for t in range(n):
            wit = wi[t]; wjt = wj[t]
            A[t][t] += diag - 2.0 * wjt * wit
            for u in range(t + 1, n):
                A[t][u] -= wjt * wi[u] + wit * wj[u]
            b[t] += yi[t] + yj[t] + r * wit + s * yj[t] - wjt * v[ii] - wit * v[jj]
    for t in range(n):
        for u in range(t + 1, n):
            A[u][t] = A[t][u]

    lam_min, lam_max = _sym_eig_range(A, n)
    if lam_min <= 0.0 or lam_max / lam_min > _COND_LIMIT:
        raise SingularSystemError(
            f"step system ill-conditioned (eigenvalue range [{lam_min:.3e}, {lam_max:.3e}])"
        )
    return _solve_small(A, b, n)


def solvit_step(x_k, array, rd: RangeDiffSet) -> np.ndarray:
    """Minimizer of the quadratic bound formed at x_k (one solver iteration)."""
    coords, ys, pairs = _rd_inputs(array, rd)
    xk = as_position(x_k, coords.shape[1]).tolist()
    return np.array(_step_core_nd(xk, ys, pairs, coords.shape[1]))


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


def _mm_loop(x0, ys, cfg, cost, step, data, trace=False, run=None):
    """The MM loop of both solvers: monotone descent with the three-way stop rule.

    x0 is the start as a list of n floats.  An iteration takes
    cost(x, ys, data), which returns f(x) and the sensor distances, applies
    the stop rule and the max_iter exit, nudges x off a sensor within
    _SENSOR_GUARD, and then step(x, ys, data, n) forms the update; an error
    from it ends the run as singular_system at the nudged iterate.  A planar
    solve also passes run, its generated kernel (see _planar_make), which
    takes the iterations from the state (x, f, it) and returns the state it
    stops in with its status; with no status, it could not finish that
    iteration, and the loop takes it and enters run again.  Returns
    (estimate, SolveOutcome), which alone says how the run ended; with
    trace set, the outcome holds a SolveTrace of the swept points and their
    costs: the nudged start, then each update taken.
    """
    n = len(x0)
    x = _nudge_off_sensors(x0, ys, n)
    points, objectives = ([], []) if _as_flag("trace", trace) else (None, None)
    max_iter, tol = cfg.max_iter, cfg.tol
    f, it = math.inf, 0  # no relative change to test at the start
    while True:
        if run is not None:
            x, f, it, status = run(*x, f, it, max_iter, tol, points, objectives)
            if status is not None:
                break
        f_cur = f
        f, d = cost(x, ys, data)
        if trace:
            points.append(x)
            objectives.append(f)
        if f <= _ZERO_OBJECTIVE or abs(f - f_cur) / f_cur < tol:
            status = CONVERGED
            break
        if it == max_iter:
            status = MAX_ITER
            break
        if min(d) < _SENSOR_GUARD:
            x = _nudge_off_sensors(x, ys, n)
        try:
            x = step(x, ys, data, n)
        except (SensorSingularityError, SingularSystemError):
            status = SINGULAR_SYSTEM
            break
        it += 1
    history = SolveTrace(points, objectives) if trace else None
    return np.array(x), SolveOutcome(status, it, f, history)


# The distance of sensor k in a generated planar loop (see _planar_make),
# and its exit within _SENSOR_GUARD: the state the iteration started from,
# with no status, so that _mm_loop takes that iteration.
_SENSOR_DISTANCE = """\
            d0 = x0 - y0_{k}
            d1 = x1 - y1_{k}
            n_{k} = sqrt(d0 * d0 + d1 * d1)
            if n_{k} < guard:
                return (x0, x1), f_cur, it, None
"""
# The end of an iteration of a generated planar loop, once the solver's tail
# has set the update (nx0, nx1): _mm_loop's trace, stop rule and max_iter
# exit on the cost f at (x0, x1), then the step to the update.
_STOP_RULE = """\
            if points is not None:
                points.append((x0, x1))
                objectives.append(f)
            if f <= _ZERO_OBJECTIVE or abs(f - f_cur) / f_cur < tol:
                return (x0, x1), f, it, CONVERGED
            if it == max_iter:
                return (x0, x1), f, it, MAX_ITER
            f_cur = f
            x0 = nx0
            x1 = nx1
            it += 1
"""


def _planar_make(m, label, *, setup, sums, terms, tail, bound=()):
    """make(ys, data) -> run, the planar MM loop of one solver for m sensors:
    a while loop around straight-line Python source, compiled under label.

    run(x0, x1, f_cur, it, max_iter, tol, points, objectives) takes the
    iterations _mm_loop would take itself with the solver's reference cost
    and step on (ys, data), from the iterate (x0, x1) at iteration it, f_cur
    the cost before it (inf at the start), with the same floating-point
    operations in the same order, so every cost, update, stop and trace is
    bit-identical to _mm_loop's.  It appends each swept point and its cost to
    points and objectives unless they are None.  It returns ((x0, x1), f,
    it, status) where the stop rule or max_iter ends the run, and the state
    an iteration started from with status None where that iteration cannot
    finish (the iterate within _SENSOR_GUARD of a sensor, or the tail
    finding no update).  make unpacks sensor k of ys as y0_k, y1_k, runs the
    setup lines (which name what the solver reads from data), and binds the
    coordinates, the bound names, sqrt and _SENSOR_GUARD as defaults of run,
    so the source holds only indices and m, and an iteration makes no call,
    tuple or index but for the trace's appends.  Each iteration sets the
    sums to zero, then for each sensor forms d0, d1 and the distance n_k,
    exits if n_k is within _SENSOR_GUARD, and adds the solver's terms for k;
    the tail lines, which may read the global _COND_LIMIT, finish f and set
    the update (nx0, nx1), and _STOP_RULE ends the iteration.  Each solver
    caches make per layout (_planar_kernel, _sfp_kernel), so a process pays
    one compile per layout, on its first solve of it.
    """
    sensors = range(m)
    defaults = [f"{v}_{k}" for k in sensors for v in ("y0", "y1")] + list(bound)
    lines = ["def make(ys, data):",
             f"    [{', '.join(f'(y0_{k}, y1_{k})' for k in sensors)}] = ys", *setup,
             "    def run(x0, x1, f_cur, it, max_iter, tol, points, objectives,"
             f" {', '.join(f'{v}={v}' for v in defaults)}, sqrt=sqrt, guard=_SENSOR_GUARD):",
             "        while True:", f"            {' = '.join(sums)} = 0.0",
             *[(_SENSOR_DISTANCE + terms).format(k=k) for k in sensors], *tail, _STOP_RULE,
             "    return run"]
    namespace = {"sqrt": math.sqrt, "_SENSOR_GUARD": _SENSOR_GUARD, "_COND_LIMIT": _COND_LIMIT,
                 "_ZERO_OBJECTIVE": _ZERO_OBJECTIVE, "CONVERGED": CONVERGED,
                 "MAX_ITER": MAX_ITER}
    exec(compile("\n".join(lines), label, "exec"), namespace)
    return namespace["make"]


# Source templates of the generated planar SOLVIT loop (see _planar_kernel):
# the terms of sensor k after its distance, and the cost and bound-system
# terms of the stored pair p oriented as (i, j).  Only integers are filled in.
_SENSOR_TERMS = """\
            w0_{k} = d0 / n_{k}
            w1_{k} = d1 / n_{k}
            t0_{k} = 2.0 * w0_{k}
            t1_{k} = 2.0 * w1_{k}
            v_{k} = 0.0 + w0_{k} * y0_{k} + w1_{k} * y1_{k}
"""
_PAIR_TERMS = """\
                e = r_{p} - (n_{i} - n_{j})
                f += e * e
                s = r_{p} / n_{j}
                diag = 2.0 + s
                a00 += diag - t0_{j} * w0_{i}
                a01 -= w0_{j} * w1_{i} + w0_{i} * w1_{j}
                b0 += c0_{p} + r_{p} * w0_{i} + s * y0_{j} - w0_{j} * v_{i} - w0_{i} * v_{j}
                a11 += diag - t1_{j} * w1_{i}
                b1 += c1_{p} + r_{p} * w1_{i} + s * y1_{j} - w1_{j} * v_{i} - w1_{i} * v_{j}
"""
# _sym_eig_range and _solve_small for n == 2, without the clamp of the
# discriminant at 0 (a sum of squares is never negative); partial pivoting
# swaps the rows only on a strictly larger pivot.  A system past the
# condition limit hands the iteration back to _mm_loop, as the guard does
_SOLVE_2X2 = """\
            half_tr = 0.5 * (a00 + a11)
            disc = sqrt(0.25 * (a00 - a11) ** 2 + a01 * a01)
            lam_min = half_tr - disc
            if abs(a01) > abs(a00):
                p0, p1, p2, q0, q1, q2 = a01, a11, b1, a00, a01, b0
            else:
                p0, p1, p2, q0, q1, q2 = a00, a01, b0, a01, a11, b1
            if lam_min <= 0.0 or (half_tr + disc) / lam_min > _COND_LIMIT:
                return (x0, x1), f_cur, it, None
            k = q0 * (1.0 / p0)
            if k != 0.0:
                q1 -= k * p1
                q2 -= k * p2
            nx1 = q2 / q1
            nx0 = (p2 - p1 * nx1) / p0
"""


@functools.lru_cache(maxsize=64)
def _planar_kernel(m: int, layout: tuple[tuple[int, int], ...]):
    """make(ys, pairs) -> run (see _planar_make) for m sensors and the
    stored unordered pairs `layout` ((a, b), a < b, 0-based, in stored order).

    make also binds each r_ij, each y_i + y_j (the same bits for either
    orientation, since a float sum commutes) and each pair's orientation
    flag (stored as (a, b) or as (b, a)), so one kernel serves every
    orientation of one pair order.  An iteration names each sensor's w0, w1,
    2 * w0, 2 * w1 and w . y, and holds each pair's terms twice, one block
    per orientation, picked by its flag; its 2x2 solve is _SOLVE_2X2.
    """
    prs = range(len(layout))
    setup = [f"    [{', '.join(f'(i_{p}, _, r_{p})' for p in prs)}] = data"]
    pair_blocks = []
    for p, (a, b) in enumerate(layout):
        setup += [f"    o_{p} = i_{p} == {a}",
                  f"    c0_{p} = y0_{a} + y0_{b}",
                  f"    c1_{p} = y1_{a} + y1_{b}"]
        pair_blocks += [f"            if o_{p}:", _PAIR_TERMS.format(p=p, i=a, j=b),
                        "            else:", _PAIR_TERMS.format(p=p, i=b, j=a)]
    return _planar_make(m, f"<planar loop, m={m}>", setup=setup,
                        bound=[f"{v}_{p}" for p in prs for v in ("o", "r", "c0", "c1")],
                        sums=("f", "a00", "a01", "a11", "b0", "b1"), terms=_SENSOR_TERMS,
                        tail=[*pair_blocks, _SOLVE_2X2])


def _solvit_sweep_2d(ys, pairs):
    """The iterations _mm_loop takes with _f_pairs and _step_core_nd on
    (ys, pairs), generated (see _planar_make).

    One pass over the sensors gives the norms that are both the cost's
    distances and the step's divisors, one pass over the pairs adds up the
    cost and the bound system in stored order, and the 2x2 system is solved
    inline, once per iteration of the one loop.  The kernel is compiled once
    per (m, stored unordered pairs) by _planar_kernel (about 2-3 ms at m = 4,
    2.4-4.6 ms at m = 5 and 7-14 ms at m = 9 on a 2-vCPU Xeon VM).

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
    layout = tuple((i, j) if i < j else (j, i) for i, j, _ in pairs)
    return _planar_kernel(len(ys), layout)(ys, pairs)


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
    coords, ys, pairs = _rd_inputs(array, rd)
    n = coords.shape[1]
    return _mm_loop(as_position(x0, n).tolist(), ys, cfg, _f_pairs, _step_core_nd, pairs,
                    trace, _solvit_sweep_2d(ys, pairs) if n == 2 else None)
