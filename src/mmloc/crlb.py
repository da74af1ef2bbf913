"""Cramér-Rao lower bound for range-difference localization.

Each sensor k contributes one range r_k = ||x - y_k|| + eps_k with
variance var_k = range_variance(d_k) and unit vector u_k = (x - y_k)/d_k.
The range differences keep everything but one common unknown offset of
the ranges, so their Fisher information is the Schur complement that
eliminates it:

    J = sum_k w_k u_k u_k^T - g g^T / W,   w_k = 1/var_k,  g = sum_k w_k u_k,
                                           W = sum_k w_k,

the information of the full (rank m-1) range-difference covariance,
whichever pair orientations the measurement set stores.  It is evaluated
as the weighted scatter sum_k w_k (u_k - g/W)(u_k - g/W)^T, the same
matrix without the cancellation between the two terms.  The scalar bound
is sqrt(trace(J^{-1})), from the cofactors of the 2x2 or 3x3 matrix, and
+inf when J fails the eigenvalue test (smallest eigenvalue of J, from
solvit._sym_eig_range, not above 1e-12 times the largest) or its
determinant does not come out positive.  The arithmetic
is Python floats in entry order, with no LAPACK call.  At zero noise
(sigma2 = 0, so a zero variance) J is reported as 0 with rank 0 and an
infinite bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import _sum
from .scenario import (NoiseModel, _unit_vectors, _write_json, as_position,
                       range_variance, rangediffs_from_ranges, sensor_coords)
from .solvit import _sym_eig_range


@dataclass(frozen=True)
class CrlbReport:
    fisher: np.ndarray   # (n, n) symmetric PSD
    cov_rank: int
    rmse_bound: float    # [m]; +inf when the Fisher matrix is singular

    def to_dict(self) -> dict:
        return {
            "fisher": self.fisher.tolist(),
            "cov_rank": self.cov_rank,
            "rmse_bound": self.rmse_bound,
        }

    def save_json(self, path) -> None:
        # non-finite bounds serialize as Infinity (json module convention)
        _write_json(path, self.to_dict())


def _geometry(x, array):
    """Sensor distances at x and their unit vectors; errors when x sits on a sensor."""
    coords = sensor_coords(array)
    return _unit_vectors(as_position(x, coords.shape[1]), coords)


def rd_covariance(x, array, noise: NoiseModel) -> np.ndarray:
    """Covariance of the range-difference noise vector, (m_hat, m_hat).

    Row/column order and orientation follow the zero-noise measurement
    set at x (ascending pair enumeration, value-sign orientation).  With
    eps_ab = eps_a - eps_b and independent per-sensor noise,

        cov = E diag(var) E^T,

    where E is the (m_hat, m) pair-incidence matrix: the row of pair (a, b)
    holds +1 in column a and -1 in column b.  Each entry has at most two
    non-zero terms, delta_ac var_a - delta_ad var_a - delta_bc var_b +
    delta_bd var_b for pairs (a, b) and (c, d).
    """
    d, _ = _geometry(x, array)
    rd = rangediffs_from_ranges(d)
    var = np.array([range_variance(dk, noise) for dk in d])
    rows = np.arange(rd.n_pairs)
    E = np.zeros((rd.n_pairs, d.size))
    E[rows, rd.i - 1] = 1.0
    E[rows, rd.j - 1] = -1.0
    return (E * var[None, :]) @ E.T


def _trace_inv(J, n: int) -> float:
    """trace(J^{-1}) of a symmetric 2x2 or 3x3 matrix (lists), from its
    cofactors; +inf when the determinant does not come out positive."""
    if n == 2:
        cofactors = J[0][0] + J[1][1]
        det = J[0][0] * J[1][1] - J[0][1] * J[0][1]
    else:
        c0 = J[1][1] * J[2][2] - J[1][2] * J[1][2]
        c1 = J[0][0] * J[2][2] - J[0][2] * J[0][2]
        c2 = J[0][0] * J[1][1] - J[0][1] * J[0][1]
        cofactors = c0 + c1 + c2
        det = (J[0][0] * c0 - J[0][1] * (J[0][1] * J[2][2] - J[1][2] * J[0][2])
               + J[0][2] * (J[0][1] * J[1][2] - J[1][1] * J[0][2]))
    return cofactors / det if det > 0.0 else math.inf


def fisher(x, array, noise: NoiseModel) -> CrlbReport:
    """Fisher information and RMSE lower bound at the true source x.

    The closed form of the module docstring: J from the per-sensor weights
    and unit vectors, cov_rank m - 1, and the bound from the cofactors of J
    when J passes the eigenvalue test; zero noise gives J = 0, rank 0 and
    an infinite bound.  The report does not depend on measurement noise
    realizations or pair orientations.
    """
    d, units = _geometry(x, array)
    m, n = units.shape
    var = [range_variance(dk, noise) for dk in d.tolist()]
    if min(var) == 0.0:
        return CrlbReport(fisher=np.zeros((n, n)), cov_rank=0, rmse_bound=math.inf)
    w = [1.0 / v for v in var]
    total = _sum(w)
    U = units.tolist()
    mean = [_sum(wk * uk[a] for wk, uk in zip(w, U)) / total for a in range(n)]
    centred = [[uk[a] - mean[a] for a in range(n)] for uk in U]
    J = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            J[a][b] = J[b][a] = _sum(wk * ck[a] * ck[b] for wk, ck in zip(w, centred))
    lam_min, lam_max = _sym_eig_range(J, n)
    rmse = (math.sqrt(_trace_inv(J, n)) if lam_max > 0 and lam_min > 1e-12 * lam_max
            else math.inf)
    return CrlbReport(fisher=np.array(J), cov_rank=m - 1, rmse_bound=rmse)
