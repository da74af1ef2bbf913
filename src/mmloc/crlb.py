"""Cramér-Rao lower bound for range-difference localization.

Builds the Fisher information J = H cov^+ H^T where the columns of H are
the gradients of the range differences,

    h_ij = (x - y_i)/||x - y_i|| - (x - y_j)/||x - y_j||,

and cov is the covariance of the range-difference noise.  Because the
differences are formed from one noise term per sensor, cov is singular
for m >= 3 (rank m-1); the Moore-Penrose pseudoinverse gives the Fisher
information of the underlying (m-1)-dimensional statistic and is
invariant to sensor relabeling.  The scalar bound is
sqrt(trace(J^{-1})), reported as +inf when J is singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import (NoiseModel, _unit_vectors, _write_json, as_position,
                       range_variance, rangediffs_from_ranges, sensor_coords)


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
    """Sensor distances at x, their unit vectors and the zero-noise
    measurement set there; errors when x sits on a sensor."""
    coords = sensor_coords(array)
    d, units = _unit_vectors(as_position(x, coords.shape[1]), coords)
    return d, units, rangediffs_from_ranges(d)


def _covariance(d, rd, noise: NoiseModel) -> np.ndarray:
    """E diag(var) E^T for sensor distances d and measurement set rd."""
    var = np.array([range_variance(dk, noise) for dk in d])
    rows = np.arange(rd.n_pairs)
    E = np.zeros((rd.n_pairs, d.size))
    E[rows, rd.i - 1] = 1.0
    E[rows, rd.j - 1] = -1.0
    return (E * var[None, :]) @ E.T


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
    d, _, rd = _geometry(x, array)
    return _covariance(d, rd, noise)


def fisher(x, array, noise: NoiseModel) -> CrlbReport:
    """Fisher information and RMSE lower bound at the true source x.

    J is invariant to flipping the orientation of any pair (both the h
    column and the corresponding covariance row/column change sign), so
    the report does not depend on measurement noise realizations.
    """
    d, units, rd = _geometry(x, array)
    H = np.ascontiguousarray((units[rd.i - 1] - units[rd.j - 1]).T)
    cov = _covariance(d, rd, noise)
    J = H @ np.linalg.pinv(cov) @ H.T
    J = 0.5 * (J + J.T)
    cov_rank = int(np.linalg.matrix_rank(cov))
    eigs = np.linalg.eigvalsh(J)
    if eigs[-1] > 0 and eigs[0] > 1e-12 * eigs[-1]:
        rmse = math.sqrt(float(np.sum(1.0 / eigs)))
    else:
        rmse = math.inf
    return CrlbReport(fisher=J, cov_rank=cov_rank, rmse_bound=rmse)
