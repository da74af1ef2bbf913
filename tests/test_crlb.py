"""Fisher information, range-difference covariance, and the RMSE bound."""

import json
import math

import numpy as np
import pytest

from mmloc import (
    NoiseModel,
    SensorArray,
    circular_array,
    fisher,
    range_variance,
    rangediffs_from_ranges,
    rd_covariance,
    snr_to_sigma2,
)
from mmloc.crlb import _trace_inv


def range_variance_oracle(D, sigma2, f0, c, fs_factor):
    """Independently coded evaluator of the single-range variance."""
    return (sigma2 * c * c * D**4) / ((fs_factor / 2.0)
                                      * (c * c + 4.0 * math.pi**2 * f0 * f0 * D * D))


class TestRangeVariance:
    def test_frozen_reference_value(self):
        # sigma2=1, c=340, f0=1000, D=1, fs_factor=4
        noise = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)
        got = range_variance(1.0, noise)
        assert got == pytest.approx(1.4598164949454118e-03, rel=1e-12)

    def test_matches_inline_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            D = rng.uniform(0.1, 100.0)
            sigma2 = rng.uniform(0.01, 10.0)
            f0 = rng.uniform(100.0, 5000.0)
            noise = NoiseModel(sigma2=sigma2, f0=f0, c=340.0)
            assert range_variance(D, noise) == pytest.approx(
                range_variance_oracle(D, sigma2, f0, 340.0, 4.0), rel=1e-12)

    def test_grows_with_distance(self):
        noise = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)
        assert range_variance(10.0, noise) > range_variance(1.0, noise)

    def test_rejects_nonpositive_distance(self):
        noise = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)
        with pytest.raises(ValueError):
            range_variance(0.0, noise)


class TestRdCovariance:
    def test_equidistant_structure(self):
        """Equilateral triangle, source at center: diag 2v, shared-sensor
        entries +-v depending on orientation, rank 2."""
        ang = 2.0 * np.pi * np.arange(3) / 3.0
        arr = SensorArray(10.0 * np.column_stack([np.cos(ang), np.sin(ang)]))
        noise = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)
        cov = rd_covariance(np.zeros(2), arr, noise)
        v = range_variance(10.0, noise)
        # ties keep ascending orientation: entries are d1-d2, d1-d3, d2-d3
        expect = np.array([[2.0, 1.0, -1.0],
                           [1.0, 2.0, 1.0],
                           [-1.0, 1.0, 2.0]]) * v
        np.testing.assert_allclose(cov, expect, rtol=1e-12)
        assert np.linalg.matrix_rank(cov) == 2

    def test_rank_is_m_minus_1(self):
        rng = np.random.default_rng(1)
        noise = NoiseModel(sigma2=0.5, f0=800.0, c=340.0)
        for m in (3, 4, 5):
            arr = SensorArray(rng.uniform(-20, 20, (m, 2)))
            cov = rd_covariance(rng.uniform(-5, 5, 2), arr, noise)
            assert np.linalg.matrix_rank(cov) == m - 1

    def test_symmetric_psd(self):
        rng = np.random.default_rng(2)
        noise = NoiseModel(sigma2=2.0, f0=500.0, c=340.0)
        arr = SensorArray(rng.uniform(-20, 20, (4, 2)))
        cov = rd_covariance(rng.uniform(-5, 5, 2), arr, noise)
        np.testing.assert_allclose(cov, cov.T, atol=1e-15)
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12

    def test_matches_linear_map_construction(self):
        """cov must equal A diag(var) A' for the signed difference map A."""
        rng = np.random.default_rng(3)
        noise = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)
        arr = SensorArray(rng.uniform(-20, 20, (4, 2)))
        src = rng.uniform(-5, 5, 2)
        d = np.linalg.norm(src - arr.sensors, axis=1)
        var = np.array([range_variance(dk, noise) for dk in d])
        # rebuild the signed map: row per pair, +1 at the farther sensor
        pairs = []
        for i in range(4):
            for j in range(i + 1, 4):
                pairs.append((i, j) if d[i] >= d[j] else (j, i))
        A = np.zeros((6, 4))
        for k, (a, b) in enumerate(pairs):
            A[k, a] = 1.0
            A[k, b] = -1.0
        np.testing.assert_allclose(rd_covariance(src, arr, noise),
                                   A @ np.diag(var) @ A.T, rtol=1e-12)


def pinv_fisher(x, array, noise):
    """The reference: J = H cov^+ H^T over the zero-noise measurement set, with
    LAPACK's pseudoinverse, rank and eigenvalues; returns (J, rank, bound)."""
    d = np.linalg.norm(x - array.sensors, axis=1)
    units = (x - array.sensors) / d[:, None]
    rd = rangediffs_from_ranges(d)
    H = (units[rd.i - 1] - units[rd.j - 1]).T
    cov = rd_covariance(x, array, noise)
    J = H @ np.linalg.pinv(cov) @ H.T
    J = 0.5 * (J + J.T)
    eigs = np.linalg.eigvalsh(J)
    finite = eigs[-1] > 0 and eigs[0] > 1e-12 * eigs[-1]
    bound = math.sqrt(np.sum(1.0 / eigs)) if finite else math.inf
    return J, int(np.linalg.matrix_rank(cov)), bound


class TestFisher:
    def test_closed_form_matches_pinv_reference(self):
        # random 2-D and 3-D geometries, m = 3..9, SNR -10..10 dB; 3-D with
        # m = 3 has rank-2 information, so both bounds are infinite there
        rng = np.random.default_rng(44)
        finite = 0
        for _ in range(400):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(3, 10))
            array = SensorArray(rng.uniform(-50.0, 50.0, (m, n)))
            x = rng.uniform(-20.0, 20.0, n)
            noise = NoiseModel(sigma2=snr_to_sigma2(rng.uniform(-10.0, 10.0)), f0=1000.0, c=340.0)
            rep = fisher(x, array, noise)
            J, rank, bound = pinv_fisher(x, array, noise)
            assert rep.cov_rank == rank == m - 1
            np.testing.assert_allclose(rep.fisher, J, rtol=0, atol=1e-10 * np.abs(J).max())
            assert np.array_equal(rep.fisher, rep.fisher.T)
            if m - 1 < n:
                assert rep.rmse_bound == bound == math.inf
            else:
                assert rep.rmse_bound == pytest.approx(bound, rel=1e-10)
                finite += 1
        assert finite > 300

    def test_zero_noise_gives_zero_information_and_no_bound(self):
        for n in (2, 3):
            array = SensorArray(np.random.default_rng(n).uniform(-10.0, 10.0, (5, n)))
            rep = fisher(np.full(n, 0.5), array, NoiseModel(sigma2=0.0, f0=1000.0, c=340.0))
            assert rep.rmse_bound == math.inf and rep.cov_rank == 0
            assert rep.fisher.shape == (n, n) and not rep.fisher.any()

    def test_trace_of_a_singular_matrix_is_infinite(self):
        # a determinant that rounds to zero or below gives no finite bound
        assert _trace_inv([[1.0, 1.0], [1.0, 1.0]], 2) == math.inf
        assert _trace_inv([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]], 3) == math.inf
        assert _trace_inv([[2.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 8.0]], 3) == 0.875

    def test_no_lapack_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")

        for name in ("pinv", "matrix_rank", "eigvalsh", "eigh", "eig", "inv", "solve", "svd",
                     "det"):
            monkeypatch.setattr(np.linalg, name, refuse)
        noise = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)
        for n in (2, 3):
            array = SensorArray(np.random.default_rng(n).uniform(-10.0, 10.0, (5, n)))
            assert math.isfinite(fisher(np.full(n, 0.5), array, noise).rmse_bound)
        assert fisher(np.array([5.0, 7.0]), SensorArray(np.array([[0.0, 0.0], [10.0, 0.0]])),
                      noise).rmse_bound == math.inf

    def test_square_center_isotropic(self):
        """Fully symmetric geometry: J must be a multiple of the identity."""
        arr = SensorArray(np.array([[10.0, 10.0], [-10.0, 10.0],
                                    [-10.0, -10.0], [10.0, -10.0]]))
        noise = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)
        rep = fisher(np.zeros(2), arr, noise)
        assert rep.fisher[0, 0] == pytest.approx(rep.fisher[1, 1], rel=1e-9)
        assert abs(rep.fisher[0, 1]) < 1e-9 * rep.fisher[0, 0]
        assert math.isfinite(rep.rmse_bound)
        assert rep.cov_rank == 3

    def test_two_collinear_sensors_unbounded(self):
        # one pair constrains one direction only -> singular J -> inf bound
        arr = SensorArray(np.array([[0.0, 0.0], [10.0, 0.0]]))
        noise = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)
        rep = fisher(np.array([5.0, 7.0]), arr, noise)
        assert rep.rmse_bound == math.inf
        J, rank, bound = pinv_fisher(np.array([5.0, 7.0]), arr, noise)
        assert rep.cov_rank == rank == 1 and bound == math.inf
        np.testing.assert_allclose(rep.fisher, J, rtol=0, atol=1e-10 * np.abs(J).max())

    def test_bound_scales_with_noise(self):
        arr = circular_array(5, radius=30.0)
        src = np.array([3.0, -4.0])
        lo = fisher(src, arr, NoiseModel(sigma2=0.1, f0=1000.0, c=340.0))
        hi = fisher(src, arr, NoiseModel(sigma2=10.0, f0=1000.0, c=340.0))
        # variance scales linearly with sigma2, so the bound scales by 10x
        assert hi.rmse_bound == pytest.approx(10.0 * lo.rmse_bound, rel=1e-9)

    def test_orientation_invariance_under_source_reflection(self):
        """Reflecting the whole geometry flips many pair orientations but
        must leave the scalar bound unchanged."""
        rng = np.random.default_rng(5)
        noise = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)
        coords = rng.uniform(-20, 20, (5, 2))
        src = rng.uniform(-5, 5, 2)
        rep = fisher(src, SensorArray(coords), noise)
        rep_ref = fisher(-src, SensorArray(-coords), noise)
        assert rep.rmse_bound == pytest.approx(rep_ref.rmse_bound, rel=1e-9)

    def test_report_json_roundtrip(self, tmp_path):
        arr = SensorArray(np.array([[0.0, 0.0], [10.0, 0.0]]))
        noise = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)
        rep = fisher(np.array([5.0, 7.0]), arr, noise)
        path = tmp_path / "report.json"
        rep.save_json(path)
        back = json.loads(path.read_text())
        assert back["rmse_bound"] == math.inf  # json Infinity convention
        np.testing.assert_allclose(back["fisher"], rep.fisher)
        assert back["cov_rank"] == rep.cov_rank
