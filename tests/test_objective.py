"""Objective functions and the finite-difference gradient helper."""

import math

import numpy as np
import pytest

from mmloc import (
    RangeDiffSet,
    SensorArray,
    f_rdls,
    f_rdls_many,
    f_rls,
    f_rls_many,
    grad_fd,
    rangediffs_from_ranges,
    true_ranges,
)
from conftest import make_instance, make_range_instance


@pytest.mark.parametrize("n", [2, 3])
def test_many_equals_scalar_at_every_batch_size(n):
    # every cost adds its terms in entry order, so a one-row call, a row of
    # a batch and the scalar cost agree bit for bit
    rng = np.random.default_rng(30 + n)
    for m in range(2, 10):
        array, _, rd = make_instance(m, m=m, n=n, sigma2=0.5)
        r = true_ranges(rng.uniform(-10.0, 10.0, n), array) + rng.normal(0.0, 0.5, m)
        X = rng.uniform(-20.0, 20.0, (25, n))
        for many, scalar, meas in ((f_rdls_many, f_rdls, rd), (f_rls_many, f_rls, r)):
            batch = many(X, array, meas)
            for k in range(len(X)):
                assert many(X[k], array, meas)[0] == batch[k] == scalar(X[k], array, meas)


class TestRangeObjective:
    def test_zero_at_consistent_point(self):
        y = np.array([[0.0, 0.0]])
        assert f_rls(np.array([3.0, 4.0]), y, np.array([5.0])) == 0.0

    def test_hand_value(self):
        # (||x - y|| - r)^2 = (10 - 5)^2 = 25 for a single sensor
        y = np.array([[0.0, 0.0]])
        assert f_rls(np.array([6.0, 8.0]), y, np.array([5.0])) == pytest.approx(25.0)

    def test_sum_over_sensors(self):
        y = np.array([[0.0, 0.0], [4.0, 0.0]])
        x = np.array([0.0, 3.0])
        # distances 3 and 5, targets 1 and 1 -> 4 + 16
        got = f_rls(x, y, np.array([1.0, 1.0]))
        assert got == pytest.approx(20.0)

    def test_rejects_nonfinite_range(self):
        y = np.array([[0.0, 0.0], [4.0, 0.0]])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                f_rls(np.array([0.0, 3.0]), y, np.array([1.0, bad]))
            with pytest.raises(ValueError, match="finite"):
                f_rls_many(np.zeros((3, 2)), y, np.array([bad, 1.0]))

    def test_raw_sensor_arrays(self):
        # a 1-D raw array is one sensor; other shapes and values are rejected
        assert f_rls([0.0, 0.0], np.array([3.0, 4.0]), [2.0]) == 9.0
        for coords, message in ((np.zeros((2, 2, 2)), "must have shape"),
                                (np.zeros((2, 4)), "must have shape"),
                                (np.zeros((0, 2)), "need at least one sensor"),
                                (np.array([[0.0, math.nan]]), "sensor coordinates must be finite"),
                                (np.array([[math.inf, 0.0]]), "sensor coordinates must be finite")):
            with pytest.raises(ValueError, match=message):
                f_rls([0.0, 0.0], coords, np.ones(len(coords)))

    def test_batch_matches_scalar(self):
        array, _, r = make_range_instance(3, m=5, noise_std=0.1)
        rng = np.random.default_rng(7)
        X = rng.uniform(-10, 10, (64, 2))
        batch = f_rls_many(X, array, r)
        for k in range(64):
            assert batch[k] == f_rls(X[k], array, r)


class TestRangeDiffObjective:
    def test_zero_at_source(self):
        array, source, rd = make_instance(0, m=5)
        assert f_rdls(source, array, rd) == pytest.approx(0.0, abs=1e-22)

    def test_hand_value(self):
        # equidistant point, r_12 = 1 -> single term (0 - 1)^2
        arr = SensorArray(np.array([[0.0, 0.0], [4.0, 0.0]]))
        rd = rangediffs_from_ranges(np.array([2.0, 1.0]))
        assert f_rdls(np.array([2.0, 3.0]), arr, rd) == pytest.approx(1.0)

    def test_expansion_identity(self):
        """(d_i - d_j - r)^2 == d_i^2 + d_j^2 + r^2 - 2 d_i d_j - 2 r d_i + 2 r d_j."""
        rng = np.random.default_rng(11)
        for _ in range(25):
            array, _, rd = make_instance(rng.integers(2**32), m=4)
            x = rng.uniform(-10, 10, 2)
            d = true_ranges(x, array)
            expanded = 0.0
            for i, j, r in rd.entries():
                di, dj = d[i - 1], d[j - 1]
                expanded += (di * di + dj * dj + r * r
                             - 2 * di * dj - 2 * r * di + 2 * r * dj)
            assert f_rdls(x, array, rd) == pytest.approx(expanded, rel=1e-9,
                                                         abs=1e-9)

    def test_batch_matches_scalar(self):
        array, _, rd = make_instance(5, m=5, sigma2=0.5)
        rng = np.random.default_rng(8)
        X = rng.uniform(-10, 10, (64, 2))
        batch = f_rdls_many(X, array, rd)
        for k in range(64):
            assert batch[k] == f_rdls(X[k], array, rd)

    @pytest.mark.parametrize("n", [2, 3])
    def test_batch_sums_pairs_in_stored_order(self, n):
        # bit for bit the one-set numpy formula, whatever order the set
        # stores its pairs in (numpy's pairwise sum depends on that order)
        rng = np.random.default_rng(n)
        for m in (4, 5, 9):
            array, _, rd = make_instance(m, m=m, n=n, sigma2=0.5)
            k = rng.permutation(rd.n_pairs)
            rd = RangeDiffSet(rd.i[k], rd.j[k], rd.values[k], m)
            X = rng.uniform(-20.0, 20.0, (33, n))
            D = np.linalg.norm(X[:, None, :] - array.sensors[None, :, :], axis=2)
            want = np.sum((rd.values[None, :] - (D[:, rd.i - 1] - D[:, rd.j - 1])) ** 2, axis=1)
            assert f_rdls_many(X, array, rd).tobytes() == want.tobytes()

    def test_translation_invariance(self):
        array, source, rd = make_instance(9, m=4)
        t = np.array([17.0, -4.0])
        shifted = SensorArray(array.sensors + t)
        x = np.array([1.0, 2.0])
        assert f_rdls(x + t, shifted, rd) == pytest.approx(
            f_rdls(x, array, rd), rel=1e-12)


class TestGradFd:
    def test_quadratic_gradient(self):
        g = grad_fd(lambda x: float(np.dot(x, x)), np.array([1.0, 2.0]))
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-6)

    def test_step_scales_with_magnitude(self):
        g = grad_fd(lambda x: float(np.dot(x, x)), np.array([1e6, 0.0]))
        np.testing.assert_allclose(g[0], 2e6, rtol=1e-6)

    def test_rejects_point_near_sensor(self):
        arr = SensorArray(np.array([[0.0, 0.0], [5.0, 0.0]]))
        with pytest.raises(ValueError):
            grad_fd(lambda x: 0.0, np.array([1e-9, 0.0]), sensors=arr)

    def test_matches_analytic_rdls_gradient(self):
        """FD gradient agrees with the chain-rule gradient away from sensors."""
        rng = np.random.default_rng(21)
        for _ in range(10):
            array, _, rd = make_instance(rng.integers(2**32), m=4, sigma2=0.2)
            x = rng.uniform(-8, 8, 2)
            coords = array.sensors
            d = true_ranges(x, array)
            if d.min() < 1e-3:
                continue
            grad = np.zeros(2)
            for i, j, r in rd.entries():
                ui = (x - coords[i - 1]) / d[i - 1]
                uj = (x - coords[j - 1]) / d[j - 1]
                grad += 2.0 * (d[i - 1] - d[j - 1] - r) * (ui - uj)
            fd = grad_fd(lambda p: f_rdls(p, array, rd), x, sensors=array)
            np.testing.assert_allclose(fd, grad, rtol=1e-4, atol=1e-4)
