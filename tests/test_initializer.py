"""Hyperbola-sampling starting-point selection."""

import numpy as np
import pytest

from mmloc import (
    DegenerateMeasurementError,
    InitConfig,
    RangeDiffSet,
    RayMeasurementError,
    SensorArray,
    f_rdls,
    hyperbola_points,
    init_point,
    rangediffs_from_ranges,
)
from conftest import make_instance


class TestHyperbolaPoints:
    def test_vertex_on_axis(self):
        # foci (+-5, 0), difference 6 -> transverse vertex at (3, 0)
        pts = hyperbola_points([-5.0, 0.0], [5.0, 0.0], 6.0, l=3,
                               coord_bound=50.0)
        np.testing.assert_allclose(pts[1], [3.0, 0.0], atol=1e-9)

    def test_points_satisfy_defining_equation(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            yi = rng.uniform(-10, 10, 2)
            yj = rng.uniform(-10, 10, 2)
            foc = np.linalg.norm(yj - yi)
            if foc < 0.5:
                continue
            r = rng.uniform(0.0, 0.95) * foc
            pts = hyperbola_points(yi, yj, r, l=64, coord_bound=100.0)
            di = np.linalg.norm(pts - yi, axis=1)
            dj = np.linalg.norm(pts - yj, axis=1)
            np.testing.assert_allclose(di - dj, r, atol=1e-6)

    def test_zero_difference_gives_bisector(self):
        pts = hyperbola_points([-4.0, 0.0], [4.0, 0.0], 0.0, l=16,
                               coord_bound=20.0)
        np.testing.assert_allclose(pts[:, 0], 0.0, atol=1e-9)

    def test_points_respect_bound(self):
        # random foci, differences and tight boxes: every sample lies inside
        # the box, and both end samples touch it (the interval is maximal)
        rng = np.random.default_rng(20)
        checked = 0
        while checked < 1000:
            yi = rng.uniform(-40.0, 40.0, 2)
            yj = rng.uniform(-40.0, 40.0, 2)
            foc = np.linalg.norm(yj - yi)
            r = rng.uniform(0.0, 0.999) * foc
            u = (yj - yi) / foc
            vertex = (yi + yj) / 2.0 + (r / 2.0) * u
            bound = np.max(np.abs(vertex)) * rng.uniform(1.001, 3.0)
            if bound == 0.0:
                continue
            pts = hyperbola_points(yi, yj, r, l=2048, coord_bound=bound)
            tol = 1e-9 * bound
            assert np.max(np.abs(pts)) <= bound + tol
            for end in (pts[0], pts[-1]):
                assert np.max(np.abs(end)) >= bound - tol
            checked += 1

    def test_first_exit_not_a_later_crossing(self):
        # the branch leaves the box, re-enters, and leaves again; the
        # sampled interval must stop at the first exit
        pts = hyperbola_points([15.0, -39.0], [8.0, -1.0], 21.0, l=128,
                               coord_bound=10.0)
        assert np.max(np.abs(pts)) <= 10.0 * (1.0 + 1e-9)

    def test_vertex_on_box_edge(self):
        # bisector through (5, 5) with the box edge at 5: the branch leaves
        # at once on one side and runs to the opposite corner on the other
        pts = hyperbola_points([0.0, 10.0], [10.0, 0.0], 0.0, l=5,
                               coord_bound=5.0)
        np.testing.assert_allclose(pts[0], [-5.0, -5.0], atol=1e-12)
        np.testing.assert_allclose(pts[-1], [5.0, 5.0], atol=1e-12)

    def test_ray_case_rejected(self):
        with pytest.raises(RayMeasurementError):
            hyperbola_points([0.0, 0.0], [10.0, 0.0], 10.0, l=8,
                             coord_bound=20.0)

    def test_infeasible_difference_rejected(self):
        with pytest.raises(DegenerateMeasurementError):
            hyperbola_points([0.0, 0.0], [10.0, 0.0], 11.0, l=8,
                             coord_bound=20.0)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            hyperbola_points([0.0, 0.0], [4.0, 0.0], 1.0, l=1, coord_bound=10.0)
        with pytest.raises(ValueError):
            hyperbola_points([0.0, 0.0], [4.0, 0.0], 1.0, l=8, coord_bound=-1.0)
        with pytest.raises(ValueError):
            hyperbola_points([0.0, 0.0], [4.0, 0.0], -0.5, l=8, coord_bound=10.0)


class TestInitPoint:
    def test_deterministic_given_seed(self):
        array, _, rd = make_instance(0, m=5, sigma2=0.5)
        x1 = init_point(array, rd, InitConfig(seed=4))
        x2 = init_point(array, rd, InitConfig(seed=4))
        np.testing.assert_array_equal(x1, x2)

    def test_lands_near_source_zero_noise(self):
        # the chosen hyperbola passes through the source, so the best
        # sample must score far better than a generic interior point
        for seed in range(5):
            array, source, rd = make_instance(seed, m=5)
            x0 = init_point(array, rd, InitConfig(seed=seed))
            assert f_rdls(x0, array, rd) < f_rdls(array.centroid(), array, rd)

    def test_respects_coord_bound(self):
        array, _, rd = make_instance(2, m=4, sigma2=1.0)
        x0 = init_point(array, rd, InitConfig(coord_bound=5.0, seed=0))
        assert np.max(np.abs(x0)) <= 5.0 + 1e-6

    def test_grid_fallback_for_3d(self):
        array, source, rd = make_instance(3, m=5, n=3)
        x0 = init_point(array, rd, InitConfig(grid_size=4096, seed=0))
        assert x0.shape == (3,)
        assert np.max(np.abs(x0)) <= 2.0 * np.max(np.abs(array.sensors)) + 1e-9

    def test_infeasible_pairs_fall_back_to_grid(self):
        # all differences above the sensor separations -> no usable hyperbola
        arr = np.array([[0.0, 0.0], [1.0, 0.0]])
        array = SensorArray(arr)
        rd = rangediffs_from_ranges(np.array([10.0, 1.0]))  # diff 9 > 1
        x0 = init_point(array, rd, InitConfig(grid_size=64, seed=0))
        assert x0.shape == (2,)

    def test_separation_rounding_edge_falls_back_to_grid(self):
        # a value equal to the sensor separation is a ray; the feasibility
        # filter (row-wise norm) can put the separation one bit above
        # hyperbola_points' focal distance (vector norm), and the start
        # must then come from the grid instead of an exception
        rng = np.random.default_rng(5)
        for _ in range(1000):
            pair = rng.uniform(-50.0, 50.0, (2, 2))
            diff = pair[1] - pair[0]
            foc = float(np.linalg.norm(diff))
            sep = float(np.linalg.norm(diff[None, :], axis=1)[0])
            if sep > foc:
                break
        array = SensorArray(pair)
        for v in (foc, sep):
            rd = RangeDiffSet(np.array([1]), np.array([2]), np.array([v]), 2)
            x0 = init_point(array, rd, InitConfig(grid_size=16, seed=0))
            assert x0.shape == (2,) and np.all(np.isfinite(x0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InitConfig(grid_size=1)
        with pytest.raises(ValueError):
            InitConfig(coord_bound=0.0)

    def test_grid_size_must_be_an_integer(self):
        for bad in (2.5, 128.0, True, "128"):
            with pytest.raises(ValueError, match="grid_size must be an integer"):
                InitConfig(grid_size=bad)
        cfg = InitConfig(grid_size=np.int32(16))
        assert cfg.grid_size == 16 and type(cfg.grid_size) is int

    def test_beats_random_start_on_average(self):
        # the sampled start should usually score below a random unit-box start
        wins = 0
        for seed in range(20):
            array, _, rd = make_instance(seed, m=5, sigma2=0.5)
            x0 = init_point(array, rd, InitConfig(seed=seed))
            xr = np.random.default_rng(seed).uniform(0.0, 1.0, 2)
            if f_rdls(x0, array, rd) <= f_rdls(xr, array, rd):
                wins += 1
        assert wins >= 15
