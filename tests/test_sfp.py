"""Range least-squares fixed-point solver."""

import numpy as np
import pytest

from mmloc import (
    CONVERGED,
    MAX_ITER,
    SINGULAR_SYSTEM,
    SolverConfig,
    f_rls,
    sfp_solve,
    sfp_step,
    sfp_surrogate,
    true_ranges,
)
from mmloc.errors import SensorSingularityError
from mmloc.objective import _f_ranges
from mmloc.scenario import sensor_coords
from mmloc.sfp import _sfp_step_core_nd, sfp_surrogate_many
from conftest import assert_same_solve, make_range_instance, reference_iterate


def triangle_instance(seed):
    """Non-collinear triangle with the source inside it (zero noise)."""
    rng = np.random.default_rng(seed)
    while True:
        coords = rng.uniform(-10.0, 10.0, (3, 2))
        u, v = coords[1] - coords[0], coords[2] - coords[0]
        area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
        if area > 5.0:
            break
    lam = rng.dirichlet(np.ones(3))
    source = lam @ coords
    return coords, source, true_ranges(source, coords)


class TestStep:
    def test_single_sensor_projection(self):
        # the update pushes x to measured range along the sensor->x ray
        y = np.array([[0.0, 0.0]])
        step = sfp_step(np.array([3.0, 4.0]), y, np.array([10.0]))
        np.testing.assert_allclose(step, [6.0, 8.0], atol=1e-12)

    def test_mean_of_votes(self):
        y = np.array([[0.0, 0.0], [10.0, 0.0]])
        x = np.array([5.0, 0.1])
        step = sfp_step(x, y, np.array([5.0, 5.0]))
        votes = []
        for k in range(2):
            w = (x - y[k]) / np.linalg.norm(x - y[k])
            votes.append(y[k] + 5.0 * w)
        np.testing.assert_allclose(step, np.mean(votes, axis=0), atol=1e-12)

    def test_length_mismatch(self):
        y = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            sfp_step(np.zeros(2), y, np.array([1.0]))

    def test_never_increases_objective(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            array, _, r = make_range_instance(rng.integers(2**32), m=4,
                                              noise_std=0.5)
            xk = rng.uniform(-12, 12, 2)
            x1 = sfp_step(xk, array, r)
            assert f_rls(x1, array, r) <= f_rls(xk, array, r) + 1e-9


class TestSurrogate:
    def test_touches_objective(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            array, _, r = make_range_instance(rng.integers(2**32), m=5,
                                              noise_std=0.3)
            xk = rng.uniform(-12, 12, 2)
            assert sfp_surrogate(xk, xk, array, r) == pytest.approx(
                f_rls(xk, array, r), rel=1e-10, abs=1e-10)

    def test_dominates_objective(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            array, _, r = make_range_instance(rng.integers(2**32), m=4,
                                              noise_std=0.3)
            xk = rng.uniform(-12, 12, 2)
            for _ in range(100):
                x = rng.uniform(-15, 15, 2)
                assert sfp_surrogate(x, xk, array, r) >= f_rls(x, array, r) - 1e-9

    def test_step_minimizes_surrogate(self):
        array, _, r = make_range_instance(8, m=4, noise_std=0.2)
        xk = np.array([2.0, -1.0])
        step = sfp_step(xk, array, r)
        g0 = sfp_surrogate(step, xk, array, r)
        rng = np.random.default_rng(0)
        for _ in range(50):
            probe = step + rng.normal(0, 0.1, 2)
            assert sfp_surrogate(probe, xk, array, r) >= g0 - 1e-9


class TestSolve:
    def test_centroid_default_start(self):
        coords, source, r = triangle_instance(0)
        est_default, _ = sfp_solve(None, coords, r, SolverConfig(tol=1e-13))
        est_explicit, _ = sfp_solve(coords.mean(axis=0), coords, r,
                                    SolverConfig(tol=1e-13))
        np.testing.assert_allclose(est_default, est_explicit, atol=1e-12)

    def test_exact_recovery_in_triangle(self):
        cfg = SolverConfig(tol=1e-14, max_iter=30000)
        for seed in range(5):
            coords, source, r = triangle_instance(seed)
            est, trace = sfp_solve(None, coords, r, cfg)
            assert np.linalg.norm(est - source) < 1e-5

    def test_fixed_point_residual_at_convergence(self):
        coords, source, r = triangle_instance(3)
        est, trace = sfp_solve(None, coords, r,
                               SolverConfig(tol=1e-15, max_iter=50000))
        residual = np.linalg.norm(sfp_step(est, coords, r) - est)
        assert residual < 1e-7 * (1.0 + np.linalg.norm(est))

    def test_monotone_descent_noisy(self):
        rng = np.random.default_rng(9)
        cfg = SolverConfig(tol=1e-10, max_iter=2000)
        for _ in range(20):
            array, _, r = make_range_instance(rng.integers(2**32), m=4,
                                              noise_std=1.0)
            x0 = rng.uniform(0.0, 1.0, 2)
            trace = sfp_solve(x0, array, r, cfg, trace=True)[1].trace
            assert np.all(np.diff(trace.objectives) <= 1e-9)

    def test_translation_invariance(self):
        coords, source, r = triangle_instance(4)
        t = np.array([31.0, -12.0])
        cfg = SolverConfig(tol=1e-13, max_iter=30000)
        est, _ = sfp_solve(None, coords, r, cfg)
        est_shift, _ = sfp_solve(None, coords + t, r, cfg)
        np.testing.assert_allclose(est_shift, est + t, atol=1e-6)

    def test_rejects_nonfinite_range(self):
        coords, _, r = triangle_instance(6)
        x = np.array([1.0, 1.0])
        for bad in (np.nan, np.inf, -np.inf):
            r_bad = r.copy()
            r_bad[1] = bad
            with pytest.raises(ValueError, match="finite"):
                sfp_solve(None, coords, r_bad)
            with pytest.raises(ValueError, match="finite"):
                sfp_step(x, coords, r_bad)
            with pytest.raises(ValueError, match="finite"):
                sfp_surrogate(x, x, coords, r_bad)
            with pytest.raises(ValueError, match="finite"):
                sfp_surrogate_many(np.zeros((4, 2)), x, coords, r_bad)

    def test_trace_statuses(self):
        coords, source, r = triangle_instance(5)
        _, trace = sfp_solve(None, coords, r, SolverConfig(max_iter=1))
        assert trace.iterations <= 1
        _, trace = sfp_solve(None, coords, r,
                             SolverConfig(tol=1e-14, max_iter=30000))
        assert trace.status == CONVERGED


def reference_sfp_solve(x0, array, ranges, cfg):
    """The shared MM loop around the generic update: sfp_solve's reference."""
    coords = sensor_coords(array)
    n = coords.shape[1]
    ys = [tuple(map(float, row)) for row in coords]
    rl = [float(v) for v in ranges]
    xs = coords.mean(axis=0) if x0 is None else x0
    return reference_iterate(xs, ys, n, cfg,
                             lambda x: _sfp_step_core_nd(x, ys, rl, n),
                             lambda x: _f_ranges(x, ys, rl))


class TestPlanarKernel:
    """sfp_solve's loops reproduce the shared loop and generic update bit for bit."""

    def test_random_solves_match_reference_loop(self):
        # m = 1..9 on raw coordinate arrays; one start in ten exactly on a sensor
        rng = np.random.default_rng(2025)
        on_sensor = 0
        for _ in range(1500):
            m = int(rng.integers(1, 10))
            ys = rng.uniform(-50.0, 50.0, (m, 2))
            r = np.abs(rng.normal(0.0, 30.0, m))
            x0 = rng.uniform(-60.0, 60.0, 2)
            if rng.uniform() < 0.1:
                x0 = ys[int(rng.integers(m))].copy()
                on_sensor += 1
            cfg = SolverConfig(tol=float(10.0 ** -rng.integers(3, 13)),
                               max_iter=int(rng.integers(1, 40)))
            assert_same_solve(sfp_solve(x0, ys, r, cfg, trace=True),
                              reference_sfp_solve(x0, ys, r, cfg))
        assert on_sensor > 100

    @pytest.mark.parametrize("n", [2, 3])
    def test_solve_matches_reference_loop(self, n):
        rng = np.random.default_rng(400 + n)
        for case in range(40):
            m = int(rng.integers(3, 8))
            array, _, r = make_range_instance(rng.integers(2**32), m=m, n=n,
                                              noise_std=float(rng.uniform(0.0, 1.0)))
            x0 = (array.sensors[case % m] if case % 4 == 0
                  else rng.uniform(-12.0, 12.0, n))
            cfg = SolverConfig(tol=float(10.0 ** -rng.integers(4, 13)),
                               max_iter=int(rng.integers(1, 400)))
            assert_same_solve(sfp_solve(x0, array, r, cfg, trace=True),
                              reference_sfp_solve(x0, array, r, cfg))

    @pytest.mark.parametrize("sensors, ranges, x0, cfg, status, iterations", [
        # start exactly on a sensor: nudged before the first step
        ([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], [2.0, 2.5, 2.0], [4.0, 0.0],
         SolverConfig(tol=1e-12), CONVERGED, None),
        # the start nudge lands on sensor 2, whose nudge lands on sensor 1:
        # the update meets a sensor and the run stops as singular
        ([[0.0, 0.0], [1e-6, 0.0]], [1.0, 1.0], [0.0, 0.0],
         SolverConfig(), SINGULAR_SYSTEM, 0),
        # zero objective at the start
        ([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], [5.0, 3.0, 4.0], [4.0, 3.0],
         SolverConfig(), CONVERGED, 0),
        # zero objective after one update (m = 1)
        ([[0.0, 0.0]], [10.0], [3.0, 4.0], SolverConfig(), CONVERGED, 1),
        # relative-change stop on a noisy triangle
        ([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], [2.1, 2.4, 2.2], [1.0, 1.0],
         SolverConfig(tol=1e-6), CONVERGED, None),
        # max_iter=1
        ([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], [2.1, 2.4, 2.2], [1.0, 1.0],
         SolverConfig(max_iter=1), MAX_ITER, 1),
    ])
    def test_stop_branches_match_reference_loop(self, sensors, ranges, x0, cfg,
                                                status, iterations):
        ys, r, start = np.array(sensors), np.array(ranges), np.array(x0)
        got = sfp_solve(start, ys, r, cfg, trace=True)
        assert_same_solve(got, reference_sfp_solve(start, ys, r, cfg))
        trace = got[1].trace
        if status is not None:
            assert trace.status == status
        if iterations is not None:
            assert trace.iterations == iterations
        if status == CONVERGED and iterations is None:
            assert trace.objectives[-1] > 1e-18  # stopped by tol, not zero objective

    def test_update_landing_on_sensor_is_nudged(self):
        # the mean of the votes from (5, 0) is sensor 2 itself; the update
        # from there would divide by zero, so the loop nudges first
        ys, r = np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1.0, 1.0])
        x0, cfg = np.array([5.0, 0.0]), SolverConfig(max_iter=5)
        got = sfp_solve(x0, ys, r, cfg, trace=True)
        assert_same_solve(got, reference_sfp_solve(x0, ys, r, cfg))
        trace = got[1].trace
        assert trace.iterates.tolist() == [[5.0, 0.0], [2.0, 0.0], [1.0, 0.0]]
        assert trace.status == CONVERGED and trace.objectives[-1] == 0.0
        with pytest.raises(SensorSingularityError):
            sfp_step(trace.iterates[1], ys, r)

    def test_three_dimensional_update_landing_on_a_sensor(self):
        # zero ranges make the first update the sensors' mean, sensor 3 itself;
        # _reference_sweep then leaves the update to the loop, whose nudge has
        # no direction toward the other sensors' centroid (sensor 3 again)
        ys = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        r, x0, cfg = np.zeros(3), np.array([0.3, 0.4, 0.5]), SolverConfig()
        got = sfp_solve(x0, ys, r, cfg, trace=True)
        assert_same_solve(got, reference_sfp_solve(x0, ys, r, cfg))
        trace = got[1].trace
        assert trace.iterates.tolist()[:2] == [[0.3, 0.4, 0.5], [0.0, 0.0, 0.0]]
        assert trace.status == CONVERGED
