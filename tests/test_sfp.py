"""Range least-squares fixed-point solver."""

import numpy as np
import pytest

from mmloc import (
    CONVERGED,
    SolverConfig,
    f_rls,
    sfp_solve,
    sfp_step,
    sfp_surrogate,
    true_ranges,
)
from mmloc.errors import SensorSingularityError
from mmloc.objective import _f_ranges
from mmloc.sfp import _sfp_step_core, _sfp_step_core_nd, sfp_surrogate_many
from conftest import (
    assert_same_solve,
    make_range_instance,
    reference_iterate,
    step_outcome,
)


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
            _, trace = sfp_solve(x0, array, r, cfg)
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


class TestPlanarKernel:
    """The n == 2 update reproduces the generic loop bit for bit."""

    def test_step_matches_generic_loop(self):
        rng = np.random.default_rng(2025)
        for _ in range(1500):
            m = int(rng.integers(1, 10))
            ys = [tuple(map(float, rng.uniform(-50.0, 50.0, 2))) for _ in range(m)]
            r = [float(v) for v in np.abs(rng.normal(0.0, 30.0, m))]
            x = [float(v) for v in rng.uniform(-60.0, 60.0, 2)]
            if rng.uniform() < 0.1:  # exactly on a sensor
                x = list(ys[int(rng.integers(m))])
            got = step_outcome(_sfp_step_core, x, ys, r, 2)
            assert got == step_outcome(_sfp_step_core_nd, x, ys, r, 2)
            if x in [list(y) for y in ys]:
                assert got[0] is SensorSingularityError

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
            ys = [tuple(map(float, row)) for row in array.sensors]
            rl = [float(v) for v in r]
            ref = reference_iterate(x0, ys, n, cfg,
                                    lambda x: _sfp_step_core_nd(x, ys, rl, n),
                                    lambda x: _f_ranges(x, ys, rl))
            assert_same_solve(sfp_solve(x0, array, r, cfg), ref)
