"""Range-difference solver: bound construction, closed-form step, iteration."""

import itertools
import math

import numpy as np
import pytest

from mmloc import (
    CONVERGED,
    MAX_ITER,
    SINGULAR_SYSTEM,
    RangeDiffSet,
    SensorArray,
    SolveTrace,
    SolverConfig,
    bound_quantities,
    f_rdls,
    grad_fd,
    init_point,
    rangediffs_from_ranges,
    run_rmse_sweep,
    sfp_solve,
    solvit_solve,
    solvit_step,
    surrogate_g,
    true_ranges,
    write_trace_csv,
)
from mmloc import solvit
from mmloc.errors import SensorSingularityError, SingularSystemError
from mmloc.objective import _f_pairs, _f_ranges, _rd_inputs
from mmloc.scenario import oriented_rangediffs
from mmloc.solvit import _mm_loop, _step_core_nd
from conftest import (assert_same_solve, criterion_7_config, ending_cases, make_instance,
                      make_range_instance, reference_iterate)


def quad_min_from_evals(g, n):
    """Recover the minimizer of a quadratic from point evaluations only.

    Fits g(x) = x'Px + q'x + c from evaluations at 0, +-e_k, e_k + e_l and
    solves 2Px = -q with numpy.  Serves as an oracle that shares no code
    with the closed-form step.
    """
    e = np.eye(n)
    c = g(np.zeros(n))
    P = np.zeros((n, n))
    q = np.zeros(n)
    for k in range(n):
        gp, gm = g(e[k]), g(-e[k])
        P[k, k] = 0.5 * (gp + gm) - c
        q[k] = 0.5 * (gp - gm)
    for k in range(n):
        for l in range(k + 1, n):
            gkl = g(e[k] + e[l])
            P[k, l] = P[l, k] = 0.5 * (gkl - c - q[k] - q[l] - P[k, k] - P[l, l])
    return np.linalg.solve(2.0 * P, -q)


class TestBoundQuantities:
    def test_shapes_and_structure(self):
        array, source, rd = make_instance(1, m=5)
        x = np.array([0.5, -0.25])
        bq = bound_quantities(x, array, rd)
        assert bq.w.shape == (5, 2)
        assert bq.s.shape == (10,)
        assert bq.Q.shape == (10, 2, 2)
        np.testing.assert_allclose(np.linalg.norm(bq.w, axis=1), 1.0, rtol=1e-12)
        assert np.all(bq.s >= 0)

    def test_rank_one_outer_product(self):
        array, _, rd = make_instance(2, m=4)
        x = np.array([1.0, 2.0])
        bq = bound_quantities(x, array, rd)
        for k, (i, j, _) in enumerate(rd.entries()):
            expect = np.outer(bq.w[j - 1], bq.w[i - 1])
            np.testing.assert_allclose(bq.Q[k], expect, atol=1e-15)

    def test_eigenvalue_ceiling(self):
        # the symmetrized rank-one blocks never exceed eigenvalue 2
        rng = np.random.default_rng(3)
        for _ in range(50):
            array, _, rd = make_instance(rng.integers(2**32), m=4)
            x = rng.uniform(-12, 12, 2)
            bq = bound_quantities(x, array, rd)
            for Q in bq.Q:
                lam = np.linalg.eigvalsh(Q + Q.T)
                assert lam[-1] <= 2.0 + 1e-12

    def test_errors_at_sensor(self):
        array, _, rd = make_instance(4, m=4)
        with pytest.raises(SensorSingularityError):
            bound_quantities(array.sensors[2], array, rd)

    def test_sensor_count_mismatch(self):
        array, _, rd = make_instance(5, m=4)
        other = SensorArray(np.arange(10.0).reshape(5, 2))
        with pytest.raises(ValueError):
            bound_quantities(np.zeros(2), other, rd)


class TestSurrogate:
    def test_touches_objective_at_expansion_point(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            array, _, rd = make_instance(rng.integers(2**32), m=4, sigma2=0.3)
            xk = rng.uniform(-12, 12, 2)
            f = f_rdls(xk, array, rd)
            g = surrogate_g(xk, xk, array, rd)
            assert g == pytest.approx(f, rel=1e-10, abs=1e-10)

    def test_dominates_objective(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            array, _, rd = make_instance(rng.integers(2**32), m=4, sigma2=0.3)
            xk = rng.uniform(-12, 12, 2)
            for _ in range(100):
                x = rng.uniform(-15, 15, 2)
                assert surrogate_g(x, xk, array, rd) >= f_rdls(x, array, rd) - 1e-9


class TestStep:
    def test_matches_reconstruction_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            array, _, rd = make_instance(rng.integers(2**32), m=4, sigma2=0.2)
            xk = rng.uniform(-12, 12, 2)
            step = solvit_step(xk, array, rd)
            oracle = quad_min_from_evals(
                lambda p: surrogate_g(p, xk, array, rd), 2)
            np.testing.assert_allclose(step, oracle, atol=1e-8)

    def test_step_never_increases_objective(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            array, _, rd = make_instance(rng.integers(2**32), m=5, sigma2=0.5)
            xk = rng.uniform(-12, 12, 2)
            x1 = solvit_step(xk, array, rd)
            assert f_rdls(x1, array, rd) <= f_rdls(xk, array, rd) + 1e-9

    def test_translation_invariance(self):
        array, _, rd = make_instance(11, m=4, sigma2=0.2)
        t = np.array([23.0, -7.0])
        shifted = SensorArray(array.sensors + t)
        xk = np.array([1.5, -2.5])
        np.testing.assert_allclose(solvit_step(xk + t, shifted, rd),
                                   solvit_step(xk, array, rd) + t, atol=1e-9)

    def test_symmetric_configuration_fixed_point(self, square_array):
        # zero measurements + full symmetry: the center maps to itself
        rd = rangediffs_from_ranges(np.full(4, math.sqrt(2.0)))
        step = solvit_step(np.array([0.0, 0.0]), square_array, rd)
        np.testing.assert_allclose(step, [0.0, 0.0], atol=1e-12)

    def test_three_dimensional_step(self):
        array, source, rd = make_instance(12, m=5, n=3)
        xk = source + 0.5
        step = solvit_step(xk, array, rd)
        assert step.shape == (3,)
        assert f_rdls(step, array, rd) <= f_rdls(xk, array, rd) + 1e-12


class TestSolve:
    def test_exact_recovery_zero_noise(self):
        cfg = SolverConfig(tol=1e-14, max_iter=20000)
        for seed in range(5):
            array, source, rd = make_instance(seed, m=5)
            x0 = init_point(array, rd)
            est, outcome = solvit_solve(x0, array, rd, cfg)
            assert outcome.status in (CONVERGED, MAX_ITER)
            assert np.linalg.norm(est - source) < 1e-5

    def test_monotone_descent_noisy(self):
        rng = np.random.default_rng(14)
        cfg = SolverConfig(tol=1e-10, max_iter=2000)
        for _ in range(20):
            array, source, rd = make_instance(rng.integers(2**32), m=4,
                                              sigma2=1.0)
            x0 = rng.uniform(0.0, 1.0, 2)
            trace = solvit_solve(x0, array, rd, cfg, trace=True)[1].trace
            diffs = np.diff(trace.objectives)
            assert np.all(diffs <= 1e-9)

    def test_stationary_at_convergence(self):
        rng = np.random.default_rng(15)
        cfg = SolverConfig(tol=1e-12, max_iter=5000)
        for _ in range(5):
            array, source, rd = make_instance(rng.integers(2**32), m=5,
                                              sigma2=0.5)
            est, outcome = solvit_solve(array.centroid(), array, rd, cfg)
            if outcome.status != CONVERGED:
                continue
            f = f_rdls(est, array, rd)
            if f <= 1e-18:  # zero-residual exits before stationarity applies
                continue
            g = grad_fd(lambda p: f_rdls(p, array, rd), est, sensors=array)
            assert np.linalg.norm(g) < 1e-3 * (1.0 + f)

    def test_start_on_sensor_is_nudged(self):
        array, source, rd = make_instance(16, m=4)
        est, outcome = solvit_solve(array.sensors[0], array, rd,
                                    SolverConfig(tol=1e-12, max_iter=10000))
        assert np.all(np.isfinite(est))
        assert outcome.status != SINGULAR_SYSTEM

    def test_trace_bookkeeping(self):
        array, _, rd = make_instance(17, m=4, sigma2=0.5)
        outcome = solvit_solve(np.zeros(2), array, rd, trace=True)[1]
        trace = outcome.trace
        assert trace.iterates.shape[0] == trace.objectives.size
        assert outcome.iterations == trace.objectives.size - 1

    def test_singular_step_reports_last_good_iterate(self):
        # drive the loop with a cost of its own and a stepper that dies on
        # iteration 2
        calls = {"k": 0}

        def stepper(x, ys, data, n):
            calls["k"] += 1
            if calls["k"] >= 2:
                raise SingularSystemError("synthetic failure")
            return [x[0] + 1.0, x[1]]

        def objective(x, ys, data):
            return 1.0 + x[0], [math.dist(x, y) for y in ys]

        ys = [(0.0, 0.0), (5.0, 0.0)]
        x, outcome = _mm_loop([1.0, 1.0], ys, SolverConfig(tol=1e-12, max_iter=50),
                              objective, stepper, None, trace=True)
        assert outcome.status == SINGULAR_SYSTEM
        np.testing.assert_allclose(x, [2.0, 1.0])
        assert outcome.trace.iterates.shape[0] == 2

    @pytest.mark.parametrize("values, max_iter, status", [
        ([4.0, 3.0, 2.0, 1.0], 3, MAX_ITER),  # the last allowed iteration
        ([4.0, 3.0, 3.0], 50, CONVERGED),     # the stop rule fires
    ])
    def test_sweep_without_update_at_the_stop_never_steps(self, values, max_iter, status):
        # the loop steps from each costed iterate but the one where the run
        # ends: it must stop there without calling the step
        seen, stepped = [], []

        def cost(x, ys, data):
            seen.append(list(x))
            return values[len(seen) - 1], [math.dist(x, y) for y in ys]

        def stepper(x, ys, data, n):
            if len(seen) == len(values):
                raise AssertionError("the step was called")
            stepped.append(list(x))
            return [x[0] + 1.0, x[1]]

        x, outcome = _mm_loop([1.0, 1.0], [(0.0, 0.0), (5.0, 0.0)],
                              SolverConfig(tol=1e-12, max_iter=max_iter),
                              cost, stepper, None, trace=True)
        trace = outcome.trace
        assert outcome.status == status
        assert trace.objectives.tolist() == values
        assert trace.iterates.tolist() == seen
        assert x.tolist() == seen[-1]
        assert stepped == seen[:-1]


def random_step_instance(rng, layout=None):
    """Random planar sensors, iterate and oriented pairs (m = 2..9).

    The pairs are a random subset of all pairs, or with layout, an (m,
    unordered pairs) entry of pair_layout_pool, those pairs in that order;
    values and orientations are random either way.
    """
    m, keep = (int(rng.integers(2, 10)), None) if layout is None else layout
    ys = [tuple(map(float, rng.uniform(-50.0, 50.0, 2))) for _ in range(m)]
    pairs = []
    for i, j in keep or itertools.combinations(range(m), 2):
        if keep is not None or rng.uniform() < 0.8:
            r = 0.0 if rng.uniform() < 0.1 else float(rng.normal(0.0, 20.0))
            pairs.append((i, j, r) if rng.uniform() < 0.5 else (j, i, r))
    if not pairs:
        pairs.append((0, 1, float(rng.normal(0.0, 20.0))))
    x = [float(v) for v in rng.uniform(-60.0, 60.0, 2)]
    if rng.uniform() < 0.1:  # close to, but not on, a sensor
        y = ys[int(rng.integers(m))]
        x = [y[0] + 1e-7, y[1] - 1e-7]
    return x, ys, pairs


def pair_layout_pool(rng):
    """(m, unordered pairs) for every m = 2..9: all pairs and a random half of
    them (at m = 2 the one pair), each in canonical order and shuffled."""
    pool = []
    for m in range(2, 10):
        full = list(itertools.combinations(range(m), 2))
        half = rng.choice(len(full), (len(full) + 1) // 2, replace=False)
        part = sorted(full[q] for q in half)
        for keep in (full, part):
            pool += [(m, keep), (m, [keep[q] for q in rng.permutation(len(keep))])]
    return pool


def reference_loop(x0, ys, pairs, cfg):
    """The reference MM loop around the generic step and the pair cost: the
    reference of _mm_loop over _solvit_sweep_2d."""
    return reference_iterate(x0, ys, 2, cfg, lambda x: _step_core_nd(x, ys, pairs, 2),
                             lambda x: _f_pairs(x, ys, pairs))


def reference_solvit_solve(x0, array, rd, cfg):
    """Planar solvit_solve's reference (see reference_loop)."""
    _, ys, pairs = _rd_inputs(array, rd)
    return reference_loop(x0, ys, pairs, cfg)


def planar_loop(x, ys, pairs, cfg):
    """The planar loop as solvit_solve runs it, on pairs whose values may take
    either sign, checked bit for bit against reference_loop; returns the
    loop's outcome.  The loop reads its cost and step from solvit, where the
    fixtures that count them see them."""
    got = solvit._mm_loop(x, ys, cfg, solvit._f_pairs, solvit._step_core_nd, pairs, True,
                          solvit._solvit_sweep_2d(ys, pairs))
    assert_same_solve(got, reference_loop(x, ys, pairs, cfg))
    return got[1]


def one_step_solve(x, ys, pairs):
    """One MM step of the planar loop (see planar_loop)."""
    return planar_loop(x, ys, pairs, SolverConfig(tol=1e-12, max_iter=1))


def step_matrix(x, ys, pairs):
    """The summed bound matrix, in numpy; only used to classify instances."""
    w = {k: (np.array(x) - y) / np.linalg.norm(np.array(x) - y) for k, y in enumerate(ys)}
    A = np.zeros((2, 2))
    for i, j, r in pairs:
        Q = np.outer(w[j], w[i])
        A += (2.0 + r / math.dist(x, ys[j])) * np.eye(2) - (Q + Q.T)
    return A


class TestPlanarKernel:
    """The planar loop reproduces the generic loop bit for bit."""

    def test_step_matches_generic_loop(self):
        # the planar sweep compiles one kernel per layout, so the layouts come
        # from a pool of 32 on their own stream, and each instance draws its
        # sensors, iterate, values and orientations
        layouts = np.random.default_rng(2025)
        pool = pair_layout_pool(layouts)
        rng = np.random.default_rng(2024)
        solved = 0
        for _ in range(1500):
            x, ys, pairs = random_step_instance(rng, pool[int(layouts.integers(len(pool)))])
            solved += one_step_solve(x, ys, pairs).iterations
        assert solved > 1000

    def test_row_swap_matches_generic_loop(self):
        # |a01| > |a00| makes the elimination swap its rows
        rng = np.random.default_rng(77)
        found = 0
        while found < 25:
            x, ys, pairs = random_step_instance(rng)
            A = step_matrix(x, ys, pairs)
            if not abs(A[0, 1]) > 1.01 * abs(A[0, 0]):
                continue
            found += one_step_solve(x, ys, pairs).iterations

    def test_pivot_tie_keeps_row_order(self):
        # w_1 = (0, 1) and w_2 = w_3 = (1, 0) exactly, s_12 = -1, s_23 = 0, so
        # a00 = 1 = -a01 for any shift t: a tie must not swap the rows
        rng = np.random.default_rng(11)
        for _ in range(40):
            t0, t1 = (float(v) for v in rng.uniform(-10.0, 10.0, 2))
            x = [t0, t1]
            ys = [(t0, t1 - 1.0), (t0 - 1.0, t1), (t0 - 2.0, t1)]
            pairs = [(0, 1, -math.dist(x, ys[1])), (1, 2, 0.0)]
            assert one_step_solve(x, ys, pairs).iterations == 1

    def test_ill_conditioned_raises_like_generic_loop(self):
        # collinear sensors, iterate on their line: the bound is singular
        ys = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        pairs = [(0, 1, 0.0), (0, 2, 0.0), (1, 2, 0.0)]
        for x in ([5.0, 0.0], [-3.0, 0.0]):
            with pytest.raises(SingularSystemError):
                _step_core_nd(x, ys, pairs, 2)
            assert one_step_solve(x, ys, pairs).status == SINGULAR_SYSTEM

    def test_iterate_on_sensor_raises_like_generic_loop(self):
        # the step itself refuses an iterate on a sensor; the loop nudges
        # such a start off the sensor first, as the reference loop does
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, ys, pairs = random_step_instance(rng)
            k = int(rng.integers(len(ys)))
            on = list(ys[k])
            with pytest.raises(SensorSingularityError):
                _step_core_nd(on, ys, pairs, 2)
            rd = rangediffs_from_ranges(np.arange(1.0, len(ys) + 1.0))
            with pytest.raises(SensorSingularityError):
                solvit_step(on, np.array(ys), rd)
            assert one_step_solve(on, ys, pairs).trace.iterates[0].tolist() != on

    @pytest.mark.parametrize("n", [2, 3])
    def test_solve_matches_reference_loop(self, n):
        rng = np.random.default_rng(300 + n)
        for case in range(40):
            m = int(rng.integers(3, 8))
            array, _, rd = make_instance(rng.integers(2**32), m=m, n=n,
                                         sigma2=float(rng.uniform(0.0, 1.0)))
            x0 = (array.sensors[case % m] if case % 4 == 0
                  else rng.uniform(-12.0, 12.0, n))
            cfg = SolverConfig(tol=float(10.0 ** -rng.integers(4, 13)),
                               max_iter=int(rng.integers(1, 400)))
            _, ys, pairs = _rd_inputs(array, rd)
            ref = reference_iterate(x0, ys, n, cfg,
                                    lambda x: _step_core_nd(x, ys, pairs, n),
                                    lambda x: _f_pairs(x, ys, pairs))
            assert_same_solve(solvit_solve(x0, array, rd, cfg, trace=True), ref)

    def test_loop_nudges_mid_run_like_reference(self):
        # a step that lands exactly on a sensor is nudged before the next step
        ys = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)]

        r = [1.0, 2.0, 3.0]
        cfg = SolverConfig(tol=1e-12, max_iter=4)

        def make_stepper():
            seen = []

            def stepper(x, *_):
                seen.append(list(x))
                return [0.0, 0.0] if len(seen) == 1 else [x[0] + 0.5, x[1] + 0.25]

            return stepper, seen

        stepper, seen = make_stepper()
        got = _mm_loop([2.0, 1.0], ys, cfg, _f_ranges, stepper, r, trace=True)
        stepper, seen_ref = make_stepper()
        ref = reference_iterate([2.0, 1.0], ys, 2, cfg, stepper,
                                lambda x: _f_ranges(x, ys, r))
        assert_same_solve(got, ref)
        assert seen == seen_ref
        assert math.dist(seen[1], ys[0]) == pytest.approx(1e-6)

    def test_random_solves_match_reference_loop(self, monkeypatch):
        # m = 2..9 on raw coordinate arrays; one start in five exactly on a
        # sensor; one measurement set in ten stores its pairs in one of two
        # random orders per m, drawn on their own stream so the other cases
        # stay as they were (each pair order compiles its own kernel)
        runs = []
        loop = solvit._mm_loop

        def counted(*args):
            runs.append(1)
            return loop(*args)

        monkeypatch.setattr(solvit, "_mm_loop", counted)
        rng = np.random.default_rng(2026)
        order_rng = np.random.default_rng(17)
        orders = {m: [order_rng.permutation(m * (m - 1) // 2) for _ in range(2)]
                  for m in range(3, 10)}
        on_sensor = permuted = 0
        statuses = set()
        for _ in range(1500):
            m = int(rng.integers(2, 10))
            ys = rng.uniform(-50.0, 50.0, (m, 2))
            diffs = rng.normal(0.0, 20.0, m * (m - 1) // 2)
            diffs[rng.uniform(size=diffs.size) < 0.1] = 0.0
            rd = oriented_rangediffs(diffs.tolist(), m)
            if m > 2 and order_rng.uniform() < 0.1:
                order = orders[m][int(order_rng.integers(2))]
                rd = RangeDiffSet(rd.i[order], rd.j[order], rd.values[order], m)
                permuted += 1
            x0 = rng.uniform(-60.0, 60.0, 2)
            if rng.uniform() < 0.2:
                x0 = ys[int(rng.integers(m))].copy()
                on_sensor += 1
            cfg = SolverConfig(tol=float(10.0 ** -rng.integers(3, 13)),
                               max_iter=int(rng.integers(1, 60)))
            got = solvit_solve(x0, ys, rd, cfg, trace=True)
            assert_same_solve(got, reference_solvit_solve(x0, ys, rd, cfg))
            statuses.add(got[1].status)
        assert len(runs) == 1500
        assert on_sensor > 250 and permuted > 100
        assert statuses == {CONVERGED, MAX_ITER}

    def test_one_kernel_serves_every_orientation(self, monkeypatch):
        # the criterion-7 config: each trial's noise orients its pairs, and
        # every orientation of the one stored pair order shares one kernel
        cfg = criterion_7_config("solvit", "proposed")
        orientations = set()
        build = solvit._solvit_sweep_2d

        def recorded(ys, pairs):
            orientations.add(tuple(i < j for i, j, _ in pairs))
            return build(ys, pairs)

        monkeypatch.setattr(solvit, "_solvit_sweep_2d", recorded)
        solvit._planar_kernel.cache_clear()
        run_rmse_sweep(cfg)
        assert len(orientations) > 1
        assert solvit._planar_kernel.cache_info().misses == 1

    # a singular 2x2 system: test_singular_solve_matches_reference_loop
    @pytest.mark.parametrize("sensors, ranges, x0, cfg, status, iterations", [
        # the start nudge lands on sensor 2, whose nudge lands on sensor 1:
        # the step meets a sensor and the run stops as singular
        ([[0.0, 0.0], [1e-6, 0.0]], [1.0, 1.0], [0.0, 0.0],
         SolverConfig(), SINGULAR_SYSTEM, 0),
        # zero objective at the start: exact data, start on the source
        ([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], [5.0, 3.0, 4.0], [4.0, 3.0],
         SolverConfig(), CONVERGED, 0),
        # zero objective after one update: exact data for the source
        # (1.5, 1.25), start 5.6e-10 m from it (f = 2.8e-18, then 5.3e-19)
        ([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [4.0, 3.0]],
         [1.9525624189766635, 2.7950849718747373, 2.3048861143232218,
          3.0516389039334255], [1.5 + 5e-10, 1.25 - 2.5e-10], SolverConfig(), CONVERGED, 1),
        # relative-change stop on noisy ranges
        ([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [4.0, 3.0]], [2.1, 2.4, 2.2, 3.0],
         [1.0, 1.0], SolverConfig(tol=1e-6), CONVERGED, None),
        # max_iter=1
        ([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [4.0, 3.0]], [2.1, 2.4, 2.2, 3.0],
         [1.0, 1.0], SolverConfig(max_iter=1), MAX_ITER, 1),
    ])
    def test_stop_branches_match_reference_loop(self, sensors, ranges, x0, cfg,
                                                status, iterations):
        ys, start = np.array(sensors), np.array(x0)
        rd = rangediffs_from_ranges(np.array(ranges))
        got = solvit_solve(start, ys, rd, cfg, trace=True)
        assert_same_solve(got, reference_solvit_solve(start, ys, rd, cfg))
        outcome = got[1]
        assert outcome.status == status
        if iterations is not None:
            assert outcome.iterations == iterations
        if status == CONVERGED and iterations is None:
            assert outcome.trace.objectives[-1] > 1e-18  # stopped by tol, not zero objective
            assert outcome.iterations > 5

    # the first step from (4, 4) lands exactly on sensor 4 at (2, 1.5); one
    # ulp more on the first measurement lands it 4.4e-16 m away, inside
    # the sensor guard but not on the sensor
    LANDING_SENSORS = [[0.0, 0.0], [6.0, 0.0], [0.0, 5.0], [2.0, 1.5]]
    LANDING_PAIRS = [(2, 1, 1006.6133890553983), (3, 1, 1281.4008252257877),
                     (1, 4, 0.7920663610669413), (3, 2, 1.819557073001583),
                     (2, 4, 1.2920020967206232), (4, 3, 0.5464865819461924)]

    @pytest.mark.parametrize("ulps, distance", [(0, 0.0), (1, 4.440892098500626e-16)])
    def test_step_landing_by_a_sensor_is_nudged(self, ulps, distance, loop_record):
        i, j, v = zip(*self.LANDING_PAIRS)
        v = list(v)
        for _ in range(ulps):
            v[0] = math.nextafter(v[0], math.inf)
        ys = np.array(self.LANDING_SENSORS)
        rd = RangeDiffSet(np.array(i), np.array(j), np.array(v), 4)
        x0, cfg = np.array([4.0, 4.0]), SolverConfig(tol=1e-10, max_iter=50)
        got = solvit_solve(x0, ys, rd, cfg, trace=True)
        assert_same_solve(got, reference_solvit_solve(x0, ys, rd, cfg))
        trace = got[1].trace
        assert math.dist(trace.iterates[1], ys[3]) == distance
        # the next step is taken from 1e-6 m off the sensor and leaves it
        assert math.dist(trace.iterates[2], ys[3]) > 1e-6
        assert got[1].status == CONVERGED and got[1].iterations > 10
        # the generated loop hands iteration 1 back at the sensor guard, the
        # shared loop takes it, and the generated loop runs the rest
        assert loop_record.runs == [(0, 1, None), (2, got[1].iterations, CONVERGED)]
        assert loop_record.fallbacks == [2]

    def test_condition_limit_after_a_step_like_generic_loop(self, loop_record, step_calls):
        # collinear sensors, the iterate on their line and one negative value:
        # the first system is well conditioned, and the second has
        # lam_min = 1.2e-12 > 0 and lam_max = 4, past _COND_LIMIT
        ys = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        pairs = [(0, 1, -1.5), (0, 2, 0.916961825356)]
        x1 = _step_core_nd([0.3, 0.0], ys, pairs, 2)
        lam_min, lam_max = solvit._sym_eig_range(step_matrix(x1, ys, pairs).tolist(), 2)
        assert 0.0 < lam_min and lam_max / lam_min > 1e12
        outcome = planar_loop([0.3, 0.0], ys, pairs, SolverConfig())
        assert (outcome.status, outcome.iterations) == (SINGULAR_SYSTEM, 1)
        assert outcome.trace.iterates.tolist() == [[0.3, 0.0], x1]
        # the generated loop hands iteration 1 back, and the shared loop's
        # own step, formed once, ends the run
        assert loop_record.runs == [(0, 1, None)]
        assert loop_record.fallbacks == [2]
        assert step_calls == [False]

    def test_condition_limit_stops_like_generic_loop(self):
        # the iterate on the sensors' line and a tiny value: the bound matrix
        # is diag(s, 2 + s) with s = 2.5e-15, positive definite with a
        # condition number near 8e14, so only _COND_LIMIT stops the loop
        sensors = np.array([[0.0, 0.0], [1.0, 0.0]])
        rd = RangeDiffSet(np.array([1]), np.array([2]), np.array([1e-14]), 2)
        _, ys, pairs = _rd_inputs(sensors, rd)
        lam = np.linalg.eigvalsh(step_matrix([5.0, 0.0], ys, pairs))
        assert 0.0 < lam[0] and 1e12 < lam[1] / lam[0] < 1e30
        cfg = SolverConfig()
        got = solvit_solve([5.0, 0.0], sensors, rd, cfg, trace=True)
        assert_same_solve(got, reference_solvit_solve([5.0, 0.0], sensors, rd, cfg))
        assert got[1].status == SINGULAR_SYSTEM and got[1].iterations == 0

    @pytest.mark.parametrize("angle, swap", [(0.3, True), (1.2, False)])
    def test_near_the_condition_limit_matches_generic_loop(self, angle, swap):
        # two sensors on a line at `angle`, the iterate on it beyond both and
        # one tiny value: the bound matrix has eigenvalues s = r / ||x - y_2||
        # along the line and 2 + s across it.  |a01| > |a00| (a row swap)
        # below 45 degrees.  On either side of _COND_LIMIT the planar step
        # stays bit-identical, and below it the eliminated pivot is never 0
        u = (math.cos(angle), math.sin(angle))
        ys, x = [(0.0, 0.0), u], [5.0 * u[0], 5.0 * u[1]]
        steps = []
        for cond in (1e11, 5e11, 0.99e12, 1.01e12, 2e12):
            pairs = [(0, 1, 2.0 / cond * math.dist(x, ys[1]))]
            A = step_matrix(x, ys, pairs)
            assert (abs(A[0, 1]) > abs(A[0, 0])) == swap
            lam = np.linalg.eigvalsh(A)
            assert lam[1] / lam[0] == pytest.approx(cond, rel=1e-3)
            outcome = one_step_solve(x, ys, pairs)
            assert np.all(np.isfinite(outcome.trace.iterates))
            steps.append((outcome.status == SINGULAR_SYSTEM, outcome.iterations))
        assert steps == [(False, 1)] * 3 + [(True, 0)] * 2

    def test_singular_solve_matches_reference_loop(self):
        sensors = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        rd = rangediffs_from_ranges(np.zeros(3))
        cfg = SolverConfig()
        got = solvit_solve([5.0, 0.0], sensors, rd, cfg, trace=True)
        assert_same_solve(got, reference_solvit_solve([5.0, 0.0], sensors, rd, cfg))
        assert got[1].status == SINGULAR_SYSTEM

    def test_three_dimensional_singular_solve_matches_reference_loop(self, step_calls):
        # collinear sensors, every difference 0 and a start on their line:
        # the bound matrix is diag(0, 2m_hat, 2m_hat), so the loop's step,
        # formed once, finds the system singular and stops the run
        sensors = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        rd = rangediffs_from_ranges(np.zeros(3))
        cfg = SolverConfig()
        got = solvit_solve([5.0, 0.0, 0.0], sensors, rd, cfg, trace=True)
        _, ys, pairs = _rd_inputs(sensors, rd)
        ref = reference_iterate([5.0, 0.0, 0.0], ys, 3, cfg,
                                lambda x: _step_core_nd(x, ys, pairs, 3),
                                lambda x: _f_pairs(x, ys, pairs))
        assert_same_solve(got, ref)
        assert got[1].status == SINGULAR_SYSTEM and got[1].iterations == 0
        assert step_calls == [False]

    @pytest.mark.parametrize("case, status", [(0, CONVERGED), (1, MAX_ITER)])
    def test_three_dimensional_solve_forms_one_step_per_iteration(self, step_calls, case,
                                                                  status):
        # no update is formed past the iterate the run stops at
        x0, array, rd, cfg = ending_cases("solvit", 3)[case]
        outcome = solvit_solve(x0, array, rd, cfg)[1]
        assert outcome.status == status and outcome.iterations > 0
        assert step_calls == [True] * outcome.iterations

    @pytest.mark.parametrize("n", [2, 3])
    def test_nudge_off_a_sensor_at_the_centroid_of_the_others(self, n):
        # the centroid of the other sensors is x itself, so no direction
        # points at it: the nudge goes along the first axis
        ys = [(-1.0,) + (0.0,) * (n - 1), (1.0,) + (0.0,) * (n - 1), (0.0,) * n]
        assert solvit._nudge_off_sensors([0.0] * n, ys, n) == [1e-6] + [0.0] * (n - 1)

    def test_eigenvalue_range_of_a_diagonal_3x3(self):
        A = [[3.0, 0.0, 0.0], [0.0, -1.5, 0.0], [0.0, 0.0, 2.0]]
        lam = np.linalg.eigvalsh(np.array(A))
        assert solvit._sym_eig_range(A, 3) == (lam[0], lam[-1]) == (-1.5, 3.0)


class TestConfigAndTrace:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        for bad, kind in ((True, "bool"), ("1e-4", "str"), (None, "NoneType"), ([1e-4], "list"),
                          (np.True_, "bool")):
            with pytest.raises(TypeError, match=f"tol must be real number, not {kind}"):
                SolverConfig(tol=bad)

    def test_max_iter_must_be_an_integer(self):
        for bad in (2.5, 1e3, True, "500", None):
            with pytest.raises(ValueError, match="max_iter must be an integer"):
                SolverConfig(max_iter=bad)
        cfg = SolverConfig(max_iter=np.int64(7))
        assert cfg.max_iter == 7 and type(cfg.max_iter) is int

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            SolveTrace(np.zeros((3, 2)), np.zeros(2))

    def test_trace_keeps_read_only_copies(self):
        it, ob = np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([5.0, 4.0])
        lists = ([[0.0, 1.0], [2.0, 3.0]], [5.0, 4.0])
        for trace, given in ((SolveTrace(it, ob), (it, ob)), (SolveTrace(*lists), lists)):
            given[0][0][0], given[1][0] = -7.0, -7.0
            np.testing.assert_array_equal(trace.iterates, [[0.0, 1.0], [2.0, 3.0]])
            np.testing.assert_array_equal(trace.objectives, [5.0, 4.0])
            for stored in (trace.iterates, trace.objectives):
                assert stored.dtype == float and not stored.flags.writeable
                assert not any(isinstance(g, np.ndarray) and np.shares_memory(stored, g)
                               for g in given)

    @pytest.mark.parametrize("solver", ["solvit", "sfp"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_estimate_is_not_a_view_of_the_trace(self, solver, n):
        for case, cfg in enumerate((SolverConfig(), SolverConfig(max_iter=1))):
            if solver == "solvit":
                array, _, meas = make_instance(70 + case, m=5, n=n, sigma2=0.2)
                solve = solvit_solve
            else:
                array, _, meas = make_range_instance(70 + case, m=5, n=n, noise_std=0.2)
                solve = sfp_solve
            est, outcome = solve(np.full(n, 1.5), array, meas, cfg, trace=True)
            trace = outcome.trace
            assert not np.shares_memory(est, trace.iterates)
            np.testing.assert_array_equal(est, trace.iterates[-1])
            est[0] += 1.0  # the caller owns the estimate
            assert trace.iterates[-1][0] != est[0]

    def test_trace_csv_format(self, tmp_path):
        array, _, rd = make_instance(18, m=4, sigma2=0.2)
        trace = solvit_solve(np.zeros(2), array, rd, trace=True)[1].trace
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,x_1,x_2,objective"
        assert len(lines) == trace.objectives.size + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        np.testing.assert_allclose(
            [float(first[1]), float(first[2])], trace.iterates[0])
        assert float(first[3]) == trace.objectives[0]
