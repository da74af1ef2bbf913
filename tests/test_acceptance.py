"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v`.  Verdict lines are echoed
in an "acceptance checklist" section at the end of the pytest run (see
pytest_terminal_summary in conftest.py), so the checklist survives
output capture.  Tolerances are stated inline and are part of the
contract; see the README for the rationale behind each bound.
"""

import math
import time

import numpy as np
import pytest

from mmloc import (
    CONVERGED,
    ExperimentConfig,
    InitConfig,
    NoiseModel,
    SensorArray,
    SolverConfig,
    bandpass,
    bound_quantities,
    estimate_rangediffs,
    f_rdls,
    f_rdls_many,
    f_rls_many,
    fisher,
    grad_fd,
    init_point,
    random_array,
    rangediffs_from_ranges,
    range_noise_std,
    rd_covariance,
    run_rmse_sweep,
    sfp_solve,
    solvit_solve,
    solvit_step,
    surrogate_g,
    tone_burst_signals,
    true_ranges,
)
from mmloc.sfp import sfp_surrogate_many
from mmloc.solvit import surrogate_g_many
from mmloc.tdoa import ANECHOIC_MICROPHONES, BAND_HI, BAND_LO, SOUND_SPEED
from conftest import make_instance, make_range_instance
from test_solvit import quad_min_from_evals


_CHECKLIST: list[str] = []


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{tag}] {name}"
    if detail:
        line += f": {detail}"
    _CHECKLIST.append(line)
    print(line, flush=True)
    return ok


def test_criterion_01_majorization_suite():
    """Surrogates touch their objectives and dominate them everywhere."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_touch = 0.0
    worst_gap = math.inf
    for k in range(100):
        m = 3 + k % 4
        array, _, rd = make_instance(rng.integers(2**32), m=m, sigma2=0.5)
        xk = rng.uniform(-12.0, 12.0, 2)
        f_k = f_rdls(xk, array, rd)
        g_k = surrogate_g(xk, xk, array, rd)
        worst_touch = max(worst_touch, abs(g_k - f_k) / max(f_k, 1e-30))
        X = rng.uniform(-15.0, 15.0, (1000, 2))
        gap = surrogate_g_many(X, xk, array, rd) - f_rdls_many(X, array, rd)
        worst_gap = min(worst_gap, float(np.min(gap)))

        arr_r, _, r = make_range_instance(rng.integers(2**32), m=m,
                                          noise_std=0.5)
        xk_r = rng.uniform(-12.0, 12.0, 2)
        f_kr = float(f_rls_many(xk_r[None, :], arr_r, r)[0])
        g_kr = float(sfp_surrogate_many(xk_r[None, :], xk_r, arr_r, r)[0])
        worst_touch = max(worst_touch, abs(g_kr - f_kr) / max(f_kr, 1e-30))
        Xr = rng.uniform(-15.0, 15.0, (1000, 2))
        gap_r = sfp_surrogate_many(Xr, xk_r, arr_r, r) - f_rls_many(Xr, arr_r, r)
        worst_gap = min(worst_gap, float(np.min(gap_r)))
    elapsed = time.perf_counter() - t0
    ok = worst_touch <= 1e-10 and worst_gap >= -1e-9 and elapsed < 10.0
    assert _report(1, "majorization (touch 1e-10, dominate 1e-9, <10s)", ok,
                   f"touch={worst_touch:.2e} min-gap={worst_gap:.2e} "
                   f"t={elapsed:.1f}s")


def test_criterion_02_step_matches_dense_minimizer():
    """Closed-form step equals an independently reconstructed minimizer."""
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        array, _, rd = make_instance(rng.integers(2**32), m=4, sigma2=0.5)
        xk = rng.uniform(-12.0, 12.0, 2)
        step = solvit_step(xk, array, rd)
        oracle = quad_min_from_evals(lambda p: surrogate_g(p, xk, array, rd), 2)
        worst = max(worst, float(np.max(np.abs(step - oracle))))
    ok = worst <= 1e-8
    assert _report(2, "closed-form step vs oracle (1e-8)", ok,
                   f"max-dev={worst:.2e}")


def test_criterion_03_bound_matrix_properties():
    """Eigenvalue ceiling on the cross blocks; step system positive definite."""
    rng = np.random.default_rng(1003)
    lam_worst = 0.0
    min_eig_sum = math.inf
    checked = 0
    while checked < 1000:
        array, _, rd = make_instance(rng.integers(2**32), m=3 + checked % 4,
                                     sigma2=0.5)
        xk = rng.uniform(-12.0, 12.0, 2)
        bq = bound_quantities(xk, array, rd)
        M_sum = np.zeros((2, 2))
        for s, Q in zip(bq.s, bq.Q):
            sym = Q + Q.T
            lam_worst = max(lam_worst, float(np.linalg.eigvalsh(sym)[-1]))
            M_sum += (2.0 + s) * np.eye(2) - sym
        min_eig_sum = min(min_eig_sum, float(np.linalg.eigvalsh(M_sum)[0]))
        checked += 1
    ok = lam_worst <= 2.0 + 1e-12 and min_eig_sum > 0.0
    assert _report(3, "lambda_max(Q+Q') <= 2, sum M positive definite", ok,
                   f"lam_max={lam_worst:.12f} min-eig={min_eig_sum:.3e}")


def test_criterion_04_monotone_descent():
    """Every trace non-increasing (1e-9 slack), both solvers and inits."""
    cfg = SolverConfig(tol=1e-10, max_iter=1000)
    worst = -math.inf
    for seed in range(100):
        array, source, rd = make_instance(seed, m=4, sigma2=1.0)
        x_prop = init_point(array, rd, InitConfig(seed=seed))
        x_rand = np.random.default_rng(seed).uniform(0.0, 1.0, 2)
        for x0 in (x_prop, x_rand):
            trace = solvit_solve(x0, array, rd, cfg, trace=True)[1].trace
            if trace.objectives.size > 1:
                worst = max(worst, float(np.max(np.diff(trace.objectives))))
        arr_r, _, r = make_range_instance(seed, m=4, noise_std=1.0)
        for x0 in (None, np.random.default_rng(seed).uniform(0.0, 1.0, 2)):
            trace = sfp_solve(x0, arr_r, r, cfg, trace=True)[1].trace
            if trace.objectives.size > 1:
                worst = max(worst, float(np.max(np.diff(trace.objectives))))
    ok = worst <= 1e-9
    assert _report(4, "monotone descent, 100 seeds x 2 inits x 2 solvers", ok,
                   f"max-increase={worst:.2e}")


def test_criterion_05_exact_recovery():
    """Zero-noise recovery rates: >=95% (range-difference), >=99% (range)."""
    cfg = SolverConfig(tol=1e-14, max_iter=30000)
    hits = 0
    for seed in range(100):
        array, source, rd = make_instance(seed, m=4 + seed % 3)
        x0 = init_point(array, rd, InitConfig(seed=seed))
        est, _ = solvit_solve(x0, array, rd, cfg)
        if np.linalg.norm(est - source) < 1e-5:
            hits += 1

    sfp_hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed + 7000)
        while True:
            coords = rng.uniform(-10.0, 10.0, (3, 2))
            u, v = coords[1] - coords[0], coords[2] - coords[0]
            if 0.5 * abs(u[0] * v[1] - u[1] * v[0]) > 5.0:
                break
        source = rng.dirichlet(np.ones(3)) @ coords
        r = true_ranges(source, coords)
        est, _ = sfp_solve(None, coords, r, cfg)
        if np.linalg.norm(est - source) < 1e-5:
            sfp_hits += 1
    ok = hits >= 95 and sfp_hits >= 99
    assert _report(5, "exact recovery (rd >= 95/100, range >= 99/100)", ok,
                   f"rd={hits}/100 range={sfp_hits}/100")


def test_criterion_06_stationarity_at_convergence():
    """Converged points have a vanishing finite-difference gradient."""
    cfg = SolverConfig(tol=1e-12, max_iter=5000)
    worst = 0.0
    converged = 0
    for seed in range(50):
        array, _, rd = make_instance(seed + 500, m=4 + seed % 2, sigma2=0.5)
        est, outcome = solvit_solve(array.centroid(), array, rd, cfg)
        if outcome.status != CONVERGED:
            continue
        f = f_rdls(est, array, rd)
        if f <= 1e-18 or np.min(true_ranges(est, array)) < 1e-4:
            continue
        g = grad_fd(lambda p: f_rdls(p, array, rd), est, sensors=array)
        converged += 1
        worst = max(worst, float(np.linalg.norm(g)) / (1.0 + f))
    ok = converged >= 25 and worst < 1e-3
    assert _report(6, "stationarity |grad| < 1e-3 (1+f) at converged points",
                   ok, f"checked={converged} worst={worst:.2e}")


def test_criterion_07_rmse_respects_crlb():
    """RMSE >= bound across SNR in {-10..0} dB; ratio <= 3 at 0 dB; <60 s."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        scenario={
            "sensors": {"kind": "random", "m": 5, "lo": -50.0, "hi": 50.0},
            "source": {"uniform": [-10.0, 10.0]},
            "noise": {"f0": 1000.0, "c": 340.0},
        },
        snr_grid=[float(v) for v in range(-10, 1)],
        trials=200,
        solver="solvit",
        init="proposed",
        seed=2026,
        tol=1e-8,
        max_iter=2000,
    )
    rows = run_rmse_sweep(cfg)
    elapsed = time.perf_counter() - t0
    ordered = all(r.rmse >= r.crlb and math.isfinite(r.crlb) for r in rows)
    at_zero = next(r for r in rows if r.sweep == 0.0)
    ratio = at_zero.rmse / at_zero.crlb
    ok = ordered and ratio <= 3.0 and elapsed < 60.0
    assert _report(7, "RMSE >= CRLB on the SNR sweep, ratio <= 3 at 0 dB",
                   ok, f"ratio@0dB={ratio:.2f} t={elapsed:.1f}s "
                       f"failed={sum(r.trials_failed for r in rows)}")


def test_criterion_08_covariance_matches_monte_carlo():
    """Analytic range-difference covariance vs 1e5-draw sample covariance."""
    rng = np.random.default_rng(1008)
    array = random_array(4, -20.0, 20.0, seed=808)
    source = np.array([3.0, -4.0])
    noise = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)
    pred = rd_covariance(source, array, noise)
    d = true_ranges(source, array)
    std = range_noise_std(source, array, noise)
    eps = rng.standard_normal((100_000, 4)) * std[None, :]
    meas = d[None, :] + eps
    cols = []
    for i in range(4):
        for j in range(i + 1, 4):
            col = meas[:, i] - meas[:, j]
            cols.append(col if d[i] >= d[j] else -col)
    sample = np.cov(np.stack(cols, axis=1), rowvar=False)
    scale = np.sqrt(np.outer(np.diag(pred), np.diag(pred)))
    dev = float(np.max(np.abs(sample - pred) / scale))
    rank = int(np.linalg.matrix_rank(pred))
    ok = dev <= 0.05 and rank == 3
    assert _report(8, "covariance vs Monte-Carlo (5% entrywise, rank m-1)",
                   ok, f"max-dev={dev:.3%} rank={rank}")


def test_criterion_09_linear_array_robustness():
    """All 200 trials complete on the collinear fixture at SNR >= -10 dB."""
    cfg = ExperimentConfig(
        scenario={
            "sensors": {"kind": "linear"},
            "source": [-5.0, 5.0],
            "noise": {"f0": 1000.0, "c": 340.0},
        },
        snr_grid=[-10.0, -5.0, 0.0],
        trials=200,
        solver="solvit",
        init="proposed",
        seed=909,
    )
    rows = run_rmse_sweep(cfg)
    failures = sum(r.trials_failed for r in rows)
    ok = failures == 0
    assert _report(9, "linear array: zero failed trials at SNR >= -10 dB",
                   ok, f"failed={failures}/600")


def test_criterion_10_tdoa_pipeline():
    """Synthetic tones through filter/correlator/solver land within 0.1 m."""
    source = np.array([1.0, 0.5])
    signals = tone_burst_signals(source, ANECHOIC_MICROPHONES)
    filtered = [bandpass(s, BAND_LO, BAND_HI) for s in signals]
    rd = estimate_rangediffs(filtered, c=SOUND_SPEED)
    mics = SensorArray(ANECHOIC_MICROPHONES)
    # the collinear array cannot separate a source from its mirror image,
    # so the start must sit on the known (source) side of the line x=2.1
    x0 = np.array([1.0, 1.4])
    est, outcome = solvit_solve(x0, mics, rd,
                                SolverConfig(tol=1e-12, max_iter=20000))
    err = float(np.linalg.norm(est - source))
    ok = err < 0.1
    assert _report(10, "TDOA pipeline recovers the fixture source (<0.1 m)",
                   ok, f"err={err:.3f} m status={outcome.status}")


def test_criterion_11_per_iteration_cost_scales_with_pairs():
    """Wall time per iteration of the planar solve loop for m=8 vs m=4
    reflects the 28/6 pair ratio."""
    # tol=1e-300 stops a run early only at an exact fixed point, which
    # neither instance reaches from this start: each solve takes max_iter steps
    cfg = SolverConfig(tol=1e-300, max_iter=100)
    x0 = np.array([-7.0, 3.0])

    def prepare(m):
        array, _, rd = make_instance(m * 11, m=m, sigma2=0.2)
        return array, rd

    def iter_time(array, rd, reps=10):
        t0 = time.perf_counter()
        for _ in range(reps):
            _, outcome = solvit_solve(x0, array, rd, cfg)
        assert outcome.iterations == cfg.max_iter
        return (time.perf_counter() - t0) / (reps * outcome.iterations)

    cases = {4: prepare(4), 8: prepare(8)}
    for array, rd in cases.values():
        iter_time(array, rd)  # warm-up
    best = {4: math.inf, 8: math.inf}
    # interleaved, alternating which m goes first, so that a change in host
    # speed during the test slows both sizes alike
    for repeat in range(5):
        for m in ((4, 8) if repeat % 2 == 0 else (8, 4)):
            best[m] = min(best[m], iter_time(*cases[m]))
    t4, t8 = best[4], best[8]
    ratio = t8 / t4
    ok = 2.5 <= ratio <= 6.0
    assert _report(11, "per-iteration cost of the planar loop, ratio m=8/m=4 in [2.5, 6]",
                   ok, f"ratio={ratio:.2f} (t4={t4 * 1e6:.1f}us t8={t8 * 1e6:.1f}us)")
