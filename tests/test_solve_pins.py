"""Pinned solver outputs: status, iteration count and estimate of fixed solves.

The fast planar paths are checked bit for bit against reference loops that
live in this repository, so a change to a fast path and its reference
together would go unseen there.  tests/data/solve_pins.json records the
inputs and outputs of 44 solves: solvit and sfp, n = 2 and 3, the
criterion-7 array at three SNRs and the linear array.  Every start is a
fixed point (no initializer), and the noisy measurements are stored with
the outputs, so replaying a pin runs only the solvers' own arithmetic.

Regenerate (only on purpose, saying in the change why the pins moved):

    PYTHONPATH=src python tests/test_solve_pins.py
"""

import json
import math
import pathlib

import numpy as np
from mmloc import (
    NoiseModel,
    SolverConfig,
    linear_array,
    random_array,
    rangediffs_from_ranges,
    sfp_solve,
    snr_to_sigma2,
    solvit_solve,
    true_ranges,
)
from mmloc.scenario import range_noise_std

PINS = pathlib.Path(__file__).with_name("data") / "solve_pins.json"

# the criterion-7 array: random m=5 in +-50 m drawn from that config's seed
C7_SENSORS = [
    [-11.73088227796736, -47.95593940241971],
    [43.1964896269255, 2.6681826094859815],
    [26.904689162001176, 35.35020648078232],
    [13.243453888758872, 46.68498681723666],
    [-29.53924555290791, -19.63948042108461],
]


def solve(pin):
    """Run the pin's solver on its stored inputs."""
    cfg = SolverConfig(tol=pin["tol"], max_iter=pin["max_iter"])
    sensors = np.array(pin["sensors"])
    ranges = np.array(pin["ranges"])
    if pin["solver"] == "solvit":
        return solvit_solve(pin["x0"], sensors, rangediffs_from_ranges(ranges), cfg)
    return sfp_solve(pin["x0"], sensors, ranges, cfg)


def make_pins():
    """Inputs and outputs of every pinned solve (run at the pinning commit)."""
    rng = np.random.default_rng(20260501)
    setups = []
    for source in ([3.0, -4.0], [-7.5, 6.25]):
        for snr in (-10.0, -5.0, 0.0):
            setups.append((C7_SENSORS, source, snr, 1e-8, 2000,
                           ([0.0, 0.0], [20.0, -15.0])))
    lin = linear_array().sensors.tolist()
    for snr in (-10.0, 0.0):
        # (5, -3) lies on the array's line
        setups.append((lin, [-5.0, 5.0], snr, 1e-12, 300, ([0.0, 12.0], [5.0, -3.0])))
    for k in range(2):
        sensors = random_array(5, -20.0, 20.0, n=3, seed=300 + k).sensors.tolist()
        setups.append((sensors, [1.5, -2.0, 0.5], -5.0 + 5.0 * k, 1e-10, 1000,
                       ([0.0, 0.0, 0.0], sensors[0])))
    cases = []
    for sensors, source, snr, tol, max_iter, starts in setups:
        noise = NoiseModel(sigma2=snr_to_sigma2(snr), f0=1000.0, c=340.0)
        std = range_noise_std(source, np.array(sensors), noise)
        ranges = true_ranges(source, np.array(sensors)) + std * rng.standard_normal(len(sensors))
        cases.append((sensors, ranges.tolist(), tol, max_iter, starts))
    # collinear sensors, equal ranges, starts on their line: solvit's step
    # system is singular
    cases.append(([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [1.0, 1.0, 1.0], 1e-4, 500,
                  ([5.0, 0.0], [-3.0, 0.0])))
    pins = []
    for sensors, ranges, tol, max_iter, starts in cases:
        for solver in ("solvit", "sfp"):
            for x0 in starts:
                pin = {"solver": solver, "sensors": sensors, "ranges": ranges,
                       "x0": list(x0), "tol": tol, "max_iter": max_iter}
                est, trace = solve(pin)
                pin.update(status=trace.status, iterations=trace.iterations,
                           estimate=[repr(v) for v in est.tolist()])
                pins.append(pin)
    return pins


def load_pins():
    return json.loads(PINS.read_text())


def test_pins_cover_both_solvers_dimensions_and_statuses():
    pins = load_pins()
    assert len(pins) >= 40
    assert {(p["solver"], len(p["x0"])) for p in pins} == {
        ("solvit", 2), ("solvit", 3), ("sfp", 2), ("sfp", 3)}
    assert {p["status"] for p in pins} == {"converged", "max_iter", "singular_system"}


def test_solves_match_pins():
    wrong = []
    for k, pin in enumerate(load_pins()):
        est, trace = solve(pin)
        got = (trace.status, trace.iterations)
        if got != (pin["status"], pin["iterations"]) or not all(
                math.isclose(a, float(b), rel_tol=1e-12, abs_tol=1e-12)
                for a, b in zip(est.tolist(), pin["estimate"], strict=True)):
            wrong.append((k, pin["solver"], got, est.tolist()))
    assert not wrong


if __name__ == "__main__":
    PINS.write_text(json.dumps(make_pins(), indent=1) + "\n")
