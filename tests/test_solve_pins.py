"""Pinned solver outputs: status, iteration count and estimate of fixed solves.

The fast planar paths are checked bit for bit against reference loops that
live in this repository, so a change to a fast path and its reference
together would go unseen there.  tests/data/solve_pins.json records the
inputs and outputs of 44 solves: solvit and sfp, n = 2 and 3, the
criterion-7 array at three SNRs and the linear array.  Every start is a
fixed point (no initializer), and the noisy measurements are stored with
the outputs, so replaying a pin runs only the solvers' own arithmetic.

tests/data/tdoa_solve_pins.json records the 25 range-difference sets of the
anechoic fixture (sources on the 5 x 5 grid x in 0.6..1.8 m, y in 0.3..1.5 m,
band-passed 150-350 Hz, integer-lag delays) as float hex, and each set's
solvit solve from (1.0, 1.4) with tol 1e-12 and max_iter 20000: about
10,000 planar MM iterations per solve, seven of them stopping at max_iter.
Those estimates are pinned bit for bit.

tests/data/cli_solve_pins.json records what `mmloc solve` prints on the
inputs of some of those pins (stdout, the stderr status line and the
--trace CSV), as bytes: solvit and sfp, n = 2 and 3, each ending, from a
fixed start and from each solver's default start.

Regenerate the three files (only on purpose, saying in the change why the
pins moved):

    PYTHONPATH=src python tests/test_solve_pins.py
"""

import contextlib
import io
import itertools
import json
import math
import pathlib
import tempfile

import numpy as np
from mmloc import (
    NoiseModel,
    RangeDiffSet,
    Scenario,
    SensorArray,
    SolverConfig,
    linear_array,
    random_array,
    rangediffs_from_ranges,
    save_scenario,
    sfp_solve,
    snr_to_sigma2,
    solvit_solve,
    true_ranges,
    write_rangediffs_csv,
    write_ranges_csv,
)
from mmloc.cli import main
from mmloc.scenario import range_noise_std
from mmloc.tdoa import (ANECHOIC_MICROPHONES, BAND_HI, BAND_LO, SOUND_SPEED, bandpass,
                        estimate_rangediffs, tone_burst_signals)

PINS = pathlib.Path(__file__).with_name("data") / "solve_pins.json"
TDOA_PINS = PINS.with_name("tdoa_solve_pins.json")
CLI_PINS = PINS.with_name("cli_solve_pins.json")
TDOA_X0, TDOA_TOL, TDOA_MAX_ITER = (1.0, 1.4), 1e-12, 20000

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
                est, outcome = solve(pin)
                pin.update(status=outcome.status, iterations=outcome.iterations,
                           estimate=[repr(v) for v in est.tolist()])
                pins.append(pin)
    return pins


def tdoa_solve(pin):
    """The fixture solve of one pinned range-difference set."""
    values = np.array([float.fromhex(v) for v in pin["values"]])
    rd = RangeDiffSet(np.array(pin["i"]), np.array(pin["j"]), values,
                      len(ANECHOIC_MICROPHONES))
    return solvit_solve(np.array(TDOA_X0), ANECHOIC_MICROPHONES, rd,
                        SolverConfig(tol=TDOA_TOL, max_iter=TDOA_MAX_ITER))


def make_tdoa_pins():
    """The fixture's range-difference sets and their solves (run at the pinning commit)."""
    pins = []
    for x, y in itertools.product((0.6, 0.9, 1.2, 1.5, 1.8), (0.3, 0.6, 0.9, 1.2, 1.5)):
        sigs = [bandpass(s, BAND_LO, BAND_HI)
                for s in tone_burst_signals(np.array([x, y]), ANECHOIC_MICROPHONES)]
        rd = estimate_rangediffs(sigs, c=SOUND_SPEED)
        pin = {"source": [x, y], "i": rd.i.tolist(), "j": rd.j.tolist(),
               "values": [v.hex() for v in rd.values.tolist()]}
        est, outcome = tdoa_solve(pin)
        pin.update(status=outcome.status, iterations=outcome.iterations,
                   estimate=[v.hex() for v in est.tolist()])
        pins.append(pin)
    return pins


def load_pins():
    return json.loads(PINS.read_text())


# (solve pin, start from the pin's x0 or the solver's default, extra arguments);
# each solve runs at its pin's tol and max_iter unless the extra arguments override them
CLI_CASES = (
    (0, True, []),                      # solvit, n = 2, converged
    (0, False, []),                     # ... from the proposed start
    (2, True, []),                      # sfp, n = 2, converged
    (2, False, []),                     # ... from the centroid
    (24, True, ["--max-iter", "25"]),   # solvit, n = 2, max_iter
    (40, True, []),                     # solvit, n = 2, singular_system
    (32, True, ["--max-iter", "30"]),   # solvit, n = 3, max_iter
    (34, True, ["--tol", "1e-4"]),      # sfp, n = 3, converged
    (34, True, ["--max-iter", "20"]),   # sfp, n = 3, max_iter
)


def cli_solve(case, work, trace):
    """stdout, stderr and, with trace, the --trace CSV of `mmloc solve` on a CLI case."""
    k, from_x0, extra = case
    pin = load_pins()[k]
    work = pathlib.Path(work)
    noise = NoiseModel(sigma2=0.0, f0=1000.0, c=340.0)
    save_scenario(work / "scen.json", Scenario(SensorArray(np.array(pin["sensors"])),
                                               np.zeros(len(pin["x0"])), noise))
    ranges = np.array(pin["ranges"])
    if pin["solver"] == "solvit":
        write_rangediffs_csv(work / "meas.csv", rangediffs_from_ranges(ranges))
    else:
        write_ranges_csv(work / "meas.csv", ranges)
    argv = ["solve", "--scenario", str(work / "scen.json"), "--measurements",
            str(work / "meas.csv"), "--solver", pin["solver"], "--tol", repr(pin["tol"]),
            "--max-iter", str(pin["max_iter"]), *extra]
    if from_x0:
        argv += ["--x0", *map(repr, pin["x0"])]
    if trace:
        argv += ["--trace", str(work / "trace.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0
    got = {"stdout": out.getvalue(), "stderr": err.getvalue()}
    if trace:
        got["trace"] = (work / "trace.csv").read_text()
    return got


def make_cli_pins():
    """What `mmloc solve` prints on each CLI case, traced (run at the pinning commit)."""
    with tempfile.TemporaryDirectory() as work:
        return [cli_solve(case, work, trace=True) for case in CLI_CASES]


def test_pins_cover_both_solvers_dimensions_and_statuses():
    pins = load_pins()
    assert len(pins) >= 40
    assert {(p["solver"], len(p["x0"])) for p in pins} == {
        ("solvit", 2), ("solvit", 3), ("sfp", 2), ("sfp", 3)}
    assert {p["status"] for p in pins} == {"converged", "max_iter", "singular_system"}


def test_solves_match_pins():
    wrong = []
    for k, pin in enumerate(load_pins()):
        est, outcome = solve(pin)
        got = (outcome.status, outcome.iterations)
        if got != (pin["status"], pin["iterations"]) or not all(
                math.isclose(a, float(b), rel_tol=1e-12, abs_tol=1e-12)
                for a, b in zip(est.tolist(), pin["estimate"], strict=True)):
            wrong.append((k, pin["solver"], got, est.tolist()))
    assert not wrong


def test_tdoa_fixture_solves_match_pins():
    pins = json.loads(TDOA_PINS.read_text())
    assert len(pins) == 25
    assert {p["status"] for p in pins} == {"converged", "max_iter"}
    wrong = []
    for pin in pins:
        est, outcome = tdoa_solve(pin)
        got = (outcome.status, outcome.iterations, [v.hex() for v in est.tolist()])
        if got != (pin["status"], pin["iterations"], pin["estimate"]):
            wrong.append((pin["source"], got))
    assert not wrong


def test_cli_solve_output_matches_pins(tmp_path):
    pins = json.loads(CLI_PINS.read_text())
    assert len(pins) == len(CLI_CASES)
    for case, pin in zip(CLI_CASES, pins):
        assert cli_solve(case, tmp_path, trace=True) == pin
        # without --trace the printed bytes are the same
        assert cli_solve(case, tmp_path, trace=False) == {"stdout": pin["stdout"],
                                                          "stderr": pin["stderr"]}


if __name__ == "__main__":
    PINS.write_text(json.dumps(make_pins(), indent=1) + "\n")
    TDOA_PINS.write_text(json.dumps(make_tdoa_pins(), indent=1) + "\n")
    CLI_PINS.write_text(json.dumps(make_cli_pins(), indent=1) + "\n")
