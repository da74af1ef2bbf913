"""Bad input fails loudly at the boundary, never as a NaN estimate.

Positions and ranges are checked for size and finiteness on Python floats
(as_position and objective._check_ranges); these tests hold every entry
point that takes them to those messages, for each non-finite value.  Each
scalar cost, surrogate, step and solve reaches its measurement check through
one helper per measurement kind (objective._range_inputs, _rd_inputs), so
all of them check the sensors, then the measurements, then the position.
Each scalar real input goes through scenario._as_real, which names its field.
"""

import json
import math

import numpy as np
import pytest

from mmloc import (ExperimentConfig, NoiseModel, SensorArray, SignalRecord, SolverConfig,
                   bandpass, bound_quantities, circular_array, delays_to_rangediffs,
                   estimate_rangediffs, f_rdls, f_rdls_many, f_rls, f_rls_many, grad_fd,
                   hyperbola_points, load_scenario, random_array, range_variance,
                   rangediffs_from_ranges, read_rangediffs_csv, read_ranges_csv, read_rmse_csv,
                   read_signals_raw, sfp_solve, sfp_step, sfp_surrogate, snr_to_sigma2,
                   solvit_solve, solvit_step, surrogate_g, tone_burst_signals, true_ranges,
                   write_signals_csv)
from mmloc.cli import main
from mmloc.harness import solve_one
from mmloc.objective import _f_pairs, _f_ranges
from mmloc.scenario import as_position, oriented_rangediffs
from mmloc.sfp import sfp_surrogate_many
from mmloc.solvit import surrogate_g_many
from mmloc.tdoa import ANECHOIC_MICROPHONES
from conftest import make_instance, make_range_instance

BAD = [np.nan, np.inf, -np.inf]


def with_bad(values, k, bad):
    out = np.array(values, dtype=float)
    out[k] = bad
    return out


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("k", [0, 1])
def test_nonfinite_position_is_rejected(bad, k):
    array, _, rd = make_instance(1, m=4)
    _, _, r = make_range_instance(1, m=4)
    x0 = with_bad([1.0, 2.0], k, bad)
    calls = [lambda: as_position(x0), lambda: as_position(x0.tolist(), 2),
             lambda: sfp_solve(x0, array, r), lambda: solvit_solve(x0, array, rd),
             lambda: f_rls(x0, array, r)]
    for call in calls:
        with pytest.raises(ValueError, match="^position coordinates must be finite$"):
            call()


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("k", [0, 3])
def test_nonfinite_range_is_rejected(bad, k):
    array, source, _ = make_range_instance(2, m=4)
    r = with_bad(true_ranges(source, array), k, bad)
    for call in (lambda: sfp_solve(None, array, r), lambda: sfp_solve([0.5, 0.5], array, r),
                 lambda: f_rls(source, array, r), lambda: f_rls(source, array, r.tolist())):
        with pytest.raises(ValueError, match="^ranges must be finite$"):
            call()
    # solvit's measurements are formed from the ranges, and refuse them there
    with pytest.raises(ValueError, match="^range differences must be finite$"):
        rangediffs_from_ranges(r)


@pytest.mark.parametrize("x0, n, message", [
    ([1.0], None, "position must have 2 or 3 coordinates, got 1"),
    ([1.0, 2.0, 3.0, 4.0], None, "position must have 2 or 3 coordinates, got 4"),
    ([[1.0, 2.0], [3.0, 4.0]], None, "position must have 2 or 3 coordinates, got 4"),
    ([], None, "position must have 2 or 3 coordinates, got 0"),
    ([1.0, 2.0, 3.0], 2, "position has dimension 3, expected 2"),
    ([1.0, 2.0], 3, "position has dimension 2, expected 3"),
    # size first: a wrong-size position reports its size, not its values
    ([np.nan], None, "position must have 2 or 3 coordinates, got 1"),
    # finiteness before the dimension
    ([1.0, np.inf, 3.0], 2, "position coordinates must be finite"),
])
def test_wrong_size_position_keeps_its_error(x0, n, message):
    with pytest.raises(ValueError) as exc:
        as_position(x0, n)
    assert str(exc.value) == message


@pytest.mark.parametrize("x0, message", [
    ([1.0, 2.0, 3.0], "position has dimension 3, expected 2"),
    ([1.0], "position must have 2 or 3 coordinates, got 1"),
])
def test_solvers_keep_the_size_errors(x0, message):
    array, _, rd = make_instance(3, m=4)
    _, _, r = make_range_instance(3, m=4)
    for call in (lambda: sfp_solve(x0, array, r), lambda: solvit_solve(x0, array, rd),
                 lambda: f_rls(x0, array, r)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        sfp_solve(None, array, r[:3])
    assert str(exc.value) == "3 ranges for 4 sensors"


FOUR = circular_array(4, 10.0)
FIVE_RANGES = [3.0, 4.0, 5.0, 6.0, 7.0]
FIVE_SENSOR_SET = rangediffs_from_ranges(FIVE_RANGES)
RANGE_SIZE = "5 ranges for 4 sensors"
SET_SIZE = "measurement set indexes 5 sensors, array has 4"


# entry -> (its call with a 5-sensor measurement on a 4-sensor array and a 3-D
# position, the message it must give): every scalar cost, surrogate, step and
# solve checks the sensors, then the measurements against them, then the position
ORDER_CASES = {
    "f_rls": (lambda x: f_rls(x, FOUR, FIVE_RANGES), RANGE_SIZE),
    "sfp_surrogate": (lambda x: sfp_surrogate(x, x, FOUR, FIVE_RANGES), RANGE_SIZE),
    "sfp_surrogate_many": (lambda x: sfp_surrogate_many([x], x, FOUR, FIVE_RANGES), RANGE_SIZE),
    "sfp_step": (lambda x: sfp_step(x, FOUR, FIVE_RANGES), RANGE_SIZE),
    "sfp_solve": (lambda x: sfp_solve(x, FOUR, FIVE_RANGES), RANGE_SIZE),
    "f_rdls": (lambda x: f_rdls(x, FOUR, FIVE_SENSOR_SET), SET_SIZE),
    "bound_quantities": (lambda x: bound_quantities(x, FOUR, FIVE_SENSOR_SET), SET_SIZE),
    "surrogate_g": (lambda x: surrogate_g(x, x, FOUR, FIVE_SENSOR_SET), SET_SIZE),
    "surrogate_g_many": (lambda x: surrogate_g_many([x], x, FOUR, FIVE_SENSOR_SET), SET_SIZE),
    "solvit_step": (lambda x: solvit_step(x, FOUR, FIVE_SENSOR_SET), SET_SIZE),
    "solvit_solve": (lambda x: solvit_solve(x, FOUR, FIVE_SENSOR_SET), SET_SIZE),
}


@pytest.mark.parametrize("entry", ORDER_CASES)
def test_measurements_are_checked_before_the_position(entry):
    call, message = ORDER_CASES[entry]
    with pytest.raises(ValueError) as exc:
        call([1.0, 2.0, 3.0])
    assert str(exc.value) == message


@pytest.mark.parametrize("n", [2, 3])
def test_scalar_costs_are_floats_of_the_kernel_bits(n):
    """f_rls and f_rdls return a float, bit-equal to their scalar kernel run on
    numpy inputs (as f_rls used to run it) and to their numpy batch form."""
    for seed in range(20):
        array, source, r = make_range_instance(seed, m=5, n=n, noise_std=0.3)
        rd_array, _, rd = make_instance(seed, m=5, n=n, sigma2=1e-3)
        x = source + np.random.default_rng(seed).standard_normal(n)
        pairs = [(i - 1, j - 1, v) for i, j, v in rd.entries()]
        for value, kernel, many in (
                (f_rls(x, array, r), _f_ranges(x, array.sensors, r)[0], f_rls_many(x, array, r)),
                (f_rdls(x, rd_array, rd), _f_pairs(x, rd_array.sensors, pairs)[0],
                 f_rdls_many(x, rd_array, rd))):
            assert type(value) is float
            assert value.hex() == float(kernel).hex() == float(many[0]).hex()


def burst(source=(1.0, 0.5), **kw):
    return lambda: tone_burst_signals(source, ANECHOIC_MICROPHONES, **kw)


TWO_CHANNELS = [SignalRecord(np.zeros(8), 100.0)] * 2
NOISE = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)

# (call, message): each input used to run as a wrong value, to fail with a
# message that names no field, or to fail only through its effect
SCALAR_CASES = {
    "null fs": (lambda: SignalRecord(np.zeros(8), None), "fs must be real number, not NoneType"),
    "bool fs": (lambda: SignalRecord(np.zeros(8), True), "fs must be real number, not bool"),
    "string fs": (lambda: SignalRecord(np.zeros(8), "100"), "fs must be real number, not str"),
    "null c of the delays": (lambda: delays_to_rangediffs({(1, 2): 1e-3}, c=None),
                             "c must be real number, not NoneType"),
    "bool c of the delays": (lambda: delays_to_rangediffs({(1, 2): 1e-3}, c=True),
                             "c must be real number, not bool"),
    "zero c of the delays": (lambda: delays_to_rangediffs({(1, 2): 1e-3}, c=0.0),
                             "c must be finite and > 0"),
    "infinite c of the delays": (lambda: delays_to_rangediffs({(1, 2): 1e-3}, c=math.inf),
                                 "c must be finite and > 0"),
    "huge int c of the delays": (lambda: delays_to_rangediffs({(1, 2): 1e-3}, c=10**400),
                                 "c is beyond the float range"),
    "null c of the estimate": (lambda: estimate_rangediffs(TWO_CHANNELS, c=None),
                               "c must be real number, not NoneType"),
    "bool c of the estimate": (lambda: estimate_rangediffs(TWO_CHANNELS, c=True),
                               "c must be real number, not bool"),
    "zero c of the estimate": (lambda: estimate_rangediffs(TWO_CHANNELS, c=0.0),
                               "c must be finite and > 0"),
    "infinite c of the estimate": (lambda: estimate_rangediffs(TWO_CHANNELS, c=math.inf),
                                   "c must be finite and > 0"),
    "bool h": (lambda: grad_fd(lambda x: 0.0, [1.0, 2.0], h=True),
               "h must be real number, not bool"),
    "zero h": (lambda: grad_fd(lambda x: 0.0, [1.0, 2.0], h=0.0), "h must be finite and > 0"),
    "infinite h": (lambda: grad_fd(lambda x: 0.0, [1.0, 2.0], h=math.inf),
                   "h must be finite and > 0"),
    "null D": (lambda: range_variance(None, NOISE), "D must be real number, not NoneType"),
    "bool D": (lambda: range_variance(True, NOISE), "D must be real number, not bool"),
    "zero D": (lambda: range_variance(0.0, NOISE), "D must be finite and > 0"),
    "infinite D": (lambda: range_variance(math.inf, NOISE), "D must be finite and > 0"),
    "huge int D": (lambda: range_variance(-10**400, NOISE), "D is beyond the float range"),
    "bool f0 of the burst": (burst(f0=True), "f0 must be real number, not bool"),
    "null fs of the burst": (burst(fs=None), "fs must be real number, not NoneType"),
    "zero c of the burst": (burst(c=0.0), "c must be finite and > 0"),
    "infinite duration of the burst": (burst(duration=math.inf),
                                       "duration must be finite and > 0"),
    "zero burst length": (burst(burst=0.0), "burst must be finite and > 0"),
    "negative onset of the burst": (burst(onset=-1e-3), "onset must be finite and >= 0"),
    "NaN source of the burst": (burst(source=(math.nan, 0.5)),
                                "position coordinates must be finite"),
    "bool r_ij": (lambda: hyperbola_points([0.0, 0.0], [4.0, 0.0], True, 8, 10.0),
                  "r_ij must be real number, not bool"),
    "bool snr_db": (lambda: snr_to_sigma2(True), "snr_db must be real number, not bool"),
    "huge int snr_db": (lambda: snr_to_sigma2(10**400), "snr_db is beyond the float range"),
    "bool band edge": (lambda: bandpass(TWO_CHANNELS[0], True, 30.0),
                       "f_lo must be real number, not bool"),
    "null band edge": (lambda: bandpass(TWO_CHANNELS[0], 10.0, None),
                       "f_hi must be real number, not NoneType"),
}


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_bad_scalar_is_refused_by_name(case):
    call, message = SCALAR_CASES[case]
    with pytest.raises(TypeError if "real number" in message else ValueError) as exc:
        call()
    assert str(exc.value) == message


def written(path, text):
    path.write_text(text)
    return path


def raw_of_three_samples(tmp):
    np.zeros(3).astype("<f8").tofile(tmp / "sig.f64")
    written(tmp / "sig.f64.json", json.dumps({"channels": 2, "fs": 100.0}))
    return read_signals_raw(tmp / "sig.f64")


def solve_from_both_starts(tmp):
    array, _, rd = make_instance(3)
    return solve_one("solvit", "both", array, rd, 0, SolverConfig())


CIRCLE = {"sensors": {"kind": "circular", "m": 5, "radius": 10.0}, "source": [3.0, -2.0]}
SCENARIO_DOC = {"n": 3, "sensors": [[0.0, 0.0], [1.0, 0.0]], "source": [0.5, 0.5],
                "noise": {"sigma2": 0.0, "f0": 1000.0, "c": 340.0}, "seed": None}
RMSE_HEADER = "sweep,rmse,crlb,failed\n"

# (call on a scratch directory, message): a check of outside input that a
# public call reaches and no other test does
INPUT_CASES = {
    "no channels to write": (lambda tmp: write_signals_csv(tmp / "s.csv", []), "no channels"),
    "channels at two rates": (
        lambda tmp: write_signals_csv(tmp / "s.csv", [SignalRecord(np.zeros(8), 100.0),
                                                      SignalRecord(np.zeros(8), 200.0)]),
        "channels have differing sampling rates"),
    "channels of two lengths": (
        lambda tmp: write_signals_csv(tmp / "s.csv", [SignalRecord(np.zeros(8), 100.0),
                                                      SignalRecord(np.zeros(9), 100.0)]),
        "channels have differing lengths"),
    "raw file of a partial frame": (raw_of_three_samples,
                                    "raw file length is not a multiple of the channel count"),
    "no delays": (lambda tmp: delays_to_rangediffs({}, 340.0), "empty delay mapping"),
    "a delay of a sensor to itself": (lambda tmp: delays_to_rangediffs({(1, 1): 0.0}, 340.0),
                                      "bad pair indices (1, 1)"),
    "one channel to correlate": (lambda tmp: estimate_rangediffs(TWO_CHANNELS[:1]),
                                 "need at least 2 channels"),
    "1-D sensor array": (lambda tmp: SensorArray([0.0, 1.0, 2.0]),
                         "sensors must be a 2-D array of shape (m, n)"),
    "4-D random array": (lambda tmp: random_array(4, -1.0, 1.0, n=4), "n must be 2 or 3"),
    "one range": (lambda tmp: rangediffs_from_ranges([1.0]), "need at least 2 ranges"),
    "five differences for four sensors": (lambda tmp: oriented_rangediffs([1.0] * 5, 4),
                                          "expected 6 differences for m=4, got 5"),
    "scenario file n against its sensors": (
        lambda tmp: load_scenario(written(tmp / "scen.json", json.dumps(SCENARIO_DOC))),
        "scenario dimension field disagrees with sensor coordinates"),
    "range-difference CSV of its header": (
        lambda tmp: read_rangediffs_csv(written(tmp / "rd.csv", "i,j,r_ij\n")),
        "empty range-difference CSV"),
    "fractional sensor index in a range CSV": (
        lambda tmp: read_ranges_csv(written(tmp / "r.csv", "i,r_i\n1,5.0\n1.5,6.0\n")),
        "line 3, column 'i': invalid literal for int() with base 10: '1.5'"),
    "non-numeric sensor index in a range-difference CSV": (
        lambda tmp: read_rangediffs_csv(written(tmp / "rd.csv", "i,j,r_ij\n1,x,3.0\n")),
        "line 2, column 'j': invalid literal for int() with base 10: 'x'"),
    "negative rmse in an RMSE CSV": (
        lambda tmp: read_rmse_csv(written(tmp / "r.csv", RMSE_HEADER + "0.0,-0.5,0.25,0\n")),
        "rmse must be >= 0"),
    "negative failed count in an RMSE CSV": (
        lambda tmp: read_rmse_csv(written(tmp / "r.csv", RMSE_HEADER + "0.0,0.5,0.25,-1\n")),
        "trials_failed must be >= 0"),
    "empty scenario spec": (lambda tmp: ExperimentConfig(scenario={}, snr_grid=[0.0]),
                            "missing scenario fields: ['sensors', 'source']"),
    "unknown sensor kind": (
        lambda tmp: ExperimentConfig(scenario=dict(CIRCLE, sensors={"kind": "hexagon"}),
                                     snr_grid=[0.0]),
        "unknown sensor kind 'hexagon'"),
    "3-D hyperbola foci": (lambda tmp: hyperbola_points([0.0, 0.0, 0.0], [4.0, 0.0, 0.0],
                                                        1.0, 8, 10.0),
                           "hyperbola sampling is 2-D only"),
    "hyperbola vertex outside the box": (
        lambda tmp: hyperbola_points([0, 0], [10, 0], 2.0, 8, 5.0),
        "hyperbola vertex lies outside the search box; increase coord_bound"),
    "a trace-only init for one solve": (solve_from_both_starts, "init 'both' not valid here"),
}


@pytest.mark.parametrize("case", INPUT_CASES)
def test_bad_input_is_refused_with_its_message(case, tmp_path):
    call, message = INPUT_CASES[case]
    with pytest.raises(ValueError) as exc:
        call(tmp_path)
    assert str(exc.value) == message


def test_bench_refuses_a_trace_only_init_and_writes_nothing(tmp_path, capsys):
    cfg = written(tmp_path / "cfg.json", json.dumps(
        {"scenario": CIRCLE, "snr_grid": [0.0], "trials": 2, "init": "both"}))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "rmse.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: init 'both' not valid here"]
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
