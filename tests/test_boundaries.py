"""Bad input fails loudly at the boundary, never as a NaN estimate.

Each scalar real input goes through scenario._as_real, which names its
field, and each array of real numbers through scenario._as_reals, which
applies _as_real's rule to every entry.  A numpy array of integers or floats
passes by its dtype; a list (or an array of another dtype) is checked entry by
entry.  An entry that is text, a bool, None or another non-number is a
TypeError "<field> must be real number, not <type>", and an int beyond the
float range a ValueError "<field> is beyond the float range".  The fields
are position (as_position), sensors (SensorArray, sensor_coords), ranges
(objective._check_ranges, _rangediff_rows, rangediffs_from_ranges,
write_ranges_csv), diffs (oriented_rangediffs), values (RangeDiffSet),
samples (SignalRecord) and points (the evaluation points of the *_many
costs and surrogates); a delay of delays_to_rangediffs is named by its
pair.  Then a non-finite entry is a ValueError with the field's message:
"position coordinates must be finite", "sensor coordinates must be finite",
"ranges must be finite", "range differences must be finite" (the ranges of
a range-difference set, diffs, values and delays), "signal samples must be
finite" or "points must be finite".  ARRAY_ENTRIES drives every entry with
each bad input of BAD_ARRAYS (a text array, a bool array, a numeric string
among numbers, a bool among numbers, a None entry, a NaN).  The points of a
batch form must then have the array's dimension ("points have shape (1, 3),
expected (B, 2)"), and each pair index of a delay is an integer by
scenario._as_int ("delay (True, 2) index must be an integer, got True").
A Scenario checks its own fields: an array that is not a SensorArray or a
noise that is not a NoiseModel is a TypeError naming the field ("noise must
be a NoiseModel, not str"), and a seed must be None or an integer >= 0, in a
file as in a call ("seed must be an integer, got 5.7").  So must InitConfig's
seed, or be the SeedSequence a trace passes ("seed must be >= 0").  The
records CrlbReport, BoundQuantities and RmseRow check their fields by name,
and each boolean flag (trace of the solves, refine of the correlation) is a
bool or an np.bool_ by scenario._as_flag ("trace must be a bool, not str").

Positions and ranges are checked for size and finiteness on Python floats;
these tests hold every entry point that takes them to those messages, for
each non-finite value.  Each scalar cost, surrogate, step and solve reaches
its measurement check through one helper per measurement kind
(objective._range_inputs, _rd_inputs), so all of them check the sensors,
then the measurements, then the position.
"""

import json
import math

import numpy as np
import pytest

from mmloc import (BoundQuantities, CrlbReport, ExperimentConfig, InitConfig, NoiseModel,
                   RangeDiffSet, RmseRow, Scenario, SensorArray, SignalRecord, SolverConfig,
                   bandpass, bound_quantities, circular_array, delays_to_rangediffs,
                   estimate_rangediffs, f_rdls, f_rdls_many, f_rls, f_rls_many, grad_fd,
                   hyperbola_points, load_scenario, random_array, range_variance,
                   rangediffs_from_ranges, read_rangediffs_csv, read_ranges_csv, read_rmse_csv,
                   read_signals_csv, read_signals_raw, save_scenario, sfp_solve, sfp_step,
                   sfp_surrogate, snr_to_sigma2, solvit_solve, solvit_step, surrogate_g,
                   tone_burst_signals, true_ranges, write_rangediffs_csv, write_ranges_csv,
                   write_signals_csv, xcorr_delay)
from mmloc.cli import main
from mmloc.harness import solve_one
from mmloc.objective import _f_pairs, _f_ranges
from mmloc.scenario import _rangediff_rows, as_position, oriented_rangediffs
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
                         "need at least 2 sensors, got 1"),
    "sensor array of four coordinates a row": (
        lambda tmp: SensorArray([[0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0]]),
        "sensor coordinates must have shape (m, 2) or (m, 3), got (2, 4)"),
    "4-D random array": (lambda tmp: random_array(4, -1.0, 1.0, n=4), "n must be 2 or 3"),
    "one range": (lambda tmp: rangediffs_from_ranges([1.0]), "need at least 2 ranges"),
    # finite ranges whose difference is beyond the float range
    "ranges that differ past the float range": (
        lambda tmp: _rangediff_rows([[1e308, -1e308, 0.0]]), "range differences must be finite"),
    "one row of ranges that differ past the float range": (
        lambda tmp: rangediffs_from_ranges([1e308, -1e308, 0.0]),
        "range differences must be finite"),
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
    "non-numeric fs header of a signal CSV": (
        lambda tmp: read_signals_csv(written(tmp / "s.csv", "# fs=abc\n1.0,2.0\n3.0,4.0\n")),
        "line 1, column 'fs': could not convert string to float: 'abc'"),
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


def with_first(template, value):
    """template as nested lists, its first number replaced by value."""
    out = np.asarray(template, dtype=float).tolist()
    inner = out
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = value
    return out


# the bad inputs every array entry is driven with: (a maker of the bad input
# from the entry's good template, the type its entries are refused as, or None for
# the finiteness refusal)
BAD_ARRAYS = {
    "text array": (lambda t: np.asarray(t, dtype=float).astype(str), "str"),
    "bool array": (lambda t: np.asarray(t, dtype=float).astype(bool), "bool"),
    "numeric string among numbers": (lambda t: with_first(t, "1"), "str"),
    "bool among numbers": (lambda t: with_first(t, True), "bool"),
    "None entry": (lambda t: with_first(t, None), "NoneType"),
    "NaN entry": (lambda t: with_first(t, math.nan), None),
}

TRIANGLE = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]
POINTS = [[1.0, 2.0], [3.0, -4.0]]
FOUR_RANGES = [5.0, 6.0, 7.0, 8.0]
FOUR_SET = rangediffs_from_ranges(FOUR_RANGES)


def config_with(**scenario):
    return ExperimentConfig(scenario={"sensors": TRIANGLE, "source": [1.0, 2.0], **scenario},
                            snr_grid=[0.0], trials=2)


# entry -> (good template, call of the entry on a value and a scratch directory,
# the field its refusals name, its non-finite message): every array of real
# numbers goes through scenario._as_reals
ARRAY_ENTRIES = {
    "as_position": ([1.0, 2.0], lambda v, tmp: as_position(v, 2),
                    "position", "position coordinates must be finite"),
    "solver start": ([1.0, 2.0], lambda v, tmp: solvit_solve(v, FOUR, FOUR_SET),
                     "position", "position coordinates must be finite"),
    "config source": ([1.0, 2.0], lambda v, tmp: config_with(source=v),
                      "position", "position coordinates must be finite"),
    "config init_point": ([1.0, 2.0], lambda v, tmp: ExperimentConfig(
        scenario=CIRCLE, snr_grid=[0.0], trials=2, init="fixed", init_point=v),
        "position", "position coordinates must be finite"),
    "SensorArray": (TRIANGLE, lambda v, tmp: SensorArray(v),
                    "sensors", "sensor coordinates must be finite"),
    "sensor_coords": (TRIANGLE, lambda v, tmp: f_rls([1.0, 2.0], v, [1.0, 2.0, 3.0]),
                      "sensors", "sensor coordinates must be finite"),
    "config sensors": (TRIANGLE, lambda v, tmp: config_with(sensors=v),
                       "sensors", "sensor coordinates must be finite"),
    "_check_ranges": (FOUR_RANGES, lambda v, tmp: f_rls([1.0, 2.0], FOUR, v),
                      "ranges", "ranges must be finite"),
    "sfp_solve ranges": (FOUR_RANGES, lambda v, tmp: sfp_solve(None, FOUR, v),
                         "ranges", "ranges must be finite"),
    "_rangediff_rows": ([FOUR_RANGES], lambda v, tmp: _rangediff_rows(v),
                        "ranges", "range differences must be finite"),
    "rangediffs_from_ranges": (FOUR_RANGES, lambda v, tmp: rangediffs_from_ranges(v),
                               "ranges", "range differences must be finite"),
    "oriented_rangediffs": ([1.0, 2.0, 3.0, 1.0, 2.0, 1.0],
                            lambda v, tmp: oriented_rangediffs(v, 4),
                            "diffs", "range differences must be finite"),
    "RangeDiffSet values": ([0.5, 0.2, 0.1], lambda v, tmp: RangeDiffSet([1, 1, 2], [2, 3, 3],
                                                                         v, 3),
                            "values", "range differences must be finite"),
    "SignalRecord samples": ([0.0, 1.0, 0.5, -1.0], lambda v, tmp: SignalRecord(v, 100.0),
                             "samples", "signal samples must be finite"),
    "write_ranges_csv": (FOUR_RANGES, lambda v, tmp: write_ranges_csv(tmp / "r.csv", v),
                         "ranges", "ranges must be finite"),
    "f_rls_many points": (POINTS, lambda v, tmp: f_rls_many(v, FOUR, FOUR_RANGES),
                          "points", "points must be finite"),
    "f_rdls_many points": (POINTS, lambda v, tmp: f_rdls_many(v, FOUR, FOUR_SET),
                           "points", "points must be finite"),
    "sfp_surrogate_many points": (
        POINTS, lambda v, tmp: sfp_surrogate_many(v, [1.0, 1.0], FOUR, FOUR_RANGES),
        "points", "points must be finite"),
    "surrogate_g_many points": (
        POINTS, lambda v, tmp: surrogate_g_many(v, [1.0, 1.0], FOUR, FOUR_SET),
        "points", "points must be finite"),
    "sfp_surrogate point": ([1.0, 2.0], lambda v, tmp: sfp_surrogate(v, [1.0, 1.0], FOUR,
                                                                     FOUR_RANGES),
                            "points", "points must be finite"),
    "surrogate_g point": ([1.0, 2.0], lambda v, tmp: surrogate_g(v, [1.0, 1.0], FOUR, FOUR_SET),
                          "points", "points must be finite"),
}


@pytest.mark.parametrize("bad", BAD_ARRAYS)
@pytest.mark.parametrize("entry", ARRAY_ENTRIES)
def test_array_entry_refuses_by_its_field(entry, bad, tmp_path):
    """Each bad input gets one error, and it names the field."""
    template, call, name, finite = ARRAY_ENTRIES[entry]
    make, kind = BAD_ARRAYS[bad]
    good, refused = tmp_path / "good", tmp_path / "refused"
    good.mkdir(), refused.mkdir()
    call(template, good)  # the template itself passes
    error = ValueError if kind is None else TypeError
    with pytest.raises(error) as exc:
        call(make(template), refused)
    assert type(exc.value) is error
    assert str(exc.value) == (finite if kind is None else f"{name} must be real number, not {kind}")
    assert not any(refused.iterdir())


BATCH_FORMS = ["f_rls_many points", "f_rdls_many points", "sfp_surrogate_many points",
               "surrogate_g_many points"]


@pytest.mark.parametrize("points", [[[1.0, 2.0, 3.0]], [[[1.0, 2.0]]]],
                         ids=["3-D point", "3-D array"])
@pytest.mark.parametrize("entry", BATCH_FORMS)
def test_batch_points_of_another_dimension_are_refused(entry, points, tmp_path):
    """A batch form takes points of the array's dimension, (B, 2) here."""
    with pytest.raises(ValueError) as exc:
        ARRAY_ENTRIES[entry][1](points, tmp_path)
    assert str(exc.value) == f"points have shape {np.shape(points)}, expected (B, 2)"


# the delays must be a mapping and each key a pair, checked before the key is
# unpacked; each pair index goes through scenario._as_int and each delay through
# scenario._as_real, named by its pair
DELAY_CASES = {
    "a list of pairs": ([((1, 2), 1e-3)], TypeError, "delays must be a mapping, not list"),
    "a key of one index": ({1: 1e-3},
                           ValueError, "delay key 1 must be a pair (i, j) of sensor indices"),
    "a key of three indices": (
        {(1, 2, 3): 1e-3},
        ValueError, "delay key (1, 2, 3) must be a pair (i, j) of sensor indices"),
    "bool pair index": ({(True, 2): 1e-3},
                        ValueError, "delay (True, 2) index must be an integer, got True"),
    "numeric string pair index": ({("1", 2): 1e-3},
                                  ValueError, "delay ('1', 2) index must be an integer, got '1'"),
    "float pair index": ({(1.5, 2): 1e-3},
                         ValueError, "delay (1.5, 2) index must be an integer, got 1.5"),
    "numeric string delay": ({(1, 2): 1e-3, (1, 3): "0.002", (2, 3): 0.0},
                             TypeError, "delay (1, 3) must be real number, not str"),
    "bool delay": ({(1, 2): 1e-3, (3, 1): True, (2, 3): 0.0},
                   TypeError, "delay (3, 1) must be real number, not bool"),
    "null delay": ({(1, 2): None, (1, 3): 1e-3, (2, 3): 0.0},
                   TypeError, "delay (1, 2) must be real number, not NoneType"),
    "huge int delay": ({(1, 2): 1e-3, (1, 3): 10**400, (2, 3): 0.0},
                       ValueError, "delay (1, 3) is beyond the float range"),
    "NaN delay": ({(1, 2): 1e-3, (1, 3): math.nan, (2, 3): 0.0},
                  ValueError, "range differences must be finite"),
}


@pytest.mark.parametrize("case", DELAY_CASES)
def test_bad_delay_is_refused_by_its_pair(case):
    delays, error, message = DELAY_CASES[case]
    with pytest.raises(error) as exc:
        delays_to_rangediffs(delays, 340.0)
    assert type(exc.value) is error and str(exc.value) == message


def test_delays_keep_their_values():
    rd = delays_to_rangediffs({(1, 2): 1e-3, (3, 1): np.float32(2e-3), (2, 3): -1}, 340.0)
    assert list(rd.entries()) == [(1, 2, 340.0 * 1e-3), (3, 1, 340.0 * float(np.float32(2e-3))),
                                  (3, 2, 340.0)]


# (call, error, message): each input ran as numbers, or failed naming no field,
# before every array went through scenario._as_reals
NUMBERS_OF_TEXT = {
    "config of numeric string coordinates": (
        lambda: ExperimentConfig(scenario={"sensors": [["0", "0"], ["10", "0"], ["0", "10"]],
                                           "source": ["1", "2"]}, snr_grid=[0.0], trials=2),
        TypeError, "sensors must be real number, not str"),
    "config of a numeric string source": (
        lambda: ExperimentConfig(scenario={"sensors": TRIANGLE, "source": ["1", "2"]},
                                 snr_grid=[0.0], trials=2),
        TypeError, "position must be real number, not str"),
    "sensors of strings and a bool": (
        lambda: SensorArray([["0", "0"], ["10", "0"], [True, "5"]]),
        TypeError, "sensors must be real number, not str"),
    "ranges of strings and a bool": (
        lambda: f_rls([1.0, 2.0], circular_array(4, 10.0), ["5", "6", "7", True]),
        TypeError, "ranges must be real number, not str"),
    "range differences of a string and a bool": (
        lambda: RangeDiffSet([1, 1, 2], [2, 3, 3], ["0.5", True, 0.1], 3),
        TypeError, "values must be real number, not str"),
    "delays of a string and a bool": (
        lambda: delays_to_rangediffs({(1, 2): "0.001", (1, 3): True, (2, 3): 0.0}, 340.0),
        TypeError, "delay (1, 2) must be real number, not str"),
    "a NaN evaluation point": (
        lambda: f_rdls_many([[math.nan, 1.0]], circular_array(4, 10.0),
                            rangediffs_from_ranges(FOUR_RANGES)),
        ValueError, "points must be finite"),
    "text sensors": (lambda: SensorArray("abc"), TypeError,
                     "sensors must be real number, not str"),
}


@pytest.mark.parametrize("case", NUMBERS_OF_TEXT)
def test_input_once_read_as_numbers_is_refused(case):
    call, error, message = NUMBERS_OF_TEXT[case]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_bench_refuses_text_sensors_in_one_line(tmp_path, capsys):
    cfg = written(tmp_path / "cfg.json", json.dumps(
        {"scenario": {"sensors": "abc", "source": [1.0, 2.0]}, "snr_grid": [0.0], "trials": 2}))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "rmse.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: sensors must be real number, not str"]
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# (call on a scratch directory, error, message): each field of a Scenario built
# by a caller, which was kept unchecked until Scenario checked its own fields
SCENARIO_CASES = {
    "a fractional seed": (lambda tmp: Scenario(circular_array(4, 10.0), [1.0, 2.0], NOISE, 5.7),
                          ValueError, "seed must be an integer, got 5.7"),
    "a text noise": (lambda tmp: Scenario(circular_array(4, 10.0), [1.0, 2.0], "x"),
                     TypeError, "noise must be a NoiseModel, not str"),
    "raw coordinates as the array": (lambda tmp: Scenario(TRIANGLE, [1.0, 2.0], NOISE),
                                     TypeError, "array must be a SensorArray, not list"),
    "a fractional seed in a scenario file": (
        lambda tmp: load_scenario(written(tmp / "scen.json", json.dumps(
            dict(SCENARIO_DOC, n=2, seed=5.7)))),
        ValueError, "seed must be an integer, got 5.7"),
}


@pytest.mark.parametrize("case", SCENARIO_CASES)
def test_scenario_refuses_a_bad_field_by_name(case, tmp_path):
    call, error, message = SCENARIO_CASES[case]
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert type(exc.value) is error and str(exc.value) == message


def init_from_the_cli(tmp, *flags):
    """mmloc init on a circle scenario and its exact differences, with flags."""
    scen = Scenario(circular_array(4, 10.0), [1.0, 2.0], NOISE)
    save_scenario(tmp / "scen.json", scen)
    write_rangediffs_csv(tmp / "rd.csv", rangediffs_from_ranges(true_ranges(scen.source,
                                                                            scen.array)))
    return main(["init", "--scenario", str(tmp / "scen.json"),
                 "--measurements", str(tmp / "rd.csv"), *flags])


def flag_calls(flag):
    """(flag name, call passing flag) of each call that takes a boolean flag,
    on the circle's exact ranges or two silent channels."""
    r = true_ranges([1.0, 2.0], FOUR)
    rd = rangediffs_from_ranges(r)
    return {"solvit_solve": ("trace", lambda: solvit_solve([0.0, 0.0], FOUR, rd, trace=flag)),
            "sfp_solve": ("trace", lambda: sfp_solve(None, FOUR, r, trace=flag)),
            "solve_one": ("trace", lambda: solve_one("sfp", "centroid", FOUR, r, 0,
                                                     SolverConfig(), trace=flag)),
            "xcorr_delay": ("refine", lambda: xcorr_delay(*TWO_CHANNELS, refine=flag)),
            "estimate_rangediffs": ("refine",
                                    lambda: estimate_rangediffs(TWO_CHANNELS, refine=flag))}


# (call, error, message): a field of a record or a call that used to build
# from a wrong value, or to fail inside numpy with a message naming no field
FIELD_CASES = {
    "a fractional init seed": (lambda: InitConfig(seed=5.7), ValueError,
                               "seed must be an integer, got 5.7"),
    "a bool init seed": (lambda: InitConfig(seed=True), ValueError,
                         "seed must be an integer, got True"),
    "a negative init seed": (lambda: InitConfig(seed=-5), ValueError, "seed must be >= 0"),
    "a text rank of a CRLB report": (lambda: CrlbReport(np.eye(2), "x", 1.0), ValueError,
                                     "cov_rank must be an integer, got 'x'"),
    "a negative rank of a CRLB report": (lambda: CrlbReport(np.eye(2), -1, 1.0), ValueError,
                                         "cov_rank must be >= 0"),
    "a text bound of a CRLB report": (lambda: CrlbReport(np.eye(2), 1, "x"), TypeError,
                                      "rmse_bound must be real number, not str"),
    "a text Fisher matrix": (lambda: CrlbReport([["a", 0.0], [0.0, 1.0]], 1, 1.0), TypeError,
                             "fisher must be real number, not str"),
    "text unit vectors of a bound": (lambda: BoundQuantities([["a", 0.0]], [0.5], [np.eye(2)]),
                                     TypeError, "w must be real number, not str"),
    "a bool s of a bound": (lambda: BoundQuantities([[1.0, 0.0]], [True], [np.eye(2)]),
                            TypeError, "s must be real number, not bool"),
    "a None Q of a bound": (lambda: BoundQuantities([[1.0, 0.0]], [0.5], [[[None, 0.0]]]),
                            TypeError, "Q must be real number, not NoneType"),
    "a float dimension of a random array": (lambda: random_array(4, -1.0, 1.0, n=2.0),
                                            ValueError, "n must be an integer, got 2.0"),
    "a text sweep value of an RMSE row": (lambda: RmseRow("x", 0.5, 0.25, 0), TypeError,
                                          "sweep must be real number, not str"),
    "a text rmse of an RMSE row": (lambda: RmseRow(0.0, "x", 0.25, 0), TypeError,
                                   "rmse must be real number, not str"),
    "a None bound of an RMSE row": (lambda: RmseRow(0.0, 0.5, None, 0), TypeError,
                                    "crlb must be real number, not NoneType"),
    "a fractional failed count of an RMSE row": (lambda: RmseRow(0.0, 0.5, 0.25, 2.5),
                                                 ValueError,
                                                 "trials_failed must be an integer, got 2.5"),
    **{f"{kind} {flag} flag of {name}": (call, TypeError,
                                         f"{flag} must be a bool, not {type(bad).__name__}")
       for kind, bad in (("a text", "no"), ("an array", np.array([True, False])))
       for name, (flag, call) in flag_calls(bad).items()},
}


@pytest.mark.parametrize("case", FIELD_CASES)
def test_bad_field_is_refused_by_name(case):
    call, error, message = FIELD_CASES[case]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_the_cli_refuses_a_negative_init_seed(tmp_path, capsys):
    assert init_from_the_cli(tmp_path, "--seed", "-5") == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0"]


def test_good_seeds_and_flags_still_build(tmp_path, capsys):
    ss = np.random.SeedSequence(7)
    assert InitConfig(seed=ss).seed is ss and InitConfig(seed=np.int64(7)).seed == 7
    assert init_from_the_cli(tmp_path, "--seed", "5") == 0
    report = CrlbReport([[1.0, 0.0], [0.0, 1.0]], 2, math.inf)
    assert report.to_dict() == {"fisher": [[1.0, 0.0], [0.0, 1.0]], "cov_rank": 2,
                                "rmse_bound": math.inf}
    for flag in (False, np.bool_(True)):
        for _, call in flag_calls(flag).values():
            call()
