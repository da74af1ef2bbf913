"""Geometry containers, noise model, measurement simulation, and file I/O."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from mmloc import (
    NoiseModel,
    RangeDiffSet,
    Scenario,
    SensorArray,
    circular_array,
    linear_array,
    load_scenario,
    noisy_rangediffs,
    noisy_ranges,
    random_array,
    range_noise_std,
    rangediffs_from_ranges,
    read_rangediffs_csv,
    read_ranges_csv,
    read_rmse_csv,
    rhombus_array,
    save_scenario,
    snr_to_sigma2,
    true_ranges,
    unordered_pairs,
    write_rangediffs_csv,
    write_ranges_csv,
)
from mmloc.harness import _resolve_scenario
from mmloc.scenario import _rangediff_rows, oriented_rangediffs


class TestSensorArray:
    def test_basic_properties(self):
        arr = SensorArray(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, -2.0]]))
        assert arr.m == 3
        assert arr.n == 2
        np.testing.assert_allclose(arr.sensor(2), [3.0, 4.0])
        np.testing.assert_allclose(arr.centroid(), [4.0 / 3.0, 2.0 / 3.0])

    def test_rejects_single_sensor(self):
        with pytest.raises(ValueError):
            SensorArray(np.array([[0.0, 0.0]]))

    def test_rejects_coincident_sensors(self):
        with pytest.raises(ValueError):
            SensorArray(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            SensorArray(np.array([[1.0], [2.0]]))
        with pytest.raises(ValueError):
            SensorArray(np.zeros((3, 4)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SensorArray(np.array([[0.0, 0.0], [np.nan, 1.0]]))

    def test_coordinates_write_protected(self):
        arr = circular_array(4, radius=1.0)
        with pytest.raises(ValueError):
            arr.sensors[0, 0] = 99.0

    def test_sensor_index_out_of_range(self):
        arr = circular_array(4, radius=1.0)
        with pytest.raises(IndexError):
            arr.sensor(0)
        with pytest.raises(IndexError):
            arr.sensor(5)


class TestFixtureArrays:
    def test_circular_sensor_positions(self):
        # sensor i sits at radius * [cos(2 pi i / m), sin(2 pi i / m)]
        arr = circular_array(5, radius=10.0)
        np.testing.assert_allclose(
            arr.sensor(1), [3.090169943749474, 9.510565162951535], atol=1e-12)
        np.testing.assert_allclose(arr.sensor(5), [10.0, 0.0], atol=1e-12)

    def test_circular_m6_last_sensor(self):
        arr = circular_array(6, radius=10.0)
        np.testing.assert_allclose(arr.sensor(6), [10.0, 0.0], atol=1e-12)

    def test_rhombus(self):
        arr = rhombus_array()
        np.testing.assert_allclose(arr.sensor(1), [0.0, 10.0])
        assert arr.m == 4
        np.testing.assert_allclose(arr.centroid(), [0.0, 0.0], atol=1e-15)

    def test_linear(self):
        arr = linear_array()
        np.testing.assert_allclose(arr.sensor(1), [5.0, 0.0])
        assert np.all(arr.sensors[:, 0] == 5.0)
        centered = arr.sensors - arr.sensors.mean(axis=0)
        assert np.linalg.matrix_rank(centered) == 1

    def test_random_array_determinism_and_bounds(self):
        a1 = random_array(5, -50.0, 50.0, n=2, seed=11)
        a2 = random_array(5, -50.0, 50.0, n=2, seed=11)
        np.testing.assert_array_equal(a1.sensors, a2.sensors)
        assert np.all(np.abs(a1.sensors) <= 50.0)

    def test_sensor_count_must_be_an_integer(self):
        for bad in (5.7, True, "5"):
            with pytest.raises(ValueError, match="m must be an integer"):
                circular_array(bad, radius=10.0)
            with pytest.raises(ValueError, match="m must be an integer"):
                random_array(bad, -1.0, 1.0, seed=0)
        with pytest.raises(ValueError, match="m must be >= 2"):
            circular_array(1, radius=10.0)
        assert circular_array(np.int64(3), radius=1.0).m == 3

    def test_random_array_degenerate_bounds(self):
        with pytest.raises(ValueError):
            random_array(2, 0.0, 0.0)
        for lo, hi, name in ((-math.inf, 1.0, "lo"), (0.0, math.inf, "hi"), (math.nan, 1.0, "lo")):
            with pytest.raises(ValueError, match=f"^{name} must be finite and > -inf$"):
                random_array(2, lo, hi)


class TestPairsAndRanges:
    def test_unordered_pairs_count_and_order(self):
        pairs = unordered_pairs(4)
        assert pairs == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_true_ranges_at_sensor(self):
        arr = rhombus_array()
        r = true_ranges(arr.sensor(1), arr)
        assert r[0] == 0.0

    def test_true_ranges_rhombus_center(self):
        arr = rhombus_array()
        np.testing.assert_allclose(true_ranges(np.zeros(2), arr), 10.0)

    def test_true_ranges_circular_oracle(self):
        # distance [1,5] -> [10,0] is sqrt(81 + 25) = sqrt(106)
        arr = circular_array(6, radius=10.0)
        r = true_ranges(np.array([1.0, 5.0]), arr)
        np.testing.assert_allclose(r[5], math.sqrt(106.0), rtol=1e-12)


class TestNoiseModel:
    def test_snr_mapping(self):
        # unit signal power: sigma^2 = 10^(-SNR/10)
        assert snr_to_sigma2(0.0) == 1.0
        np.testing.assert_allclose(snr_to_sigma2(10.0), 0.1, rtol=1e-12)
        np.testing.assert_allclose(snr_to_sigma2(-10.0), 10.0, rtol=1e-12)
        with pytest.raises(ValueError):
            snr_to_sigma2(math.inf)  # the benchmark layer owns the inf case

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma2=-1.0, f0=1000.0, c=340.0)
        with pytest.raises(ValueError):
            NoiseModel(sigma2=1.0, f0=0.0, c=340.0)
        with pytest.raises(ValueError):
            NoiseModel(sigma2=1.0, f0=1000.0, c=-5.0)
        # a bool or a non-number is refused by name; a number is kept as given
        good = {"sigma2": 1.0, "f0": 1000.0, "c": 340.0, "fs_factor": 4.0}
        for name in good:
            for bad, kind in ((True, "bool"), ("1", "str"), (None, "NoneType")):
                with pytest.raises(TypeError, match=f"{name} must be real number, not {kind}"):
                    NoiseModel(**dict(good, **{name: bad}))
        assert type(NoiseModel(sigma2=0, f0=1000, c=340).c) is int

    def test_range_noise_std_grows_with_distance(self):
        arr = SensorArray(np.array([[0.0, 0.0], [100.0, 0.0]]))
        noise = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)
        std = range_noise_std(np.array([1.0, 0.0]), arr, noise)
        assert std[1] > std[0] > 0.0

    def test_zero_variance_gives_zero_std(self):
        arr = rhombus_array()
        noise = NoiseModel(sigma2=0.0, f0=1000.0, c=340.0)
        std = range_noise_std(np.array([1.0, 5.0]), arr, noise)
        np.testing.assert_array_equal(std, 0.0)


class TestMeasurements:
    def test_noiseless_ranges_exact(self):
        arr = circular_array(5, radius=10.0)
        src = np.array([1.0, 5.0])
        noise = NoiseModel(sigma2=0.0, f0=1000.0, c=340.0)
        np.testing.assert_array_equal(
            noisy_ranges(src, arr, noise, seed=0), true_ranges(src, arr))

    def test_noisy_ranges_deterministic(self):
        arr = circular_array(5, radius=10.0)
        src = np.array([1.0, 5.0])
        noise = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)
        r1 = noisy_ranges(src, arr, noise, seed=42)
        r2 = noisy_ranges(src, arr, noise, seed=42)
        np.testing.assert_array_equal(r1, r2)
        r3 = noisy_ranges(src, arr, noise, seed=43)
        assert not np.array_equal(r1, r3)

    def test_negative_range_kept_with_warning(self):
        # enormous noise can push a range negative; it must survive unclamped
        import warnings

        arr = SensorArray(np.array([[0.0, 0.0], [0.2, 0.0]]))
        src = np.array([0.1, 0.0])
        noise = NoiseModel(sigma2=1e6, f0=1.0, c=1.0)
        hit = False
        for seed in range(50):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                r = noisy_ranges(src, arr, noise, seed=seed)
            if np.any(r < 0):
                hit = True
                assert any("non-positive" in str(w.message) for w in caught)
                break
        assert hit

    def test_rangediffs_from_ranges_orientation(self):
        # first index is always the farther sensor, value = |r_i - r_j|
        rd = rangediffs_from_ranges(np.array([5.0, 2.0, 9.0]))
        got = {(i, j): v for i, j, v in rd.entries()}
        assert got[(1, 2)] == pytest.approx(3.0)
        assert got[(3, 1)] == pytest.approx(4.0)
        assert got[(3, 2)] == pytest.approx(7.0)

    def test_rangediff_tie_keeps_ascending_order(self):
        rd = rangediffs_from_ranges(np.array([4.0, 4.0]))
        entries = list(rd.entries())
        assert entries == [(1, 2, 0.0)]

    @pytest.mark.parametrize("m", range(2, 10))
    def test_rangediffs_from_ranges_follows_unordered_pairs(self, m):
        rng = np.random.default_rng(m)
        r = rng.uniform(0.0, 20.0, m)
        r[m // 2] = r[0]  # a tie
        rd = rangediffs_from_ranges(r)
        ref = oriented_rangediffs([r[i - 1] - r[j - 1] for i, j in unordered_pairs(m)], m)
        for name in ("i", "j", "values"):
            assert getattr(rd, name).tobytes() == getattr(ref, name).tobytes()

    @staticmethod
    def oriented_by_hand(r):
        """The orientation rule written out per pair on Python floats."""
        entries = []
        for i, j in unordered_pairs(len(r)):
            v = r[i - 1] - r[j - 1]
            entries.append((i, j, v) if v >= 0 else (j, i, -v))
        return entries

    def test_one_pass_builder_matches_every_row(self):
        # random rows, rows with exact-zero differences (repeated and integer
        # ranges, -0.0 beside 0.0) and every m = 2..9, against the rule per
        # pair and against rangediffs_from_ranges on the row, bit for bit
        rng = np.random.default_rng(21)
        for m in range(2, 10):
            R = rng.uniform(0.0, 40.0, (30, m))
            R[::3, m // 2] = R[::3, 0]
            R[1::5] = np.round(R[1::5])
            R[2, :2] = [-0.0, 0.0]
            ii, jj, vv = _rangediff_rows(R)
            assert ii.shape == jj.shape == vv.shape == (30, m * (m - 1) // 2)
            for row, i, j, v in zip(R, ii, jj, vv):
                want = self.oriented_by_hand(row.tolist())
                assert list(zip(i.tolist(), j.tolist())) == [e[:2] for e in want]
                assert [x.hex() for x in v.tolist()] == [e[2].hex() for e in want]
                rd = rangediffs_from_ranges(row)
                for got, ref in ((rd.i, i), (rd.j, j), (rd.values, v)):
                    assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_pass_builder_refuses_a_nonfinite_range(self, bad):
        R = np.full((3, 4), 5.0)
        R[1, 2] = bad
        for call in (lambda: _rangediff_rows(R), lambda: rangediffs_from_ranges(R[1])):
            with pytest.raises(ValueError, match="^range differences must be finite$"):
                call()
        R[1, 0] = bad  # inf - inf is NaN, refused without a RuntimeWarning
        with pytest.raises(ValueError, match="^range differences must be finite$"):
            _rangediff_rows(R)

    def test_noisy_rangediffs_noiseless_matches_truth(self):
        arr = circular_array(4, radius=10.0)
        src = np.array([1.0, 5.0])
        noise = NoiseModel(sigma2=0.0, f0=1000.0, c=340.0)
        rd = noisy_rangediffs(src, arr, noise, seed=0)
        d = true_ranges(src, arr)
        for i, j, v in rd.entries():
            assert v == pytest.approx(abs(d[i - 1] - d[j - 1]), abs=1e-12)


class TestRangeDiffSet:
    def test_requires_all_pairs(self):
        with pytest.raises(ValueError):
            RangeDiffSet(np.array([1, 1]), np.array([2, 3]),
                         np.array([0.5, 0.5]), m=4)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            RangeDiffSet(np.array([1]), np.array([2]), np.array([-0.1]), m=2)

    def test_flipped_pair_is_legal(self):
        # (2, 1) just encodes the orientation r_2 - r_1 >= 0
        rd = RangeDiffSet(np.array([2]), np.array([1]), np.array([0.5]), m=2)
        assert list(rd.entries()) == [(2, 1, 0.5)]

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            RangeDiffSet(np.array([3]), np.array([1]), np.array([0.5]), m=2)

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            RangeDiffSet(np.array([1, 2, 1]), np.array([2, 1, 3]),
                         np.array([0.5, 0.5, 0.5]), m=3)

    def test_sensor_count_must_be_an_integer(self):
        # checked before the size rules, so 2.7 is not read as 2
        for bad in (2.7, 2.0, np.float64(3.0), True, "2", None):
            with pytest.raises(ValueError, match="m must be an integer"):
                RangeDiffSet(np.array([1]), np.array([2]), np.array([0.5]), bad)
        rd = RangeDiffSet(np.array([1]), np.array([2]), np.array([0.5]), np.int64(2))
        assert rd.m == 2 and type(rd.m) is int

    def test_n_pairs(self):
        rd = rangediffs_from_ranges(np.arange(1.0, 6.0))
        assert rd.n_pairs == 10

    @pytest.mark.parametrize("i, j, values, m, message", [
        ([1, 2], [2], [0.5], 2, "i, j, values must be 1-D arrays of equal length"),
        ([1], [2], [0.5], 1, "need at least 2 sensors"),
        ([1, 1], [2, 3], [0.5, 0.5], 4, "expected 6 entries for m=4, got 2"),
        # several checks fail at once: the first in check order is reported
        ([0, 1, 2], [2, 3, 3], [np.nan, 0.5, -1.0], 3, "pair indices out of range"),
        ([1, 1, 2], [2, 4, 3], [0.5, 0.5, 0.5], 3, "pair indices out of range"),
        ([1, 3, 2], [2, 3, 2], [np.nan, 0.5, 0.5], 3, "pair indices must differ"),
        ([1, 2, 1], [2, 1, 3], [np.inf, 0.5, 0.5], 3,
         "each unordered pair must appear exactly once"),
        ([1, 1, 2], [2, 3, 3], [-1.0, np.nan, 0.5], 3, "range differences must be finite"),
        ([1, 1, 2], [2, 3, 3], [0.5, -np.inf, 0.5], 3, "range differences must be finite"),
        ([1, 1, 2], [2, 3, 3], [0.5, 0.0, -1e-300], 3,
         "stored range differences must be >= 0 (flip i,j instead)"),
    ])
    def test_rejects_with_first_failing_check(self, i, j, values, m, message):
        with pytest.raises(ValueError) as exc:
            RangeDiffSet(np.array(i), np.array(j), np.array(values), m)
        assert str(exc.value) == message

    def test_stores_read_only_copies(self):
        i, j, v = np.array([1, 1, 3]), np.array([2, 3, 2]), np.array([0.5, -0.0, 2.0])
        rd = RangeDiffSet(i, j, v, 3)
        for stored, given in ((rd.i, i), (rd.j, j), (rd.values, v)):
            assert not stored.flags.writeable
            assert not np.shares_memory(stored, given)
            np.testing.assert_array_equal(stored, given)
        assert list(rd.entries()) == [(1, 2, 0.5), (1, 3, -0.0), (3, 2, 2.0)]

    @pytest.mark.parametrize("i, j", [
        (np.array([1.9, 1.0, 2.0]), np.array([2, 3, 3])),      # fractional: not read as 1
        (np.array([1.0, 1.0, 2.0]), np.array([2.0, 3.0, 3.0])),  # float-integer values
        ([1, 1, 2], [2.0, 3, 3]),                               # one float in a list
        (np.array([True, True, False]), np.array([2, 3, 3])),   # True is not index 1
        ([True, True, False], [2, 3, 3]),                      # a list of bools too
    ])
    def test_rejects_non_integer_indices(self, i, j):
        with pytest.raises(ValueError, match="pair indices must be integers"):
            RangeDiffSet(i, j, np.array([0.1, 0.2, 0.3]), 3)

    def test_accepts_every_integer_type_and_stores_int(self):
        for dtype in (np.int8, np.int32, np.uint16, np.int64):
            rd = RangeDiffSet(np.array([1, 1, 2], dtype=dtype), np.array([2, 3, 3], dtype=dtype),
                              [0.1, 0.2, 0.3], 3)
            assert rd.i.dtype == rd.j.dtype == np.dtype(int)
            assert list(rd.entries()) == [(1, 2, 0.1), (1, 3, 0.2), (2, 3, 0.3)]

    @pytest.mark.parametrize("as_array", [True, False])
    def test_stored_fields_survive_mutating_the_inputs(self, as_array):
        i, j, v = [1, 1, 3], [2, 3, 2], [0.5, 0.25, 2.0]
        if as_array:
            i, j, v = np.array(i), np.array(j), np.array(v)
        rd = RangeDiffSet(i, j, v, 3)
        i[0], j[0], v[0] = 2, 1, 9.0
        assert list(rd.entries()) == [(1, 2, 0.5), (1, 3, 0.25), (3, 2, 2.0)]
        for stored in (rd.i, rd.j, rd.values):
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0] = 1

    def test_rangediffs_from_ranges_does_not_alias_its_input(self):
        r = np.array([5.0, 3.0, 4.0])
        rd = rangediffs_from_ranges(r)
        r[:] = 0.0
        assert list(rd.entries()) == [(1, 2, 2.0), (1, 3, 1.0), (3, 2, 1.0)]


class TestFileIO:
    def test_ranges_csv_roundtrip(self, tmp_path):
        r = np.array([5.511303103005568, 1.25, 9.75e-3])
        path = tmp_path / "r.csv"
        write_ranges_csv(path, r)
        np.testing.assert_array_equal(read_ranges_csv(path), r)

    def test_ranges_csv_rejects_nonfinite(self, tmp_path):
        path = tmp_path / "r.csv"
        for bad in ("nan", "inf"):
            path.write_text(f"i,r_i\n1,2.5\n2,{bad}\n")
            with pytest.raises(ValueError, match="not finite"):
                read_ranges_csv(path)

    def test_ranges_csv_rejects_repeated_sensor(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("i,r_i\n1,5.0\n2,6.0\n1,7.0\n")
        with pytest.raises(ValueError, match="exactly once"):
            read_ranges_csv(path)

    @pytest.mark.parametrize("reader, header, row", [
        (read_ranges_csv, "i,r_i", "1,5.0"),
        (read_rangediffs_csv, "i,j,r_ij", "2,1,3.0"),
        (read_rmse_csv, "sweep,rmse,crlb,failed", "0.0,0.5,0.25,1"),
    ])
    def test_tables_skip_blank_lines_and_name_a_ragged_row(self, tmp_path, reader, header,
                                                           row):
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\n\n{row}\n  \n")
        reader(path)  # blank lines, even with spaces, are skipped
        width = header.count(",") + 1
        for bad in (row + ",7", row.rsplit(",", 1)[0]):
            path.write_text(f"{header}\n{row}\n\n{bad}\n")
            fields = bad.count(",") + 1
            with pytest.raises(ValueError,
                               match=f"line 4 has {fields} fields, expected {width}"):
                reader(path)

    def test_rangediffs_csv_roundtrip(self, tmp_path):
        rd = rangediffs_from_ranges(np.array([5.0, 2.0, 9.0, 3.3]))
        path = tmp_path / "rd.csv"
        write_rangediffs_csv(path, rd)
        back = read_rangediffs_csv(path)
        assert back.m == rd.m
        assert list(back.entries()) == list(rd.entries())

    def test_scenario_json_roundtrip(self, tmp_path):
        scen = Scenario(array=circular_array(5, radius=10.0),
                        source=np.array([1.0, 5.0]),
                        noise=NoiseModel(sigma2=0.5, f0=1000.0, c=340.0),
                        seed=123)
        path = tmp_path / "scen.json"
        save_scenario(path, scen)
        back = load_scenario(path)
        np.testing.assert_array_equal(back.array.sensors,
                                      scen.array.sensors)
        np.testing.assert_array_equal(back.source, scen.source)
        assert back.noise == scen.noise
        assert back.seed == 123

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_ranges_csv(path)


RHOMBUS = [[0.0, 10.0], [10.0, 0.0], [0.0, -10.0], [-10.0, 0.0]]
TETRAHEDRON = [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]]
RANDOM_4 = [[-7.428595944616008, -0.014442751197700332], [2.029967152467149, -9.42621983256111],
            [-7.041478308450881, 8.564220459207391], [-8.591588476916064, -7.40452101201404]]
NOISE_DEFAULT = NoiseModel(sigma2=0.0, f0=1000.0, c=340.0)


class TestScenarioForms:
    """Every form a scenario file or a config's scenario takes reads to the
    array, source, noise and seed written here (draws from default_rng(11))."""

    # file document -> (sensors, source, noise, seed)
    FILES = {
        "saved 2-D with a seed": (
            {"n": 2, "sensors": RHOMBUS, "source": [1.0, 5.0], "seed": 123,
             "noise": {"c": 340.0, "f0": 1000.0, "fs_factor": 4.0, "sigma2": 0.5}},
            (RHOMBUS, [1.0, 5.0], NoiseModel(0.5, 1000.0, 340.0), 123)),
        "2-D with a null seed and integer noise": (
            {"n": 2, "sensors": RHOMBUS, "source": [1, -2], "seed": None,
             "noise": {"sigma2": 1, "f0": 1000, "c": 340}},
            (RHOMBUS, [1.0, -2.0], NoiseModel(1.0, 1000.0, 340.0), None)),
        "2-D without a seed": (
            {"n": 2, "sensors": RHOMBUS, "source": [0.5, 0.5],
             "noise": {"sigma2": 0.0, "f0": 250.0, "c": 343.0, "fs_factor": 8.0}},
            (RHOMBUS, [0.5, 0.5], NoiseModel(0.0, 250.0, 343.0, 8.0), None)),
        "saved 3-D with a seed": (
            {"n": 3, "sensors": TETRAHEDRON, "source": [1.0, 1.0, 1.0], "seed": 0,
             "noise": {"c": 340.0, "f0": 1000.0, "fs_factor": 4.0, "sigma2": 0.1}},
            (TETRAHEDRON, [1.0, 1.0, 1.0], NoiseModel(0.1, 1000.0, 340.0), 0)),
        "3-D without a seed and integer noise": (
            {"n": 3, "sensors": TETRAHEDRON, "source": [2, 1, 0],
             "noise": {"sigma2": 0, "f0": 500, "c": 340}},
            (TETRAHEDRON, [2.0, 1.0, 0.0], NoiseModel(0.0, 500.0, 340.0), None)),
        "a sensor kind and a uniform source": (
            {"n": 2, "sensors": {"kind": "random", "m": 4, "lo": -10.0, "hi": 10.0},
             "source": {"uniform": [-5.0, 5.0]}, "noise": {"sigma2": 0.0, "f0": 1000.0,
                                                           "c": 340.0}},
            (RANDOM_4, [4.48328453291775, 1.2188359279638288], NOISE_DEFAULT, None)),
    }

    # inline scenario -> (sensors, source, noise)
    INLINE = {
        "coordinates and a point": (
            {"sensors": TETRAHEDRON, "source": [1, 2, 3], "noise": {"f0": 500.0}},
            (TETRAHEDRON, [1.0, 2.0, 3.0], NoiseModel(0.0, 500.0, 340.0))),
        "a random array and a uniform source": (
            {"sensors": {"kind": "random", "m": 4, "lo": -10.0, "hi": 10.0},
             "source": {"uniform": [-5.0, 5.0]}},
            (RANDOM_4, [4.48328453291775, 1.2188359279638288], NOISE_DEFAULT)),
        "a 3-D random array and every noise field": (
            {"sensors": {"kind": "random", "m": 4, "lo": -10, "hi": 10, "n": 3},
             "source": [1.0, 2.0, 3.0],
             "noise": {"sigma2": 0.25, "f0": 500, "c": 343.0, "fs_factor": 8.0}},
            ([[-7.428595944616008, -0.014442751197700332, 2.029967152467149],
              [-9.42621983256111, -7.041478308450881, 8.564220459207391],
              [-8.591588476916064, -7.40452101201404, 8.9665690658355],
              [2.4376718559276576, -2.6201375254041803, 0.22780043606525346]],
             [1.0, 2.0, 3.0], NoiseModel(0.25, 500.0, 343.0, 8.0))),
        "a circular array and an integer box": (
            {"sensors": {"kind": "circular", "m": 3, "radius": 2.0},
             "source": {"uniform": [0, 1]}, "noise": {"f0": 250.0}},
            ([[-0.9999999999999996, 1.7320508075688774],
              [-1.0000000000000009, -1.7320508075688767], [2.0, -4.898587196589413e-16]],
             [0.12857020276919962, 0.49927786244011496], NoiseModel(0.0, 250.0, 340.0))),
        "the rhombus": ({"sensors": {"kind": "rhombus"}, "source": [1, -1]},
                        (RHOMBUS, [1.0, -1.0], NOISE_DEFAULT)),
        "the linear array": (
            {"sensors": {"kind": "linear"}, "source": [-5.0, 5.0],
             "noise": {"f0": 1000.0, "c": 340.0}},
            ([[5.0, 0.0], [5.0, 10.0], [5.0, 20.0], [5.0, 30.0]], [-5.0, 5.0], NOISE_DEFAULT)),
    }

    @staticmethod
    def assert_reads_to(scen, sensors, source, noise):
        np.testing.assert_array_equal(scen.array.sensors, sensors)
        np.testing.assert_array_equal(scen.source, source)
        assert scen.noise == noise

    @pytest.mark.parametrize("case", FILES)
    def test_scenario_file(self, tmp_path, case):
        doc, (sensors, source, noise, seed) = self.FILES[case]
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(doc))
        scen = load_scenario(path, np.random.default_rng(11))
        self.assert_reads_to(scen, sensors, source, noise)
        assert scen.seed == seed
        # an integer stays an int, as in every other JSON number
        assert [type(v) for v in asdict(scen.noise).values()] == \
            [type(doc["noise"].get(k, 4.0)) for k in asdict(scen.noise)]
        # a config's {"file": ...} scenario reads the file with the run's generator
        got = _resolve_scenario({"file": str(path)}, np.random.default_rng(11))
        self.assert_reads_to(Scenario(*got), sensors, source, noise)
        # with no generator a file draws from default_rng(0), the same on every read
        first, again = load_scenario(path), load_scenario(path)
        np.testing.assert_array_equal(first.array.sensors, again.array.sensors)
        np.testing.assert_array_equal(first.source, again.source)

    @pytest.mark.parametrize("case", INLINE)
    def test_inline_scenario(self, case):
        spec, (sensors, source, noise) = self.INLINE[case]
        got = _resolve_scenario(spec, np.random.default_rng(11))
        self.assert_reads_to(Scenario(*got), sensors, source, noise)
