"""Signal front-end: filtering, delay estimation, range-difference assembly."""

import json
import math
import warnings

import numpy as np
import pytest

from mmloc import (
    SignalRecord,
    bandpass,
    delays_to_rangediffs,
    estimate_rangediffs,
    tone_burst_signals,
    true_ranges,
    xcorr_delay,
)
from mmloc.tdoa import (
    ANECHOIC_MICROPHONES,
    BAND_HI,
    BAND_LO,
    SOUND_SPEED,
    TONE_F0,
    TONE_FS,
    _butter_sos,
    read_signals_csv,
    read_signals_raw,
    write_signals_csv,
    write_signals_raw,
)


def tone(f, fs, length, phase=0.0):
    t = np.arange(length) / fs
    return np.sin(2.0 * np.pi * f * t + phase)


class TestSignalRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignalRecord(np.array([1.0]), fs=100.0)
        with pytest.raises(ValueError):
            SignalRecord(np.zeros(10), fs=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_samples(self, bad):
        samples = np.zeros(10)
        samples[3] = bad
        with pytest.raises(ValueError, match="signal samples must be finite"):
            SignalRecord(samples, fs=100.0)

    def test_samples_write_protected(self):
        rec = SignalRecord(np.zeros(16), fs=100.0)
        with pytest.raises(ValueError):
            rec.samples[0] = 1.0


class TestBandpass:
    def test_in_band_tone_survives(self):
        fs = 100_000.0
        rec = SignalRecord(tone(250.0, fs, 40_000), fs)
        out = bandpass(rec, 150.0, 350.0)
        # compare steady-state energy, skipping the filter transient
        tail = slice(20_000, None)
        ratio = (np.sum(out.samples[tail] ** 2)
                 / np.sum(rec.samples[tail] ** 2))
        assert ratio > 0.5

    def test_out_of_band_tone_suppressed(self):
        fs = 100_000.0
        rec = SignalRecord(tone(5_000.0, fs, 40_000), fs)
        out = bandpass(rec, 150.0, 350.0)
        tail = slice(20_000, None)
        ratio = (np.sum(out.samples[tail] ** 2)
                 / np.sum(rec.samples[tail] ** 2))
        assert ratio < 0.01

    def test_preserves_length_and_fs(self):
        rec = SignalRecord(np.random.default_rng(0).normal(size=1024), 8000.0)
        out = bandpass(rec, 100.0, 900.0)
        assert out.samples.size == 1024
        assert out.fs == 8000.0

    def test_matches_a_direct_design_on_the_fixture(self):
        from scipy import signal

        sigs = tone_burst_signals(np.array([1.2, 0.9]), ANECHOIC_MICROPHONES)
        sos = signal.butter(2, [BAND_LO, BAND_HI], btype="bandpass", fs=TONE_FS,
                            output="sos")
        for _ in range(2):  # the second round filters with the cached design
            for rec in sigs:
                out = bandpass(rec, BAND_LO, BAND_HI)
                assert out.samples.tobytes() == signal.sosfilt(sos, rec.samples).tobytes()

    def test_design_is_cached_read_only(self):
        first = _butter_sos(TONE_FS, BAND_LO, BAND_HI)
        assert _butter_sos(TONE_FS, BAND_LO, BAND_HI) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_cutoff_validation(self):
        rec = SignalRecord(np.zeros(64), fs=1000.0)
        with pytest.raises(ValueError):
            bandpass(rec, 300.0, 200.0)
        with pytest.raises(ValueError):
            bandpass(rec, 100.0, 600.0)  # above Nyquist
        with pytest.raises(ValueError):
            bandpass(rec, 0.0, 200.0)


class TestXcorrDelay:
    def test_integer_shift_oracle(self):
        # impulse at 40 vs 57: b lags a by exactly 17 samples
        fs = 100_000.0
        a = np.zeros(256); a[40] = 1.0
        b = np.zeros(256); b[57] = 1.0
        got = xcorr_delay(SignalRecord(a, fs), SignalRecord(b, fs))
        assert got == pytest.approx(17.0 / fs, abs=1e-15)

    def test_sign_convention(self):
        fs = 1000.0
        a = np.zeros(128); a[60] = 1.0
        b = np.zeros(128); b[50] = 1.0
        # b leads a -> negative delay
        assert xcorr_delay(SignalRecord(a, fs), SignalRecord(b, fs)) < 0

    def test_unequal_lengths_padded(self):
        fs = 1000.0
        a = np.zeros(100); a[10] = 1.0
        b = np.zeros(140); b[25] = 1.0
        got = xcorr_delay(SignalRecord(a, fs), SignalRecord(b, fs))
        assert got == pytest.approx(15.0 / fs, abs=1e-15)

    def test_shorter_second_signal_padded(self):
        fs = 1000.0
        a = np.zeros(140); a[25] = 1.0
        b = np.zeros(100); b[10] = 1.0
        got = xcorr_delay(SignalRecord(a, fs), SignalRecord(b, fs))
        assert got == pytest.approx(-15.0 / fs, abs=1e-15)

    def test_fs_mismatch(self):
        with pytest.raises(ValueError):
            xcorr_delay(SignalRecord(np.zeros(8), 100.0),
                        SignalRecord(np.zeros(8), 200.0))

    def test_parabolic_refine_improves_fractional_delay(self):
        fs = 10_000.0
        true_delay = 7.4 / fs
        t = np.arange(2048) / fs
        env = np.exp(-((t - 0.05) ** 2) / (2 * 0.01**2))
        a = SignalRecord(env * np.sin(2 * np.pi * 300.0 * t), fs)
        tb = t - true_delay
        envb = np.exp(-((tb - 0.05) ** 2) / (2 * 0.01**2))
        b = SignalRecord(envb * np.sin(2 * np.pi * 300.0 * tb), fs)
        coarse = xcorr_delay(a, b)
        fine = xcorr_delay(a, b, refine=True)
        assert abs(fine - true_delay) <= abs(coarse - true_delay)
        assert abs(fine - true_delay) < 0.2 / fs


class TestDelaysToRangediffs:
    def test_hand_conversion(self):
        delays = {(1, 2): 2e-3, (1, 3): -1e-3, (2, 3): -3e-3}
        rd = delays_to_rangediffs(delays, c=340.0)
        got = {(i, j): v for i, j, v in rd.entries()}
        assert got[(1, 2)] == pytest.approx(0.68)
        assert got[(3, 1)] == pytest.approx(0.34)
        assert got[(3, 2)] == pytest.approx(1.02)

    def test_orientation_agnostic_input(self):
        rd1 = delays_to_rangediffs({(1, 2): 2e-3}, c=340.0)
        rd2 = delays_to_rangediffs({(2, 1): -2e-3}, c=340.0)
        assert list(rd1.entries()) == list(rd2.entries())
        # a zero delay is a tie, which keeps the ascending order i < j
        for key in ((1, 2), (2, 1)):
            rd = delays_to_rangediffs({key: 0.0}, c=340.0)
            assert [(i, j, v) for i, j, v in rd.entries()] == [(1, 2, 0.0)]

    def test_missing_pair(self):
        with pytest.raises(ValueError):
            delays_to_rangediffs({(1, 3): 1e-3}, c=340.0)

    def test_duplicate_pair(self):
        with pytest.raises(ValueError):
            delays_to_rangediffs({(1, 2): 1e-3, (2, 1): -1e-3}, c=340.0)


class TestPipeline:
    def test_tone_burst_arrival_order(self):
        src = np.array([1.0, 0.5])
        sigs = tone_burst_signals(src, ANECHOIC_MICROPHONES)
        d = true_ranges(src, ANECHOIC_MICROPHONES)
        # envelope onset (not waveform peak: tone phase shifts the max)
        onsets = [np.flatnonzero(np.abs(s.samples)
                                 > 1e-3 * np.max(np.abs(s.samples)))[0]
                  for s in sigs]
        assert np.array_equal(np.argsort(onsets, kind="stable"),
                              np.argsort(d, kind="stable"))

    def test_estimated_rangediffs_near_truth(self):
        src = np.array([1.0, 0.5])
        sigs = tone_burst_signals(src, ANECHOIC_MICROPHONES)
        sigs = [bandpass(s, BAND_LO, BAND_HI) for s in sigs]
        rd = estimate_rangediffs(sigs, c=SOUND_SPEED)
        d = true_ranges(src, ANECHOIC_MICROPHONES)
        quantum = SOUND_SPEED / TONE_FS  # one-sample range resolution
        for i, j, v in rd.entries():
            assert v == pytest.approx(abs(d[i - 1] - d[j - 1]),
                                      abs=2.5 * quantum)

    def test_burst_validation(self):
        with pytest.raises(ValueError):
            tone_burst_signals(np.zeros(3), ANECHOIC_MICROPHONES)
        with pytest.raises(ValueError):
            tone_burst_signals(np.zeros(2), ANECHOIC_MICROPHONES,
                               duration=0.01, burst=0.02)


class TestSignalIO:
    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        sigs = [SignalRecord(rng.normal(size=64), 8000.0) for _ in range(3)]
        path = tmp_path / "sig.csv"
        write_signals_csv(path, sigs)
        back = read_signals_csv(path)
        assert len(back) == 3
        for orig, rec in zip(sigs, back):
            np.testing.assert_array_equal(rec.samples, orig.samples)
            assert rec.fs == 8000.0

    def test_csv_skips_blank_lines_and_rejects_malformed_files(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=8000.0\n1.0,2.0\n\n  \n3.0,4.0\n")
        back = read_signals_csv(path)
        assert [rec.samples.tolist() for rec in back] == [[1.0, 3.0], [2.0, 4.0]]
        assert back[0].fs == 8000.0
        for text in ("1.0,2.0\n3.0,4.0\n",              # no header
                     "# fs=8000.0\n1.0,2.0\n3.0\n",      # ragged rows
                     "# fs=8000.0\n1.0,2.0\n# x\n",      # comment in the body
                     "# fs=8000.0\n\n  \n"):             # empty body
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError):
                    read_signals_csv(path)

    def test_readers_reject_nonfinite_samples(self, tmp_path):
        csv = tmp_path / "sig.csv"
        csv.write_text("# fs=8000.0\n1.0,2.0\n3.0,nan\n")
        with pytest.raises(ValueError, match="signal samples must be finite"):
            read_signals_csv(csv)
        raw = tmp_path / "sig.f64"
        write_signals_raw(raw, [SignalRecord(np.zeros(8), 8000.0)] * 2)
        frames = np.fromfile(raw, dtype="<f8")
        frames[5] = np.inf
        frames.tofile(raw)
        with pytest.raises(ValueError, match="signal samples must be finite"):
            read_signals_raw(raw)

    def test_raw_sidecar_channel_count_must_be_an_integer(self, tmp_path):
        raw = tmp_path / "sig.f64"
        write_signals_raw(raw, [SignalRecord(np.zeros(8), 8000.0)] * 2)
        side = tmp_path / "sig.f64.json"
        for bad in (2.5, True, 0):
            side.write_text(json.dumps({"channels": bad, "fs": 8000.0}))
            with pytest.raises(ValueError, match="channels must be"):
                read_signals_raw(raw)

    def test_raw_sidecar_fs_must_be_a_real_number(self, tmp_path):
        raw = tmp_path / "sig.f64"
        write_signals_raw(raw, [SignalRecord(np.zeros(8), 8000.0)] * 2)
        for bad, kind in (("8000", "str"), (True, "bool"), (None, "NoneType")):
            (tmp_path / "sig.f64.json").write_text(json.dumps({"channels": 2, "fs": bad}))
            with pytest.raises(TypeError, match=f"^fs must be real number, not {kind}$"):
                read_signals_raw(raw)

    def test_raw_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        sigs = [SignalRecord(rng.normal(size=128), TONE_FS) for _ in range(4)]
        path = tmp_path / "sig.f64"
        write_signals_raw(path, sigs)
        back = read_signals_raw(path)
        assert len(back) == 4
        for orig, rec in zip(sigs, back):
            np.testing.assert_array_equal(rec.samples, orig.samples)
            assert rec.fs == TONE_FS
