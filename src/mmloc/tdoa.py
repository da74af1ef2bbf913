"""Signal front-end: band-pass filtering, cross-correlation delay estimation,
and conversion of pairwise delays into range-difference measurements.

The intended chain for an m-channel recording of one source:

    bandpass each channel -> xcorr_delay per channel pair
    -> c * delay per pair, oriented -> feed the range-difference solver

estimate_rangediffs runs the middle two steps; delays_to_rangediffs converts
delays given as a mapping (i, j) -> tau.

The filter is forward-only (causal); its group delay is common to every
identically filtered channel and cancels in the cross-correlations.
Delay estimates have integer-sample resolution, so each recovered range
difference carries up to c/fs of quantization error; refine=True adds a
parabolic sub-sample fit (off by default, and in `mmloc tdoa`).

scipy.signal is loaded by bandpass and xcorr_delay on their first call,
not by this module: the solvers need only numpy, and importing scipy.signal
costs about a second.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .scenario import (RangeDiffSet, _as_count, _write_table, oriented_rangediffs,
                       sensor_coords, unordered_pairs)

# fixture defaults for the anechoic microphone experiment
TONE_F0 = 250.0          # [Hz]
TONE_FS = 100_000.0      # [Hz]
BAND_LO = 150.0          # [Hz]
BAND_HI = 350.0          # [Hz]
SOUND_SPEED = 340.0      # [m/s]
ANECHOIC_MICROPHONES = np.array([
    [2.1, 1.7],
    [2.1, 1.5],
    [2.1, 1.3],
    [2.1, 1.1],
])  # [m]


@dataclass(frozen=True)
class SignalRecord:
    """A single-channel sampled signal."""

    samples: np.ndarray
    fs: float  # [Hz]

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float).reshape(-1)
        if s.size < 2:
            raise ValueError("signal must have at least 2 samples")
        if not np.all(np.isfinite(s)):
            raise ValueError("signal samples must be finite")
        if not (self.fs > 0 and math.isfinite(self.fs)):
            raise ValueError("fs must be finite and > 0")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "fs", float(self.fs))


def bandpass(sig: SignalRecord, f_lo: float, f_hi: float) -> SignalRecord:
    """4th-order IIR band-pass (Butterworth prototype, bilinear transform).

    Implemented as a cascade of two second-order sections, forward pass
    only; output length equals input length.
    """
    if not (0 < f_lo < f_hi < sig.fs / 2):
        raise ValueError(
            f"cutoffs must satisfy 0 < f_lo < f_hi < fs/2, got "
            f"({f_lo}, {f_hi}) at fs={sig.fs}"
        )
    from scipy import signal as _sig

    # sosfilt takes only a writable array, so it gets a copy of the cached one
    sos = _butter_sos(sig.fs, f_lo, f_hi).copy()
    return SignalRecord(_sig.sosfilt(sos, sig.samples), sig.fs)


@functools.lru_cache(maxsize=8)
def _butter_sos(fs: float, f_lo: float, f_hi: float) -> np.ndarray:
    """bandpass's second-order sections, designed once per (fs, band).

    Designing costs about five times as much as filtering one channel, and
    every channel of a recording shares the design.  Read-only, since the
    cache hands the same array to every caller.
    """
    from scipy import signal as _sig

    sos = _sig.butter(2, [f_lo, f_hi], btype="bandpass", fs=fs, output="sos")
    sos.setflags(write=False)
    return sos


def xcorr_delay(a: SignalRecord, b: SignalRecord, refine: bool = False) -> float:
    """Delay of b relative to a in seconds (positive means b lags a).

    The full cross-correlation is maximized over integer lags (raw values,
    not magnitudes).  The shorter signal is zero-padded at its end.  With
    refine=True a three-point parabolic fit around the peak gives
    sub-sample output; the default keeps exact integer-sample resolution.
    """
    if a.fs != b.fs:
        raise ValueError(f"sampling rates differ: {a.fs} vs {b.fs}")
    sa, sb = a.samples, b.samples
    L = max(sa.size, sb.size)
    if sa.size < L:
        sa = np.concatenate([sa, np.zeros(L - sa.size)])
    if sb.size < L:
        sb = np.concatenate([sb, np.zeros(L - sb.size)])
    from scipy import signal as _sig

    corr = _sig.correlate(sb, sa, mode="full")
    k = int(np.argmax(corr))
    lag = float(k - (L - 1))  # corr[k] is the lag k - (L - 1) of the full correlation
    if refine and 0 < k < corr.size - 1:
        c0, c1, c2 = corr[k - 1], corr[k], corr[k + 1]
        denom = c0 - 2.0 * c1 + c2
        if denom != 0.0:
            lag += 0.5 * (c0 - c2) / denom
    return lag / a.fs


def delays_to_rangediffs(delays, c: float) -> RangeDiffSet:
    """Convert pairwise delays [s] into a range-difference measurement set.

    Args:
        delays: mapping (i, j) -> tau_ij with 1-based sensor indices, where
            tau_ij is the arrival time at sensor i minus the arrival time
            at sensor j.  Exactly one entry per unordered pair; either
            orientation may be supplied (tau_ji = -tau_ij).
        c: propagation speed [m/s].

    Returns:
        RangeDiffSet with values c * tau, re-oriented so stored values
        are >= 0.
    """
    if not c > 0:
        raise ValueError("c must be > 0")
    if not delays:
        raise ValueError("empty delay mapping")
    diffs = {}  # (i, j) with i < j -> c * tau_ij
    for (i, j), tau in delays.items():
        if i == j or i < 1 or j < 1:
            raise ValueError(f"bad pair indices ({i}, {j})")
        key = (min(i, j), max(i, j))
        if key in diffs:
            raise ValueError(f"pair {{{i},{j}}} supplied twice")
        diffs[key] = c * (float(tau) if i < j else -float(tau))
    m = max(j for _, j in diffs)
    for pair in unordered_pairs(m):
        if pair not in diffs:
            raise ValueError(f"missing delay for pair {pair}")
    return oriented_rangediffs([diffs[pair] for pair in unordered_pairs(m)], m)


def estimate_rangediffs(signals, c: float = SOUND_SPEED,
                        refine: bool = False) -> RangeDiffSet:
    """Cross-correlate every channel pair and convert delays to range diffs.

    signals[k] is the recording at sensor k+1; all channels must share fs.
    """
    sigs = list(signals)
    if len(sigs) < 2:
        raise ValueError("need at least 2 channels")
    if not c > 0:
        raise ValueError("c must be > 0")
    # c * tau_ij, tau_ij = arrival_i - arrival_j (positive when channel i lags
    # channel j); xcorr_delay goes through the module global, so a wrapper applies
    diffs = [c * xcorr_delay(sigs[j - 1], sigs[i - 1], refine=refine)
             for (i, j) in unordered_pairs(len(sigs))]
    return oriented_rangediffs(diffs, len(sigs))


def tone_burst_signals(source, mics, *, f0: float = TONE_F0, fs: float = TONE_FS,
                       c: float = SOUND_SPEED, duration: float = 0.05,
                       burst: float = 0.02, onset: float = 0.005) -> list[SignalRecord]:
    """Synthesize per-microphone recordings of one Hann-windowed tone burst.

    Channel k is the burst evaluated at t - (onset + D_k / c) in continuous
    time, so inter-channel delays are exact (not pre-quantized to samples).
    The tapered envelope makes the correlation peak unambiguous, which a
    steady tone's periodic correlation would not be.
    """
    coords = sensor_coords(mics)
    src = np.asarray(source, dtype=float).reshape(-1)
    if src.size != coords.shape[1]:
        raise ValueError("source dimension must match microphone dimension")
    if not (duration > 0 and burst > 0 and onset >= 0):
        raise ValueError("duration and burst must be > 0, onset >= 0")
    if onset + burst > duration:
        raise ValueError("burst does not fit in the requested duration")
    dist = np.linalg.norm(src[None, :] - coords, axis=1)
    t = np.arange(int(round(duration * fs))) / fs
    out = []
    for dk in dist:
        tt = t - (onset + dk / c)
        env = np.where((tt >= 0) & (tt < burst),
                       0.5 - 0.5 * np.cos(2.0 * np.pi * tt / burst), 0.0)
        out.append(SignalRecord(env * np.sin(2.0 * np.pi * f0 * tt), fs))
    return out


# ---------------------------------------------------------------------------
# signal file I/O
# ---------------------------------------------------------------------------

def _channels(signals):
    """The channels as a list, and their sampling rate; all must share fs and length."""
    sigs = list(signals)
    if not sigs:
        raise ValueError("no channels")
    if len({s.fs for s in sigs}) != 1:
        raise ValueError("channels have differing sampling rates")
    if len({s.samples.size for s in sigs}) != 1:
        raise ValueError("channels have differing lengths")
    return sigs, sigs[0].fs


def write_signals_csv(path, signals) -> None:
    """One column per channel; first line is the comment '# fs=<Hz>'."""
    sigs, fs = _channels(signals)
    columns = [s.samples.tolist() for s in sigs]
    _write_table(path, f"# fs={fs!r}", ([repr(v) for v in row] for row in zip(*columns)))


def read_signals_csv(path) -> list[SignalRecord]:
    # not scenario._read_table: the header carries the sampling rate, and
    # np.loadtxt reads a 5,000-row signal file in ~7 ms against ~18 ms for
    # split() and float() per field
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# fs="):
            raise ValueError("missing '# fs=<Hz>' header line")
        fs = float(header[len("# fs="):])
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError("no samples in signal CSV")
    # comments=None: a '#' line in the body is an error, not a skipped comment
    data = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    return [SignalRecord(data[:, k], fs) for k in range(data.shape[1])]


def write_signals_raw(path, signals, sidecar=None) -> None:
    """Raw little-endian float64, frame-interleaved, with a JSON sidecar
    {"channels": k, "fs": Hz} at <path>.json unless overridden."""
    sigs, fs = _channels(signals)
    frames = np.stack([s.samples for s in sigs], axis=1).astype("<f8")
    frames.tofile(path)
    side = sidecar if sidecar is not None else f"{path}.json"
    # the sidecar format is one compact line, so not scenario._write_json
    with open(side, "w") as fh:
        json.dump({"channels": len(sigs), "fs": fs}, fh)
        fh.write("\n")


def read_signals_raw(path, sidecar=None) -> list[SignalRecord]:
    side = sidecar if sidecar is not None else f"{path}.json"
    with open(side) as fh:
        meta = json.load(fh)
    channels = _as_count("channels", meta["channels"], 1)
    fs = float(meta["fs"])
    flat = np.fromfile(path, dtype="<f8")
    if flat.size % channels:
        raise ValueError("raw file length is not a multiple of the channel count")
    frames = flat.reshape(-1, channels)
    return [SignalRecord(frames[:, k], fs) for k in range(channels)]
