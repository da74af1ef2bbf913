"""Sensor geometries, the noise model, and synthetic measurement generation.

Measurements follow the additive model r_i = ||x - y_i|| + eps_i with
independent zero-mean Gaussian eps_i per sensor.  The per-sensor variance
is distance dependent (see range_variance).  Range differences are
formed by differencing one noise draw per sensor, so entries that share a
sensor are correlated by construction, and each stored entry is oriented
so that its value is nonnegative.

All containers are immutable after construction; generation functions are
pure given (inputs, seed).  Random draws use numpy's default PCG64
generator, which is what output metadata records.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import SensorSingularityError

# sensors closer than this are considered coincident [m]
COINCIDENT_TOL = 1e-12


def as_position(x, n: int | None = None) -> np.ndarray:
    """x as a flat float vector, a view when x is one, once it has 2 or 3 (or n) finite values."""
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size not in (2, 3):
        raise ValueError(f"position must have 2 or 3 coordinates, got {p.size}")
    if not all(map(math.isfinite, p.tolist())):
        raise ValueError("position coordinates must be finite")
    if n is not None and p.size != n:
        raise ValueError(f"position has dimension {p.size}, expected {n}")
    return p


def _as_int(name: str, value) -> int:
    """An integer field as an int; Python and numpy integers pass, bool does not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_count(name: str, value, minimum: int) -> int:
    """A count field as an int >= minimum (see _as_int)."""
    value = _as_int(name, value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


def _as_real(name: str, value, low=None, *, closed=False):
    """A real-number field, returned as given (an int stays an int).

    The one check of every scalar real input.  A bool, or anything that is
    not a numbers.Real (None, a str, a list, np.bool_), is a TypeError that
    names the field: float() would read "10" as 10 and true as 1, and a
    comparison would fail with a message that names no field.  A value
    beyond the float range (an int such as 10**400) is a ValueError, where
    float() would raise OverflowError.  With low given, the value must also
    be finite and > low (>= low when closed), else it is a ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be real number, not {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} is beyond the float range") from None
    if low is not None and not (finite and (value >= low if closed else value > low)):
        raise ValueError(f"{name} must be finite and {'>=' if closed else '>'} {low}")
    return value


def _check_keys(what: str, doc: dict, known) -> None:
    """Raise ValueError naming every key of doc that is not in known."""
    extra = set(doc) - set(known)
    if extra:
        raise ValueError(f"unknown {what} fields: {sorted(extra)}")


@dataclass(frozen=True)
class SensorArray:
    """An ordered set of m >= 2 distinct sensor positions (1-indexed accessors)."""

    sensors: np.ndarray  # (m, n) [m]

    def __post_init__(self):
        arr = np.asarray(self.sensors, dtype=float)
        if arr.ndim != 2:
            raise ValueError("sensors must be a 2-D array of shape (m, n)")
        m, n = arr.shape
        if m < 2:
            raise ValueError(f"need at least 2 sensors, got {m}")
        if n not in (2, 3):
            raise ValueError(f"sensor dimension must be 2 or 3, got {n}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sensor coordinates must be finite")
        for i in range(m):
            for j in range(i + 1, m):
                if np.linalg.norm(arr[i] - arr[j]) <= COINCIDENT_TOL:
                    raise ValueError(f"sensors {i + 1} and {j + 1} coincide")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "sensors", arr)

    @property
    def m(self) -> int:
        return self.sensors.shape[0]

    @property
    def n(self) -> int:
        return self.sensors.shape[1]

    def sensor(self, i: int) -> np.ndarray:
        """Position of sensor i (1-based)."""
        if not 1 <= i <= self.m:
            raise IndexError(f"sensor index {i} out of range 1..{self.m}")
        return self.sensors[i - 1]

    def centroid(self) -> np.ndarray:
        return self.sensors.mean(axis=0)


def sensor_coords(array) -> np.ndarray:
    """Coordinates of a SensorArray, or a raw (m, n) array passed through.

    Raw arrays are accepted so that the objective and solver functions can
    be evaluated on configurations (e.g. a single sensor) that the
    SensorArray container deliberately rejects.
    """
    if isinstance(array, SensorArray):
        return array.sensors
    arr = np.asarray(array, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise ValueError("sensor coordinates must have shape (m, 2) or (m, 3)")
    if arr.shape[0] < 1:
        raise ValueError("need at least one sensor")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sensor coordinates must be finite")
    return arr


@dataclass(frozen=True)
class RangeDiffSet:
    """All m(m-1)/2 distinct range-difference measurements.

    Entry k states ||x - y_i[k]|| - ||x - y_j[k]|| ~= values[k] with
    values[k] >= 0; the (i, j) orientation encodes the sign.  Indices are
    1-based.  Checks, in order: equal 1-D shapes, an integer m >= 2, m(m-1)/2
    entries, integer-typed indices (not bool or float), each in 1..m, i != j,
    each unordered pair once, finite values >= 0.  Stores read-only copies.
    """

    i: np.ndarray        # (m_hat,) int, 1-based
    j: np.ndarray        # (m_hat,) int, 1-based
    values: np.ndarray   # (m_hat,) float [m], >= 0
    m: int               # number of sensors

    def __post_init__(self):
        ii, jj = np.array(self.i), np.array(self.j)
        vv = np.array(self.values, dtype=float)
        if not (ii.shape == jj.shape == vv.shape) or ii.ndim != 1:
            raise ValueError("i, j, values must be 1-D arrays of equal length")
        m = _as_int("m", self.m)
        if m < 2:
            raise ValueError("need at least 2 sensors")
        expected = m * (m - 1) // 2
        if ii.size != expected:
            raise ValueError(f"expected {expected} entries for m={m}, got {ii.size}")
        if ii.dtype.kind not in "iu" or jj.dtype.kind not in "iu":
            raise ValueError(f"pair indices must be integers, got {ii.dtype} and {jj.dtype}")
        ii, jj = ii.astype(int, copy=False), jj.astype(int, copy=False)
        # checked on Python scalars: at m <= 10 a numpy call per check costs
        # more than the check itself
        il, jl, vl = ii.tolist(), jj.tolist(), vv.tolist()
        if min(il) < 1 or max(il) > m or min(jl) < 1 or max(jl) > m:
            raise ValueError("pair indices out of range")
        if any(a == b for a, b in zip(il, jl)):
            raise ValueError("pair indices must differ")
        seen = {(a, b) if a < b else (b, a) for a, b in zip(il, jl)}
        if len(seen) != expected:
            raise ValueError("each unordered pair must appear exactly once")
        if not all(map(math.isfinite, vl)):
            raise ValueError("range differences must be finite")
        if min(vl) < 0:
            raise ValueError("stored range differences must be >= 0 (flip i,j instead)")
        for name, arr in (("i", ii), ("j", jj), ("values", vv)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "m", m)

    @property
    def n_pairs(self) -> int:
        return self.values.size

    def entries(self):
        """An iterator of (i, j, value) tuples of plain Python scalars, in stored order."""
        return zip(self.i.tolist(), self.j.tolist(), self.values.tolist())


@dataclass(frozen=True)
class NoiseModel:
    """Receiver/propagation parameters that drive both simulation and the CRLB."""

    sigma2: float            # receiver output noise variance (dimensionless power)
    f0: float                # source frequency [Hz]
    c: float                 # propagation speed [m/s]
    fs_factor: float = 4.0   # sampling rate as a multiple of f0

    def __post_init__(self):
        _as_real("sigma2", self.sigma2, 0, closed=True)
        _as_real("f0", self.f0, 0)
        _as_real("c", self.c, 0)
        _as_real("fs_factor", self.fs_factor, 0)


def range_variance(D: float, noise: NoiseModel) -> float:
    """Variance [m^2] of a single range estimate at source distance D [m].

    For a sinusoidal source of frequency f0 received with noise power
    sigma2 and sampled at fs_factor * f0:

        var = sigma2 * c^2 * D^4 / ((fs_factor/2) * (c^2 + 4 pi^2 f0^2 D^2))

    which grows ~D^2 at long range and ~D^4 when the phase term is small.
    """
    _as_real("D", D, 0)
    num = noise.sigma2 * noise.c ** 2 * D ** 4
    den = (noise.fs_factor / 2.0) * (noise.c ** 2 + 4.0 * math.pi ** 2 * noise.f0 ** 2 * D ** 2)
    return num / den


# ---------------------------------------------------------------------------
# array constructors
# ---------------------------------------------------------------------------

def circular_array(m: int, radius: float) -> SensorArray:
    """m sensors on a circle: sensor i at radius*[cos(2*pi*i/m), sin(2*pi*i/m)]."""
    m = _as_count("m", m, 2)
    _as_real("radius", radius, 0)
    idx = np.arange(1, m + 1)
    ang = 2.0 * np.pi * idx / m
    return SensorArray(radius * np.column_stack([np.cos(ang), np.sin(ang)]))


def rhombus_array() -> SensorArray:
    """Four sensors at [0,10], [10,0], [0,-10], [-10,0]."""
    return SensorArray(np.array([[0.0, 10.0], [10.0, 0.0], [0.0, -10.0], [-10.0, 0.0]]))


def linear_array() -> SensorArray:
    """Four collinear sensors at [5,0], [5,10], [5,20], [5,30]."""
    return SensorArray(np.array([[5.0, 0.0], [5.0, 10.0], [5.0, 20.0], [5.0, 30.0]]))


def random_array(m: int, lo: float, hi: float, n: int = 2, seed=None) -> SensorArray:
    """Sensors with i.i.d. uniform coordinates in [lo, hi]^n, deterministic given
    seed; SensorArray refuses a draw with coincident sensors."""
    m = _as_count("m", m, 2)
    if not _as_real("lo", lo, -math.inf) < _as_real("hi", hi, -math.inf):
        raise ValueError(f"degenerate bounds: lo={lo} must be < hi={hi}")
    if n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    return SensorArray(np.random.default_rng(seed).uniform(lo, hi, size=(m, n)))


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def unordered_pairs(m: int) -> list[tuple[int, int]]:
    """All (i, j) with 1 <= i < j <= m in ascending enumeration order."""
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]


def true_ranges(x, array) -> np.ndarray:
    """Euclidean distances ||x - y_i||, one per sensor [m]."""
    coords = sensor_coords(array)
    p = as_position(x, coords.shape[1])
    return np.linalg.norm(p - coords, axis=1)


def _unit_vectors(x: np.ndarray, coords: np.ndarray):
    """Distances and unit vectors from every sensor to x; errors at sensors."""
    diffs = x[None, :] - coords
    rho = np.linalg.norm(diffs, axis=1)
    for k, r in enumerate(rho):
        if r <= 0.0:
            raise SensorSingularityError(k + 1)
    return rho, diffs / rho[:, None]


def snr_to_sigma2(snr_db: float) -> float:
    """Map an SNR in dB to a noise variance under a unit-signal-power convention.

    sigma2 = 10**(-snr_db / 10).  This mapping is a convention of this
    package; it is recorded here and in benchmark metadata so that RMSE
    curves are comparable run to run.
    """
    if not math.isfinite(_as_real("snr_db", snr_db)):
        raise ValueError("snr_db must be finite")
    return 10.0 ** (-snr_db / 10.0)


def range_noise_std(x, array, noise: NoiseModel) -> np.ndarray:
    """Per-sensor noise standard deviations [m] at the true source position.

    The variance is distance dependent; a sensor at zero distance gets the
    limiting value 0.
    """
    return np.array([math.sqrt(range_variance(dk, noise)) if dk > 0 else 0.0
                     for dk in true_ranges(x, array)])


def noisy_ranges(x, array, noise: NoiseModel, seed=None) -> np.ndarray:
    """Draw r_i = ||x - y_i|| + eps_i with per-sensor Gaussian noise.

    Values are not clamped: at realistic noise levels negativity is
    improbable, and clamping would bias downstream estimators.  A warning
    reports any non-positive draws.
    """
    d = true_ranges(x, array)
    if noise.sigma2 == 0:
        return d
    std = range_noise_std(x, array, noise)
    rng = np.random.default_rng(seed)
    r = d + rng.standard_normal(d.size) * std
    bad = int(np.sum(r <= 0))
    if bad:
        warnings.warn(f"{bad} noisy range(s) non-positive; kept unclamped", stacklevel=2)
    return r


def _orient_rows(D, a, b):
    """Signed differences D (B, P), column k for the 1-based pair (a[k], b[k])
    with a[k] < b[k], as the (i, j, values) arrays of B measurement sets, each
    (B, P): each entry is stored farther sensor first, so its value is >= 0;
    ties (difference exactly 0) keep the order (a[k], b[k])."""
    if not np.isfinite(D).all():
        raise ValueError("range differences must be finite")
    neg = D < 0
    return np.where(neg, b, a), np.where(neg, a, b), np.where(neg, -D, D)


def _rangediff_rows(R):
    """The measurement sets of ranges R (B, m), one per row, as the (i, j,
    values) arrays of _orient_rows: R[:, a] - R[:, b] over unordered_pairs."""
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[1] < 2:
        raise ValueError("need at least 2 ranges")
    a, b = np.array(unordered_pairs(R.shape[1])).T
    with np.errstate(invalid="ignore"):  # inf - inf is refused as non-finite
        D = R[:, a - 1] - R[:, b - 1]
    return _orient_rows(D, a, b)


def oriented_rangediffs(diffs, m: int) -> RangeDiffSet:
    """Measurement set from signed differences r_i - r_j, one per pair in
    unordered_pairs(m) order, oriented by _orient_rows."""
    a, b = np.array(unordered_pairs(m)).reshape(-1, 2).T
    D = np.array(diffs, dtype=float).reshape(1, -1)
    if D.shape[1] != a.size:
        raise ValueError(f"expected {a.size} differences for m={m}, got {D.shape[1]}")
    ii, jj, vv = _orient_rows(D, a, b)
    return RangeDiffSet(ii[0], jj[0], vv[0], m)


def rangediffs_from_ranges(ranges) -> RangeDiffSet:
    """Pairwise differences r_i - r_j for i < j, in unordered_pairs order,
    oriented as oriented_rangediffs stores them (_rangediff_rows on one row)."""
    r = np.asarray(ranges, dtype=float).reshape(1, -1)
    ii, jj, vv = _rangediff_rows(r)
    return RangeDiffSet(ii[0], jj[0], vv[0], r.shape[1])


def noisy_rangediffs(x, array, noise: NoiseModel, seed=None) -> RangeDiffSet:
    """All distinct range differences from a single per-sensor noise draw.

    Same seed convention as noisy_ranges: the differences reconstruct the
    underlying noisy ranges exactly, entry for entry.
    """
    return rangediffs_from_ranges(noisy_ranges(x, array, noise, seed))


# ---------------------------------------------------------------------------
# scenario files and measurement CSV
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A complete simulation setup: sensors, true source, noise, seed."""

    array: SensorArray
    source: np.ndarray
    noise: NoiseModel
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "source", as_position(self.source, self.array.n))


def _write_table(path, header: str, rows) -> None:
    """Write a CSV table: the header line, then each row's preformatted fields."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _read_table(path, header: str) -> list[list[str]]:
    """Fields of each non-blank line after the exact header; each has the header's count."""
    width = header.count(",") + 1
    with open(path) as fh:
        got = fh.readline().strip()
        if got != header:
            raise ValueError(f"expected header {header!r}, got {got!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != width:
                raise ValueError(f"line {lineno} has {len(fields)} fields, "
                                 f"expected {width} ({header!r}): {line!r}")
            rows.append(fields)
    return rows


def _write_json(path, doc) -> None:
    """Write `doc` as JSON indented by 2, keys sorted, with a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_scenario(path, scen: Scenario) -> None:
    _write_json(path, {
        "n": scen.array.n,
        "sensors": scen.array.sensors.tolist(),
        "source": scen.source.tolist(),
        "noise": asdict(scen.noise),
        "seed": scen.seed,
    })


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        doc = json.load(fh)
    _check_keys("scenario", doc, ("n", "sensors", "source", "noise", "seed"))
    array = SensorArray(np.asarray(doc["sensors"], dtype=float))
    if array.n != _as_count("n", doc["n"], 2):
        raise ValueError("scenario dimension field disagrees with sensor coordinates")
    # NoiseModel owns the fields and their defaults; an unknown key is a TypeError
    noise = NoiseModel(**{k: float(_as_real(k, v)) for k, v in doc["noise"].items()})
    seed = doc.get("seed")
    return Scenario(array, np.asarray(doc["source"], dtype=float), noise,
                    None if seed is None else _as_count("seed", seed, 0))


def write_ranges_csv(path, ranges) -> None:
    r = np.asarray(ranges, dtype=float).reshape(-1).tolist()
    _write_table(path, "i,r_i", ((str(k), repr(v)) for k, v in enumerate(r, start=1)))


def read_ranges_csv(path) -> np.ndarray:
    rows = sorted(_read_table(path, "i,r_i"), key=lambda row: int(row[0]))
    if [int(i_s) for i_s, _ in rows] != list(range(1, len(rows) + 1)):
        raise ValueError("range CSV must contain sensors 1..m exactly once each")
    for i_s, v_s in rows:
        if not math.isfinite(float(v_s)):
            raise ValueError(f"range of sensor {i_s} is not finite: {v_s!r}")
    return np.array([float(v_s) for _, v_s in rows])


def write_rangediffs_csv(path, rd: RangeDiffSet) -> None:
    _write_table(path, "i,j,r_ij", ((str(i), str(j), repr(v)) for i, j, v in rd.entries()))


def read_rangediffs_csv(path) -> RangeDiffSet:
    ii, jj, vv = [], [], []
    for i_s, j_s, v_s in _read_table(path, "i,j,r_ij"):
        ii.append(int(i_s)); jj.append(int(j_s)); vv.append(float(v_s))
    if not ii:
        raise ValueError("empty range-difference CSV")
    m = max(max(ii), max(jj))
    return RangeDiffSet(ii, jj, vv, m)
