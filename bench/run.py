"""mmloc benchmark: three workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root (the package is imported from ./src):

    python3 bench/run.py --workload rd_sweep_random --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Workloads (see README.md in this directory for the reasons and predictions):

    rd_sweep_random   `mmloc bench` RMSE-vs-SNR sweeps, solvit + proposed init
    range_sweep_sfp   the same sweeps on ranges, sfp + centroid start
    tdoa_fixture      `mmloc tdoa` then `mmloc solve` on the anechoic fixture

Each workload is a fixed cycle of requests built from --seed during set-up.
The cycle repeats, one request at a time (a closed loop with one caller),
until --seconds have passed and at least one full cycle is done.  Every
request goes through ``mmloc.cli.main`` in this process.

With --trace 0 the last line holds the end-to-end metrics.  With --trace 1
each request runs twice in a row, untraced and then with spans around the
module functions each layer exposes; the run checks that both produced the
same bytes, and the last line holds the per-layer metrics.

The process pins BLAS to one thread, writes only under .bench_work/ in the
checkout and removes it before exiting.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads here or in a set-up child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from spans import Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SEED = 1
SETUP_SAMPLES = 3          # fresh interpreters timed per run; setup_s is their median

# --- sweep workloads -------------------------------------------------------
SNR_GRID = [float(v) for v in range(-10, 1)]
# The random m=5 array in +-50 m that the criterion-7 config draws from its
# seed 2026.  It is fixed so that the seed varies sources and noise only:
# across random arrays the mean iteration count varies about 20x, which no
# run of tens of seconds could average out.
C7_SENSORS = [
    (-11.73088227796736, -47.95593940241971),
    (43.1964896269255, 2.6681826094859815),
    (26.904689162001176, 35.35020648078232),
    (13.243453888758872, 46.68498681723666),
    (-29.53924555290791, -19.63948042108461),
]
SOURCE_BOX = 10.0          # sources uniform in +-10 m ...
SOURCE_GRID = 4            # ... one in each cell of a 4x4 grid, one sweep per source
SWEEPS = {
    "rd_sweep_random": {"solver": "solvit", "init": "proposed", "trials": 12},
    "range_sweep_sfp": {"solver": "sfp", "init": "centroid", "trials": 25},
}
SWEEP_TOL = 1e-8
SWEEP_MAX_ITER = 2000
# RMSE >= CRLB allowance: N two-dimensional errors with covariance C give a
# sample RMSE whose relative standard deviation is at most 1/sqrt(2N) around
# sqrt(tr C), so a row passes when rmse >= crlb * (1 - MC_SIGMAS / sqrt(2N)).
MC_SIGMAS = 4.0

# --- TDOA workload ---------------------------------------------------------
# A fixed 5x5 grid on the microphones' source side (x < 2.1 m; the array
# spans y = 1.1..1.7).  Iteration counts run from ~500 to the 20,000 cap
# across the grid, and 7 of the 25 sources stop at the cap.  The seed only
# orders the requests: moving the sources by even 1 mm changes which
# integer-sample delays the correlator picks, and through the capped solves
# that swings the pooled RMSE by +-40% from seed to seed.
TDOA_XS = (0.6, 0.9, 1.2, 1.5, 1.8)
TDOA_YS = (0.3, 0.6, 0.9, 1.2, 1.5)
TDOA_BAND = ("150", "350")
TDOA_X0 = ("1.0", "1.4")
TDOA_TOL = "1e-12"
TDOA_MAX_ITER = "20000"
TDOA_CONVERGED_ERR = 0.1   # [m], criterion 10's tolerance, applied to converged solves

# --- clocks ----------------------------------------------------------------
# Work is timed in the process's CPU time (user + system, all threads).  The
# loop is closed, single-threaded and never waits on I/O beyond the page
# cache, so this is the wall time less the intervals the host took the CPU
# away: on a shared 2-vCPU VM those intervals added 50-100% to one request
# in twenty, and a median over the one or two runs a request gets in a run
# cannot drop them.  Wall time still bounds the run and is reported too.
CPU_CLOCK = time.process_time

# --- machine pace ----------------------------------------------------------
# Reported times are CPU times rescaled to a machine on which the pace
# kernel (best of three) takes REFERENCE_PACE_S; see reference_pace().  On
# the 2-vCPU VM the baseline was taken on it took 0.52 to 0.96 ms.
REFERENCE_PACE_S = 1e-3
_PACE_SENSORS = [(-11.7, -48.0), (43.2, 2.7), (26.9, 35.4), (13.2, 46.7), (-29.5, -19.6)]

# --- reference comparison (seeds recorded in reference.json) --------------
REF_RMSE_REL = 1e-6
REF_ESTIMATE_M = 1e-6

WORKLOAD_NAMES = ("rd_sweep_random", "range_sweep_sfp", "tdoa_fixture")

# (module, attribute, span name): the public calls each layer exposes
SPAN_TARGETS = (
    ("cli", "main", "cli.main"),
    ("harness", "run_rmse_sweep", "harness.run_rmse_sweep"),
    ("initializer", "init_point", "initializer.init_point"),
    ("initializer", "hyperbola_points", "initializer.hyperbola_points"),
    ("initializer", "f_rdls_many", "initializer.f_rdls_many"),
    ("initializer", "_grid_fallback", "initializer.grid_fallback"),
    ("solvit", "solvit_solve", "solvit.solvit_solve"),
    ("sfp", "sfp_solve", "sfp.sfp_solve"),
    ("scenario", "rangediffs_from_ranges", "scenario.rangediffs_from_ranges"),
    ("crlb", "fisher", "crlb.fisher"),
    ("tdoa", "read_signals_csv", "tdoa.read_signals_csv"),
    ("tdoa", "bandpass", "tdoa.bandpass"),
    ("tdoa", "xcorr_delay", "tdoa.xcorr_delay"),
    ("tdoa", "estimate_rangediffs", "tdoa.estimate_rangediffs"),
)
STATUSES = ("converged", "max_iter", "singular_system")


class BenchError(RuntimeError):
    pass


def load_mmloc():
    """Import mmloc from this checkout's src/ and return (mmloc, numpy, CPU seconds, wall seconds)."""
    if not (SRC / "mmloc" / "__init__.py").is_file():
        raise BenchError(f"no mmloc package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    c0, t0 = CPU_CLOCK(), time.perf_counter()
    import mmloc
    import mmloc.cli
    import numpy
    elapsed = CPU_CLOCK() - c0, time.perf_counter() - t0
    if Path(mmloc.__file__).resolve().parent != SRC / "mmloc":
        raise BenchError(f"imported mmloc from {mmloc.__file__}, not from {SRC}")
    return mmloc, numpy, *elapsed


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclass
class Request:
    calls: list             # argv lists for mmloc.cli.main, run in order
    out: Path | None = None     # sweep CSV written by the request
    source: tuple | None = None  # true source of a TDOA localization


def build_inputs(mmloc, np, workload, seed, work):
    """Write the workload's input files under ``work``; return its request cycle."""
    rng = np.random.default_rng(seed)
    if workload == "tdoa_fixture":
        return _tdoa_inputs(mmloc, np, rng, work)
    spec = SWEEPS[workload]
    array = mmloc.SensorArray(np.array(C7_SENSORS))
    noise = mmloc.NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)
    cell = 2.0 * SOURCE_BOX / SOURCE_GRID
    requests = []
    for k, (gx, gy) in enumerate(itertools.product(range(SOURCE_GRID), repeat=2)):
        source = -SOURCE_BOX + cell * (np.array([gx, gy]) + rng.uniform(size=2))
        scen = work / f"scenario_{k}.json"
        mmloc.save_scenario(scen, mmloc.Scenario(array, source, noise))
        cfg = {
            "scenario": {"file": str(scen)},
            "snr_grid": SNR_GRID,
            "trials": spec["trials"],
            "solver": spec["solver"],
            "init": spec["init"],
            "seed": int(rng.integers(2 ** 31)),
            "tol": SWEEP_TOL,
            "max_iter": SWEEP_MAX_ITER,
        }
        cfg_path = work / f"config_{k}.json"
        cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
        out = work / f"rmse_{k}.csv"
        requests.append(Request([["bench", "--config", str(cfg_path), "--out", str(out)]], out))
    return requests


def _tdoa_inputs(mmloc, np, rng, work):
    from mmloc import tdoa

    mics = mmloc.SensorArray(tdoa.ANECHOIC_MICROPHONES)
    noise = mmloc.NoiseModel(sigma2=0.0, f0=tdoa.TONE_F0, c=tdoa.SOUND_SPEED)
    grid = list(itertools.product(TDOA_XS, TDOA_YS))
    requests = []
    for k in rng.permutation(len(grid)):
        source = np.array(grid[k])
        signals = work / f"signals_{k}.csv"
        tdoa.write_signals_csv(signals, tdoa.tone_burst_signals(source, tdoa.ANECHOIC_MICROPHONES))
        scen = work / f"scenario_{k}.json"
        mmloc.save_scenario(scen, mmloc.Scenario(mics, source, noise))
        rd = work / f"rd_{k}.csv"
        requests.append(Request([
            ["tdoa", "--signals", str(signals), "--band", *TDOA_BAND, "--out", str(rd)],
            ["solve", "--scenario", str(scen), "--measurements", str(rd),
             "--x0", *TDOA_X0, "--tol", TDOA_TOL, "--max-iter", TDOA_MAX_ITER],
        ], source=tuple(source.tolist())))
    return requests


def setup_child(workload, seed):
    """Body of a set-up child: import, build inputs, print the two times."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"setup-{workload}-", dir=WORK))
    try:
        mmloc, np, import_s, import_wall_s = load_mmloc()
        c0, t0 = CPU_CLOCK(), time.perf_counter()
        build_inputs(mmloc, np, workload, seed, work)
        inputs_s, inputs_wall_s = CPU_CLOCK() - c0, time.perf_counter() - t0
    finally:
        shutil.rmtree(work)
    # numpy is needed for the pace kernel, so the pace is taken after set-up
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s, "pace_s": reference_pace(np),
                      "wall_s": import_wall_s + inputs_wall_s}))


def measure_setup(workload, seed):
    """Median import and input-building CPU times over fresh interpreters, at reference pace."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        scale = REFERENCE_PACE_S / sample["pace_s"]
        samples.append({"import_s": sample["import_s"] * scale, "inputs_s": sample["inputs_s"] * scale,
                        "wall_s": sample["wall_s"]})
    return {
        "setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in samples),
        "import_s": statistics.median(s["import_s"] for s in samples),
        "inputs_s": statistics.median(s["inputs_s"] for s in samples),
        "wall_s": [s["wall_s"] for s in samples],
    }


# ---------------------------------------------------------------------------
# timed loop
# ---------------------------------------------------------------------------

@dataclass
class Window:
    """What the runs of one kind (untraced or traced) produced."""

    latencies: list         # per request of the cycle: CPU seconds of each run of it
    walls: list = None      # the same runs in wall seconds
    paces: list = None      # per request: mean reference_pace() before and after each run
    outputs: list = None    # first cycle: CSV bytes or the `mmloc solve` stdout
    mismatches: int = 0     # later runs whose output differed from the first
    errors: list = None     # requests whose mmloc call exited non-zero
    outcomes: list = None   # (solver, status, iterations) for every solve
    cycle_outcomes: list = None  # the same for the first cycle only
    cycle_spans: int = 0    # spans recorded by the end of the first cycle

    def __post_init__(self):
        self.paces = [[] for _ in self.latencies]
        self.walls = [[] for _ in self.latencies]
        self.outputs, self.outcomes, self.cycle_outcomes, self.errors = [], [], [], []


def _pace_kernel(np):
    x = [0.3, -0.8]
    for _ in range(30):
        acc0 = acc1 = 0.0
        for y0, y1 in _PACE_SENSORS:
            d0, d1 = x[0] - y0, x[1] - y1
            scale = 20.0 / math.sqrt(d0 * d0 + d1 * d1)
            acc0 += y0 + scale * d0
            acc1 += y1 + scale * d1
        x = [acc0 / len(_PACE_SENSORS), acc1 / len(_PACE_SENSORS)]
    pts = np.array(_PACE_SENSORS)
    for i in range(60):
        d = pts - np.array([x[0], 0.01 * i])
        float(np.min(np.linalg.norm(d, axis=1)))


def reference_pace(np):
    """CPU seconds one fixed piece of work takes now: the machine's current pace.

    On a shared host the speed of this process swings by up to 2x over
    seconds to minutes as neighbours come and go.  The kernel mixes the two
    kinds of work mmloc does, scalar Python on small lists and numpy calls
    on tiny arrays, and never changes, so the ratio of a request's time to
    the kernel's time around it tracks mmloc's own cost.  The best of three
    runs drops one-off interruptions.
    """
    best = math.inf
    for _ in range(3):
        c0 = CPU_CLOCK()
        _pace_kernel(np)
        best = min(best, CPU_CLOCK() - c0)
    return best


def call_cli(mmloc, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mmloc.cli.main(argv)   # attribute lookup, so a span wrapper applies
    if code != 0:
        raise BenchError(f"mmloc {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def measure(mmloc, np, requests, seconds, rec, traced=False):
    """Cycle through the requests until ``seconds`` passed and one cycle is done.

    With ``traced`` each request runs twice in a row, first untraced, then
    with spans, so that slow drifts in machine speed hit both alike.
    Returns one Window per kind of run.
    """
    n = len(requests)
    windows = [Window([[] for _ in requests]) for _ in range(2 if traced else 1)]
    keep = rec.installed()
    last_run = None   # (window, request index, pace before) awaiting the pace after it

    def take_pace():
        nonlocal last_run
        pace = reference_pace(np)
        if last_run is not None:
            win, i, before = last_run
            win.paces[i].append(0.5 * (before + pace))
        return pace

    t_start = time.perf_counter()
    for k in itertools.count():
        req = requests[k % n]
        for kind, win in enumerate(windows):
            if kind:
                for module, attr, name in SPAN_TARGETS:
                    rec.span(getattr(mmloc, module), attr, name)
            first = len(rec.outcomes)
            before = take_pace()
            c0, t0 = CPU_CLOCK(), time.perf_counter()
            try:
                for argv in req.calls:
                    text = call_cli(mmloc, argv)
                output = req.out.read_bytes() if req.out is not None else text
            except BenchError as exc:
                output = None
                win.errors.append(f"request {k % n}: {exc}")
            win.latencies[k % n].append(CPU_CLOCK() - c0)
            win.walls[k % n].append(time.perf_counter() - t0)
            last_run = (win, k % n, before)
            rec.restore(keep)
            win.outcomes += rec.outcomes[first:]
            if k < n:
                win.outputs.append(output)
                win.cycle_outcomes += rec.outcomes[first:]
                win.cycle_spans = len(rec.spans)
            elif None not in (output, win.outputs[k % n]) and output != win.outputs[k % n]:
                win.mismatches += 1
        if k + 1 >= n and time.perf_counter() - t_start >= seconds:
            take_pace()
            return windows


# ---------------------------------------------------------------------------
# outputs, checks and metrics
# ---------------------------------------------------------------------------

def parse_rmse_csv(data):
    lines = data.decode().splitlines()
    if lines[0] != "sweep,rmse,crlb,failed":
        raise BenchError(f"unexpected sweep CSV header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        s, r, c, f = line.split(",")
        rows.append((float(s), float(r), float(c), int(f)))
    return rows


def sweep_summary(workload, window):
    """Pooled per-row RMSE and CRLB over the first cycle, plus check failures."""
    trials = SWEEPS[workload]["trials"]
    problems = []
    sq, crlb_sq, n_ok = [0.0] * len(SNR_GRID), [0.0] * len(SNR_GRID), [0] * len(SNR_GRID)
    for k, data in enumerate(window.outputs):
        rows = parse_rmse_csv(data)
        if [r[0] for r in rows] != SNR_GRID:
            problems.append(f"sweep {k}: rows {[r[0] for r in rows]} != SNR grid")
            continue
        for t, (_, rmse, crlb, failed) in enumerate(rows):
            ok = trials - failed
            if ok and not math.isfinite(rmse):
                problems.append(f"sweep {k} row {t}: rmse {rmse!r}")
                continue
            sq[t] += rmse * rmse * ok
            crlb_sq[t] += crlb * crlb * ok
            n_ok[t] += ok
    if any(n == 0 for n in n_ok):
        problems.append("an SNR row has no estimates")
        return [], math.nan, problems
    pooled = [math.sqrt(s / n) for s, n in zip(sq, n_ok)]
    if SWEEPS[workload]["solver"] == "solvit":
        for t, (rmse, c2, n) in enumerate(zip(pooled, crlb_sq, n_ok)):
            crlb = math.sqrt(c2 / n)
            floor = crlb * (1.0 - MC_SIGMAS / math.sqrt(2.0 * n))
            if not (math.isfinite(crlb) and rmse >= floor):
                problems.append(f"SNR {SNR_GRID[t]} dB: pooled rmse {rmse:.4g} m below "
                                f"CRLB {crlb:.4g} m less the Monte-Carlo allowance ({floor:.4g} m)")
    rmse_m = math.sqrt(sum(sq) / sum(n_ok))
    return pooled, rmse_m, problems


def tdoa_summary(requests, window):
    """Estimates, pooled RMSE and check failures for the first cycle."""
    problems = []
    estimates, sqerr = [], []
    for k, (req, text, outcome) in enumerate(zip(requests, window.outputs, window.cycle_outcomes)):
        est = [float(v) for v in text.split()]
        err = math.dist(est, req.source)
        if not math.isfinite(err):
            problems.append(f"source {k}: estimate {est}")
            continue
        if outcome[1] == "converged" and err >= TDOA_CONVERGED_ERR:
            problems.append(f"source {k}: converged {err:.3f} m from the source")
        estimates.append(est)
        sqerr.append(err * err)
    rmse_m = math.sqrt(sum(sqerr) / len(sqerr)) if sqerr else math.nan
    return estimates, rmse_m, problems


def check_reference(workload, seed, summary):
    """Compare the first cycle with the entry recorded for this seed, if any."""
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref = doc.get(f"{workload}/{seed}")
    if ref is None:
        return []
    problems = []
    if ref["statuses"] != summary["statuses"]:
        problems.append(f"statuses {summary['statuses']} != reference {ref['statuses']}")
    pairs = [("rmse_m", [ref["rmse_m"]], [summary["rmse_m"]])]
    if "rows" in ref:
        pairs.append(("row rmse", ref["rows"], summary["rows"]))
    for name, want, got in pairs:
        if len(want) != len(got) or any(
                not math.isclose(a, b, rel_tol=REF_RMSE_REL) for a, b in zip(want, got)):
            problems.append(f"{name} {got} != reference {want} (rel tol {REF_RMSE_REL})")
    if "estimates" in ref:
        want, got = ref["estimates"], summary["estimates"]
        if len(want) != len(got) or any(math.dist(a, b) > REF_ESTIMATE_M for a, b in zip(want, got)):
            problems.append(f"estimates differ from the reference by more than {REF_ESTIMATE_M} m")
    return problems


def summarize(workload, seed, requests, window):
    """First-cycle results (fixed by workload and seed) and every check on them."""
    statuses = dict(sorted(Counter(o[1] for o in window.cycle_outcomes).items()))
    per_cycle = (len(requests) if workload == "tdoa_fixture"
                 else len(requests) * len(SNR_GRID) * SWEEPS[workload]["trials"])
    summary = {"statuses": statuses}
    problems = list(window.errors)
    if len(window.cycle_outcomes) != per_cycle:
        problems.append(f"{len(window.cycle_outcomes)} solves recorded in a cycle, expected {per_cycle}")
    if window.mismatches:
        problems.append(f"{window.mismatches} repeated requests gave different output")
    if None in window.outputs:
        summary["rmse_m"] = math.nan
        return summary, problems
    if workload == "tdoa_fixture":
        summary["estimates"], summary["rmse_m"], more = tdoa_summary(requests, window)
    else:
        summary["rows"], summary["rmse_m"], more = sweep_summary(workload, window)
    problems += more
    problems += check_reference(workload, seed, summary)
    return summary, problems


def cycle_latencies(window):
    """Fastest paced latency of each request of the cycle over its runs in the window.

    Requests of one cycle differ in cost by over an order of magnitude, so
    metrics built from one figure per request do not depend on which
    requests the last, partial cycle ran.  Each run's CPU time is first
    rescaled to the reference pace, taken as the mean of the paces measured
    just before and just after the run.  Load from other tenants only ever
    slows a run, and a request gets only two to nine runs, so the fastest
    is the steadiest figure for its cost: over five seeds it cut the spread
    of both rate metrics by a third to a half against the median run.
    """
    return [min(t * REFERENCE_PACE_S / p for t, p in zip(runs, paces))
            for runs, paces in zip(window.latencies, window.paces)]


def wall_clock(window):
    """The two rate metrics from unscaled wall times, and the median pace."""
    per_request = [min(runs) for runs in window.walls]
    return {
        "solves_per_s": len(window.cycle_outcomes) / sum(per_request),
        "latency_ms_p50": statistics.median(per_request) * 1e3,
        "pace_s": statistics.median(p for runs in window.paces for p in runs),
    }


def end_to_end(window, summary, setup):
    """Operations are requests: failed ones exited non-zero or changed their output."""
    attempted = sum(map(len, window.latencies))
    failed = len(window.errors) + window.mismatches
    per_request = cycle_latencies(window)
    metrics = {
        "solves_per_s": (len(window.cycle_outcomes) / sum(per_request), "1/s"),
        "latency_ms_p50": (statistics.median(per_request) * 1e3, "ms"),
        "rmse_m": (summary["rmse_m"], "m"),
        "setup_s": (setup["setup_s"], "s"),
    }
    return attempted, failed, metrics


def _p90(values):
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def per_layer(rec, window, untraced, setup):
    """Per-layer metrics: counts over the first traced cycle, times over the window."""
    window_spans = rec.aggregate()
    cycle_spans = rec.aggregate(0, window.cycle_spans)
    busy = sum(map(sum, window.walls))
    # span times are wall times; one factor brings them to the reference pace
    pace = REFERENCE_PACE_S / wall_clock(window)["pace_s"]

    def times(name):
        return window_spans.get(name, (0, 0.0, 0.0))

    def calls(name):
        return (cycle_spans.get(name, (0,))[0], "count")

    def us_per_call(name):
        n, total, _ = times(name)
        return (total * pace / n * 1e6 if n else 0.0, "us")

    def share(name):
        return (times(name)[1] / busy, "fraction")

    def per_call_s(name, column):
        n = times(name)[0]
        return (times(name)[column] * pace / n if n else 0.0, "s")

    m = {
        "initializer.init_point.calls": calls("initializer.init_point"),
        "initializer.init_point.us_per_call": us_per_call("initializer.init_point"),
        "initializer.init_point.share": share("initializer.init_point"),
        "initializer.hyperbola_points.us_per_call": us_per_call("initializer.hyperbola_points"),
        "initializer.f_rdls_many.us_per_call": us_per_call("initializer.f_rdls_many"),
        "initializer.grid_fallback.calls": calls("initializer.grid_fallback"),
    }
    for solver in ("solvit", "sfp"):
        fn = f"{solver}.{solver}_solve"
        its = [o[2] for o in window.cycle_outcomes if o[0] == solver]
        all_its = sum(o[2] for o in window.outcomes if o[0] == solver)
        tally = Counter(o[1] for o in window.cycle_outcomes if o[0] == solver)
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.share"] = share(fn)
        m[f"{solver}.us_per_iter"] = (times(fn)[1] * pace / all_its * 1e6 if all_its else 0.0,
                                      "us/iter")
        m[f"{solver}.iterations.mean"] = (statistics.fmean(its) if its else 0.0, "iter")
        m[f"{solver}.iterations.p90"] = (_p90(its), "iter")
        m[f"{solver}.iterations.max"] = (max(its, default=0), "iter")
        for status in STATUSES:
            m[f"{solver}.status.{status}"] = (tally.get(status, 0), "count")
    m["objective.evals"] = (sum(o[2] + 1 for o in window.cycle_outcomes), "count")
    m["scenario.rangediffs_from_ranges.calls"] = calls("scenario.rangediffs_from_ranges")
    m["scenario.rangediffs_from_ranges.us_per_call"] = us_per_call("scenario.rangediffs_from_ranges")
    m["harness.run_rmse_sweep.s"] = per_call_s("harness.run_rmse_sweep", 1)
    m["harness.self_s"] = per_call_s("harness.run_rmse_sweep", 2)
    m["cli.self_s"] = per_call_s("cli.main", 2)
    m["crlb.fisher.calls"] = calls("crlb.fisher")
    m["crlb.fisher.us_per_call"] = us_per_call("crlb.fisher")
    m["tdoa.read_signals_csv.us_per_call"] = us_per_call("tdoa.read_signals_csv")
    m["tdoa.bandpass.us_per_call"] = us_per_call("tdoa.bandpass")
    m["tdoa.xcorr_delay.calls"] = calls("tdoa.xcorr_delay")
    m["tdoa.xcorr_delay.us_per_call"] = us_per_call("tdoa.xcorr_delay")
    m["tdoa.estimate_rangediffs.us_per_call"] = us_per_call("tdoa.estimate_rangediffs")
    m["setup.import_s"] = (setup["import_s"], "s")
    m["setup.inputs_s"] = (setup["inputs_s"], "s")
    overhead = sum(cycle_latencies(window)) / sum(cycle_latencies(untraced)) - 1.0
    m["trace.overhead_frac"] = (overhead, "fraction")
    return m


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def machine(np):
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_workload(mmloc, np, workload, seed, seconds, trace):
    """Set up, measure and check one workload; return its result record."""
    setup = measure_setup(workload, seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    rec = Recorder()
    try:
        requests = build_inputs(mmloc, np, workload, seed, work)
        rec.record_outcomes(mmloc.solvit, "solvit_solve", "solvit")
        rec.record_outcomes(mmloc.sfp, "sfp_solve", "sfp")
        windows = measure(mmloc, np, requests, seconds, rec, traced=bool(trace))
        summary, problems = summarize(workload, seed, requests, windows[0])
        attempted, failed, e2e = end_to_end(windows[0], summary, setup)
        metrics = e2e
        if trace:
            metrics = per_layer(rec, windows[1], windows[0], setup)
            if windows[1].outputs != windows[0].outputs or windows[1].mismatches \
                    or windows[1].errors:
                problems.append("traced and untraced runs gave different outputs")
    finally:
        rec.restore()
        shutil.rmtree(work)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "cycle": len(requests),
        "solves": len(windows[0].outcomes),
        "not_converged": sum(o[1] != "converged" for o in windows[0].outcomes),
        "statuses": dict(sorted(Counter(o[1] for o in windows[0].outcomes).items())),
        "wall_clock": wall_clock(windows[0]) | {"setup_s": setup["wall_s"]},
        "latencies_s": [w.latencies for w in windows],
        "walls_s": [w.walls for w in windows],
        "paces_s": [w.paces for w in windows],
        "metrics": _as_json(metrics),
        "end_to_end": _as_json(e2e),
        "first_cycle": summary,
    }


def _as_json(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def report(result):
    """Human-readable block for one workload."""
    print(f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']}  "
          f"trace={result['trace']}  requests={result['attempted']} (cycle of {result['cycle']})")
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    print(f"  requests attempted={result['attempted']} failed={result['failed']}; "
          f"solves={result['solves']} not_converged={result['not_converged']} "
          f"statuses={result['statuses']}")
    wall = result["wall_clock"]
    print(f"  wall clock, unscaled: solves_per_s={wall['solves_per_s']:.6g} latency_ms_p50={wall['latency_ms_p50']:.6g} "
          f"setup_s={', '.join(f'{v:.3f}' for v in wall['setup_s'])}; median pace "
          f"{wall['pace_s'] * 1e3:.4f} ms (reference {REFERENCE_PACE_S * 1e3:g} ms)")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks: {'ok' if result['correct'] else 'FAILED'}")


def record_reference(result):
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    doc[f"{result['workload']}/{result['seed']}"] = result["first_cycle"]
    REFERENCE.write_text(json.dumps(dict(sorted(doc.items())), indent=1) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="append each full result as a JSON line here")
    ap.add_argument("--record-reference", action="store_true",
                    help="store the first-cycle results of this seed in reference.json")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    mmloc, np, *_ = load_mmloc()
    info = machine(np)
    print("machine " + json.dumps(info))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(mmloc, np, name, args.seed, args.seconds, args.trace))
            report(results[-1])
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for result in results:
        result["machine"] = info
        if args.record_reference and result["correct"]:
            record_reference(result)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(result) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
