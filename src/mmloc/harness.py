"""Experiment runner: convergence traces, RMSE sweeps over SNR or source
frequency, and CRLB overlays, driven by a JSON config.

Reproducibility contract: (config, seed) determines every output byte.
The master seed is split into independent streams for scenario
generation, the trace measurement draw, and the per-trial noise; each
trial's noise is drawn once as unit normals and rescaled per sweep value
(common random numbers), so RMSE curves differ across the sweep only
through the noise level, not the realization.  Per-trial seeding also
makes results independent of any execution order or worker count.

A sweep runs in stages, each over the whole sweep: the ranges of every
(value, trial) as one array; for solvit, one CRLB per value (crlb.fisher's
closed form) and every measurement set from one scenario._rangediff_rows
pass, each row then wrapped as the RangeDiffSet its solve takes; every start
(proposed ones in one initializer.init_points call, whose feasibility filter,
pair pick and arcs are array passes, a random one per trial, the centroid or
fixed point once); the solves in value, trial order, keeping each trial's
estimate and SolveOutcome (no trace); then one row per sweep value.

Failed trials (singular step systems) are excluded from the RMSE average
and counted in the "failed" column; this policy is recorded in the
metadata sidecar.  A solver exception is not a failed trial: it propagates.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from . import crlb as _crlb
from . import initializer as _init
from . import scenario as _scen
from . import sfp as _sfp
from . import solvit as _solvit
from .objective import _sum

_GENERATOR_ID = "numpy default_rng (PCG64)"

_INIT_CHOICES = ("proposed", "random", "fixed", "centroid", "both")


@dataclass
class RmseRow:
    sweep: float          # SNR [dB] or frequency [Hz]
    rmse: float           # [m]
    crlb: float           # [m]; NaN when no bound applies, inf when unbounded
    trials_failed: int

    def __post_init__(self):
        if not (self.rmse >= 0 or math.isnan(self.rmse)):
            raise ValueError("rmse must be >= 0")
        if self.trials_failed < 0:
            raise ValueError("trials_failed must be >= 0")


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment.

    scenario: either {"file": <scenario json path>} or
        {"sensors": {...}, "source": [...] | {"uniform": [lo, hi]},
         "noise": {"f0":.., "c":.., "fs_factor":..}}
        with sensors one of
        {"kind": "circular", "m":.., "radius":..} | {"kind": "rhombus"}
        | {"kind": "linear"}
        | {"kind": "random", "m":.., "lo":.., "hi":.., "n":..}.
        The other sensor keys are the array constructor's arguments and
        the noise keys NoiseModel's; every key is checked on construction.
    snr_grid / freq_grid: exactly one non-empty for RMSE sweeps.  A
        frequency sweep holds the SNR at snr_db.  Infinite SNR entries
        mean zero noise.  Every grid value, snr_db and init_point are
        checked on construction by the rules the runs apply.
    init: proposed | random | fixed | centroid | both ("both" only for
        traces, so not with a grid; "fixed" requires init_point, and
        init_point is refused with any other init).  None, the default, becomes
        the solver's default start on construction (start_rule: proposed
        for solvit, centroid for sfp), and the config keeps that name.
    tol / max_iter: default to and are checked by SolverConfig.
    """

    scenario: dict
    snr_grid: list[float] | None = None
    freq_grid: list[float] | None = None
    snr_db: float = 0.0
    trials: int = 500
    solver: str = "solvit"
    init: str | None = None
    init_point: list[float] | None = None
    seed: int = 0
    tol: float = _solvit.SolverConfig.tol
    max_iter: int = _solvit.SolverConfig.max_iter

    def __post_init__(self):
        self.trials = _scen._as_count("trials", self.trials, 1)
        self.seed = _scen._as_count("seed", self.seed, 0)
        self.max_iter = self.solver_config().max_iter
        if self.snr_grid and self.freq_grid:
            raise ValueError("give at most one of snr_grid / freq_grid")
        if self.solver not in ("solvit", "sfp"):
            raise ValueError(f"unknown solver {self.solver!r}")
        self.init = start_rule(self.solver, self.init)
        if self.init == "fixed" and self.init_point is None:
            raise ValueError("init=fixed requires init_point")
        if not isinstance(self.scenario, dict) or not self.scenario:
            raise ValueError("scenario spec must be a non-empty object")
        # builds the scenario and each run's noise once and discards them, so a
        # bad key or value fails now; +inf SNR is zero noise
        array, _, noise = _resolve_scenario(self.scenario, np.random.default_rng(0))
        for value in self.snr_grid or self.freq_grid or ():
            _sweep_noise(self, noise, value)
        _sigma2_of(self.snr_db)
        if self.init_point is not None:
            _scen.as_position(self.init_point, array.n)
            if self.init != "fixed":
                raise ValueError(f"init_point is used only with init 'fixed', "
                                 f"not with init {self.init!r}")
        if self.init == "both" and (self.snr_grid or self.freq_grid):
            raise ValueError("init 'both' not valid here")

    def solver_config(self) -> _solvit.SolverConfig:
        return _solvit.SolverConfig(tol=self.tol, max_iter=self.max_iter)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            doc = json.load(fh)
        _scen._check_keys("config", doc, cls.__dataclass_fields__)
        return cls(**doc)

    def to_json(self, path) -> None:
        _scen._write_json(path, asdict(self))


def start_rule(solver: str, init: str | None) -> str:
    """The init `solver` starts from: `init`, or when None the solver's
    default (proposed for solvit, centroid for sfp)."""
    if init is None:
        return "proposed" if solver == "solvit" else "centroid"
    if init not in _INIT_CHOICES:
        raise ValueError(f"init must be one of {_INIT_CHOICES}")
    if solver == "sfp" and init in ("proposed", "both"):
        raise ValueError("sfp consumes ranges; the proposed initializer needs range "
                         "differences — use init=centroid, random, or fixed")
    return init


# ---------------------------------------------------------------------------
# scenario resolution
# ---------------------------------------------------------------------------

_ARRAY_KINDS = {"circular": _scen.circular_array, "rhombus": _scen.rhombus_array,
                "linear": _scen.linear_array, "random": _scen.random_array}


def _build_array(spec: dict, rng) -> _scen.SensorArray:
    """The array spec["kind"] names, built from the spec's other keys; the
    constructor checks them, and a random array draws from rng."""
    params = dict(spec)
    kind = params.pop("kind", None)
    if kind not in _ARRAY_KINDS:
        raise ValueError(f"unknown sensor kind {kind!r}")
    if kind == "random":
        return _scen.random_array(**params, seed=rng)
    return _ARRAY_KINDS[kind](**params)


def _resolve_scenario(spec: dict, rng):
    """Return (array, source, noise model); each run replaces its sigma2."""
    known = ("file",) if "file" in spec else ("sensors", "source", "noise")
    _scen._check_keys("scenario", spec, known)
    if "file" in spec:
        scen = _scen.load_scenario(spec["file"])
        return scen.array, scen.source, scen.noise
    array = _build_array(spec["sensors"], rng)
    src_spec = spec["source"]
    if isinstance(src_spec, dict):
        _scen._check_keys("source", src_spec, ("uniform",))
        lo, hi = (_scen._as_real("uniform", v, -math.inf) for v in src_spec["uniform"])
        source = rng.uniform(lo, hi, size=array.n)
    else:
        source = _scen.as_position(src_spec, array.n)
    noise = _scen.NoiseModel(**{"sigma2": 0.0, "f0": 1000.0, "c": 340.0,
                                **spec.get("noise", {})})
    return array, source, noise


def _sigma2_of(snr_db) -> float:
    snr_db = float(_scen._as_real("snr_db", snr_db))
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return _scen.snr_to_sigma2(snr_db)


def _sweep_noise(cfg, noise_t, value) -> _scen.NoiseModel:
    """The noise of one sweep value: an SNR [dB], or a source frequency [Hz]
    heard at cfg.snr_db; NoiseModel and _sigma2_of check the value."""
    if cfg.freq_grid:
        return replace(noise_t, sigma2=_sigma2_of(cfg.snr_db),
                       f0=float(_scen._as_real("f0", value)))
    return replace(noise_t, sigma2=_sigma2_of(value))


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _pick_x0(init: str, array, meas, seed, fixed=None):
    if init == "proposed":
        return _init.init_point(array, meas, _init.InitConfig(seed=seed))
    if init == "random":
        return np.random.default_rng(seed).uniform(0.0, 1.0, size=array.n)
    if init == "fixed":
        return fixed  # the solver validates it as a position
    if init == "centroid":
        return array.centroid()
    raise ValueError(f"init {init!r} not valid here")


def _solve_fn(solver: str):
    """The solver, read from its module so that a wrapper put there applies."""
    return _solvit.solvit_solve if solver == "solvit" else _sfp.sfp_solve


def _measurement(solver: str, ranges):
    """The measurement `solver` consumes, formed from one range per sensor."""
    return _scen.rangediffs_from_ranges(ranges) if solver == "solvit" else ranges


def solve_one(solver: str, init: str, array, meas, seed, solver_cfg, fixed=None, *,
              trace=False):
    """Pick the starting point `init` (seeded by `seed`; `fixed` is the
    init="fixed" point) and run `solver` on `meas` from it.

    meas is a RangeDiffSet for solvit and the ranges for sfp.  Every solve
    of the CLI and the traces goes through here; it calls the solvers and
    the initializer through their modules, so a wrapper put on a module
    attribute sees every call.  Returns (estimate, SolveOutcome); the
    outcome carries the SolveTrace only when trace is set.
    """
    return _solve_fn(solver)(_pick_x0(init, array, meas, seed, fixed), array, meas, solver_cfg,
                             trace=trace)


def run_trace(cfg: ExperimentConfig, out_dir=None) -> dict:
    """One solve per requested initialization, each asked for its full
    iterate trace.

    Noise level comes from cfg.snr_db.  Returns {init_name: (estimate,
    SolveTrace)}; with out_dir set, each trace is also written to
    trace_<init_name>.csv.
    """
    master = np.random.SeedSequence(cfg.seed)
    scen_ss, meas_ss, init_ss = master.spawn(3)
    array, source, noise_t = _resolve_scenario(cfg.scenario, np.random.default_rng(scen_ss))
    noise = replace(noise_t, sigma2=_sigma2_of(cfg.snr_db))
    solver_cfg = cfg.solver_config()
    init_names = ["proposed", "random"] if cfg.init == "both" else [cfg.init]
    init_seeds = init_ss.spawn(len(init_names))

    # one measurement draw shared by every initialization
    ranges = _scen.noisy_ranges(source, array, noise, seed=np.random.default_rng(meas_ss))
    meas = _measurement(cfg.solver, ranges)
    results = {}
    for name, init_seed in zip(init_names, init_seeds):
        est, outcome = solve_one(cfg.solver, name, array, meas, init_seed, solver_cfg,
                                 cfg.init_point, trace=True)
        results[name] = (est, outcome.trace)
        if out_dir is not None:
            _solvit.write_trace_csv(os.path.join(out_dir, f"trace_{name}.csv"), outcome.trace)
    return results


def run_rmse_sweep(cfg: ExperimentConfig) -> list[RmseRow]:
    """RMSE across the SNR or frequency grid, with a CRLB column.

    RMSE is sqrt(mean over successful trials of squared position error).
    The CRLB column is the range-difference bound at the true source; for
    the range-only solver no bound is implemented and NaN is written.
    """
    if bool(cfg.snr_grid) == bool(cfg.freq_grid):
        raise ValueError("exactly one of snr_grid / freq_grid must be non-empty")
    sweep = list(cfg.snr_grid or cfg.freq_grid)

    master = np.random.SeedSequence(cfg.seed)
    scen_ss, _meas_ss, trial_ss = master.spawn(3)
    array, source, noise_t = _resolve_scenario(cfg.scenario, np.random.default_rng(scen_ss))
    solver_cfg = cfg.solver_config()
    d_true = _scen.true_ranges(source, array)

    # one unit-noise draw (a row of eps), then one init seed, per trial,
    # shared across the sweep
    rngs = [np.random.default_rng(ss) for ss in trial_ss.spawn(cfg.trials)]
    eps = np.array([rng.standard_normal(array.m) for rng in rngs])
    seeds = [int(rng.integers(2 ** 63)) for rng in rngs]

    # every (sweep value, trial) range row, value-major, in one array; solvit
    # orients all of their measurement sets in one pass and wraps each row as
    # the RangeDiffSet its solve takes
    noises = [_sweep_noise(cfg, noise_t, value) for value in sweep]
    stds = np.array([_scen.range_noise_std(source, array, noise) for noise in noises])
    ranges = (d_true + eps * stds[:, None, :]).reshape(-1, array.m)
    if cfg.solver == "solvit":
        bounds = [_crlb.fisher(source, array, noise).rmse_bound for noise in noises]
        meas = [_scen.RangeDiffSet(i, j, v, array.m)
                for i, j, v in zip(*_scen._rangediff_rows(ranges))]
    else:
        bounds = [math.nan] * len(sweep)
        meas = list(ranges)
    if cfg.init == "proposed":
        x0s = _init.init_points(array, meas, seeds * len(sweep))
    elif cfg.init == "random":  # a trial's start is shared by every sweep value
        x0s = [_pick_x0("random", array, None, seed) for seed in seeds] * len(sweep)
    else:
        x0s = [_pick_x0(cfg.init, array, None, None, cfg.init_point)] * len(meas)

    # the solve stage: every (start, measurement set) pair, value-major, untraced
    solve = _solve_fn(cfg.solver)
    outcomes = [solve(x0, array, mk, solver_cfg) for x0, mk in zip(x0s, meas)]
    # the row stage: each value's slice of trials; a singular solve is a failed trial
    rows = []
    for value, bound, first in zip(sweep, bounds, range(0, len(outcomes), cfg.trials)):
        sqerrs = [_sum(v * v for v in (est - source).tolist())
                  for est, outcome in outcomes[first:first + cfg.trials]
                  if outcome.status != _solvit.SINGULAR_SYSTEM]
        rmse = math.sqrt(_sum(sqerrs) / len(sqerrs)) if sqerrs else math.inf
        rows.append(RmseRow(sweep=float(value), rmse=rmse, crlb=bound,
                            trials_failed=cfg.trials - len(sqerrs)))
    return rows


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def write_rmse_csv(path, rows) -> None:
    _scen._write_table(path, "sweep,rmse,crlb,failed", [
        [repr(r.sweep), repr(r.rmse), repr(r.crlb), str(r.trials_failed)] for r in rows])


def read_rmse_csv(path) -> list[RmseRow]:
    return [RmseRow(float(s), float(r), float(c), int(f))
            for s, r, c, f in _scen._read_table(path, "sweep,rmse,crlb,failed")]


def write_metadata(path, cfg: ExperimentConfig) -> None:
    """JSON sidecar recording everything needed to reproduce a result file."""
    _scen._write_json(path, {
        "seed": cfg.seed,
        "generator": _GENERATOR_ID,
        "solver": {
            "name": cfg.solver,
            "tol": cfg.tol,
            "max_iter": cfg.max_iter,
            "init": cfg.init,
            "init_point": cfg.init_point,
        },
        "trials": cfg.trials,
        "snr_db": cfg.snr_db,
        "snr_to_sigma2": "10**(-snr_db/10), unit signal power",
        "failed_policy": "failed trials excluded from RMSE, counted in the failed column",
        "crlb_column": "range-difference bound at the true source; NaN for the range-only solver",
        "version": __version__,
    })
