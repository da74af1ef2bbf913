"""Experiment runner: convergence traces, RMSE sweeps over SNR or source
frequency, and CRLB overlays, driven by a JSON config.

Reproducibility contract: (config, seed) determines every output byte.
The master seed is split into independent streams for scenario
generation, the trace measurement draw, and the per-trial noise.  The
config is frozen and resolved once, when it is built: its scenario, drawn
from the scenario stream, and each sweep value's noise model; both runs read
that resolution and split the other streams afresh on each call.  Each
trial's noise is drawn once as unit normals and rescaled per sweep value
(common random numbers), so RMSE curves differ across the sweep only
through the noise level, not the realization.  Per-trial seeding also
makes results independent of any execution order or worker count.

A sweep runs in stages, each over the whole sweep, on the scenario and the
noise models its config resolved: the ranges of every (value, trial) as one
array; for solvit, one CRLB per value (crlb.fisher's closed form) and every
measurement set from one scenario._rangediff_rows pass, each row then
wrapped as the RangeDiffSet its solve takes; every start
(proposed ones in one initializer.init_points call, whose feasibility filter,
pair pick and arcs are array passes, a random one per trial, the centroid or
fixed point once); the solves in value, trial order, keeping each trial's
estimate and SolveOutcome (no trace); then one row per sweep value.

Failed trials (singular step systems) are excluded from the RMSE average
and counted in the "failed" column; this policy is recorded in the
metadata sidecar.  A solver exception is not a failed trial: it propagates.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class RmseRow:
    sweep: float          # SNR [dB] or frequency [Hz]
    rmse: float           # [m]
    crlb: float           # [m]; NaN when no bound applies, inf when unbounded
    trials_failed: int

    def __post_init__(self):
        _scen._as_real("sweep", self.sweep)
        _scen._as_real("crlb", self.crlb)
        if not (_scen._as_real("rmse", self.rmse) >= 0 or math.isnan(self.rmse)):
            raise ValueError("rmse must be >= 0")
        _scen._as_count("trials_failed", self.trials_failed, 0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment.

    scenario: either {"file": <scenario file path>} alone or the inline
        form {"sensors": .., "source": .., "noise": {..}}, noise optional.
        One reader, scenario._read_scenario, reads both this and a scenario
        file, by one rule per field: sensors are coordinates [[x, y], ..]
        or {"kind": "circular", "m":.., "radius":..} | {"kind": "rhombus"}
        | {"kind": "linear"} | {"kind": "random", "m":.., "lo":.., "hi":..,
        "n":..}, the keys besides kind being the constructor's arguments;
        source is a point or {"uniform": [lo, hi]}; the noise keys are
        NoiseModel's, sigma2 = 0, f0 = 1000 and c = 340 when not given.  A
        random array, then a uniform source, draw from the scenario stream
        of the seed.  Every key is checked on construction, and a value that
        should be an object and is not is refused by its field's name.
    snr_grid / freq_grid: exactly one non-empty for RMSE sweeps.  A
        frequency sweep holds the SNR at snr_db.  Infinite SNR entries
        mean zero noise.  Every grid value, snr_db and init_point are
        checked on construction.
    init: proposed | random | fixed | centroid | both ("both" only for
        traces, so not with a grid; "fixed" requires init_point, and
        init_point is refused with any other init).  None, the default, becomes
        the solver's default start on construction (start_rule: proposed
        for solvit, centroid for sfp), and the config keeps that name.
    tol / max_iter: default to and are checked by SolverConfig.

    The config is frozen, and construction resolves it once: the scenario,
    drawn from the seed's scenario stream (child 0 of
    SeedSequence(seed).spawn(3)), each sweep value's NoiseModel and the
    trace's at snr_db.  run_rmse_sweep and run_trace read that resolution,
    so they run on exactly the array, source and noise the checks saw; each
    run still splits a fresh SeedSequence(seed) for its other streams.  The
    resolution is kept outside the fields, so == and repr read the fields
    alone.  So is a deep copy of the checked fields (asdict): to_json writes
    it, and the runs and write_metadata read init_point from it, so a grid,
    scenario or init_point changed in place after the checks reaches neither
    a run nor a written file.
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
        _scen._freeze(self, trials=_scen._as_count("trials", self.trials, 1),
                      seed=_scen._as_count("seed", self.seed, 0),
                      max_iter=self.solver_config().max_iter)
        if self.snr_grid and self.freq_grid:
            raise ValueError("give at most one of snr_grid / freq_grid")
        if self.solver not in ("solvit", "sfp"):
            raise ValueError(f"unknown solver {self.solver!r}")
        _scen._freeze(self, init=start_rule(self.solver, self.init))
        if self.init == "fixed" and self.init_point is None:
            raise ValueError("init=fixed requires init_point")
        # (array, source, [(sweep value, noise)], trace noise); +inf SNR is zero noise
        scen_ss = np.random.SeedSequence(self.seed).spawn(3)[0]
        array, source, noise = _resolve_scenario(self.scenario, np.random.default_rng(scen_ss))
        sweep = [(v, _sweep_noise(self, noise, v)) for v in self.snr_grid or self.freq_grid or ()]
        trace_noise = replace(noise, sigma2=_sigma2_of(self.snr_db))
        if self.init_point is not None:
            _scen.as_position(self.init_point, array.n)
            if self.init != "fixed":
                raise ValueError(f"init_point is used only with init 'fixed', "
                                 f"not with init {self.init!r}")
        if self.init == "both" and (self.snr_grid or self.freq_grid):
            raise ValueError("init 'both' not valid here")
        _scen._freeze(self, _resolved=(array, source, sweep, trace_noise), _doc=asdict(self))

    def solver_config(self) -> _solvit.SolverConfig:
        return _solvit.SolverConfig(tol=self.tol, max_iter=self.max_iter)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls(**_scen._check_keys("config", _scen._read_json(path), (),
                                       cls.__dataclass_fields__))

    def to_json(self, path) -> None:
        _scen._write_json(path, self._doc)


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

def _resolve_scenario(spec, rng):
    """(array, source, noise model) of a config's scenario, {"file": path} or
    the inline form, both read by scenario._read_scenario; a random array or
    a uniform source draws from rng, and the config replaces the sigma2
    with each sweep value's and the trace's."""
    if isinstance(spec, dict) and "file" in spec:
        path = _scen._check_keys("scenario", spec, ("file",))["file"]
        if not isinstance(path, str):  # open(0) would read stdin
            raise TypeError(f"file must be a string, not {type(path).__name__}")
        scen = _scen.load_scenario(path, rng)
    else:
        scen = _scen._read_scenario(spec, rng, *_scen._INLINE_FORM)
    return scen.array, scen.source, scen.noise


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
    attribute sees every call.  Returns (estimate, SolveOutcome), how the
    solve ended; its trace is the swept history only when trace is set.
    """
    return _solve_fn(solver)(_pick_x0(init, array, meas, seed, fixed), array, meas, solver_cfg,
                             trace=trace)


def run_trace(cfg: ExperimentConfig, out_dir=None) -> dict:
    """One solve per requested initialization, each asked for its full
    iterate trace.

    Noise level comes from cfg.snr_db.  Returns {init_name: (estimate,
    SolveOutcome)}, each outcome's trace set; with out_dir set, each trace
    is also written to trace_<init_name>.csv.
    """
    array, source, _, noise = cfg._resolved
    _, meas_ss, init_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    solver_cfg = cfg.solver_config()
    init_names = ["proposed", "random"] if cfg.init == "both" else [cfg.init]
    init_seeds = init_ss.spawn(len(init_names))

    # one measurement draw shared by every initialization
    ranges = _scen.noisy_ranges(source, array, noise, seed=np.random.default_rng(meas_ss))
    meas = _measurement(cfg.solver, ranges)
    results = {}
    for name, init_seed in zip(init_names, init_seeds):
        est, outcome = solve_one(cfg.solver, name, array, meas, init_seed, solver_cfg,
                                 cfg._doc["init_point"], trace=True)
        results[name] = (est, outcome)
        if out_dir is not None:
            _solvit.write_trace_csv(os.path.join(out_dir, f"trace_{name}.csv"), outcome.trace)
    return results


def run_rmse_sweep(cfg: ExperimentConfig) -> list[RmseRow]:
    """RMSE across the SNR or frequency grid, with a CRLB column.

    RMSE is sqrt(mean over successful trials of squared position error).
    The CRLB column is the range-difference bound at the true source; for
    the range-only solver no bound is implemented and NaN is written.
    """
    array, source, sweep, _ = cfg._resolved
    if not sweep:
        raise ValueError("exactly one of snr_grid / freq_grid must be non-empty")
    _, _, trial_ss = np.random.SeedSequence(cfg.seed).spawn(3)
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
    stds = np.array([_scen.range_noise_std(source, array, noise) for _, noise in sweep])
    ranges = (d_true + eps * stds[:, None, :]).reshape(-1, array.m)
    if cfg.solver == "solvit":
        bounds = [_crlb.fisher(source, array, noise).rmse_bound for _, noise in sweep]
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
        x0s = [_pick_x0(cfg.init, array, None, None, cfg._doc["init_point"])] * len(meas)

    # the solve stage: every (start, measurement set) pair, value-major, untraced
    solve = _solve_fn(cfg.solver)
    outcomes = [solve(x0, array, mk, solver_cfg) for x0, mk in zip(x0s, meas)]
    # the row stage: each value's slice of trials; a singular solve is a failed trial
    rows = []
    for (value, _), bound, first in zip(sweep, bounds, range(0, len(outcomes), cfg.trials)):
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
    kinds = (float, float, float, int)
    return [RmseRow(*row) for row in _scen._read_table(path, "sweep,rmse,crlb,failed", kinds)]


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
            "init_point": cfg._doc["init_point"],
        },
        "trials": cfg.trials,
        "snr_db": cfg.snr_db,
        "snr_to_sigma2": "10**(-snr_db/10), unit signal power",
        "failed_policy": "failed trials excluded from RMSE, counted in the failed column",
        "crlb_column": "range-difference bound at the true source; NaN for the range-only solver",
        "version": __version__,
    })
