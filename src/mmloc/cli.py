"""Command-line interface.

Subcommands:
    simulate  scenario JSON -> measurement CSV (ranges or range diffs)
    solve     scenario + measurement CSV -> estimate (stdout) + optional trace CSV
    init      scenario + range-diff CSV -> starting point (stdout)
    crlb      scenario JSON -> bound report (stdout + optional JSON)
    tdoa      multichannel signal file -> range-diff CSV
    bench     experiment config JSON -> RMSE CSV + metadata sidecar
    plot      RMSE CSV -> PNG (needs matplotlib) or gnuplot script

Errors exit with status 2 and a single "error: <reason>" line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import crlb as _crlb
from . import harness as _harness
from . import initializer as _init
from . import scenario as _scen
from . import solvit as _solvit
from . import tdoa as _tdoa


def _fmt_point(x) -> str:
    return " ".join(repr(float(v)) for v in x)


def _cmd_simulate(args):
    scen = _scen.load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scen.seed
    if args.kind == "ranges":
        r = _scen.noisy_ranges(scen.source, scen.array, scen.noise, seed=seed)
        _scen.write_ranges_csv(args.out, r)
    else:
        rd = _scen.noisy_rangediffs(scen.source, scen.array, scen.noise, seed=seed)
        _scen.write_rangediffs_csv(args.out, rd)
    print(f"wrote {args.out}")


def _cmd_solve(args):
    scen = _scen.load_scenario(args.scenario)
    cfg = _solvit.SolverConfig(tol=args.tol, max_iter=args.max_iter)
    init = _harness.start_rule(args.solver, args.init)
    read = _scen.read_rangediffs_csv if args.solver == "solvit" else _scen.read_ranges_csv
    meas = read(args.measurements)
    if args.x0 is not None:
        init = "fixed"
    est, outcome = _harness.solve_one(args.solver, init, scen.array, meas, args.seed, cfg,
                                      fixed=args.x0, trace=args.trace is not None)
    if args.trace is not None:
        _solvit.write_trace_csv(args.trace, outcome.trace)
    print(_fmt_point(est))
    print(f"status={outcome.status} iterations={outcome.iterations} "
          f"objective={outcome.objective!r}", file=sys.stderr)


def _cmd_init(args):
    scen = _scen.load_scenario(args.scenario)
    rd = _scen.read_rangediffs_csv(args.measurements)
    cfg = _init.InitConfig(grid_size=args.grid_size, coord_bound=args.bound,
                           seed=args.seed)
    print(_fmt_point(_init.init_point(scen.array, rd, cfg)))


def _cmd_crlb(args):
    scen = _scen.load_scenario(args.scenario)
    report = _crlb.fisher(scen.source, scen.array, scen.noise)
    if args.out is not None:
        report.save_json(args.out)
    print(f"rmse_bound={report.rmse_bound!r} cov_rank={report.cov_rank}")


def _cmd_tdoa(args):
    if args.raw:
        sigs = _tdoa.read_signals_raw(args.signals, sidecar=args.sidecar)
    else:
        sigs = _tdoa.read_signals_csv(args.signals)
    if args.band is not None:
        f_lo, f_hi = args.band
        sigs = [_tdoa.bandpass(s, f_lo, f_hi) for s in sigs]
    rd = _tdoa.estimate_rangediffs(sigs, c=args.c)
    _scen.write_rangediffs_csv(args.out, rd)
    print(f"wrote {args.out} ({rd.n_pairs} pairs from {len(sigs)} channels)")


def _cmd_bench(args):
    cfg = _harness.ExperimentConfig.from_json(args.config)
    rows = _harness.run_rmse_sweep(cfg)
    _harness.write_rmse_csv(args.out, rows)
    meta = args.metadata if args.metadata is not None else f"{args.out}.meta.json"
    _harness.write_metadata(meta, cfg)
    print(f"wrote {args.out} ({len(rows)} rows) and {meta}")


def _cmd_plot(args):
    rows = _harness.read_rmse_csv(args.input)
    xs = [r.sweep for r in rows]
    if args.gnuplot is not None:
        with open(args.gnuplot, "w") as fh:
            fh.write('set datafile separator ","\n')
            fh.write(f'set output "{args.out or "rmse.png"}"\n')
            fh.write("set terminal png\nset logscale y\n")
            fh.write('set xlabel "sweep"\nset ylabel "RMSE [m]"\n')
            fh.write(f'plot "{args.input}" skip 1 using 1:2 with linespoints '
                     f'title "rmse", "{args.input}" skip 1 using 1:3 '
                     f'with lines title "crlb"\n')
        print(f"wrote {args.gnuplot}")
        return
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise RuntimeError(
            "matplotlib is not installed; use --gnuplot FILE instead"
        ) from exc
    fig, ax = plt.subplots()
    ax.semilogy(xs, [r.rmse for r in rows], "o-", label="rmse")
    if not all(np.isnan(r.crlb) for r in rows):
        ax.semilogy(xs, [r.crlb for r in rows], "--", label="crlb")
    ax.set_xlabel("sweep")
    ax.set_ylabel("RMSE [m]")
    ax.legend()
    fig.savefig(args.out or "rmse.png", dpi=120)
    print(f"wrote {args.out or 'rmse.png'}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mmloc",
                                 description="source localization toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="scenario -> measurement CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument("--kind", choices=("ranges", "rangediffs"), default="rangediffs")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario file's seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("solve", help="measurements -> position estimate")
    p.add_argument("--scenario", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument("--solver", choices=("solvit", "sfp"), default="solvit")
    p.add_argument("--init", choices=("proposed", "random", "centroid"),
                   default=None,
                   help="starting point (default: proposed for solvit, "
                        "centroid for sfp; sfp cannot use proposed)")
    p.add_argument("--x0", type=float, nargs="+", default=None,
                   help="explicit starting point (overrides --init)")
    p.add_argument("--tol", type=float, default=_solvit.SolverConfig.tol)
    p.add_argument("--max-iter", type=int, default=_solvit.SolverConfig.max_iter)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="write iterate trace CSV here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("init", help="range-diff measurements -> starting point")
    p.add_argument("--scenario", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument("--grid-size", type=int, default=_init.InitConfig.grid_size)
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_init)

    p = sub.add_parser("crlb", help="scenario -> RMSE lower bound")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None, help="write the full report JSON here")
    p.set_defaults(func=_cmd_crlb)

    p = sub.add_parser("tdoa", help="signal file -> range-diff CSV")
    p.add_argument("--signals", required=True)
    p.add_argument("--raw", action="store_true",
                   help="signals file is raw float64 with a JSON sidecar")
    p.add_argument("--sidecar", default=None)
    p.add_argument("--band", type=float, nargs=2, metavar=("F_LO", "F_HI"),
                   default=None, help="band-pass cutoffs in Hz")
    p.add_argument("--c", type=float, default=_tdoa.SOUND_SPEED)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tdoa)

    p = sub.add_parser("bench", help="experiment config -> RMSE CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metadata", default=None,
                   help="metadata sidecar path (default: <out>.meta.json)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("plot", help="RMSE CSV -> plot image or gnuplot script")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--gnuplot", default=None,
                   help="emit a gnuplot script instead of rendering")
    p.set_defaults(func=_cmd_plot)

    return ap


# building the parser tree costs about a millisecond, and parsing leaves it
# unchanged, so every main call in a process shares one
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # single-line, machine-parsable failure report
        reason = " ".join(str(exc).split()) or exc.__class__.__name__
        print(f"error: {reason}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
