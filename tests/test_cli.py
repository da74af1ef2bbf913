"""Command-line interface, exercised in-process through main(argv)."""

import json
import sys
import types

import numpy as np
import pytest

from mmloc import (
    NoiseModel,
    Scenario,
    SensorArray,
    circular_array,
    save_scenario,
)
from mmloc import cli
from mmloc.cli import main
from mmloc.tdoa import (ANECHOIC_MICROPHONES, TONE_FS, tone_burst_signals, write_signals_csv,
                        write_signals_raw)


@pytest.fixture
def zero_noise_scenario(tmp_path):
    scen = Scenario(array=circular_array(5, radius=10.0),
                    source=np.array([1.0, 5.0]),
                    noise=NoiseModel(sigma2=0.0, f0=1000.0, c=340.0),
                    seed=7)
    path = tmp_path / "scen.json"
    save_scenario(path, scen)
    return path, scen


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolveFlow:
    def test_simulate_then_solve_recovers_source(self, tmp_path, capsys,
                                                 zero_noise_scenario):
        scen_path, scen = zero_noise_scenario
        rd_path = tmp_path / "rd.csv"
        code, _, _ = run_cli(capsys, "simulate", "--scenario", scen_path,
                             "--out", rd_path)
        assert code == 0
        code, out, err = run_cli(capsys, "solve", "--scenario", scen_path,
                                 "--measurements", rd_path,
                                 "--tol", "1e-14", "--max-iter", "30000")
        assert code == 0
        est = np.array([float(v) for v in out.split()])
        np.testing.assert_allclose(est, [1.0, 5.0], atol=1e-6)
        assert "status=" in err

    def test_solve_writes_trace(self, tmp_path, capsys, zero_noise_scenario):
        scen_path, _ = zero_noise_scenario
        rd_path = tmp_path / "rd.csv"
        run_cli(capsys, "simulate", "--scenario", scen_path, "--out", rd_path)
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "solve", "--scenario", scen_path,
                             "--measurements", rd_path, "--trace", trace_path)
        assert code == 0
        header = trace_path.read_text().splitlines()[0]
        assert header == "iter,x_1,x_2,objective"

    def test_sfp_solver_path(self, tmp_path, capsys, zero_noise_scenario):
        scen_path, _ = zero_noise_scenario
        r_path = tmp_path / "r.csv"
        run_cli(capsys, "simulate", "--scenario", scen_path,
                "--kind", "ranges", "--out", r_path)
        code, out, _ = run_cli(capsys, "solve", "--scenario", scen_path,
                               "--measurements", r_path, "--solver", "sfp",
                               "--tol", "1e-14", "--max-iter", "30000")
        assert code == 0
        est = np.array([float(v) for v in out.split()])
        np.testing.assert_allclose(est, [1.0, 5.0], atol=1e-5)

    def test_sfp_honours_init_random(self, tmp_path, capsys,
                                     zero_noise_scenario):
        scen_path, scen = zero_noise_scenario
        r_path = tmp_path / "r.csv"
        run_cli(capsys, "simulate", "--scenario", scen_path,
                "--kind", "ranges", "--out", r_path)
        starts = {}
        for init in ("random", "centroid"):
            trace_path = tmp_path / f"trace_{init}.csv"
            code, _, _ = run_cli(capsys, "solve", "--scenario", scen_path,
                                 "--measurements", r_path, "--solver", "sfp",
                                 "--init", init, "--seed", "3",
                                 "--trace", trace_path)
            assert code == 0
            first = trace_path.read_text().splitlines()[1].split(",")
            starts[init] = np.array([float(v) for v in first[1:3]])
        expected = np.random.default_rng(3).uniform(0.0, 1.0, 2)
        np.testing.assert_array_equal(starts["random"], expected)
        np.testing.assert_allclose(starts["centroid"], scen.array.centroid(),
                                   atol=1e-12)

    def test_sfp_rejects_init_proposed(self, tmp_path, capsys,
                                       zero_noise_scenario):
        scen_path, _ = zero_noise_scenario
        r_path = tmp_path / "r.csv"
        run_cli(capsys, "simulate", "--scenario", scen_path,
                "--kind", "ranges", "--out", r_path)
        # an explicit --x0 does not make the proposed initializer valid
        for x0 in ([], ["--x0", "1", "1"]):
            code, out, err = run_cli(capsys, "solve", "--scenario", scen_path,
                                     "--measurements", r_path, "--solver", "sfp",
                                     "--init", "proposed", *x0)
            assert code == 2
            assert out == ""
            assert err.startswith("error: sfp consumes ranges")

    def test_x0_overrides_init_and_starts_the_trace(self, tmp_path, capsys,
                                                    zero_noise_scenario):
        scen_path, _ = zero_noise_scenario
        rd_path = tmp_path / "rd.csv"
        r_path = tmp_path / "r.csv"
        run_cli(capsys, "simulate", "--scenario", scen_path, "--out", rd_path)
        run_cli(capsys, "simulate", "--scenario", scen_path,
                "--kind", "ranges", "--out", r_path)
        for solver, meas, init in (("solvit", rd_path, "proposed"),
                                   ("sfp", r_path, "random")):
            trace_path = tmp_path / f"trace_{solver}.csv"
            code, _, _ = run_cli(capsys, "solve", "--scenario", scen_path,
                                 "--measurements", meas, "--solver", solver,
                                 "--init", init, "--x0", "2.5", "-1.5",
                                 "--trace", trace_path)
            assert code == 0
            first = trace_path.read_text().splitlines()[1].split(",")
            assert [float(v) for v in first[1:3]] == [2.5, -1.5]

    def test_init_prints_point(self, tmp_path, capsys, zero_noise_scenario):
        scen_path, _ = zero_noise_scenario
        rd_path = tmp_path / "rd.csv"
        run_cli(capsys, "simulate", "--scenario", scen_path, "--out", rd_path)
        code, out, _ = run_cli(capsys, "init", "--scenario", scen_path,
                               "--measurements", rd_path)
        assert code == 0
        assert len(out.split()) == 2

    # an infinite box fails in InitConfig; a finite one too large for float
    # arithmetic fails in init_point, with the error line alone on stderr
    @pytest.mark.parametrize("bound, reason", [
        ("inf", "coord_bound must be finite and > 0"),
        ("1e300", "coord_bound=1e+300 is too large: the cost at the best sample is not finite"),
    ], ids=["inf", "1e300"])
    def test_init_rejects_a_box_too_large(self, tmp_path, capsys, zero_noise_scenario,
                                          bound, reason):
        scen_path, _ = zero_noise_scenario
        rd_path = tmp_path / "rd.csv"
        run_cli(capsys, "simulate", "--scenario", scen_path, "--out", rd_path)
        code, out, err = run_cli(capsys, "init", "--scenario", scen_path,
                                 "--measurements", rd_path, "--bound", bound)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {reason}"]


class TestCrlb:
    def test_collinear_pair_prints_inf(self, tmp_path, capsys):
        scen = Scenario(array=SensorArray(np.array([[0.0, 0.0], [10.0, 0.0]])),
                        source=np.array([5.0, 7.0]),
                        noise=NoiseModel(sigma2=1.0, f0=1000.0, c=340.0),
                        seed=0)
        path = tmp_path / "scen.json"
        save_scenario(path, scen)
        code, out, _ = run_cli(capsys, "crlb", "--scenario", path)
        assert code == 0
        assert "rmse_bound=inf" in out

    def test_report_json_written(self, tmp_path, capsys, zero_noise_scenario):
        scen_path, _ = zero_noise_scenario
        # zero sigma2 means a zero covariance; use a noisy copy instead
        doc = json.loads(scen_path.read_text())
        doc["noise"]["sigma2"] = 1.0
        noisy = tmp_path / "noisy.json"
        noisy.write_text(json.dumps(doc))
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "crlb", "--scenario", noisy,
                             "--out", out_path)
        assert code == 0
        rep = json.loads(out_path.read_text())
        assert set(rep) == {"fisher", "cov_rank", "rmse_bound"}


class TestTdoa:
    def test_signals_to_rangediffs(self, tmp_path, capsys):
        sigs = tone_burst_signals(np.array([1.0, 0.5]), ANECHOIC_MICROPHONES)
        sig_path = tmp_path / "sig.csv"
        write_signals_csv(sig_path, sigs)
        out_path = tmp_path / "rd.csv"
        code, out, _ = run_cli(capsys, "tdoa", "--signals", sig_path,
                               "--band", "150", "350", "--out", out_path)
        assert code == 0
        assert "6 pairs" in out
        assert out_path.exists()


    def test_raw_signals_give_the_csv_result(self, tmp_path, capsys):
        sigs = tone_burst_signals(np.array([1.0, 0.5]), ANECHOIC_MICROPHONES)
        write_signals_csv(tmp_path / "sig.csv", sigs)
        write_signals_raw(tmp_path / "sig.f64", sigs, sidecar=tmp_path / "side.json")
        band = ("--band", "150", "350")
        code, _, _ = run_cli(capsys, "tdoa", "--signals", tmp_path / "sig.csv", *band,
                             "--out", tmp_path / "csv.rd")
        assert code == 0
        code, out, _ = run_cli(capsys, "tdoa", "--signals", tmp_path / "sig.f64", "--raw",
                               "--sidecar", tmp_path / "side.json", *band,
                               "--out", tmp_path / "raw.rd")
        assert code == 0 and "6 pairs from 4 channels" in out
        assert (tmp_path / "raw.rd").read_bytes() == (tmp_path / "csv.rd").read_bytes()

    def test_nonfinite_sample_fails_without_output(self, tmp_path, capsys):
        sigs = tone_burst_signals(np.array([1.0, 0.5]), ANECHOIC_MICROPHONES)
        sig_path = tmp_path / "sig.csv"
        write_signals_csv(sig_path, sigs)
        lines = sig_path.read_text().splitlines()
        row = lines[100].split(",")
        row[2] = "nan"  # channel 3
        lines[100] = ",".join(row)
        sig_path.write_text("\n".join(lines) + "\n")
        out_path = tmp_path / "rd.csv"
        code, out, err = run_cli(capsys, "tdoa", "--signals", sig_path,
                                 "--band", "150", "350", "--out", out_path)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: signal samples must be finite"]
        assert not out_path.exists()


class TestBenchAndPlot:
    def test_bench_identical_seeds_byte_identical(self, tmp_path, capsys):
        cfg = {
            "scenario": {
                "sensors": {"kind": "random", "m": 4, "lo": -10.0, "hi": 10.0},
                "source": [3.0, -2.0],
                "noise": {"f0": 1000.0, "c": 340.0},
            },
            "snr_grid": [0.0, 10.0],
            "trials": 10,
            "solver": "solvit",
            "init": "centroid",
            "seed": 9,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(capsys, "bench", "--config", cfg_path, "--out", out1)[0] == 0
        assert run_cli(capsys, "bench", "--config", cfg_path, "--out", out2)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["seed"] == 9

    @pytest.fixture
    def rmse_csv(self, tmp_path):
        csv = tmp_path / "rmse.csv"
        csv.write_text("sweep,rmse,crlb,failed\n0.0,0.5,0.25,0\n5.0,0.3,0.15,0\n")
        return csv

    def test_plot_gnuplot_script(self, tmp_path, capsys, rmse_csv):
        gp = tmp_path / "rmse.gp"
        code, _, _ = run_cli(capsys, "plot", "--input", rmse_csv, "--gnuplot", gp)
        assert code == 0
        assert "logscale" in gp.read_text()

    def test_plot_without_matplotlib_reports_one_line(self, tmp_path, capsys,
                                                      monkeypatch, rmse_csv):
        monkeypatch.setitem(sys.modules, "matplotlib", None)  # import raises
        png = tmp_path / "rmse.png"
        code, out, err = run_cli(capsys, "plot", "--input", rmse_csv, "--out", png)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: matplotlib is not installed; use --gnuplot FILE instead"]
        assert not png.exists()


    @pytest.fixture
    def stub_matplotlib(self, monkeypatch):
        """A matplotlib stand-in that records the backend and every drawing call."""
        calls = []

        class Axes:
            def __getattr__(self, name):  # semilogy, set_xlabel, set_ylabel, legend
                return lambda *args, **kwargs: calls.append((name, args, kwargs))

        class Figure:
            def savefig(self, path, **kwargs):
                calls.append(("savefig", (path,), kwargs))

        pyplot = types.ModuleType("matplotlib.pyplot")
        pyplot.subplots = lambda: (Figure(), Axes())
        mpl = types.ModuleType("matplotlib")
        mpl.use = lambda backend: calls.append(("use", (backend,), {}))
        mpl.pyplot = pyplot
        monkeypatch.setitem(sys.modules, "matplotlib", mpl)
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
        return calls

    def test_plot_with_matplotlib(self, tmp_path, capsys, monkeypatch, rmse_csv,
                                  stub_matplotlib):
        png = tmp_path / "out.png"
        code, out, _ = run_cli(capsys, "plot", "--input", rmse_csv, "--out", png)
        assert code == 0 and out == f"wrote {png}\n"
        assert stub_matplotlib[0] == ("use", ("Agg",), {})
        assert [c[1][0] for c in stub_matplotlib if c[0] == "savefig"] == [str(png)]
        drawn = [c for c in stub_matplotlib if c[0] == "semilogy"]
        assert [c[2]["label"] for c in drawn] == ["rmse", "crlb"]
        assert drawn[1][1][1] == [0.25, 0.15]

        # without --out the image is rmse.png; an all-NaN CRLB column is not drawn
        stub_matplotlib.clear()
        nan_csv = tmp_path / "nan.csv"
        nan_csv.write_text("sweep,rmse,crlb,failed\n0.0,0.5,nan,0\n5.0,0.3,nan,0\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "plot", "--input", nan_csv)
        assert code == 0 and out == "wrote rmse.png\n"
        assert [c[1][0] for c in stub_matplotlib if c[0] == "savefig"] == ["rmse.png"]
        assert [c[2]["label"] for c in stub_matplotlib if c[0] == "semilogy"] == ["rmse"]


class TestErrorReporting:
    def test_missing_file_single_line_exit_2(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "solve", "--scenario",
                                 tmp_path / "nope.json",
                                 "--measurements", tmp_path / "nope.csv")
        assert code == 2
        lines = [l for l in err.strip().splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("error: ")

    def test_bad_config_reported(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": {"x": 1}, "bogus": True}))
        code, _, err = run_cli(capsys, "bench", "--config", cfg_path,
                               "--out", tmp_path / "o.csv")
        assert code == 2
        assert "error:" in err


class TestParser:
    def test_shared_parser_gives_fresh_parser_output(self, tmp_path, capsys, monkeypatch,
                                                     zero_noise_scenario):
        scen_path, _ = zero_noise_scenario
        rd_path = tmp_path / "rd.csv"
        calls = [
            ["simulate", "--scenario", scen_path, "--out", rd_path],
            ["solve", "--scenario", scen_path, "--measurements", rd_path],
            ["solve", "--scenario", scen_path, "--measurements", rd_path, "--bogus-flag", "1"],
            ["solve", "--scenario", scen_path, "--measurements", rd_path, "--tol", "1e-9"],
        ]

        def run_all():
            results = []
            for argv in calls:
                try:
                    code = main([str(a) for a in argv])
                except SystemExit as exc:  # argparse rejects the bad flag
                    code = exc.code
                out = capsys.readouterr()
                results.append((code, out.out, out.err))
            return results

        shared = run_all()
        assert cli._shared_parser() is cli._shared_parser()
        assert cli.build_parser() is not cli.build_parser()
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        assert run_all() == shared
        assert [code for code, _, _ in shared] == [0, 0, 2, 0]
        assert "unrecognized arguments: --bogus-flag 1" in shared[2][2]
