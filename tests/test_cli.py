"""Command-line interface, exercised in-process through main(argv); one test
runs `python -m mmloc` as a child process, so that it can be given a stdin."""

import json
import os
import runpy
import subprocess
import sys
import types
from pathlib import Path

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

    @pytest.mark.parametrize("sidecar, reason", [
        ({"channels": 4}, "missing sidecar fields: ['fs']"),
        ({"fs": TONE_FS}, "missing sidecar fields: ['channels']"),
        ({"channels": 4, "fs": TONE_FS, "extra": 1}, "unknown sidecar fields: ['extra']"),
        (7, "sidecar must be an object, not int"),
    ], ids=["no fs", "no channels", "extra key", "a number"])
    def test_raw_sidecar_key_fails_by_name(self, tmp_path, capsys, sidecar, reason):
        sigs = tone_burst_signals(np.array([1.0, 0.5]), ANECHOIC_MICROPHONES)
        write_signals_raw(tmp_path / "sig.f64", sigs, sidecar=tmp_path / "side.json")
        (tmp_path / "side.json").write_text(json.dumps(sidecar))
        code, out, err = run_cli(capsys, "tdoa", "--signals", tmp_path / "sig.f64", "--raw",
                                 "--sidecar", tmp_path / "side.json", "--out", tmp_path / "rd.csv")
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {reason}"]
        assert not (tmp_path / "rd.csv").exists()

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

    def test_infinite_c_fails_by_name(self, tmp_path, capsys):
        sig_path = tmp_path / "sig.csv"
        write_signals_csv(sig_path, tone_burst_signals(np.array([1.0, 0.5]),
                                                       ANECHOIC_MICROPHONES))
        out_path = tmp_path / "rd.csv"
        code, out, err = run_cli(capsys, "tdoa", "--signals", sig_path, "--c", "inf",
                                 "--out", out_path)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: c must be finite and > 0"]
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

    @pytest.mark.parametrize("solver, init", [("solvit", "proposed"), ("sfp", "centroid")])
    def test_bench_reads_a_scenario_file_as_its_inline_form(self, tmp_path, capsys, solver,
                                                            init):
        source = [3.0, -2.0]
        noise = {"sigma2": 0.0, "f0": 1000.0, "c": 340.0}
        save_scenario(tmp_path / "scen.json", Scenario(circular_array(5, radius=10.0),
                                                       np.array(source), NoiseModel(**noise)))
        inline = {"sensors": {"kind": "circular", "m": 5, "radius": 10.0},
                  "source": source, "noise": noise}
        outs = []
        by_file = {"file": str(tmp_path / "scen.json")}
        for name, scenario in (("inline", inline), ("file", by_file)):
            cfg_path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            cfg_path.write_text(json.dumps({"scenario": scenario, "snr_grid": [-10.0, 0.0, 10.0],
                                            "trials": 12, "solver": solver, "init": init,
                                            "seed": 3}))
            assert run_cli(capsys, "bench", "--config", cfg_path, "--out", out)[0] == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 4

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


class TestModuleEntry:
    """`python -m mmloc` runs main() and exits with its status."""

    @staticmethod
    def run_module(monkeypatch, capsys, *argv):
        monkeypatch.setattr(sys, "argv", ["mmloc", *map(str, argv)])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("mmloc", run_name="__main__")
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    def test_crlb_exits_0(self, monkeypatch, capsys, zero_noise_scenario):
        scen_path, _ = zero_noise_scenario
        code, out, err = self.run_module(monkeypatch, capsys, "crlb", "--scenario", scen_path)
        assert (code, err) == (0, "")
        assert out.startswith("rmse_bound=")

    def test_missing_scenario_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys):
        code, out, err = self.run_module(monkeypatch, capsys, "crlb", "--scenario",
                                         tmp_path / "missing.json")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ")

    # document -> (its text, the command reading it at {path}, message): a JSON
    # document, or a config's scenario, that is not an object is refused by name
    DOCUMENT_CASES = {
        "scenario file of a number": ("5", ["crlb", "--scenario", "{path}"],
                                      "scenario must be an object, not int"),
        "scenario file of a list": ("[1, 2]", ["crlb", "--scenario", "{path}"],
                                    "scenario must be an object, not list"),
        "scenario file of a string": ('"x"', ["crlb", "--scenario", "{path}"],
                                      "scenario must be an object, not str"),
        "config of a list": ("[]", ["bench", "--config", "{path}", "--out", "{out}"],
                             "config must be an object, not list"),
        "config scenario of a list": ('{"scenario": [1], "snr_grid": [0.0]}',
                                      ["bench", "--config", "{path}", "--out", "{out}"],
                                      "scenario must be an object, not list"),
    }

    @pytest.mark.parametrize("case", DOCUMENT_CASES)
    def test_document_that_is_not_an_object_exits_2_by_name(self, tmp_path, monkeypatch,
                                                            capsys, case):
        text, argv, message = self.DOCUMENT_CASES[case]
        path, out_csv = tmp_path / "doc.json", tmp_path / "out.csv"
        path.write_text(text)
        code, out, err = self.run_module(monkeypatch, capsys,
                                         *(a.format(path=path, out=out_csv) for a in argv))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_config_scenario_file_of_a_number_reads_no_stdin(self, tmp_path):
        """{"file": 0} would open file descriptor 0: with a valid scenario on
        stdin, `python -m mmloc bench` still refuses it in one line."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"file": 0}, "snr_grid": [0.0], "trials": 2}))
        scen = {"n": 2, "sensors": [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], "source": [1.0, 2.0],
                "noise": {"sigma2": 0.0, "f0": 1000.0, "c": 340.0}, "seed": None}
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run([sys.executable, "-m", "mmloc", "bench", "--config", str(cfg),
                              "--out", str(tmp_path / "rmse.csv")],
                             input=json.dumps(scen), capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr.splitlines() == ["error: file must be a string, not int"]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


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
