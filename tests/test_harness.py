"""Experiment runner: config validation, reproducibility, sweep semantics."""

import copy
import json
import math
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

import mmloc
import mmloc.crlb
import mmloc.initializer
import mmloc.scenario
import mmloc.sfp
import mmloc.solvit
from mmloc import (
    ExperimentConfig,
    NoiseModel,
    RmseRow,
    Scenario,
    circular_array,
    load_scenario,
    read_rmse_csv,
    run_rmse_sweep,
    run_trace,
    save_scenario,
    write_metadata,
    write_rmse_csv,
)
from mmloc.cli import main
from mmloc.harness import (_measurements, _resolve_scenario, _sigma2_of, solve_one,
                           start_rule)
from mmloc.scenario import range_noise_std, true_ranges
from mmloc.solvit import SINGULAR_SYSTEM

SIM1_SCENARIO = {
    "sensors": {"kind": "random", "m": 4, "lo": -10.0, "hi": 10.0},
    "source": [10.0, 10.0],
    "noise": {"f0": 1000.0, "c": 340.0},
}


def small_config(**kw):
    base = dict(scenario=dict(SIM1_SCENARIO), snr_grid=[0.0, 10.0], trials=10,
                solver="solvit", init="centroid", seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_sfp_rejects_proposed_init(self):
        with pytest.raises(ValueError):
            small_config(solver="sfp", init="proposed")
        with pytest.raises(ValueError):
            small_config(solver="sfp", init="both")

    def test_start_rule(self):
        assert start_rule("solvit", None) == "proposed"
        assert start_rule("sfp", None) == "centroid"
        assert start_rule("sfp", "random") == "random"
        for init in ("proposed", "both"):
            with pytest.raises(ValueError, match="sfp consumes ranges"):
                start_rule("sfp", init)
        with pytest.raises(ValueError, match="init must be one of"):
            start_rule("solvit", "warmstart")

    @pytest.mark.parametrize("solver, start", [("solvit", "proposed"), ("sfp", "centroid")])
    def test_a_config_without_init_keeps_the_solvers_start(self, tmp_path, capsys, solver,
                                                           start):
        doc = {"scenario": SIM1_SCENARIO, "snr_grid": [0.0, 10.0], "trials": 4,
               "solver": solver, "seed": 5}
        outs = []
        for name, extra in (("default", {}), ("named", {"init": start})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(dict(doc, **extra)))
            assert ExperimentConfig.from_json(path).init == start
            out = tmp_path / f"{name}.csv"
            assert main(["bench", "--config", str(path), "--out", str(out)]) == 0
            meta = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
            assert meta["solver"]["init"] == start
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]
        small_config(solver=solver, init=None).to_json(tmp_path / "cfg.json")
        assert json.loads((tmp_path / "cfg.json").read_text())["init"] == start

    def test_fixed_requires_point(self):
        with pytest.raises(ValueError):
            small_config(init="fixed")
        cfg = small_config(init="fixed", init_point=[1.0, 2.0])
        assert cfg.init_point == [1.0, 2.0]

    def test_trace_only_init_is_refused_with_a_grid(self, tmp_path, capsys, monkeypatch):
        # refused when the config is built: a sweep has no "both", and
        # `mmloc bench` then builds no measurement set and no CRLB
        for grids in ({}, {"snr_grid": None, "freq_grid": [500.0, 1000.0]}):
            with pytest.raises(ValueError, match="^init 'both' not valid here$"):
                small_config(init="both", **grids)
        assert small_config(init="both", snr_grid=None).init == "both"
        calls = []
        for module, name in ((mmloc.scenario, "_rangediff_rows"),
                             (mmloc.scenario, "rangediffs_from_ranges"), (mmloc.crlb, "fisher")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": SIM1_SCENARIO, "snr_grid": [0.0, 10.0],
                                        "trials": 2, "init": "both"}))
        assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == "error: init 'both' not valid here\n"
        assert calls == []

    def test_init_point_only_with_a_fixed_start(self, tmp_path):
        # the sidecar names init_point only for the run that starts there
        for init in ("proposed", "random", "centroid", "both"):
            with pytest.raises(ValueError, match=f"^init_point is used only with init 'fixed', "
                                                 f"not with init '{init}'$"):
                small_config(init=init, init_point=[1.0, 2.0], snr_grid=None)
        with pytest.raises(ValueError, match="^init_point is used only with init 'fixed', "
                                             "not with init 'proposed'$"):
            small_config(init=None, init_point=[1.0, 2.0])
        for init, point in (("fixed", [1.0, 2.0]), ("random", None)):
            write_metadata(tmp_path / "meta.json", small_config(init=init, init_point=point))
            solver = json.loads((tmp_path / "meta.json").read_text())["solver"]
            assert (solver["init"], solver["init_point"]) == (init, point)

    def test_unknown_solver_and_init(self):
        with pytest.raises(ValueError):
            small_config(solver="newton")
        with pytest.raises(ValueError):
            small_config(init="warmstart")

    def test_json_roundtrip_and_unknown_fields(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        back = ExperimentConfig.from_json(path)
        assert back == cfg
        # numbers are checked, not converted: an int stays an int in every file
        scenario = copy.deepcopy(SIM1_SCENARIO)
        scenario["noise"]["c"] = 340
        cfg_int = small_config(tol=1, scenario=scenario)
        cfg_int.to_json(tmp_path / "int.json")
        write_metadata(tmp_path / "int.meta.json", cfg_int)
        doc = json.loads((tmp_path / "int.json").read_text())
        assert type(doc["tol"]) is int and type(doc["scenario"]["noise"]["c"]) is int
        assert type(json.loads((tmp_path / "int.meta.json").read_text())["solver"]["tol"]) is int
        doc = json.loads(path.read_text())
        doc["typo_field"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(path)

    def test_a_built_config_is_frozen(self):
        """A field set after the checks would reach the runs unchecked."""
        cfg = small_config()
        for field in fields(cfg):
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, field.name, getattr(cfg, field.name))
        with pytest.raises(FrozenInstanceError):
            cfg.trials = 0
        with pytest.raises(FrozenInstanceError):
            small_config(solver="sfp", init="centroid").init = "proposed"
        # the resolution the runs read is no field: == and repr read the fields alone
        assert cfg == small_config() and "_resolved" not in repr(cfg)

    def test_a_config_changed_in_place_writes_what_it_ran(self, tmp_path):
        """A grid or scenario changed in place after the checks reaches
        neither the run nor the written config, which reruns to the same CSV."""
        cfg = small_config(scenario={"sensors": {"kind": "circular", "m": 5, "radius": 10.0},
                                     "source": [3.0, -2.0]}, snr_grid=[0.0], trials=5)
        cfg.snr_grid.append(10.0)
        cfg.scenario["source"] = [50.0, 50.0]
        write_rmse_csv(tmp_path / "run.csv", run_rmse_sweep(cfg))
        cfg.to_json(tmp_path / "cfg.json")
        again = ExperimentConfig.from_json(tmp_path / "cfg.json")
        assert again.snr_grid == [0.0] and again.scenario["source"] == [3.0, -2.0]
        rows = run_rmse_sweep(again)
        assert len(rows) == 1
        write_rmse_csv(tmp_path / "again.csv", rows)
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()

    def test_an_init_point_changed_in_place_reaches_no_run(self, tmp_path):
        """The runs and the metadata read the init_point the checks saw."""
        cfg = small_config(init="fixed", init_point=[1.0, 2.0], trials=3)
        trace_cfg = small_config(snr_grid=None, init="fixed", init_point=[1.0, 2.0])
        rows = run_rmse_sweep(cfg)
        cfg.init_point[0] = trace_cfg.init_point[0] = 9.0
        assert run_rmse_sweep(cfg) == rows
        _, outcome = run_trace(trace_cfg)["fixed"]
        assert outcome.trace.iterates[0].tolist() == [1.0, 2.0]
        write_metadata(tmp_path / "meta.json", cfg)
        assert json.loads((tmp_path / "meta.json").read_text())["solver"]["init_point"] == \
            [1.0, 2.0]

    def test_the_scenario_file_is_read_once(self, tmp_path, capsys, monkeypatch):
        """Building a config resolves its scenario, and the run reads that
        resolution: one read of the file per bench request and per trace."""
        reads = []

        def counted(*args, **kwargs):
            reads.append(args)
            return load_scenario(*args, **kwargs)

        monkeypatch.setattr(mmloc.scenario, "load_scenario", counted)
        scen_path = tmp_path / "scen.json"
        save_scenario(scen_path, Scenario(circular_array(5, radius=10.0), np.array([1.0, 5.0]),
                                          NoiseModel(sigma2=0.0, f0=1000.0, c=340.0)))
        cfg = small_config(scenario={"file": str(scen_path)}, trials=2)
        cfg.to_json(tmp_path / "cfg.json")
        reads.clear()
        assert main(["bench", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "rmse.csv")]) == 0
        assert len(reads) == 1
        reads.clear()
        run_trace(replace(cfg, snr_grid=None, init="both"))
        assert len(reads) == 1
        capsys.readouterr()

    def test_counts_must_be_integers(self, tmp_path, capsys):
        for field in ("trials", "max_iter"):
            for bad in (2.5, True, "10"):
                with pytest.raises(ValueError, match=f"{field} must be an integer"):
                    small_config(**{field: bad})
        cfg = small_config(trials=np.int64(3), max_iter=np.int64(40))
        assert (cfg.trials, cfg.max_iter) == (3, 40)
        assert type(cfg.trials) is int and type(cfg.max_iter) is int
        # a bench config with "max_iter": 1e3 fails when it is read, not in the MM loop
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        path.write_text(json.dumps(dict(json.loads(path.read_text()), max_iter=1e3)))
        assert main(["bench", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == "error: max_iter must be an integer, got 1000.0\n"

    # (document edited, edit, error message): each input used to run silently,
    # or to fail only once the sweep ran
    LOUD_CASES = {
        "noise key typo": ("config", lambda d: d["scenario"]["noise"].update(fs_factr=40),
                           "unknown noise fields: ['fs_factr']"),
        "n on a circular array": ("config", lambda d: d["scenario"].update(
            sensors={"kind": "circular", "m": 5, "radius": 10.0, "n": 3}),
            "circular_array() got an unexpected keyword argument 'n'"),
        "fractional m": ("config", lambda d: d["scenario"]["sensors"].update(m=5.7),
                         "m must be an integer, got 5.7"),
        "scenario key typo": ("config", lambda d: d["scenario"].update(nosie={"f0": 500.0}),
                              "unknown scenario fields: ['nosie']"),
        "extra source key": ("config", lambda d: d["scenario"].update(
            source={"uniform": [-5.0, 5.0], "seed": 3}), "unknown source fields: ['seed']"),
        "no sensors in the scenario": ("config", lambda d: d["scenario"].pop("sensors"),
                                       "missing scenario fields: ['sensors']"),
        "no box in the source": ("config", lambda d: d["scenario"].update(source={}),
                                 "missing source fields: ['uniform']"),
        "zero tol": ("config", lambda d: d.update(tol=0), "tol must be finite and > 0"),
        "bool tol": ("config", lambda d: d.update(tol=True), "tol must be real number, not bool"),
        "numeric string tol": ("config", lambda d: d.update(tol="1e-4"),
                               "tol must be real number, not str"),
        "null tol": ("config", lambda d: d.update(tol=None),
                     "tol must be real number, not NoneType"),
        "huge int tol": ("config", lambda d: d.update(tol=10**400),
                         "tol is beyond the float range"),
        "null snr_db": ("config", lambda d: d.update(snr_db=None),
                        "snr_db must be real number, not NoneType"),
        "null in the SNR grid": ("config", lambda d: d.update(snr_grid=[0.0, None]),
                                 "snr_db must be real number, not NoneType"),
        "numeric string radius": ("config", lambda d: d["scenario"].update(
            sensors={"kind": "circular", "m": 5, "radius": "5"}),
            "radius must be real number, not str"),
        "bool radius": ("config", lambda d: d["scenario"].update(
            sensors={"kind": "circular", "m": 5, "radius": True}),
            "radius must be real number, not bool"),
        "null radius": ("config", lambda d: d["scenario"].update(
            sensors={"kind": "circular", "m": 5, "radius": None}),
            "radius must be real number, not NoneType"),
        "numeric string lo": ("config", lambda d: d["scenario"]["sensors"].update(lo="0"),
                              "lo must be real number, not str"),
        "bool lo": ("config", lambda d: d["scenario"]["sensors"].update(lo=True),
                    "lo must be real number, not bool"),
        "numeric string hi": ("config", lambda d: d["scenario"]["sensors"].update(hi="10"),
                              "hi must be real number, not str"),
        "bool hi": ("config", lambda d: d["scenario"]["sensors"].update(hi=True),
                    "hi must be real number, not bool"),
        "bool in the uniform source box": ("config", lambda d: d["scenario"].update(
            source={"uniform": [True, 5.0]}), "uniform must be real number, not bool"),
        "bool f0 in the noise": ("config", lambda d: d["scenario"]["noise"].update(f0=True),
                                 "f0 must be real number, not bool"),
        "numeric string c in the noise": ("config", lambda d: d["scenario"]["noise"].update(
            c="340"), "c must be real number, not str"),
        "fractional seed": ("config", lambda d: d.update(seed=5.7),
                            "seed must be an integer, got 5.7"),
        "two sweep grids": ("config", lambda d: d.update(freq_grid=[500.0, 1000.0]),
                            "give at most one of snr_grid / freq_grid"),
        "fractional n in the scenario file": ("scenario file", lambda d: d.update(n=2.5),
                                              "n must be an integer, got 2.5"),
        "noise key typo in the scenario file": (
            "scenario file", lambda d: d["noise"].update(fs_factr=8.0),
            "unknown noise fields: ['fs_factr']"),
        "unknown key in the scenario file": ("scenario file", lambda d: d.update(sede=4),
                                             "unknown scenario fields: ['sede']"),
        "no noise in the scenario file": ("scenario file", lambda d: d.pop("noise"),
                                          "missing scenario fields: ['noise']"),
        "no sensors in the scenario file": ("scenario file", lambda d: d.pop("sensors"),
                                            "missing scenario fields: ['sensors']"),
        "bool sigma2 in the scenario file": ("scenario file", lambda d: d["noise"].update(
            sigma2=True), "sigma2 must be real number, not bool"),
        "noise list in the scenario file": ("scenario file", lambda d: d.update(
            noise=[0.0, 1000.0, 340.0]), "noise must be an object, not list"),
        "no sigma2 in the scenario file noise": ("scenario file", lambda d: d["noise"].pop(
            "sigma2"), "missing noise fields: ['sigma2']"),
        "coordinates of one sensor": ("config", lambda d: d["scenario"].update(
            sensors=[[0.0, 0.0]]), "need at least 2 sensors, got 1"),
        "three values in the uniform source box": ("config", lambda d: d["scenario"].update(
            source={"uniform": [-5.0, 0.0, 5.0]}),
            "uniform must be two bounds [lo, hi], got [-5.0, 0.0, 5.0]"),
        "noise list": ("config", lambda d: d["scenario"].update(noise=[1000.0, 340.0]),
                       "noise must be an object, not list"),
        "numeric string fs_factor in the scenario file": (
            "scenario file", lambda d: d["noise"].update(fs_factor="8"),
            "fs_factor must be real number, not str"),
        "NaN snr_db": ("config", lambda d: d.update(snr_db=math.nan), "snr_db must be finite"),
        "-inf SNR in the grid": ("config", lambda d: d.update(snr_grid=[0.0, -math.inf]),
                                 "snr_db must be finite"),
        "NaN SNR in the grid": ("config", lambda d: d.update(snr_grid=[math.nan]),
                                "snr_db must be finite"),
        "non-numeric grid entry": ("config", lambda d: d.update(snr_grid=[0.0, "ten"]),
                                   "must be real number, not str"),
        "numeric string in the SNR grid": ("config", lambda d: d.update(snr_grid=["10"]),
                                           "must be real number, not str"),
        "bool in the SNR grid": ("config", lambda d: d.update(snr_grid=[10.0, True]),
                                 "must be real number, not bool"),
        "bool snr_db": ("config", lambda d: d.update(snr_db=True),
                        "must be real number, not bool"),
        "huge int snr_db": ("config", lambda d: d.update(snr_db=10**400),
                            "snr_db is beyond the float range"),
        "huge int in the SNR grid": ("config", lambda d: d.update(snr_grid=[0.0, -10**400]),
                                     "snr_db is beyond the float range"),
        "huge int in the frequency grid": ("config", lambda d: d.update(
            snr_grid=None, freq_grid=[500.0, 10**400]), "f0 is beyond the float range"),
        "numeric string in the frequency grid": ("config", lambda d: d.update(
            snr_grid=None, freq_grid=["500"]), "must be real number, not str"),
        "bool in the frequency grid": ("config", lambda d: d.update(
            snr_grid=None, freq_grid=[500.0, True]), "must be real number, not bool"),
        "zero frequency": ("config", lambda d: d.update(snr_grid=None, freq_grid=[500.0, 0.0]),
                           "f0 must be finite and > 0"),
        "negative frequency": ("config", lambda d: d.update(snr_grid=None, freq_grid=[-500.0]),
                               "f0 must be finite and > 0"),
        "NaN snr_db of a frequency sweep": ("config", lambda d: d.update(
            snr_grid=None, freq_grid=[500.0], snr_db=math.nan), "snr_db must be finite"),
        "init_point of the wrong dimension": ("config", lambda d: d.update(
            init="fixed", init_point=[1.0, 2.0, 3.0]), "position has dimension 3, expected 2"),
        "non-finite init_point": ("config", lambda d: d.update(init_point=[1.0, math.inf]),
                                  "position coordinates must be finite"),
        "non-numeric init_point": ("config", lambda d: d.update(init="fixed",
                                                                init_point=["one", 2.0]),
                                   "position must be real number, not str"),
        "text sensors": ("config", lambda d: d["scenario"].update(sensors="abc"),
                         "sensors must be real number, not str"),
        "numeric string coordinates": ("config", lambda d: d["scenario"].update(
            sensors=[["0", "0"], ["10", "0"], ["0", "10"]]), "sensors must be real number, not str"),
        "numeric string source": ("config", lambda d: d["scenario"].update(source=["1", "2"]),
                                  "position must be real number, not str"),
        "bool coordinate in the scenario file": (
            "scenario file", lambda d: d["sensors"][0].__setitem__(0, True),
            "sensors must be real number, not bool"),
        "numeric string source in the scenario file": (
            "scenario file", lambda d: d.update(source=["1.0", "5.0"]),
            "position must be real number, not str"),
        "scenario file of a number": ("config", lambda d: d.update(scenario={"file": 0}),
                                      "file must be a string, not int"),
        "scenario file of a list": ("config", lambda d: d.update(scenario={"file": ["s.json"]}),
                                    "file must be a string, not list"),
        "init_point with another init": ("config", lambda d: d.update(init_point=[1.0, 2.0]),
                                         "init_point is used only with init 'fixed'"),
        "init both with a grid": ("config", lambda d: d.update(init="both"),
                                  "init 'both' not valid here"),
    }

    @pytest.mark.parametrize("case", LOUD_CASES)
    def test_bad_input_fails_when_read(self, tmp_path, capsys, case):
        target, edit, message = self.LOUD_CASES[case]
        doc = {"scenario": copy.deepcopy(SIM1_SCENARIO), "snr_grid": [0.0], "trials": 2,
               "init": "centroid"}
        if target == "scenario file":
            scen_path = tmp_path / "scen.json"
            save_scenario(scen_path, Scenario(circular_array(5, radius=10.0),
                                              np.array([1.0, 5.0]),
                                              NoiseModel(sigma2=0.0, f0=1000.0, c=340.0), 7))
            scen_doc = json.loads(scen_path.read_text())
            edit(scen_doc)
            scen_path.write_text(json.dumps(scen_doc))
            with pytest.raises((TypeError, ValueError), match=re.escape(message)):
                load_scenario(scen_path)
            doc["scenario"] = {"file": str(scen_path)}
        else:
            edit(doc)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises((TypeError, ValueError), match=re.escape(message)):
            ExperimentConfig.from_json(cfg_path)
        out = tmp_path / "rmse.csv"
        assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err
        assert not out.exists() and not (tmp_path / "rmse.csv.meta.json").exists()

    def test_grid_exclusivity(self):
        cfg = small_config(snr_grid=None, freq_grid=None)
        with pytest.raises(ValueError):
            run_rmse_sweep(cfg)
        # two grids are rejected when the config is built, before any sweep
        with pytest.raises(ValueError, match="at most one of snr_grid / freq_grid"):
            small_config(freq_grid=[500.0])


class TestRunTrace:
    def test_both_initializations_share_measurements(self):
        cfg = small_config(init="both", snr_grid=None, freq_grid=None,
                           snr_db=10.0)
        results = run_trace(cfg)
        assert set(results) == {"proposed", "random"}
        # both runs solve the same instance: equal final objectives would be
        # a coincidence, but both must be finite and traces monotone
        for est, outcome in results.values():
            assert np.all(np.isfinite(est))
            assert np.all(np.diff(outcome.trace.objectives) <= 1e-9)

    def test_trace_files_written(self, tmp_path):
        cfg = small_config(init="both", snr_grid=None, freq_grid=None)
        run_trace(cfg, out_dir=tmp_path)
        assert (tmp_path / "trace_proposed.csv").exists()
        assert (tmp_path / "trace_random.csv").exists()

    def test_deterministic(self):
        # two runs of one config split its seed afresh: equal traces
        cfg = small_config(init="both", snr_grid=None, freq_grid=None)
        first, again = run_trace(cfg), run_trace(cfg)
        for name in ("proposed", "random"):
            np.testing.assert_array_equal(first[name][0], again[name][0])
            np.testing.assert_array_equal(first[name][1].trace.iterates,
                                          again[name][1].trace.iterates)
            np.testing.assert_array_equal(first[name][1].trace.objectives,
                                          again[name][1].trace.objectives)

    def test_proposed_usually_needs_fewer_iterations(self):
        """Starting from the hyperbola sample beats a random unit-box start
        in at least 60% of seeded runs."""
        wins = 0
        for seed in range(50):
            cfg = small_config(init="both", snr_grid=None, freq_grid=None,
                               seed=seed, snr_db=20.0, tol=1e-8,
                               max_iter=4000)
            results = run_trace(cfg)
            if (results["proposed"][1].iterations
                    <= results["random"][1].iterations):
                wins += 1
        assert wins >= 30

    def test_sfp_trace(self):
        cfg = small_config(solver="sfp", init="centroid", snr_grid=None,
                           freq_grid=None)
        results = run_trace(cfg)
        est, outcome = results["centroid"]
        assert np.all(np.diff(outcome.trace.objectives) <= 1e-9)


class TestRmseSweep:
    def test_deterministic_given_seed(self):
        cfg = small_config()
        rows1 = run_rmse_sweep(cfg)
        assert run_rmse_sweep(small_config()) == rows1
        # two runs of one config split its seed afresh: equal rows
        assert run_rmse_sweep(cfg) == rows1

    def test_seed_changes_results(self):
        rows1 = run_rmse_sweep(small_config(seed=5))
        rows2 = run_rmse_sweep(small_config(seed=6))
        assert rows1 != rows2

    def test_zero_noise_row_recovers_exactly(self):
        scenario = dict(SIM1_SCENARIO, source=[3.0, -2.0])
        cfg = small_config(scenario=scenario, snr_grid=[math.inf], trials=5,
                           init="proposed", tol=1e-12, max_iter=20000)
        rows = run_rmse_sweep(cfg)
        assert rows[0].rmse < 1e-5

    def test_rmse_decreases_with_snr(self):
        cfg = small_config(snr_grid=[-10.0, 20.0], trials=30, init="proposed")
        rows = run_rmse_sweep(cfg)
        assert rows[0].rmse > rows[1].rmse

    def test_sfp_rows_have_nan_bound(self):
        cfg = small_config(solver="sfp", init="centroid", trials=5)
        rows = run_rmse_sweep(cfg)
        assert all(math.isnan(r.crlb) for r in rows)

    def test_frequency_sweep(self):
        cfg = small_config(snr_grid=None, freq_grid=[500.0, 2000.0],
                           snr_db=10.0, trials=10, init="proposed")
        rows = run_rmse_sweep(cfg)
        assert [r.sweep for r in rows] == [500.0, 2000.0]
        # higher source frequency -> tighter delay estimates -> smaller bound
        assert rows[1].crlb < rows[0].crlb

    def test_common_random_numbers(self):
        """Trials share their noise realization across sweep values, so a
        duplicated SNR value must reproduce the same RMSE exactly."""
        cfg = small_config(snr_grid=[0.0, 0.0], trials=10, init="proposed")
        rows = run_rmse_sweep(cfg)
        assert rows[0].rmse == rows[1].rmse


def per_trial_sweep(cfg):
    """run_rmse_sweep's (sweep, rmse, failed) rows from a per-trial loop that
    picks each start through solve_one: the reference of the batched start."""
    scen_ss, _, trial_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    array, source, noise = _resolve_scenario(cfg.scenario, np.random.default_rng(scen_ss))
    d_true = true_ranges(source, array)
    states = []
    for ss in trial_ss.spawn(cfg.trials):
        rng = np.random.default_rng(ss)
        states.append((rng.standard_normal(array.m), int(rng.integers(2 ** 63))))
    rows = []
    for value in cfg.snr_grid:
        std = range_noise_std(source, array, replace(noise, sigma2=_sigma2_of(value)))
        sqerrs, failed = [], 0
        for eps, seed in states:
            row = d_true + eps * std
            est, outcome = solve_one(cfg.solver, cfg.init, array,
                                     _measurements(cfg.solver, row[None])[0], seed,
                                     cfg.solver_config(), cfg.init_point)
            if outcome.status == SINGULAR_SYSTEM:
                failed += 1
                continue
            sqerrs.append(sum(v * v for v in (est - source).tolist()))
        rows.append((value, math.sqrt(sum(sqerrs) / len(sqerrs)) if sqerrs else math.inf,
                     failed))
    return rows


class TestBatchedStart:
    """A sweep picks its starts for the whole sweep before it solves; its
    rows equal those of a per-trial solve_one loop, byte for byte."""

    LINEAR = {"sensors": {"kind": "linear"}, "source": [-5.0, 5.0],
              "noise": {"f0": 1000.0, "c": 340.0}}

    @pytest.mark.parametrize("solver, init", [
        ("solvit", "proposed"), ("solvit", "random"), ("solvit", "centroid"),
        ("solvit", "fixed"), ("sfp", "centroid"), ("sfp", "random"), ("sfp", "fixed")])
    @pytest.mark.parametrize("scenario", [SIM1_SCENARIO, LINEAR], ids=["random", "linear"])
    def test_rows_match_per_trial_loop(self, solver, init, scenario):
        cfg = small_config(scenario=dict(scenario), snr_grid=[-10.0, 0.0, 20.0], trials=8,
                           solver=solver, init=init,
                           init_point=[1.0, 2.0] if init == "fixed" else None)
        got = [(r.sweep, r.rmse, r.trials_failed) for r in run_rmse_sweep(cfg)]
        assert repr(got) == repr(per_trial_sweep(cfg))


class TestFailedTrials:
    """A trial whose solve ends singular_system is counted in `failed` and
    left out of the RMSE; a value whose every trial fails reads rmse=inf."""

    TRIALS = 4
    FAILED = ({1, 3}, {0, 1, 2, 3}, set())  # per sweep value, the failed trials

    @pytest.mark.parametrize("solver, init, module, name", [
        ("solvit", "proposed", mmloc.solvit, "solvit_solve"),
        ("sfp", "random", mmloc.sfp, "sfp_solve")])
    def test_failed_trials_are_counted_and_left_out(self, tmp_path, capsys, monkeypatch,
                                                     solver, init, module, name):
        solve = getattr(module, name)
        estimates = []

        def failing(*args):
            # sweeps solve value-major, trial-minor
            est, outcome = solve(*args)
            value, trial = divmod(len(estimates), self.TRIALS)
            estimates.append(est)
            if trial in self.FAILED[value]:
                outcome = replace(outcome, status=SINGULAR_SYSTEM)
            return est, outcome

        monkeypatch.setattr(module, name, failing)
        cfg = small_config(solver=solver, init=init, snr_grid=[0.0, 10.0, 20.0],
                           trials=self.TRIALS)
        rows = run_rmse_sweep(cfg)
        assert len(estimates) == 3 * self.TRIALS
        source = np.array(SIM1_SCENARIO["source"])
        for value, (row, failed) in enumerate(zip(rows, self.FAILED)):
            assert row.trials_failed == len(failed)
            total, kept = 0.0, 0
            for trial in range(self.TRIALS):
                if trial not in failed:
                    sqerr = 0.0
                    for v in (estimates[value * self.TRIALS + trial] - source).tolist():
                        sqerr += v * v
                    total += sqerr
                    kept += 1
            assert row.rmse == (math.sqrt(total / kept) if kept else math.inf)
        assert rows[1].rmse == math.inf and rows[1].trials_failed == self.TRIALS

        cfg_path, out = tmp_path / "cfg.json", tmp_path / "rmse.csv"
        cfg.to_json(cfg_path)
        estimates.clear()
        assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep,rmse,crlb,failed"
        assert [line.split(",")[3] for line in lines[1:]] == ["2", "4", "0"]
        assert lines[2].split(",")[1] == "inf"
        assert [(r.rmse, r.trials_failed) for r in read_rmse_csv(out)] == \
            [(r.rmse, r.trials_failed) for r in rows]


class TestOutputs:
    def test_rmse_csv_roundtrip(self, tmp_path):
        rows = [RmseRow(sweep=0.0, rmse=0.5, crlb=0.25, trials_failed=1),
                RmseRow(sweep=5.0, rmse=0.3, crlb=math.nan, trials_failed=0)]
        path = tmp_path / "rmse.csv"
        write_rmse_csv(path, rows)
        back = read_rmse_csv(path)
        assert back[0] == rows[0]
        assert back[1].sweep == 5.0 and math.isnan(back[1].crlb)

    def test_metadata_records_policies(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "meta.json"
        write_metadata(path, cfg)
        meta = json.loads(path.read_text())
        assert meta["seed"] == 5
        assert "PCG64" in meta["generator"]
        assert "unit signal power" in meta["snr_to_sigma2"]
        assert "excluded" in meta["failed_policy"]


    def test_metadata_records_the_package_version(self, tmp_path):
        write_metadata(tmp_path / "meta.json", small_config())
        assert json.loads((tmp_path / "meta.json").read_text())["version"] == mmloc.__version__


class TestSolvePath:
    def test_solves_reach_the_module_attributes(self, tmp_path, capsys, monkeypatch):
        """Sweeps, traces and `mmloc solve` call the solvers, the initializer
        and the measurement builders through their modules, so a wrapper put
        on the module attribute (as the benchmark's spans do) sees every call."""
        targets = ((mmloc.solvit, "solvit_solve"), (mmloc.sfp, "sfp_solve"),
                   (mmloc.initializer, "init_point"), (mmloc.initializer, "init_points"),
                   (mmloc.scenario, "rangediffs_from_ranges"),
                   (mmloc.scenario, "_rangediff_rows"))
        counts = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in targets:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))

        def calls(run):
            counts.update((name, 0) for _, name in targets)
            run()
            return tuple(counts[name] for _, name in targets)

        # a sweep solves trials x sweep values; solvit builds every set in one
        # pass and picks every proposed start in one batch
        assert calls(lambda: run_rmse_sweep(small_config(init="proposed", trials=3))) == \
            (6, 0, 0, 1, 0, 1)
        assert calls(lambda: run_rmse_sweep(small_config(solver="sfp", init="random",
                                                         trials=3))) == (0, 6, 0, 0, 0, 0)
        # a trace solves once per initialization, on one measurement draw; a
        # single solve runs the sweep's stages on one row, so its start comes
        # from init_points and its set from the one-pass builder
        trace_cfg = dict(snr_grid=None, freq_grid=None)
        assert calls(lambda: run_trace(small_config(init="both", **trace_cfg))) == \
            (2, 0, 0, 1, 0, 1)
        assert calls(lambda: run_trace(small_config(init="fixed", init_point=[1.0, 2.0],
                                                    **trace_cfg))) == (1, 0, 0, 0, 0, 1)
        assert calls(lambda: run_trace(small_config(solver="sfp", init="centroid",
                                                    **trace_cfg))) == (0, 1, 0, 0, 0, 0)

        scen_path = tmp_path / "scen.json"
        save_scenario(scen_path, Scenario(circular_array(5, radius=10.0), np.array([1.0, 5.0]),
                                          NoiseModel(sigma2=0.0, f0=1000.0, c=340.0)))
        rd_path = tmp_path / "rd.csv"
        r_path = tmp_path / "r.csv"
        assert main(["simulate", "--scenario", str(scen_path), "--out", str(rd_path)]) == 0
        assert main(["simulate", "--scenario", str(scen_path), "--kind", "ranges",
                     "--out", str(r_path)]) == 0
        solve = ["solve", "--scenario", str(scen_path), "--measurements"]
        assert calls(lambda: main(solve + [str(rd_path)])) == (1, 0, 0, 1, 0, 0)
        assert calls(lambda: main(solve + [str(rd_path), "--x0", "2", "3"])) == \
            (1, 0, 0, 0, 0, 0)
        assert calls(lambda: main(solve + [str(r_path), "--solver", "sfp"])) == (0, 1, 0, 0, 0, 0)
        capsys.readouterr()
