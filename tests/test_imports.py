"""Import structure: only the TDOA front-end loads scipy, and only when it
runs; no module imports another mmloc module inside a function.

The scipy tests start a fresh interpreter each, because the test process
itself has long since imported scipy.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_REPORT = """
import json
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules,
                  "scipy.signal": "scipy.signal" in sys.modules}))
"""


def run_child(code, *args):
    """Run `code` in a fresh interpreter with src/ on the path; return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    report = run_child("import sys\nimport mmloc, mmloc.cli\ncodes = []\n" + _REPORT)
    assert report == {"codes": [], "scipy": False, "scipy.signal": False}


def test_bench_and_solve_load_no_scipy(tmp_path):
    cfg = {
        "scenario": {
            "sensors": {"kind": "random", "m": 4, "lo": -10.0, "hi": 10.0},
            "source": [3.0, -2.0],
            "noise": {"f0": 1000.0, "c": 340.0},
        },
        "snr_grid": [0.0],
        "trials": 3,
        "solver": "solvit",
        "init": "proposed",
        "seed": 9,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = """
import sys
import numpy as np
import mmloc
from mmloc.cli import main

work = sys.argv[1]
scen = f"{work}/scen.json"
mmloc.save_scenario(scen, mmloc.Scenario(
    array=mmloc.circular_array(5, radius=10.0), source=np.array([1.0, 5.0]),
    noise=mmloc.NoiseModel(sigma2=0.0, f0=1000.0, c=340.0), seed=7))
codes = [
    main(["simulate", "--scenario", scen, "--kind", "rangediffs", "--out", f"{work}/rd.csv"]),
    main(["simulate", "--scenario", scen, "--kind", "ranges", "--out", f"{work}/r.csv"]),
    main(["bench", "--config", f"{work}/cfg.json", "--out", f"{work}/rmse.csv"]),
    main(["solve", "--scenario", scen, "--measurements", f"{work}/rd.csv"]),
    main(["solve", "--scenario", scen, "--measurements", f"{work}/r.csv",
          "--solver", "sfp"]),
]
""" + _REPORT
    report = run_child(code, tmp_path)
    assert report == {"codes": [0] * 5, "scipy": False, "scipy.signal": False}


def test_tdoa_loads_scipy_signal_on_first_use(tmp_path):
    code = """
import sys
import numpy as np
from mmloc import tdoa
from mmloc.cli import main

sig = f"{sys.argv[1]}/sig.csv"
tdoa.write_signals_csv(sig, tdoa.tone_burst_signals(np.array([1.0, 0.5]),
                                                    tdoa.ANECHOIC_MICROPHONES))
codes = ["scipy" in sys.modules]
codes.append(main(["tdoa", "--signals", sig, "--band", "150", "350",
                   "--out", f"{sys.argv[1]}/rd.csv"]))
""" + _REPORT
    report = run_child(code, tmp_path)
    assert report == {"codes": [False, 0], "scipy": True, "scipy.signal": True}


def test_no_relative_import_inside_a_function():
    """A function-level import of a sibling module hides an import cycle;
    the layering stays a DAG only if every such import sits at module level."""
    found = []
    for path in sorted((SRC / "mmloc").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {fn.name}" for node in ast.walk(fn)
                          if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert found == []
