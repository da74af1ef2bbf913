"""Pinned sweep bytes: (config, seed) fixes every byte of the RMSE CSV.

tests/data/sweep_pins/ holds the write_rmse_csv output of run_rmse_sweep on
the criterion-7 scenario (random m = 5 array and uniform source drawn from
seed 2026, tol 1e-8, max_iter 2000) at 3 SNRs x 4 trials, with sfp from
the centroid and from random starts.  sfp writes NaN in the CRLB column,
so no LAPACK result enters the bytes: they come from the seeded draws, the
measurement sets, the solver arithmetic and the RMSE sums alone.

Regenerate (only on purpose, saying in the change why the bytes moved):

    PYTHONPATH=src python tests/test_sweep_pins.py
"""

import pathlib

import pytest
from mmloc import ExperimentConfig, run_rmse_sweep, write_rmse_csv

PIN_DIR = pathlib.Path(__file__).with_name("data") / "sweep_pins"
INITS = ("centroid", "random")


def sweep_config(init):
    return ExperimentConfig(
        scenario={
            "sensors": {"kind": "random", "m": 5, "lo": -50.0, "hi": 50.0},
            "source": {"uniform": [-10.0, 10.0]},
            "noise": {"f0": 1000.0, "c": 340.0},
        },
        snr_grid=[-10.0, -5.0, 0.0],
        trials=4,
        solver="sfp",
        init=init,
        seed=2026,
        tol=1e-8,
        max_iter=2000,
    )


def sweep_bytes(init, path):
    write_rmse_csv(path, run_rmse_sweep(sweep_config(init)))
    return path.read_bytes()


@pytest.mark.parametrize("init", INITS)
def test_sweep_csv_matches_pin(tmp_path, init):
    pinned = (PIN_DIR / f"sfp_{init}.csv").read_bytes()
    assert pinned.count(b"\n") == 4  # header and one row per SNR
    assert sweep_bytes(init, tmp_path / "rmse.csv") == pinned


if __name__ == "__main__":
    PIN_DIR.mkdir(exist_ok=True)
    for init in INITS:
        sweep_bytes(init, PIN_DIR / f"sfp_{init}.csv")
