"""Every frozen record stores its fields through one helper, scenario._freeze.

_freeze sets each field and keeps an ndarray as a read-only copy, so no
array a caller passed, or keeps, reaches into a record.  The source is
checked for object.__setattr__ (the one way past a frozen dataclass's
__setattr__) by the AST walk of test_one_loop, and each record that holds
arrays is checked for read-only copies of what it was given.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from mmloc import (BoundQuantities, CrlbReport, NoiseModel, RangeDiffSet, Scenario, SensorArray,
                   SignalRecord, SolveTrace, circular_array)
from test_one_loop import sites

SRC = Path(__file__).resolve().parents[1] / "src" / "mmloc"


def frozen_stores(source, name="<source>"):
    """file:function of each reference to object.__setattr__, called or not,
    named by the innermost enclosing function (None at module level)."""
    def match(node, func, _):
        if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object"):
            return f"{func}"
        return None

    return sites(source, name, match)


def test_store_checker_sees_every_site():
    source = """
object.__setattr__(record, "a", 1)

class Record:
    def __post_init__(self):
        object.__setattr__(self, "x", 1)
        setattr(self, "y", 2)
        store = object.__setattr__
        super().__setattr__("z", 3)
"""
    assert frozen_stores(source) == ["<source>:None", "<source>:__post_init__",
                                     "<source>:__post_init__"]


def test_only_freeze_stores_a_frozen_field():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += frozen_stores(path.read_text(), path.name)
    assert found == ["scenario.py:_freeze"]


NOISE = NoiseModel(sigma2=1.0, f0=1000.0, c=340.0)

# record -> (the arrays it is given, by field, and its other arguments)
RECORDS = {
    "SensorArray": (SensorArray, {"sensors": np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])},
                    {}),
    "RangeDiffSet": (RangeDiffSet, {"i": np.array([1, 1, 3]), "j": np.array([2, 3, 2]),
                                    "values": np.array([0.5, 0.0, 2.0])}, {"m": 3}),
    "Scenario": (Scenario, {"source": np.array([1.0, 2.0])},
                 {"array": circular_array(4, 10.0), "noise": NOISE}),
    "SolveTrace": (SolveTrace, {"iterates": np.array([[0.0, 1.0], [2.0, 3.0]]),
                                "objectives": np.array([5.0, 4.0])}, {}),
    "SignalRecord": (SignalRecord, {"samples": np.linspace(0.0, 1.0, 8)}, {"fs": 100.0}),
    "CrlbReport": (CrlbReport, {"fisher": np.array([[2.0, 0.5], [0.5, 1.0]])},
                   {"cov_rank": 3, "rmse_bound": 1.5}),
    "BoundQuantities": (BoundQuantities, {"w": np.array([[1.0, 0.0], [0.0, 1.0]]),
                                          "s": np.array([0.25]),
                                          "Q": np.array([[[0.0, 1.0], [0.0, 0.0]]])}, {}),
}


@pytest.mark.parametrize("record", RECORDS)
def test_a_record_stores_read_only_copies(record):
    make, arrays, other = RECORDS[record]
    kept = {name: given.copy() for name, given in arrays.items()}
    built = make(**arrays, **other)
    for name, given in arrays.items():
        stored = getattr(built, name)
        assert not stored.flags.writeable
        assert not np.shares_memory(given, stored)
        given.flat[0] += 99.0  # the caller's array is its own
        np.testing.assert_array_equal(stored, kept[name])
