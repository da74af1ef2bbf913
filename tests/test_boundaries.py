"""Bad input fails loudly at the boundary, never as a NaN estimate.

Positions and ranges are checked for size and finiteness on Python floats
(as_position and objective._check_ranges); these tests hold every entry
point that takes them to those messages, for each non-finite value.
"""

import numpy as np
import pytest

from mmloc import f_rls, rangediffs_from_ranges, sfp_solve, solvit_solve, true_ranges
from mmloc.scenario import as_position
from conftest import make_instance, make_range_instance

BAD = [np.nan, np.inf, -np.inf]


def with_bad(values, k, bad):
    out = np.array(values, dtype=float)
    out[k] = bad
    return out


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("k", [0, 1])
def test_nonfinite_position_is_rejected(bad, k):
    array, _, rd = make_instance(1, m=4)
    _, _, r = make_range_instance(1, m=4)
    x0 = with_bad([1.0, 2.0], k, bad)
    calls = [lambda: as_position(x0), lambda: as_position(x0.tolist(), 2),
             lambda: sfp_solve(x0, array, r), lambda: solvit_solve(x0, array, rd),
             lambda: f_rls(x0, array, r)]
    for call in calls:
        with pytest.raises(ValueError, match="^position coordinates must be finite$"):
            call()


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("k", [0, 3])
def test_nonfinite_range_is_rejected(bad, k):
    array, source, _ = make_range_instance(2, m=4)
    r = with_bad(true_ranges(source, array), k, bad)
    for call in (lambda: sfp_solve(None, array, r), lambda: sfp_solve([0.5, 0.5], array, r),
                 lambda: f_rls(source, array, r), lambda: f_rls(source, array, r.tolist())):
        with pytest.raises(ValueError, match="^ranges must be finite$"):
            call()
    # solvit's measurements are formed from the ranges, and refuse them there
    with pytest.raises(ValueError, match="^range differences must be finite$"):
        rangediffs_from_ranges(r)


@pytest.mark.parametrize("x0, n, message", [
    ([1.0], None, "position must have 2 or 3 coordinates, got 1"),
    ([1.0, 2.0, 3.0, 4.0], None, "position must have 2 or 3 coordinates, got 4"),
    ([[1.0, 2.0], [3.0, 4.0]], None, "position must have 2 or 3 coordinates, got 4"),
    ([], None, "position must have 2 or 3 coordinates, got 0"),
    ([1.0, 2.0, 3.0], 2, "position has dimension 3, expected 2"),
    ([1.0, 2.0], 3, "position has dimension 2, expected 3"),
    # size first: a wrong-size position reports its size, not its values
    ([np.nan], None, "position must have 2 or 3 coordinates, got 1"),
    # finiteness before the dimension
    ([1.0, np.inf, 3.0], 2, "position coordinates must be finite"),
])
def test_wrong_size_position_keeps_its_error(x0, n, message):
    with pytest.raises(ValueError) as exc:
        as_position(x0, n)
    assert str(exc.value) == message


@pytest.mark.parametrize("x0, message", [
    ([1.0, 2.0, 3.0], "position has dimension 3, expected 2"),
    ([1.0], "position must have 2 or 3 coordinates, got 1"),
])
def test_solvers_keep_the_size_errors(x0, message):
    array, _, rd = make_instance(3, m=4)
    _, _, r = make_range_instance(3, m=4)
    for call in (lambda: sfp_solve(x0, array, r), lambda: solvit_solve(x0, array, rd),
                 lambda: f_rls(x0, array, r)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        sfp_solve(None, array, r[:3])
    assert str(exc.value) == "3 ranges for 4 sensors"
