import warnings

import numpy as np
import pytest

from twlab import rk
from twlab.errors import OutOfRange, StepFailure


def test_exponential_decay_accuracy():
    sol = rk.solve_rk(lambda t, y: [-y[0]], 0.0, 2.0, [1.0], h_out=0.01)
    table = rk.HermiteTable(sol.t, sol.y, sol.yp)
    for t in (0.5, 1.0, 1.7):
        assert abs(table(t)[0] - np.exp(-t)) < 1e-13


def test_backward_direction_and_nodes():
    sol = rk.solve_rk(lambda t, y: [y[0]], 3.0, -1.0, [1.0], h_out=0.5)
    assert sol.t[0] == 3.0 and sol.t[-1] == -1.0
    assert len(sol.t) == 9
    assert abs(sol.y[0, -1] - np.exp(-4.0)) < 1e-13


def test_step_failure_on_singular_rhs():
    # y' = y^2, y(0) = 1 has y = 1/(1 - t), which blows up at t = 1
    with pytest.raises(StepFailure) as exc:
        rk.solve_rk(lambda t, y: [y[0] ** 2], 0.0, 2.0, [1.0], h_out=0.1)
    assert abs(exc.value.t - 1.0) < 1e-6


def test_step_budget_counts_rhs_calls():
    with pytest.raises(StepFailure):
        rk.solve_rk(lambda t, y: [-y[0]], 0.0, 20.0, [1.0], max_rhs_calls=100)
    sol = rk.solve_rk(lambda t, y: [-y[0]], 0.0, 20.0, [1.0], max_rhs_calls=10_000)
    assert 0 < sol.rhs_calls <= 10_000


def test_rtol_below_floor_is_raised_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = rk.solve_rk(lambda t, y: [-y[0]], 0.0, 1.0, [1.0], rtol=1e-16)
    assert abs(sol.y[0, -1] - np.exp(-1.0)) < 1e-14


def test_hermite_table_scalar_array_and_range():
    # backward nodes, as the auxiliary routes produce them
    sol = rk.solve_rk(lambda t, y: [-y[0], y[1]], 1.0, 0.0, [1.0, 1.0], h_out=0.1)
    table = rk.HermiteTable(sol.t, sol.y, sol.yp)
    ts = np.concatenate([np.linspace(0.0, 1.0, 37), table.t, [0.55]])
    arr = table(ts)
    assert arr.shape == (2, len(ts))
    # the scalar path does the same operations: bitwise equal, nodes exact
    assert np.array_equal(arr, np.array([table(t) for t in ts]).T)
    assert np.array_equal(table(table.t), table.y)
    assert abs(table(0.55)[0] - np.exp(0.45)) < 1e-6  # h^4 e / 384 = 7e-7
    # just outside the nodes it raises instead of extrapolating
    for t in (-1e-9, 1.0 + 1e-9):
        with pytest.raises(OutOfRange):
            table(t)
        with pytest.raises(OutOfRange):
            table(np.array([0.5, t]))


def test_diff5_exact_on_quartics():
    h = 0.1
    x = 0.3 + h * np.arange(9)
    quartic = 2.0 - x + 0.5 * x**2 - 3.0 * x**3 + 0.7 * x**4
    slope = -1.0 + x - 9.0 * x**2 + 2.8 * x**3
    assert np.max(np.abs(rk.diff5(quartic, h) - slope)) < 1e-12
    # stacked 2x2 matrices, as the Lax-pair residuals difference them
    mats = np.stack([[[q, 2 * q], [-q, 1.0]] for q in quartic])
    d = rk.diff5(mats, h)
    assert np.max(np.abs(d[:, 0, 0] - slope)) < 1e-12
    assert np.max(np.abs(d[:, 0, 1] - 2 * slope)) < 1e-12
    assert np.max(np.abs(d[:, 1, 1])) < 1e-12
    # five samples: the centered derivative at the middle one
    assert abs(rk.diff5(mats[2:7], h)[2, 1, 0] + slope[4]) < 1e-12
