import warnings

import numpy as np
import pytest

from twlab import rk
from twlab.errors import StepFailure


def test_exponential_decay_accuracy():
    sol = rk.solve_rk(lambda t, y: [-y[0]], 0.0, 2.0, [1.0], h_out=0.01)
    table = sol.hermite()
    for t in (0.5, 1.0, 1.7):
        assert abs(table(t, component=0) - np.exp(-t)) < 1e-13


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


def test_hermite_table_component_and_vector():
    sol = rk.solve_rk(lambda t, y: [-y[0], y[1]], 0.0, 1.0, [1.0, 1.0], h_out=0.1)
    table = sol.hermite()
    both = table(0.55)
    assert abs(both[0] - table(0.55, component=0)) < 1e-16
    arr = table(np.array([0.1, 0.9]), component=1)
    assert arr.shape == (2,)
