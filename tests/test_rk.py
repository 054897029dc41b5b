import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from twlab import auxsys, distribution, painleve2, rk
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


def test_non_finite_stage_fails_the_error_test():
    # a NaN stage is rejected, as scipy rejects it: the steps shrink onto
    # t = 0.5 instead of carrying NaN to the end of the interval
    k = np.ones((13, 2))
    k[3, 0] = np.nan
    assert rk._error_norm(k, 0.1, np.ones(2)) == np.inf
    with pytest.raises(StepFailure) as exc:
        rk.solve_rk(lambda t, y: [math.nan if t > 0.5 else -y[0]], 0.0, 1.0, [1.0])
    assert abs(exc.value.t - 0.5) < 1e-12


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


def _same_steps_as_scipy(f, t0, t1, y0, rtol, atol):
    """solve_rk against scipy's DOP853 with the same step cap: the same
    accepted steps and RHS calls, and the same values at the nodes."""
    sol = rk.solve_rk(f, t0, t1, y0, rtol=rtol, atol=atol)
    ref = solve_ivp(f, (t0, t1), y0, method="DOP853", rtol=rtol, atol=atol,
                    max_step=rk.MAX_STEP, dense_output=True)
    assert ref.status == 0
    assert sol.steps == len(ref.t) - 1
    assert sol.rhs_calls == ref.nfev
    assert np.max(np.abs(sol.y - ref.sol(sol.t))) <= 1e-14
    return sol


@pytest.mark.parametrize("lam", [2.0 / 3.0, 1.0])
def test_nonlinear_route_steps_as_scipy(hm, lam):
    # the distribution's route and the PDE check's negative control: bound
    # by the tolerance, not by the step cap (which would allow 115 steps)
    f = painleve2.fast_eval(hm)
    y0 = [0.0, 0.0, -0.5 * np.log(f(12.0)[0])]
    sol = _same_steps_as_scipy(auxsys._nonlinear_rhs(f, lam), 12.0, -11.0, y0,
                               1e-13, 1e-24)
    # two start-up calls, then 12 + 3 per accepted step and 12 per rejected
    steps, rejected = {2.0 / 3.0: (300, 4), 1.0: (280, 7)}[lam]
    assert sol.steps == steps
    assert sol.rhs_calls == 2 + 15 * steps + 12 * rejected


def test_rejected_steps_as_scipy():
    # an oscillator whose frequency jumps 20-fold near t = 0.5: the steps
    # that meet the bump fail the error test (13 rejections with scipy 1.17)
    def f(t, y):
        w = 1.0 + 400.0 * np.exp(-(((t - 0.5) / 0.02) ** 2))
        return [y[1], -w * y[0]]

    sol = _same_steps_as_scipy(f, 0.0, 1.0, [1.0, 0.0], 1e-13, 1e-20)
    assert (sol.rhs_calls - 2 - 15 * sol.steps) // 12 > 0


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


def _airy_system(t):
    M = np.zeros((len(t), 2, 2))
    M[:, 0, 1] = 1.0
    M[:, 1, 0] = t
    return M, None


@pytest.mark.parametrize("t0, t1", [(-4.0, 3.0), (3.0, -4.0)])
def test_solve_linear_airy_both_directions(t0, t1):
    from scipy.special import airy

    ai0, aip0, _, _ = airy(t0)
    sol = rk.solve_linear(_airy_system, t0, t1, [ai0, aip0], h_out=0.05)
    assert sol.t[0] == t0 and sol.t[-1] == t1
    ai, aip, _, _ = airy(sol.t)
    assert np.max(np.abs(sol.y[0] - ai) / np.abs(ai).max()) <= 1e-12
    assert np.max(np.abs(sol.y[1] - aip) / np.abs(aip).max()) <= 1e-12
    # node derivatives come from M at the nodes: (Ai', t Ai)
    assert np.max(np.abs(sol.yp[0] - aip)) <= 1e-12 * np.abs(aip).max()
    assert np.array_equal(sol.yp[1], sol.t * sol.y[0])
    # two discarded passes: 35 steps of 0.2, then the worst step's
    # 0.9 err^(-1/8) (0.30 of it, above MIN_FACTOR) gives 115 or 123 steps,
    # whose error estimate still exceeds 1, then 140
    assert (sol.steps, sol.step_shrinks) == (140, 2)
    assert sol.rhs_calls == 16 * (35 + {-4.0: 115, 3.0: 123}[t0] + sol.steps)


def test_solve_linear_quadrature_channels():
    # y' = -y with q' = y (q = 1 - e^-t) and q' = t y
    def system(t):
        return np.full((len(t), 1, 1), -1.0), lambda y: [y[0], t * y[0]]

    sol = rk.solve_linear(system, 0.0, 2.0, [1.0], [0.0, 0.0], h_out=0.1)
    e = np.exp(-sol.t)
    assert np.max(np.abs(sol.y[0] - e)) < 1e-14
    assert np.max(np.abs(sol.y[1] - (1 - e))) < 1e-14
    assert np.max(np.abs(sol.y[2] - (1 - (1 + sol.t) * e))) < 1e-14
    assert np.array_equal(sol.yp[1:], [sol.y[0], sol.t * sol.y[0]])


def _decay_system(lam, passes):
    def system(t):
        passes.append(len(t))
        return np.full((len(t), 1, 1), lam), None

    return system


def test_solve_linear_shrinks_the_step():
    # at h = 0.2, h lam = -6 is far too coarse for rtol 1e-13
    passes = []
    sol = rk.solve_linear(_decay_system(-30.0, passes), 0.0, 1.0, [1.0], h_out=0.01)
    assert sol.step_shrinks >= 1
    assert sol.steps > 20
    # one system call per pass, one more at the output nodes
    assert len(passes) == sol.step_shrinks + 2
    assert sol.rhs_calls == sum(passes[:-1])
    assert np.max(np.abs(sol.y[0] - np.exp(-30.0 * sol.t))) < 1e-13


def test_solve_linear_shrink_is_unclamped():
    # at h = 0.2, h lam = -20: the worst step's err asks for a factor far
    # below MIN_FACTOR, which would run 5, 25, 125 and 625 steps and fail
    passes = []
    sol = rk.solve_linear(_decay_system(-100.0, passes), 0.0, 1.0, [1.0], h_out=0.01)
    assert [p // 16 for p in passes[:-1]] == [5, 229, 769]
    assert (sol.steps, sol.step_shrinks) == (769, 2)
    assert np.max(np.abs(sol.y[0] - np.exp(-100.0 * sol.t))) < 1e-13


def test_solve_linear_non_finite_error_shrinks_by_min_factor():
    # a NaN coefficient right of t = 0.5 makes every pass's err inf, which
    # has no err^(-1/8) factor: each retry takes MIN_FACTOR of the step
    passes = []

    def system(t):
        passes.append(len(t))
        return np.where(t > 0.5, np.nan, -1.0)[:, None, None], None

    with pytest.raises(StepFailure):
        rk.solve_linear(system, 0.0, 1.0, [1.0])
    assert [p // 16 for p in passes] == [5, 25, 125, 625]


def test_solve_linear_step_failure_after_bounded_tries(monkeypatch):
    passes = []
    monkeypatch.setattr(rk, "MAX_TRIES", 2)
    with pytest.raises(StepFailure) as exc:
        rk.solve_linear(_decay_system(-30.0, passes), 0.0, 1.0, [1.0])
    assert len(passes) == 2
    assert 0.0 <= exc.value.t <= 1.0
    # a pass that would exceed the stage budget is not started: the second
    # one, 183 steps, would take the calls to 16 * (5 + 183)
    passes.clear()
    monkeypatch.setattr(rk, "MAX_STAGE_CALLS", 400)
    with pytest.raises(StepFailure):
        rk.solve_linear(_decay_system(-30.0, passes), 0.0, 1.0, [1.0])
    assert passes == [16 * 5]


def test_solve_linear_guard_runs_before_step_control():
    class Stop(Exception):
        pass

    seen = []

    def guard(t, y):
        seen.append(t)
        if (y[0] < 0.5).any():
            raise Stop(t[np.argmax(y[0] < 0.5)])

    passes = []
    with pytest.raises(Stop) as exc:
        rk.solve_linear(_decay_system(-30.0, passes), 0.0, 1.0, [1.0], guard=guard)
    # the coarse first pass would have been rejected: the guard stopped it
    assert len(passes) == 1
    # stages and nodes, in integration order; y = 1/2 at t = ln 2 / 30, and
    # the pass's own y (5 steps, h lam = -6) falls below 1/2 at t = 0.020
    t = seen[0]
    assert len(t) == 16 * 5 + len(rk._output_nodes(0.0, 1.0, 0.002))
    assert (np.diff(t) >= 0).all()
    assert abs(exc.value.args[0] - np.log(2) / 30) < 0.005


def _tables(hm, aux):
    grid = -4.5 + 0.02 * np.arange(401)
    cdf = distribution.tabulate(hm, aux, 6, grid)._table
    return {"hm": hm.table, "log_f2": hm.log_f2, "aux": aux.table,
            "log_f6": aux.log_f6, "cdf": cdf}


@pytest.mark.parametrize("kind, rows", [("hm", 3), ("log_f2", 1), ("aux", 7),
                                        ("log_f6", 1), ("cdf", 1)])
def test_hermite_float_path_is_the_array_path(hm, aux_lin, kind, rows):
    table = _tables(hm, aux_lin)[kind]
    assert table.nodes.shape[2] == rows
    lo, hi = table.t_lo, table.t_hi
    rng = np.random.default_rng(19)
    ts = np.concatenate([table.t, rng.uniform(lo, hi, 10_000),
                         [lo, hi, lo - 1e-12, hi + 1e-12]])
    arr = table(ts)
    # plain floats, as .tolist() gives them, and numpy scalars
    assert np.array_equal(arr, np.array([table(t) for t in ts.tolist()]).T)
    assert np.array_equal(arr[:, :50], np.array([table(t) for t in ts[:50]]).T)
    assert all(type(v) is float for v in table(float(ts[-1])))
    assert np.array_equal(table(table.t), table.y)
    # an int and a 0-d array take the float path too
    for t in range(int(np.ceil(lo)), int(hi) + 1):
        assert table(t) == table(float(t)) == table(np.array(float(t)))
        assert table(t) == table(np.array([float(t)]))[:, 0].tolist()
    # 1e-12 of slack at each end, no more
    for t in (lo - 2e-12, hi + 2e-12, np.nan):
        with pytest.raises(OutOfRange):
            table(t)
        with pytest.raises(OutOfRange):
            table(np.array([0.5 * (lo + hi), t]))


def test_hermite_table_is_read_only(hm, aux_lin):
    for table in _tables(hm, aux_lin).values():
        for a in (table.t, table.nodes, table.y):
            with pytest.raises(ValueError):
                a[0] = a[0]     # the same value: a failure leaves it intact
