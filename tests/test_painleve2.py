import csv
import json
from fractions import Fraction

import numpy as np
import pytest

from twlab import asymptotics, cli, distribution, oracles, painleve2, specfun
from twlab.errors import BadInterval, OrderTooHigh, OutOfRange, UnknownSeries


def test_boundary_lock_right(hm):
    # exponential closeness to the decaying linear profile on [5, 8]
    for t in (5.0, 6.0, 7.0, 8.0):
        u, _, _ = hm.eval(t)
        assert abs(u - specfun.airy(t).ai) < 1e-9
    u6, _, _ = hm.eval(6.0)
    assert abs(u6 - specfun.airy(6.0).ai) < 1e-10


def test_slope_table_without_difference_noise(hm):
    # u' stays on the 5-point differences of u (up to their noise) ...
    u, h = hm.u, hm.step
    fd = (u[:-4] - 8 * u[1:-3] + 8 * u[3:-1] - u[4:]) / (12 * h)
    assert np.max(np.abs(hm.ut[2:-2] - fd)) < 1e-11
    # ... without their white noise (~1e-13, the rounding of u over h): 6th
    # differences remove the smooth part, std / sqrt(924) estimates the noise
    assert np.std(np.diff(fd, 6)) / np.sqrt(924) > 5e-14
    assert np.std(np.diff(hm.ut, 6)) / np.sqrt(924) < 1e-14


def test_left_series_window(hm):
    # numeric vs the 5-correction series, bounded by 2x the first omitted term
    for t in np.linspace(-12.0, -8.0, 17):
        series5 = painleve2.eval_series("u", t, 5)
        bound = 2.0 * painleve2.series_term_magnitude("u", t, 6)
        u, _, _ = hm.eval(t)
        assert abs(u - series5) <= bound


def test_u_minus8_six_term_example(hm):
    u, _, _ = hm.eval(-8.0)
    assert abs(u - painleve2.eval_series("u", -8.0, 6)) < 1e-6


def test_omega_prime_residual(hm):
    t, u, ut, om = hm.grid, hm.u, hm.ut, hm.omega
    h = hm.step
    umid = 0.5 * (u[:-1] + u[1:]) + h * (ut[:-1] - ut[1:]) / 8.0
    res = np.abs(np.diff(om) / h - umid**2)
    assert res.max() < 1e-7


def test_ode_residual_midpoints(hm):
    h = hm.step
    u, ut = hm.u, hm.ut
    b = ut[:-1]
    c = (3 * np.diff(u) / h - 2 * ut[:-1] - ut[1:]) / h
    d = (ut[:-1] + ut[1:] - 2 * np.diff(u) / h) / h**2
    hdd = 2 * c + 6 * d * (h / 2)
    umid = 0.5 * (u[:-1] + u[1:]) + h * (ut[:-1] - ut[1:]) / 8.0
    tmid = 0.5 * (hm.grid[:-1] + hm.grid[1:])
    res = np.abs(hdd - (tmid * umid + 2 * umid**3))
    assert res.max() < 1e-8


def test_positivity(hm):
    assert (hm.u > 0).all()


def test_omega_stored_combination(hm):
    assert np.array_equal(hm.omega, hm.u**4 + hm.grid * hm.u**2 - hm.ut**2)


def test_omega_smooth_agreement(hm):
    # the stored omega (the integral of u^2) against the algebraic form at
    # the nodes up to t = 8; further right the algebraic form loses digits
    # to cancellation (1.5e-8 relative at t = 13)
    left = hm.grid <= 8.0
    oms = hm.omega_smooth(hm.grid[left])
    assert np.max(np.abs((hm.omega[left] - oms) / oms)) < 1e-9


def test_eval_at_nodes_exact(hm):
    for i in (0, 123, 25000, len(hm.grid) - 1):
        u, ut, om = hm.eval(hm.grid[i])
        assert u == hm.u[i] and ut == hm.ut[i] and om == hm.table.y[2, i]
        assert hm.log_f2(hm.grid[i]) == [hm.log_f2.y[0, i]]


def test_monotone_left_region(hm):
    ts = np.linspace(-10.0, -5.0, 60)
    u = hm.eval(ts)[0]
    assert (np.diff(u) < 0).all()


def test_eval_out_of_range(hm):
    f = painleve2.fast_eval(hm)
    for t in (hm.t_max + 1.0, hm.t_max + 1e-9, hm.t_min - 1e-9):
        with pytest.raises(OutOfRange):
            hm.eval(t)
        with pytest.raises(OutOfRange):
            f(t)
        with pytest.raises(OutOfRange):
            f(np.array([0.0, t]))


def test_grid_doubling_oracle(hm):
    fine = painleve2.solve_hastings_mcleod(
        t_min=hm.t_min, t_max=hm.t_max, n=2 * (len(hm.grid) - 1) + 1
    )
    ts = hm.grid[1234:40000:4321] + 0.5 * hm.step
    u_a = hm.eval(ts)[0]
    u_b = fine.eval(ts)[0]
    assert np.max(np.abs(u_a - u_b)) < 1e-9


def test_widening_invariance(hm):
    for window in ((hm.t_min - 2.0, hm.t_max + 2.0, len(hm.grid) + 8000),
                   (-30.0, 20.0, 100001)):
        wide = painleve2.solve_hastings_mcleod(*window)
        for t in (-9.0, -2.0, 0.0, 3.0):
            assert abs(hm.eval(t)[0] - wide.eval(t)[0]) < 1e-10


@pytest.mark.parametrize("centre", [-2.0, 0.0])
def test_newton_result_independent_of_start(hm, monkeypatch, centre):
    # the damped line search used to stop Newton at u up to 5.8e-10 off
    # (start centred at -2); the converged u is now the same from any start
    start = painleve2._start
    monkeypatch.setattr(painleve2, "_start", lambda t: start(t, centre=centre))
    other = painleve2.solve_hastings_mcleod()
    assert np.max(np.abs(other.u - hm.u)) <= 1e-14
    assert other.final_update < 1e-11 and hm.final_update < 1e-11


def test_coarse_start_matches_fine_only_newton(hm):
    # the verification grid (52001 points) starts Newton from the solve on
    # 3251 points; Newton on the fine grid alone, from _start, reaches the
    # same u
    t = np.array(hm.grid)
    u, it, final_update = painleve2._newton(t, painleve2._start(t), 1e-11)
    assert np.max(np.abs(u - hm.u)) <= 1e-14
    assert final_update < 1e-11 and it > 2
    assert hm.coarse_newton_iterations >= 1
    assert 1 <= hm.newton_iterations <= 2


@pytest.mark.parametrize("n, coarse", [(16 * 1998 + 1, False), (16 * 1999 + 1, True)])
def test_coarse_stage_needs_2000_points(n, coarse):
    # below 2000 coarse points Newton starts from _start on the grid itself
    sol = painleve2.solve_hastings_mcleod(t_min=-10.0, t_max=6.0, n=n)
    assert (sol.coarse_newton_iterations > 0) == coarse
    assert sol.final_update < 1e-11
    if not coarse:
        t = np.array(sol.grid)
        u, it, _ = painleve2._newton(t, painleve2._start(t), 1e-11)
        assert np.array_equal(u, sol.u) and it == sol.newton_iterations


def test_f2_against_fredholm_at_criterion5_points(hm):
    # criterion 5 gates 1e-8; the solved u supports three decades more
    for t in (-8.0, -6.0, -4.0, -2.0, 0.0, 2.0, 4.0):
        got = distribution.eval_F2(hm, t)
        assert abs(got - oracles.airy_kernel_fredholm(t, 120)) <= 1e-11


def test_omega_tail_at_t_max():
    # int_6^inf omega = -int_6^inf (s - 6) Ai(s)^2 ds, frozen from 40-digit mpmath
    sol = painleve2.solve_hastings_mcleod(t_min=-10.0, t_max=6.0, n=4001)
    exact = -3.8172326590094596424e-12
    # the log F2 row at its right end holds the tail alone
    assert abs(sol.log_f2(6.0)[0] - exact) <= 1e-12 * abs(exact)


def test_preconditions():
    with pytest.raises(BadInterval):
        painleve2.solve_hastings_mcleod(t_min=-9.0)
    with pytest.raises(BadInterval):
        painleve2.solve_hastings_mcleod(t_max=5.0)
    with pytest.raises(BadInterval):
        painleve2.solve_hastings_mcleod(n=100)
    # above 1e-6 Newton may stop on a damped step
    for tol in (2e-6, 1.0, np.inf, np.nan, 0.0, -1e-10):
        with pytest.raises(BadInterval, match="tol"):
            painleve2.solve_hastings_mcleod(tol=tol)


def test_series_omega_example():
    # order 2 at t=-10: -(1/4)100 - (1/8)/10 - (9/64) 10^-4
    want = -25.0 - 1.0 / 80.0 - (9.0 / 64.0) * 1e-4
    assert abs(painleve2.eval_series("omega", -10.0, 2) - want) < 1e-14


def test_series_dlogu_example():
    want = -1.0 / 20.0 - (3.0 / 8.0) * 1e-4
    assert abs(painleve2.eval_series("dlogu", -10.0, 1) - want) < 1e-15


def test_series_u_leading():
    assert painleve2.eval_series("u", -8.0, 0) == 2.0


def test_series_q2_branch_values():
    v = painleve2.eval_series("q2", -10.0, 2)
    want = 10**-1.5 / np.sqrt(2) + (21 / 8) * 1e-3 + (1707 / 64) / np.sqrt(2) * 10**-4.5
    assert abs(v - want) < 1e-16


def test_series_logf6_terms():
    v = asymptotics.eval_tail_logF(asymptotics.TailModel.for_beta(6, c0=0), -8.0)
    want = -0.25 * 512 + (2 * np.sqrt(2) / 3) * 8**1.5 + np.log(8.0) / 24
    assert abs(v - want) < 1e-12


def test_series_truncation_property():
    # successive truncations differ by no more than the first omitted term
    for kind, orders in (("u", 6), ("dlogu", 6), ("omega", 7)):
        for t in (-6.0, -9.0, -14.0):
            for k in range(orders):
                a = painleve2.eval_series(kind, t, k + 1)
                b = painleve2.eval_series(kind, t, k)
                term = painleve2.series_term_magnitude(kind, t, k + 1)
                # fp absorption floor: tiny terms vanish into the total
                assert abs(a - b) <= term * 1.0000001 + 4e-16 * abs(a)


def test_series_errors():
    with pytest.raises(UnknownSeries):
        painleve2.eval_series("bogus", -8.0, 0)
    with pytest.raises(OrderTooHigh):
        painleve2.eval_series("u", -8.0, 7)
    with pytest.raises(OutOfRange):
        painleve2.eval_series("u", 2.0, 3)


def test_series_exact_coefficient_table():
    terms = painleve2._SERIES["u"]
    assert terms[1][0] == Fraction(-1, 8)
    assert terms[6][0] == Fraction(-14518451390349, 4194304)
    terms = painleve2._SERIES["omega"]
    assert terms[7][0] == Fraction(-241980297111, 8192)


def test_fast_eval_matches_eval(hm):
    f = painleve2.fast_eval(hm)
    ts = np.array([-11.3, -4.56, 0.123, 7.89, hm.t_min, hm.grid[777], hm.t_max])
    fu, fut, fom = f(ts)
    u, ut, _ = hm.eval(ts)
    assert np.array_equal(fu, u) and np.array_equal(fut, ut)
    assert np.array_equal(fom, hm.omega_smooth(ts))
    for k, t in enumerate(ts):
        assert tuple(f(t)) == (fu[k], fut[k], fom[k])
        assert hm.eval(t)[:2] == (u[k], ut[k])


def test_csv_export(hm, tmp_path):
    # `twlab hm-solve` with the fixture's solve settings writes its table
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"hm": {"t_min": -13.0, "t_max": 13.0, "n": 52001, "tol": 1e-11}}))
    assert cli.main(["hm-solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "hm.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "u", "ut", "omega"]
    assert len(rows) == len(hm.grid) + 1
    # 17 significant digits round-trip
    i = 2345
    assert float(rows[i + 1][1]) == hm.u[i]
