import numpy as np
import pytest

from twlab import distribution, oracles, painleve2
from twlab.errors import BadInterval, OutOfRange, OutOfSupportedRange, QZeroCrossing

SC = distribution.SCALE_T


def test_f2_saturates_right(hm):
    assert abs(distribution.eval_F2(hm, 8.0) - 1.0) < 1e-10
    # an array gives the scalar calls' values, 0 from the grid's end on
    ts = np.array([-4.0, 8.0, hm.t_max - 1e-3, hm.t_max, hm.t_max + 1.0])
    f2 = distribution.log_F2(hm, ts)
    assert np.array_equal(f2, [distribution.log_F2(hm, t) for t in ts])
    assert f2[-1] == f2[-2] == 0.0


def test_f2_against_determinant_oracle(hm):
    for t in (-4.0, 0.0, 2.0):
        d = distribution.eval_F2(hm, t) - oracles.airy_kernel_fredholm(t, 120)
        assert abs(d) < 1e-8


def test_f2_log_slope_is_minus_omega(hm):
    h = 1e-4
    for t in (-6.0, -2.0):
        num = (distribution.log_F2(hm, t + h) - distribution.log_F2(hm, t - h)) / (2 * h)
        assert abs(num + hm.eval(t)[2]) < 1e-8


def test_f2_slope_against_omega_series(hm):
    # -d/dt log F2 = omega ~ -(1/4)t^2 - ... at t = -6
    slope = -hm.eval(-6.0)[2]
    series = -painleve2.eval_series("omega", -6.0, 3)
    bound = 2 * painleve2.series_term_magnitude("omega", -6.0, 4)
    assert abs(slope - series) < bound


def test_f6_saturates_right(hm, aux_lin):
    assert abs(distribution.eval_F6(hm, aux_lin, 8.0 / SC) - 1.0) < 1e-9


def test_log_f6_never_positive(hm, aux_lin):
    # in the saturated right tail roundoff once left log F6 at up to +1.6e-16;
    # an array gives the scalar calls' values, beyond t_start too
    ts = np.concatenate([np.linspace(2.5, 3.5, 201), [-4.5, 0.0, 13.0 / SC]])
    f6 = distribution.log_F6(hm, aux_lin, ts)
    assert np.array_equal(f6, [distribution.log_F6(hm, aux_lin, t) for t in ts])
    assert f6.max() <= 0.0


def test_f6_monotone_on_internal_window(hm, aux_lin):
    ts = np.linspace(-9.0, 8.0, 200) / SC
    F = np.array([distribution.eval_F6(hm, aux_lin, t) for t in ts])
    assert distribution.is_effectively_monotone(F)
    # the 1e-6 saturation levels sit at internal -10 (left; the value at
    # internal -8 is still 2.6e-4) and +8 (right)
    assert distribution.eval_F6(hm, aux_lin, -10.0 / SC) < 1e-6
    assert F[-1] > 1.0 - 1e-6


def test_f6_q2route_agreement(hm, aux_lin):
    for t in (0.5, -0.5, -1.5):
        a = distribution.eval_F6_q2route(hm, aux_lin, t)
        b = distribution.eval_F6(hm, aux_lin, t)
        assert abs(a - b) < 1e-10


def test_f6_q2route_raises_past_crossing(hm, aux_lin):
    with pytest.raises(QZeroCrossing):
        distribution.eval_F6_q2route(hm, aux_lin, -2.5)


def test_f6_log_derivative_identity(hm, aux_lin):
    # d/dt of the log at internal t equals
    # -omega/3 - 2 alpha/3 + (u'/u)(1+q2)/3 - (1+q2)'/(1-q2)
    h = 1e-3
    for ti in (-3.0, 0.5, -6.0):
        num = (
            distribution.log_F6(hm, aux_lin, (ti + h) / SC)
            - distribution.log_F6(hm, aux_lin, (ti - h) / SC)
        ) / (2 * h)
        u, ut, _ = hm.eval(ti)
        om = hm.omega_smooth(ti)
        q2 = aux_lin.q2_at(ti)
        al = aux_lin.alpha_at(ti)
        d = aux_lin.delta_at(ti)
        dd = (aux_lin.delta_at(ti + h) - aux_lin.delta_at(ti - h)) / (2 * h)
        direct = -om / 3 - 2 * al / 3 + (ut / u) * d / 3 - dd / (1 - q2)
        assert abs(num - direct) < 1e-6


def test_f6_out_of_range(hm, aux_lin):
    with pytest.raises(OutOfRange):
        distribution.eval_F6(hm, aux_lin, (aux_lin.t_end - 1.0) / SC)


def test_tabulate_and_pdf(hm, aux_lin):
    grid = np.linspace(-4.5, 2.0, 261)
    table = distribution.tabulate(hm, aux_lin, 6, grid)
    assert distribution.is_effectively_monotone(table.F)
    assert (table.pdf >= 0).all()
    integral = np.trapezoid(table.pdf, table.t)
    assert abs(integral - (table.F[-1] - table.F[0])) < 1e-4
    assert table.metadata["provenance"]["hm"]
    assert table.metadata["provenance"]["aux"]
    # the CDF saturates beyond the table instead of raising
    assert table.cdf(-50.0) == table.F[0] and table.cdf(50.0) == table.F[-1]
    beyond = table.cdf(np.array([-50.0, grid[0] - 1e-9, grid[-1] + 1e-9, 50.0]))
    assert np.array_equal(beyond, table.F[[0, 0, -1, -1]])
    assert np.array_equal(table.cdf(grid), table.F)


def test_tabulate_grid_doubling(hm):
    g1 = np.linspace(-6.0, 3.0, 121)
    g2 = np.linspace(-6.0, 3.0, 241)
    t1 = distribution.tabulate(hm, None, 2, g1)
    t2 = distribution.tabulate(hm, None, 2, g2)
    assert np.max(np.abs(t1.F - t2.F[::2])) < 1e-8


def test_tabulate_mode_reported(hm, fredholm_table):
    grid = np.linspace(-5.0, 1.0, 241)
    table = distribution.tabulate(hm, None, 2, grid)
    mode = table.t[np.argmax(table.pdf)]
    print(f"beta=2 density mode located at t = {mode:.3f}")
    ref_mode = fredholm_table.t[np.argmax(fredholm_table.pdf)]
    assert abs(mode - ref_mode) < 0.2


def test_tabulate_preconditions(hm):
    with pytest.raises(BadInterval):
        distribution.tabulate(hm, None, 2, np.array([0.0, 0.1, 0.3, 0.35, 0.4]))
    with pytest.raises(BadInterval):
        distribution.tabulate(hm, None, 4, np.linspace(-1, 1, 11))
    with pytest.raises(BadInterval):
        distribution.tabulate(hm, None, 6, np.linspace(-1, 1, 11))


def test_quantile_roundtrips(hm):
    grid = np.linspace(-8.0, 4.0, 481)
    table = distribution.tabulate(hm, None, 2, grid)
    i = 222
    assert abs(distribution.quantile(table, float(table.F[i])) - table.t[i]) < 1e-8
    t9 = distribution.quantile(table, 0.9)
    assert abs(table.cdf(t9) - 0.9) < 1e-8


def test_quantile_median_vs_oracle(hm, fredholm_table):
    grid = np.linspace(-8.0, 4.0, 481)
    table = distribution.tabulate(hm, None, 2, grid)
    m1 = distribution.quantile(table, 0.5)
    m2 = distribution.quantile(fredholm_table, 0.5)
    assert abs(m1 - m2) < 1e-6


def test_quantile_out_of_support(hm):
    grid = np.linspace(-6.0, 2.0, 161)
    table = distribution.tabulate(hm, None, 2, grid)
    with pytest.raises(OutOfSupportedRange):
        distribution.quantile(table, 1e-30)


def test_mc_agreement_small(hm, aux_lin):
    # reduced-size statistical check; the full recorded-seed run is in the
    # acceptance suite
    grid = np.linspace(-4.5, 3.5, 401)
    table = distribution.tabulate(hm, aux_lin, 6, grid)
    s = oracles.sample_edge(400, 6.0, 4000, 1234)
    assert oracles.ks_distance(s, table.cdf) < 0.05
