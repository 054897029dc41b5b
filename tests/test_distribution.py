import numpy as np
import pytest

from twlab import distribution, oracles, painleve2, specfun
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


def test_log_f2_row_is_the_omega_interpolant_integrated():
    # log F2 = int_t^inf omega: the row against the exact integral of the
    # cubic omega interpolant (3-point Gauss-Legendre per cell, in the
    # table's local coordinate) plus the Airy tail, at the CLI's default
    # solve; measured 4.2e-13, the row's own interpolation error
    hm = painleve2.solve_hastings_mcleod(-12.0, 8.0, 4000, 1e-10)
    t, h = hm.grid, hm.step
    x, w = np.polynomial.legendre.leggauss(3)
    x, w = (x + 1) / 2, w / 2

    def to_cell_end(i, s):
        pts = t[i][:, None] + h * (s[:, None] + (1 - s)[:, None] * x)
        return h * (1 - s) * (hm.omega_smooth(pts.ravel()).reshape(pts.shape) @ w)

    cells = to_cell_end(np.arange(len(t) - 1), np.zeros(len(t) - 1))
    right = np.concatenate([np.cumsum(cells[::-1])[::-1], [0.0]])
    av, T = specfun.airy(hm.t_max), hm.t_max
    tail = -(2 / 3 * (T**2 * av.ai**2 - T * av.ai_prime**2) - av.ai * av.ai_prime / 3)
    rng = np.random.default_rng(5)
    i = rng.integers(0, len(t) - 1, 10_000)
    ts = t[i] + h * rng.uniform(0.05, 0.95, len(i))
    exact = to_cell_end(i, (ts - t[i]) / h) + right[i + 1] + tail
    assert np.max(np.abs(distribution.log_F2(hm, ts) - exact)) <= 1e-12


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


def test_log_f2_f6_float_path_is_the_array_path(hm, aux_lin):
    rng = np.random.default_rng(23)
    t2 = np.concatenate([hm.grid, rng.uniform(hm.t_min, hm.t_max + 1.0, 10_000)])
    assert np.array_equal(distribution.log_F2(hm, t2),
                          [distribution.log_F2(hm, t) for t in t2.tolist()])
    t6 = np.concatenate([aux_lin.grid / SC,
                         rng.uniform(aux_lin.t_end / SC, 13.0 / SC, 10_000)])
    f6 = distribution.log_F6(hm, aux_lin, t6)
    floats = [distribution.log_F6(hm, aux_lin, t) for t in t6.tolist()]
    assert all(type(v) is float for v in floats)
    assert np.array_equal(f6, floats)
    # NaN raises on both paths instead of reading the clamped end
    for log_f, args in ((distribution.log_F2, (hm,)), (distribution.log_F6, (hm, aux_lin))):
        with pytest.raises(OutOfRange):
            log_f(*args, np.nan)
        with pytest.raises(OutOfRange):
            log_f(*args, np.array([0.0, np.nan]))


def test_log_f6_row_is_the_channel_combination(hm, aux_lin, aux_nl):
    # the reference: the log F6 sum formed from the 7 rows of aux.table
    def combination(ti):
        y = aux_lin.table(ti)
        q2 = (y[0] + y[1]) / (y[0] - y[1])
        return (np.log((1.0 - q2) / 2.0) + (aux_lin.tail_int_omega - y[4]) / 3.0
                - (2.0 / 3.0) * y[5] + y[6] / 3.0)

    row = aux_lin.log_f6
    assert row.nodes.shape[2] == 1 and np.array_equal(row.t, aux_lin.table.t)
    # at every node left uncapped by log_F6 (9231 of 11501), bit for bit
    L = row.y[0]
    live = L < 0.0
    assert live.sum() > 9000
    assert np.array_equal(L[live], combination(row.t)[live])
    # between nodes the row is its own cubic: max |dL| over 20000 t on the
    # full range measured 1.4e-14 to 1.8e-14 for seeds 0-9, near t = -10.5
    # where |L| ~ 23 (1.1e-14 on external [-4.5, 3.5])
    ti = np.random.default_rng(29).uniform(aux_lin.t_end, aux_lin.t_start, 20_000)
    assert np.max(np.abs(row(ti)[0] - combination(ti))) < 5e-14
    # the nonlinear route has no row, and log_F6 refuses it
    assert aux_nl.log_f6 is None
    for t in (0.0, np.array([0.0, 1.0])):
        with pytest.raises(BadInterval):
            distribution.log_F6(hm, aux_nl, t)


def _bisect(table, p):
    lo, hi = float(table.t[0]), float(table.t[-1])
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if table.cdf(mid) < p:
            lo = mid
        else:
            hi = mid


def test_quantile_inverts_the_interpolant(hm, aux_lin):
    table = distribution.tabulate(hm, aux_lin, 6, -4.5 + 0.02 * np.arange(401))
    F, t = table.F, table.t
    assert distribution.quantile(table, F[0]) == t[0]
    # every node value: the node itself where F first reaches it, else a
    # point of the saturated top where the interpolant takes that value.
    # F steps back there, so some node values (1.0 among them) exceed F[-1].
    assert F.max() == 1.0 > F[-1]
    for i in range(len(F)):
        q = distribution.quantile(table, F[i])
        if F[i] > F[:i].max(initial=-1.0):
            assert q == t[i]
        assert abs(table.cdf(q) - F[i]) <= 1e-15
    rng = np.random.default_rng(29)
    for p in rng.uniform(F[0], 0.999, 200):
        q = distribution.quantile(table, p)
        assert abs(q - _bisect(table, p)) < 1e-12
        assert abs(table.cdf(q) - p) <= 1e-15
    for p in (F[0] * (1 - 1e-9), np.nextafter(F.max(), 2.0), np.nan):
        with pytest.raises(OutOfSupportedRange):
            distribution.quantile(table, p)


def test_quantile_takes_the_first_cell_that_reaches_p():
    # F steps back in its saturated top: F_6 < p = F_7 = F_8 < F_5
    F = np.array([0.0, 0.2, 0.4, 0.6, 0.8,
                  1 - 1e-13, 1 - 3e-13, 1 - 2e-13, 1 - 2e-13])
    table = distribution.table_from_values(2, np.arange(9.0), F)
    q = distribution.quantile(table, F[-1])
    assert 4.0 < q < 5.0
    assert abs(table.cdf(q) - F[-1]) <= 1e-15


def test_provenance_digest_is_kept_per_solve(hm, aux_lin):
    grid = np.linspace(-4.0, 2.0, 61)
    six = distribution.tabulate(hm, aux_lin, 6, grid).metadata["provenance"]
    two = distribution.tabulate(hm, None, 2, grid).metadata["provenance"]
    fresh_hm = distribution._array_hash(hm.grid, hm.u)
    assert six == {"hm": fresh_hm,
                   "aux": distribution._array_hash(aux_lin.table.t, aux_lin.table.y)}
    assert two == {"hm": fresh_hm}
    assert distribution._DIGESTS[hm] == fresh_hm
    # the arrays behind a kept digest cannot change
    with pytest.raises(ValueError):
        hm.u[0] = hm.u[0]
    with pytest.raises(ValueError):
        aux_lin.table.y[0, 0] = aux_lin.table.y[0, 0]
