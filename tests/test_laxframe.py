import copy
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from twlab import auxsys, cli, distribution, laxframe
from twlab.errors import BadInterval, DegenerateGauge


def test_l0_traceless_and_structure(hm):
    for x, t in ((0.3, -2.0), (-4.0, 1.5), (7.0, 6.0)):
        L0, B0 = laxframe.build_L0_B0(hm, x, t)
        assert abs(np.trace(L0)) < 1e-14
        u, ut, _ = hm.eval(t)
        assert L0[0, 1] == pytest.approx(x * u - ut, abs=1e-15)
        assert B0[0, 1] == B0[1, 0] == -u


def test_l0_diagonal_at_formal_zero_u():
    # with u = 0 the x-matrix is diagonal with entries +-(x^2/2 - t/2)
    x, t = 1.7, 0.4
    delta = -t / 2.0
    L0 = np.array([[x * x / 2 + delta, 0.0], [0.0, -x * x / 2 - delta]])
    assert L0[0, 0] == -(L0[1, 1]) == x * x / 2 - t / 2


def test_flaschka_newell_compatibility(hm):
    # the pair's zero-curvature residual vanishes exactly on solutions of
    # the second Painleve equation
    for x, t in ((0.0, -3.0), (2.0, 1.0), (-1.5, -7.0)):
        assert laxframe.painleve_pair_residual(hm, x, t) < 1e-7


def test_gauged_pair_trace(hm, aux_lin):
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = rng.uniform(-8, 3)
        x = rng.uniform(-3, 3)
        p = auxsys.reconstruct_params(aux_lin, hm, t, mode="ode")
        L, B = laxframe.build_gauged_L_B(p, x)
        want = -x + t * t / 6.0 + p.U / 3.0
        assert abs(np.trace(B).real - want) < 1e-10 * max(1.0, abs(want))


def test_gauged_L21_x_coefficient(hm, aux_lin):
    p = auxsys.reconstruct_params(aux_lin, hm, -3.0, mode="ode")
    L1, _ = laxframe.build_gauged_L_B(p, 1.0)
    L0, _ = laxframe.build_gauged_L_B(p, 0.0)
    coef = (L1 - L0)[1, 0].real
    assert abs(coef - (1 - p.q2**2) / 4.0) < 1e-13


def test_zero_curvature_on_trajectory(hm, aux_lin):
    for x in (-2.0, 0.0, 2.0):
        assert laxframe.zero_curvature_residual(aux_lin, hm, x, -4.0) < 1e-6


def test_gauge_determinant_bookkeeping(hm, aux_lin):
    rng = np.random.default_rng(8)
    psi0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x, t = 1.3, -2.5
    out, log_scale = laxframe.gauge_psi(hm, aux_lin, x, t, psi0)
    q2 = aux_lin.q2_at(t)
    kappa = np.exp(aux_lin.log_kappa_at(t))
    want = kappa**2 * (1 - q2 * q2) / 4.0 * np.linalg.det(psi0)
    assert abs(np.linalg.det(out) - want) < 1e-12 * abs(want)
    assert log_scale == laxframe.theta(x, t)


def test_gauge_degenerate_guard(hm):
    class Stub:
        def q2_at(self, t):
            return 1.0

        def alpha_at(self, t):
            return 0.0

        def log_kappa_at(self, t):
            return 0.0

    with pytest.raises(DegenerateGauge):
        laxframe.gauge_psi(hm, Stub(), 0.0, -1.0, np.eye(2, dtype=complex))


def test_gauge_wiring_matches_field(hm, aux_lin):
    # Psi11 from the explicit gauge product with the sigma1-swapped input
    # equals the field assembly
    x_ext, t_ext = 0.7, -0.9
    fld = laxframe.psi11_field(hm, aux_lin, np.array([x_ext]), np.array([t_ext]))
    xi = laxframe.CBRT3 * x_ext
    ti = laxframe.SCALE_T * t_ext
    w = fld.w[:, 0, 0]
    # second-kind input is i * (first-kind solution) * sigma1; the swap puts
    # the recessive column first, which is all the (1,1) entry sees
    psi6 = np.array([[0.3 + 0.1j, w[0]], [-0.2 + 0.4j, w[1]]])
    psi0 = 1j * psi6 @ laxframe.SIGMA1
    out, log_scale = laxframe.gauge_psi(hm, aux_lin, xi, ti, psi0)
    # the stored w column carries e^{+theta}; the gauge ledger is +theta,
    # and the two cancel exactly in the assembled entry
    assert abs(out[0, 0].real - fld.psi11[0, 0].real) < 1e-10
    assert abs(out[0, 0].imag) < 1e-12
    assert log_scale == laxframe.theta(xi, ti)


def test_wkb_column_structure(hm, aux_lin):
    t = -2.0
    u, ut, _ = hm.eval(t)
    q2 = aux_lin.q2_at(t)
    al = aux_lin.alpha_at(t)
    lim = np.sqrt(u) * (1 - q2) / 2.0
    devs = {}
    for x in (20.0, 40.0):
        w = laxframe._sweep_columns(np.array([t]), np.array([x]), hm, 60.0)[:, 0, 0]
        n1 = ((1 + q2) * x / 2 - al) / np.sqrt(u) * w[0] + np.sqrt(u) * w[1]
        n2 = (1 - q2 * q2) / 4.0 / np.sqrt(u) * w[0]
        devs[x] = (n1.real - lim, n2.real)
    # both deviations decay like 1/x: the x-scaled values agree within 30%
    for comp in (0, 1):
        a = devs[20.0][comp] * 20.0
        b = devs[40.0][comp] * 40.0
        assert abs(a - b) < 0.3 * abs(a)


def test_sweep_against_radau(hm):
    # scipy's implicit Radau on the same scaled-column system, from the same
    # series start, is an integrator independent of the Magnus sweep
    x_nodes = np.array([4.33, 0.0, -4.33])
    for t in (-10.4, -2.0, 2.08):
        u, ut, _ = hm.eval(t)
        w0 = laxframe._series_w_init(15.0, t, u, ut, hm.omega_smooth(t))

        def jac(x, w):
            return np.array([[x * x - t - u * u, x * u - ut], [x * u + ut, u * u]])

        ref = solve_ivp(lambda x, w: jac(x, w) @ w, (15.0, x_nodes[-1]), w0,
                        method="Radau", jac=jac, t_eval=x_nodes, rtol=1e-12,
                        atol=1e-12)
        got = laxframe._sweep_columns(np.array([t]), x_nodes, hm, 15.0)
        assert np.max(np.abs(got[:, :, 0] - ref.y)) <= 1e-8


def _reference_sweep(t_rows, x_nodes, hm, x_start):
    """The step-by-step form of the Magnus sweep: one substep at a time, its
    entries at the two Gauss points, exp(Omega) by cosh/sinh or cos/sin.
    Returns the columns at the nodes and the number of substeps."""
    u, ut, _ = hm.eval(t_rows)
    delta = -t_rows / 2.0 - u * u
    y0, y1 = laxframe._series_w_init(x_start, t_rows, u, ut,
                                     hm.omega_smooth(t_rows))
    h0, knee = laxframe._H0, laxframe._X_KNEE
    g0, g1 = laxframe._GAUSS
    out = np.empty((2, len(x_nodes), len(t_rows)))
    xs, total = float(x_start), 0
    for ni, node in enumerate(x_nodes):
        far = max(abs(xs), abs(node), knee)
        n_sub = int(np.ceil(abs(node - xs) / (h0 * (knee / far) ** 0.75)))
        h = (node - xs) / max(n_sub, 1)
        for _ in range(n_sub):
            x1, x2 = xs + g1 * h, xs + g0 * h
            a1, b1, c1 = x1 * x1 / 2 + delta, x1 * u - ut, x1 * u + ut
            a2, b2, c2 = x2 * x2 / 2 + delta, x2 * u - ut, x2 * u + ut
            k = laxframe._COMM * h * h
            P = h / 2 * (a1 + a2) + k * (b1 * c2 - b2 * c1)
            Q = h / 2 * (b1 + b2) + 2 * k * (a1 * b2 - b1 * a2)
            R = h / 2 * (c1 + c2) + 2 * k * (c1 * a2 - a1 * c2)
            s2 = P * P + Q * R
            s = np.sqrt(np.abs(s2))
            c = np.where(s2 > 0, np.cosh(s), np.cos(s))
            f = np.where(s2 > 0, np.sinh(s), np.sin(s)) / np.where(s > 0, s, 1.0)
            f = np.where(s > 0, f, 1.0)
            x_new = xs + h
            g = np.exp(h * ((x_new**2 + x_new * xs + xs**2) / 6 - t_rows / 2))
            y0, y1 = (g * ((c + f * P) * y0 + f * Q * y1),
                      g * (f * R * y0 + (c - f * P) * y1))
            xs = x_new
        xs = node
        total += n_sub
        out[:, ni] = y0, y1
    return out, total


def _max_rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def test_chunked_sweep_matches_reference_on_pde_grid(hm):
    # criterion 6's grid, every 8th time row
    xi = laxframe.CBRT3 * np.arange(-3.0, 3.0 + 1e-9, 1.0 / 64.0)[::-1]
    ti = distribution.SCALE_T * np.arange(-5.0, 1.0 + 1e-9, 1.0 / 64.0)[::8]
    ref, total = _reference_sweep(ti, xi, hm, 15.0)
    got = laxframe._sweep_columns(ti, xi, hm, 15.0)
    assert _max_rel(got, ref) <= 1e-12
    assert total == laxframe._gap_substeps(15.0, xi).sum() == 4029


def test_chunked_sweep_edge_cases(hm):
    t_rows = np.array([-3.0, 0.5])
    # a first node at x_start takes no substep and returns the series start
    got = laxframe._sweep_columns(t_rows, np.array([6.0, 5.0]), hm, 6.0)
    u, ut, _ = hm.eval(t_rows)
    start = laxframe._series_w_init(6.0, t_rows, u, ut, hm.omega_smooth(t_rows))
    assert np.array_equal(got[:, 0], np.array(start))
    ref, _ = _reference_sweep(t_rows, np.array([6.0, 5.0]), hm, 6.0)
    assert _max_rel(got, ref) <= 1e-12
    # nodes that end exactly on chunk boundaries, a repeated node included:
    # a gap of 0.01 (n - 1/2) near zero takes n substeps
    q = laxframe._CHUNK // 4
    counts = np.array([q, q, q, q, 0, 2 * q + 4, 2 * q - 4, 2])
    x = 1.0 - np.cumsum(0.01 * np.maximum(counts - 0.5, 0.0))
    ends = np.cumsum(laxframe._gap_substeps(1.0, x))
    assert {laxframe._CHUNK, 2 * laxframe._CHUNK} <= set(ends.tolist())
    ref, _ = _reference_sweep(t_rows, x, hm, 1.0)
    assert _max_rel(laxframe._sweep_columns(t_rows, x, hm, 1.0), ref) <= 1e-12
    # a single time row, as an array and as a scalar
    ref, _ = _reference_sweep(np.array([-2.0]), x, hm, 1.0)
    for trow in (np.array([-2.0]), -2.0):
        got = laxframe._sweep_columns(trow, x, hm, 1.0)
        assert got.shape == (2, len(x), 1)
        assert _max_rel(got, ref) <= 1e-12


def test_sweep_rejects_nodes_on_the_unstable_side(hm):
    t_rows = np.array([0.0])
    # a node beyond x_start, and nodes that turn back toward it
    for nodes in ([16.0], [3.0, 4.0]):
        with pytest.raises(BadInterval):
            laxframe._sweep_columns(t_rows, np.array(nodes), hm, 15.0)


def test_expm_traceless_branches():
    # s^2 > 0 (cosh / sinh), s^2 < 0 (cos / sin) and s^2 = 0 in one array
    P, Q, R = np.array([
        (0.3, 1.7, 0.4), (-0.9, 0.6, 0.5),
        (0.2, 1.3, -0.9), (0.0, -2.0, 1.1),
        (0.0, 0.0, 0.0), (1.0, 1.0, -1.0), (0.0, 1.0, 0.0),
    ]).T
    s2 = P * P + Q * R
    assert (s2 > 0).sum() == 2 and (s2 < 0).sum() == 2 and (s2 == 0).sum() == 3
    c, f = laxframe._expm_traceless(P, Q, R)
    for j in range(len(P)):
        omega = np.array([[P[j], Q[j]], [R[j], -P[j]]])
        want = scipy.linalg.expm(omega)
        got = c[j] * np.eye(2) + f[j] * omega
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_psi11_field_memory_is_bounded(hm, aux_lin):
    # the chunked sweep keeps its temporaries to a few MB; building every
    # (substep, row) step matrix at once would take hundreds of MB. A copy
    # of the solve has no kept sweep, so the traced call sweeps.
    h = 1.0 / 64.0
    xg = np.arange(-3.0, 3.0 + 1e-9, h)
    tg = np.arange(-5.0, 1.0 + 1e-9, h)
    fresh = copy.copy(hm)
    assert fresh not in laxframe._SWEPT
    tracemalloc.start()
    try:
        fld = laxframe.psi11_field(fresh, aux_lin, xg, tg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert laxframe._SWEPT[fresh][1] is fld.w
    assert fld.substeps == 2280
    assert peak <= 16 * 2**20


def test_field_reality_and_boundaries(hm, aux_lin):
    fld = laxframe.psi11_field(
        hm, aux_lin, np.array([6.0]), np.array([4.0])
    )
    assert abs(fld.psi11[0, 0].real - 1.0) < 1e-4
    fld2 = laxframe.psi11_field(hm, aux_lin, np.array([-6.0]), np.array([0.0]))
    assert abs(fld2.psi11[0, 0].real) < 1e-4
    assert fld.w.dtype == fld.psi11.dtype == np.float64


def test_pde_residual_small_grid(hm, aux_lin):
    h = 1.0 / 16.0
    xg = np.arange(-3.0, 3.0 + 1e-9, h)
    tg = np.arange(-5.0, 1.0 + 1e-9, h)
    fld = laxframe.psi11_field(hm, aux_lin, xg, tg)
    r1 = laxframe.edge_pde_residual(fld)
    r2 = laxframe.edge_pde_residual(fld, stride=2)
    assert r1 < 1e-3 * (h * 64) ** 2
    assert 3.0 < r2 / r1 < 5.0


def test_field_range_guard(hm, aux_lin):
    with pytest.raises(BadInterval):
        laxframe.psi11_field(hm, aux_lin, np.array([0.0]), np.array([-8.0]))


def _reference_field(monkeypatch, hm, aux, x_ext, t_ext):
    """psi11_field started at x = 30 from the series through x^-30."""
    with monkeypatch.context() as m:
        m.setattr(laxframe, "SERIES_TERMS", 30)
        m.setattr(laxframe, "SWEEP_START", 30.0)
        return laxframe.psi11_field(hm, aux, x_ext, t_ext)


def test_series_recursion_reproduces_closed_forms(hm, monkeypatch):
    # cut at x^-3 the recursion gives the expansion's closed forms
    t = -2.0
    u, ut, _ = hm.eval(t)
    om = hm.omega_smooth(t)
    m3_12 = -(t * u + u**3 / 2.0 + u * om**2 / 2.0 - ut * om)
    m3_22 = (t * om + u * ut) / 3.0 + om**3 / 6.0 - u**2 * om / 2.0
    monkeypatch.setattr(laxframe, "SERIES_TERMS", 3)
    for x in (10.0, 15.0):
        w1, w2 = laxframe._series_w_init(x, t, u, ut, om)
        assert abs(w1 - (-u / x + (ut - u * om) / x**2 + m3_12 / x**3)) <= 1e-14
        assert abs(w2 - (1.0 + om / x + (om**2 - u**2) / (2 * x**2)
                         + m3_22 / x**3)) <= 1e-14


def test_field_against_far_start_on_pde_grid(hm, aux_lin, monkeypatch):
    # criterion 6's grid: 1.8e-10 from the start at x = 10 (1.4e-4 from the
    # earlier 3-term start at x = 15)
    h = 1.0 / 64.0
    xg = np.arange(-3.0, 3.0 + 1e-9, h)
    tg = np.arange(-5.0, 1.0 + 1e-9, h)
    fld = laxframe.psi11_field(hm, aux_lin, xg, tg)
    ref = _reference_field(monkeypatch, hm, aux_lin, xg, tg)
    assert ref.w is not fld.w
    assert (fld.sweep_start, ref.sweep_start) == (10.0, 30.0)
    assert np.max(np.abs(fld.psi11 - ref.psi11)) <= 5e-10


def test_field_against_far_start_on_full_range(hm, aux_lin, monkeypatch):
    # every time row the aux trajectory covers, |x| <= 4: 1.5e-9, worst on
    # the rows near t = -11
    xg = np.arange(-4.0, 4.0 + 1e-9, 1.0 / 16.0)
    tg = np.linspace(aux_lin.t_end, aux_lin.t_start, 241) / distribution.SCALE_T
    fld = laxframe.psi11_field(hm, aux_lin, xg, tg)
    ref = _reference_field(monkeypatch, hm, aux_lin, xg, tg)
    assert ref.w is not fld.w
    assert np.max(np.abs(fld.psi11 - ref.psi11)) <= 4e-9


def test_field_nodes_beyond_sweep_start(hm, aux_lin, monkeypatch):
    # a node with 3^{1/3} x > SWEEP_START moves the series start out to it
    for x in (10.5, 11.0, 12.0):
        xg = np.array([0.0, x])
        fld = laxframe.psi11_field(hm, aux_lin, xg, np.array([0.0]))
        assert fld.sweep_start == laxframe.CBRT3 * x
        ref = _reference_field(monkeypatch, hm, aux_lin, xg, np.array([0.0]))
        assert ref.w is not fld.w
        assert np.max(np.abs(fld.psi11 - ref.psi11)) <= 3e-9
    edge = laxframe.psi11_field(hm, aux_lin, np.array([10.0]), np.array([0.0]))
    assert abs(edge.psi11[0, 0] - 1.0) < 1e-3


def test_field_reuses_the_sweep_per_solve_and_grid(hm, aux_lin, aux_nl):
    # w depends on the solve and the grid, not on the aux route: a second
    # field on the same grid forms only the gauge product, and equals bit
    # for bit the field built on a distinct solve that sweeps afresh
    xg = np.arange(-3.0, 3.0 + 1e-9, 1.0 / 8.0)
    tg = np.arange(-5.0, 1.0 + 1e-9, 1.0 / 8.0)
    fld = laxframe.psi11_field(hm, aux_lin, xg, tg)
    fld2 = laxframe.psi11_field(hm, aux_nl, xg, tg)
    assert fld2.w is fld.w
    assert fld2.substeps == fld.substeps
    other = laxframe.psi11_field(copy.copy(hm), aux_nl, xg, tg)
    assert other.w is not fld.w
    assert np.array_equal(other.w, fld.w)
    assert np.array_equal(other.psi11, fld2.psi11)
    assert not np.array_equal(fld2.psi11, fld.psi11)
    with pytest.raises(ValueError):
        fld.w[0, 0, 0] = 1.0


def test_field_sweeps_again_when_the_key_changes(hm, aux_lin, monkeypatch):
    xg = np.arange(-3.0, 3.0 + 1e-9, 1.0 / 8.0)
    tg = np.arange(-5.0, 1.0 + 1e-9, 1.0 / 8.0)
    moved = xg.copy()
    moved[5] += 1e-3
    tmoved = tg.copy()
    tmoved[-1] -= 1e-3
    # each variant follows a field on the base grid, whose sweep it must
    # not reuse
    for x, t, consts in ((moved, tg, {}), (xg, tmoved, {}),
                         (xg, tg, {"SERIES_TERMS": 20}),
                         (xg, tg, {"SWEEP_START": 12.0})):
        base = laxframe.psi11_field(hm, aux_lin, xg, tg)
        with monkeypatch.context() as m:
            for name, value in consts.items():
                m.setattr(laxframe, name, value)
            assert laxframe.psi11_field(hm, aux_lin, x, t).w is not base.w
    # the same nodes in the other order: a fresh sweep, stored in that order
    base = laxframe.psi11_field(hm, aux_lin, xg, tg)
    rev = laxframe.psi11_field(hm, aux_lin, xg[::-1], tg)
    assert rev.w is not base.w
    assert np.array_equal(rev.psi11, base.psi11[::-1])


def test_field_csv_export(tmp_path):
    # `twlab verify-pde` writes every 8th node of each axis, x-major; the
    # gates are stated at step 1/64, so this coarse run may exit 1
    cli.main(["verify-pde", "--grid-step", "0.25", "--out", str(tmp_path)])
    lines = open(tmp_path / "field_coarse.csv").read().strip().split("\n")
    assert lines[0] == "x,t,re_psi11"
    x, t = cli.parse_grid("-3:3:0.25")[::8], cli.parse_grid("-5:1:0.25")[::8]
    assert len(lines) == 1 + len(x) * len(t) == 1 + 4 * 4
    rows = np.loadtxt(tmp_path / "field_coarse.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], np.repeat(x, len(t)))
    assert np.array_equal(rows[:, 1], np.tile(t, len(x)))
