import numpy as np
import pytest

from twlab import auxsys, distribution, laxframe
from twlab.errors import BadInterval, DegenerateGauge, MatchFailure


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


def test_stokes_hastings_mcleod():
    s = laxframe.StokesData.hastings_mcleod()
    assert s.cyclic_residual() == 0
    assert s.is_real_class()
    assert s.ablowitz_segur_a == 1.0


def test_stokes_cyclic_general():
    # Ablowitz-Segur family: s2 = 0, s1 = -i a = -s3
    for a in (0.3, -0.7, 1.0):
        s = laxframe.StokesData(-1j * a, 0.0, 1j * a)
        assert abs(s.cyclic_residual()) < 1e-15
        mats = s.matrices()
        prod = mats[2] @ mats[3]
        want = np.array([[1.0, -a], [a, 1 - a * a]])
        assert np.max(np.abs(prod - want)) < 1e-15


def test_stokes_s3_s4_product():
    mats = laxframe.StokesData.hastings_mcleod().matrices()
    prod = mats[2] @ mats[3]
    assert np.array_equal(prod.real, np.array([[1.0, -1.0], [1.0, 0.0]]))
    assert np.max(np.abs(prod.imag)) == 0.0


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
        w = laxframe._sweep_columns(np.array([t]), np.array([x]), hm, 60.0, +1)[:, 0, 0]
        n1 = ((1 + q2) * x / 2 - al) / np.sqrt(u) * w[0] + np.sqrt(u) * w[1]
        n2 = (1 - q2 * q2) / 4.0 / np.sqrt(u) * w[0]
        devs[x] = (n1.real - lim, n2.real)
    # both deviations decay like 1/x: the x-scaled values agree within 30%
    for comp in (0, 1):
        a = devs[20.0][comp] * 20.0
        b = devs[40.0][comp] * 40.0
        assert abs(a - b) < 0.3 * abs(a)


def test_slab_matching_and_det(hm):
    stokes = laxframe.StokesData.hastings_mcleod()
    row = laxframe.solve_psi0_slab(hm, stokes, -2.0)
    assert row.match_residual < 1e-6
    assert abs(row.match_factor - 1.0) < 1e-6
    dets = row.det_window
    assert np.max(np.abs(dets - dets.mean())) < 1e-8 * abs(dets.mean())


def test_slab_rejects_other_stokes_data(hm):
    with pytest.raises(MatchFailure):
        laxframe.solve_psi0_slab(hm, laxframe.StokesData(-0.5j, 0.0, 0.5j), -2.0)
    with pytest.raises(BadInterval):
        laxframe.solve_psi0_slab(
            hm, laxframe.StokesData.hastings_mcleod(), -2.0, x_max=10.0
        )


def test_f2_bootstrap(hm):
    # the (2,2)-entry route to the classical distribution, non-circular:
    # series init far out, implicit integration in, known ladder removed
    got = laxframe.f2_bootstrap(hm, -2.0)
    want = distribution.eval_F2(hm, -2.0)
    assert abs(got - want) < 1e-7


def test_field_reality_and_boundaries(hm, aux_lin):
    fld = laxframe.psi11_field(
        hm, aux_lin, np.array([6.0]), np.array([4.0])
    )
    assert abs(fld.psi11[0, 0].real - 1.0) < 1e-4
    fld2 = laxframe.psi11_field(hm, aux_lin, np.array([-6.0]), np.array([0.0]))
    assert abs(fld2.psi11[0, 0].real) < 1e-4
    assert fld.max_imag_ratio() < 1e-8


def test_pde_residual_small_grid(hm, aux_lin):
    h = 1.0 / 16.0
    xg = np.arange(-3.0, 3.0 + 1e-9, h)
    tg = np.arange(-5.0, 1.0 + 1e-9, h)
    fld = laxframe.psi11_field(hm, aux_lin, xg, tg)
    r1 = laxframe.edge_pde_residual(fld)
    r2 = laxframe.edge_pde_residual(fld, stride=2)
    assert r1 < 1e-3 * (h * 64) ** 2
    assert 3.0 < r2 / r1 < 5.0
    assert fld.max_imag_ratio() < 1e-8


def test_field_range_guard(hm, aux_lin):
    with pytest.raises(BadInterval):
        laxframe.psi11_field(hm, aux_lin, np.array([0.0]), np.array([-8.0]))


def test_field_csv_export(hm, aux_lin, tmp_path):
    fld = laxframe.psi11_field(
        hm, aux_lin, np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 0.0])
    )
    path = tmp_path / "field.csv"
    fld.export_csv(path)
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "x,t,re_psi11,im_psi11"
    assert len(lines) == 1 + 3 * 2
