"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line with the measured figures; statistical
criteria run with the fixed seed recorded here (1234).
"""

import time
from fractions import Fraction

import numpy as np

from twlab import asymptotics, auxsys, distribution, laxframe, oracles, painleve2, specfun

RECORDED_SEED = 1234
SC = distribution.SCALE_T


def report(k, detail):
    print(f"CRITERION {k}: PASS  [{detail}]")


def test_criterion_1_identity_suite():
    """r2 + t/2 and r1 - (1+q2)/2 vanish for 1000 randomized tuples."""
    rng = np.random.default_rng(RECORDED_SEED)
    t0 = time.perf_counter()
    worst_r2 = worst_r1 = 0.0
    for _ in range(1000):
        t = rng.uniform(-8, 4)
        q2 = rng.uniform(-0.95, 0.95)
        alpha = rng.uniform(-2, 2)
        u = rng.uniform(0.2, 2.0)
        ut = rng.uniform(-2, 2)
        p = auxsys.params_from_state(t, u, ut, q2=q2, alpha=alpha)
        r = auxsys.eval_r_and_integrals(p)
        worst_r2 = max(worst_r2, abs(r.r2 + t / 2))
        worst_r1 = max(worst_r1, abs(r.r1 - (1 + q2) / 2))
    elapsed = time.perf_counter() - t0
    assert worst_r2 <= 1e-12
    assert worst_r1 <= 1e-12
    assert elapsed < 1.0
    report(1, f"max|r2+t/2|={worst_r2:.2e}, max|r1-(1+q2)/2|={worst_r1:.2e}, "
              f"{elapsed:.2f}s")


def test_criterion_2_trajectory_residuals(hm, aux_lin):
    """I0, the two ratio constraints, and the six compatibility residuals
    along the trajectory on [-10, 8]."""
    t0 = time.perf_counter()
    ts = np.linspace(-10.0, 8.0, 37)
    worst_i0 = worst_b = worst_c = worst_comp = 0.0
    for tv in ts:
        p = auxsys.reconstruct_params(aux_lin, hm, float(tv))
        r = auxsys.eval_r_and_integrals(p)
        worst_i0 = max(worst_i0, abs(r.i0))
        worst_b = max(worst_b, abs(p.b - 2 * p.e1 / 3))
        worst_c = max(worst_c, abs(p.c + p.e2 / 3))
        res = auxsys.compatibility_residuals(aux_lin, hm, float(tv))
        worst_comp = max(worst_comp, max(res.values()))
    elapsed = time.perf_counter() - t0
    assert worst_i0 <= 1e-8
    assert worst_b <= 1e-7 and worst_c <= 1e-7
    assert worst_comp <= 1e-6
    assert elapsed < 10.0
    report(2, f"|I0|={worst_i0:.1e}, |b-2e1/3|={worst_b:.1e}, "
              f"|c+e2/3|={worst_c:.1e}, compat={worst_comp:.1e}, {elapsed:.1f}s")


def test_criterion_3_hastings_mcleod():
    """Fresh solve: series window, Airy window, and the omega' identity."""
    t0 = time.perf_counter()
    hm = painleve2.solve_hastings_mcleod()
    worst_series = 0.0
    for tv in np.linspace(-12.0, -8.0, 17):
        diff = abs(hm.eval(tv)[0] - painleve2.eval_series("u", tv, 5))
        bound = 2.0 * painleve2.series_term_magnitude("u", tv, 6)
        worst_series = max(worst_series, diff / bound)
    worst_ai = max(
        abs(hm.eval(tv)[0] - specfun.airy(tv).ai) for tv in np.linspace(5.0, 8.0, 13)
    )
    h = hm.step
    umid = 0.5 * (hm.u[:-1] + hm.u[1:]) + h * (hm.ut[:-1] - hm.ut[1:]) / 8.0
    res_om = np.abs(np.diff(hm.omega) / h - umid**2).max()
    elapsed = time.perf_counter() - t0
    assert worst_series <= 1.0
    assert worst_ai <= 1e-9
    assert res_om <= 1e-7
    assert elapsed < 30.0
    report(3, f"series ratio={worst_series:.2f}, |u-Ai|={worst_ai:.1e}, "
              f"omega'={res_om:.1e}, {elapsed:.1f}s")


def test_criterion_4_route_agreement(aux_lin, aux_nl):
    """Linear vs nonlinear auxiliary routes; series branch at t = -10."""
    ts = np.linspace(-10.0, 8.0, 1801)
    worst = max(abs(aux_lin.q2_at(t) - aux_nl.q2_at(t)) for t in ts)
    assert worst <= 1e-8
    series = painleve2.eval_series("q2", -10.0, 2)
    rel = abs(aux_lin.q2_at(-10.0) - series) / abs(series)
    assert rel <= 0.10
    report(4, f"max|dq2|={worst:.1e}, series mismatch at -10: {rel:.2%}")


def test_criterion_5_cross_oracle_beta2(hm):
    """Painleve route vs integral-operator determinant at seven points."""
    t0 = time.perf_counter()
    worst = 0.0
    for tv in (-8.0, -6.0, -4.0, -2.0, 0.0, 2.0, 4.0):
        worst = max(
            worst,
            abs(distribution.eval_F2(hm, tv) - oracles.airy_kernel_fredholm(tv, 120)),
        )
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 60.0
    report(5, f"max|F2_painleve - F2_det|={worst:.1e}, {elapsed:.1f}s")


def test_criterion_6_pde_residual(hm, aux_lin):
    """Constructed field solves the governing PDE at O(h^2); broken
    constraint inflates the residual by >= 1e3."""
    t0 = time.perf_counter()
    h = 1.0 / 64.0
    xg = np.arange(-3.0, 3.0 + 1e-9, h)
    tg = np.arange(-5.0, 1.0 + 1e-9, h)
    fld = laxframe.psi11_field(hm, aux_lin, xg, tg)
    r1 = laxframe.edge_pde_residual(fld, stride=1)
    r2 = laxframe.edge_pde_residual(fld, stride=2)
    aux_bad = auxsys.integrate_nonlinear(hm, b_constraint_scale=1.0)
    fld_bad = laxframe.psi11_field(hm, aux_bad, xg, tg)
    rb = laxframe.edge_pde_residual(fld_bad, stride=1)
    elapsed = time.perf_counter() - t0
    assert r1 <= 1e-3
    lo, hi = laxframe.RICHARDSON_WINDOW
    assert (lo, hi) == (3.5, 4.5)
    assert lo <= r2 / r1 <= hi
    assert rb / r1 >= 1e3
    assert elapsed < 300.0
    report(6, f"residual={r1:.2e}, ratio={r2/r1:.2f}, inflation={rb/r1:.0f}x, "
              f"{elapsed:.0f}s")


def test_criterion_7_tail_derivative(hm, aux_lin):
    """Internal-variable tail derivative at t=-8; exact coefficient identity."""
    h = 1e-3
    num = (
        distribution.log_F6(hm, aux_lin, (-8.0 + h) / SC)
        - distribution.log_F6(hm, aux_lin, (-8.0 - h) / SC)
    ) / (2 * h)
    pred = asymptotics.tail_logF_derivative(6.0, -8.0 / SC) / SC
    bound = 3.0 * 8.0**-2.5
    assert abs(num - pred) <= bound
    cubic, th_sqrt2, logc = asymptotics.exact_tail_coefficients(Fraction(6))
    assert (cubic, th_sqrt2, logc) == (
        Fraction(-1, 4),
        Fraction(2, 3),
        Fraction(1, 24),
    )
    report(7, f"|deriv diff|={abs(num-pred):.2e} <= {bound:.2e}; "
              f"coefficients (-1/4, 2*sqrt2/3, 1/24) exact")


def test_criterion_8_monte_carlo(hm, aux_lin, fredholm_table):
    """Recorded-seed ensemble sampling against both distribution routes."""
    t0 = time.perf_counter()
    s2 = oracles.sample_edge(400, 2.0, 20000, RECORDED_SEED)
    ks2 = oracles.ks_distance(s2, fredholm_table.cdf)
    grid = np.linspace(-4.5, 3.5, 401)
    table6 = distribution.tabulate(hm, aux_lin, 6, grid)
    s6 = oracles.sample_edge(400, 6.0, 20000, RECORDED_SEED)
    ks6 = oracles.ks_distance(s6, table6.cdf)
    elapsed = time.perf_counter() - t0
    assert ks2 <= 0.02
    assert ks6 <= 0.03
    assert elapsed < 600.0
    report(8, f"KS(beta=2)={ks2:.4f} <= 0.02, KS(beta=6)={ks6:.4f} <= 0.03, "
              f"seed={RECORDED_SEED}, {elapsed:.0f}s")


def test_criterion_8_beta6_other_seeds(hm, aux_lin):
    """Criterion 8's beta = 6 bound holds away from the recorded seed too."""
    table6 = distribution.tabulate(hm, aux_lin, 6, np.linspace(-4.5, 3.5, 401))
    ks6 = [oracles.ks_distance(oracles.sample_edge(400, 6.0, 20000, seed), table6.cdf)
           for seed in range(1, 6)]
    print(f"KS(beta=6) at seeds 1-5: {np.round(ks6, 4).tolist()}")
    assert max(ks6) <= 0.03


def test_criterion_9_constant_report(hm, hm_deep, aux_deep):
    """Extracted constants vs the closed form: reported at beta = 6, where
    the fixtures' solve is too shallow to gate."""
    c0_2, drift2 = asymptotics.extract_constant(
        lambda t: distribution.log_F2(hm, t), 2.0, (-9.0, -7.0)
    )
    c0_6, drift6 = asymptotics.extract_constant(
        lambda t: distribution.log_F6(hm_deep, aux_deep, t), 6.0, (-6.8, -5.0)
    )
    f2, f6 = asymptotics.eval_c0(2.0), asymptotics.eval_c0(6.0)
    print(
        "CRITERION 9: REPORT (beta=6 non-gating)\n"
        f"  beta=2: extracted c0 = {c0_2:+.6f} (drift {drift2:+.1e}), "
        f"closed form = {f2:+.6f}, gap = {c0_2 - f2:+.1e}\n"
        f"  beta=6: extracted c0 = {c0_6:+.6f} (drift {drift6:+.1e}), "
        f"closed form = {f6:+.6f}, gap = {c0_6 - f6:+.1e}\n"
        "  the closed form meets the proven beta = 1, 2, 4 constants to 1e-15 "
        "(test_asymptotics); the beta=6 gap is that of a two-term fit on a "
        "shallow window, so it is reported, not gated"
    )
    # the extraction machinery itself is validated against the known value
    assert abs(c0_2 - (-0.1365400111756436)) < 5e-3
    assert np.isfinite(c0_6) and np.isfinite(drift6)
