import json

import numpy as np
import pytest

from twlab import auxsys, painleve2
from twlab.errors import BadInterval, BlowUp, DegenerateQ2, PoleEncountered


def test_initial_data_self_check(aux_lin):
    assert abs(aux_lin.q2_at(aux_lin.t_start) + 1.0) < 1e-12
    assert abs(aux_lin.alpha_at(aux_lin.t_start)) < 1e-12


def test_scale_invariance_of_ratios(hm, aux_lin):
    scaled = auxsys.integrate_linear(hm, init=(0.0, 7.0, 0.0))
    for t in (-9.0, -4.0, 0.0, 5.0):
        assert abs(scaled.q2_at(t) - aux_lin.q2_at(t)) < 1e-12


def test_q2_matches_second_branch_series(aux_lin):
    for t, tol in ((-8.0, 0.10), (-10.0, 0.10)):
        series = painleve2.eval_series("q2", t, 2)
        assert abs(aux_lin.q2_at(t) - series) / abs(series) < tol


def test_cross_route_agreement(aux_lin, aux_nl):
    ts = np.linspace(-10.0, 8.0, 1801)
    d = max(abs(aux_lin.q2_at(t) - aux_nl.q2_at(t)) for t in ts)
    assert d < 1e-8
    da = max(abs(aux_lin.alpha_at(t) - aux_nl.alpha_at(t)) for t in ts)
    assert da < 1e-8


def test_alpha_from_q2_formula(hm, aux_lin):
    # alpha = (3/2) q2'/q2 - (u'/u)(1+q2)(2-q2)/(2 q2), q2' by differences
    h = 5e-4
    for t in (-3.0, -2.0, 2.0, 5.0):
        q = np.array([aux_lin.q2_at(t + k * h) for k in range(-2, 3)])
        q2t = (q[0] - 8 * q[1] + 8 * q[3] - q[4]) / (12 * h)
        u, ut, _ = hm.eval(t)
        lu = ut / u
        q2 = q[2]
        alpha = 1.5 * q2t / q2 - lu * (1 + q2) * (2 - q2) / (2 * q2)
        assert abs(alpha - aux_lin.alpha_at(t)) < 1e-7


def test_nonlinear_fixed_point_stationary(aux_nl):
    # (q2, alpha) = (-1, 0) is stationary to leading order: the deviation
    # stays at the driving u^2 scale near the start point
    assert abs(aux_nl.delta_at(11.0)) < 1e-20
    assert abs(aux_nl.alpha_at(11.0)) < 1e-20


def test_kappa_normalization(hm, aux_lin):
    ku = np.exp(aux_lin.log_kappa_at(aux_lin.t_start)) * np.sqrt(
        hm.eval(aux_lin.t_start)[0]
    )
    assert abs(ku - 1.0) < 1e-9


def test_kappa_rate_near_start(hm, aux_lin):
    # d/dt log kappa -> -(1/2) d/dt log u as t -> t_start
    t = aux_lin.t_start - 0.5
    u, ut, _ = hm.eval(t)
    om = hm.omega_smooth(t)
    q2 = aux_lin.q2_at(t)
    al = aux_lin.alpha_at(t)
    rate = -om / 3 - 2 * al / 3 - (ut / u) * (1 - 2 * q2) / 6
    assert abs(rate + 0.5 * ut / u) < 1e-10


def test_kappa_truncation_robustness(hm, aux_lin):
    # moving the start point from 12 to 11 changes log kappa below 1e-7;
    # the 8-vs-9 comparison measures ~1e-6 (the start-truncation error of
    # the shorter runs) and is reported, not asserted
    aux11 = auxsys.integrate_linear(hm, t_start=11.0, t_end=-9.0)
    ts = np.linspace(-8.0, 6.0, 57)
    d = max(abs(aux_lin.log_kappa_at(t) - aux11.log_kappa_at(t)) for t in ts)
    assert d < 1e-7
    aux9 = auxsys.integrate_linear(hm, t_start=9.0, t_end=-9.0)
    aux8 = auxsys.integrate_linear(hm, t_start=8.0, t_end=-9.0)
    d98 = max(abs(aux9.log_kappa_at(t) - aux8.log_kappa_at(t)) for t in ts)
    print(f"log-kappa start-point sensitivity 8 vs 9: {d98:.2e}")
    assert d98 < 1e-5


def test_compute_log_kappa_recompute(hm, aux_lin):
    out = auxsys.compute_log_kappa(aux_lin, hm)
    drift = [d for t, d in out.diagnostics if str(d).startswith("log-kappa")]
    assert drift
    assert float(str(drift[-1]).split(":")[1]) < 1e-6


def test_pole_encountered_guard(hm):
    with pytest.raises(PoleEncountered):
        auxsys.integrate_linear(hm, t_start=8.0, t_end=-2.0, init=(1.0, 0.999, -10.0))


def test_q2_zero_event_recorded(aux_lin):
    zeros = aux_lin.q2_zero_locations()
    assert len(zeros) == 1
    assert abs(zeros[0] + 4.0236) < 2e-3


def test_blowup_guard(hm, monkeypatch):
    monkeypatch.setattr(auxsys, "BLOWUP_GUARD", 1e-3)
    with pytest.raises(BlowUp) as exc:
        auxsys.integrate_nonlinear(hm, t_end=-3.0)
    assert exc.value.t > -3.0


def test_randomized_r_identities():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        t = rng.uniform(-8, 4)
        q2 = rng.uniform(-0.95, 0.95)
        alpha = rng.uniform(-2, 2)
        u = rng.uniform(0.2, 2.0)
        ut = rng.uniform(-2, 2)
        p = auxsys.params_from_state(t, u, ut, q2=q2, alpha=alpha)
        r = auxsys.eval_r_and_integrals(p)
        assert abs(r.r2 + t / 2) < 1e-12
        assert abs(r.r1 - (1 + q2) / 2) < 1e-12
        assert abs(r.i1) < 1e-12
        assert abs(r.i2) < 1e-12
        assert abs(r.r0 - auxsys.r0_closed_form(p)) < 1e-10
        assert abs(r.i0) < 1e-10
        # the relation a = d + q2 (b - e1) + q1 is built in algebraically
        assert abs(p.a - p.d - q2 * (p.b - p.e1) - p.q1) < 1e-12 * max(
            1.0, abs(p.a)
        )


def test_q0_at_start(hm, aux_lin):
    # q0 = 2 alpha u'/u - 2 delta -> t + 2u^2 ~ t_start (u exponentially small)
    t = aux_lin.t_start - 1e-3
    p = auxsys.reconstruct_params(aux_lin, hm, t, mode="ode")
    assert abs(p.q0 - aux_lin.t_start) < 2e-3


def test_trajectory_i0_and_constraints(hm, aux_lin):
    for t in (-4.0, -1.0, 2.0):
        p = auxsys.reconstruct_params(aux_lin, hm, t)
        r = auxsys.eval_r_and_integrals(p)
        assert abs(r.i0) < 1e-8
        assert abs(p.b - 2 * p.e1 / 3) < 1e-7
        assert abs(p.c + p.e2 / 3) < 1e-7


def test_compatibility_residuals(hm, aux_lin):
    for t in (-6.0, -2.5, 1.0):
        res = auxsys.compatibility_residuals(aux_lin, hm, t)
        assert max(res.values()) < 1e-6


def test_eta_residual_and_convergence(hm, aux_lin):
    r = auxsys.eta_residual(aux_lin, hm, -4.0, 1e-3)
    assert r < 1e-4
    r8 = auxsys.eta_residual(aux_lin, hm, -4.0, 8e-3)
    r4 = auxsys.eta_residual(aux_lin, hm, -4.0, 4e-3)
    assert 2.5 < r8 / r4 < 6.0


def test_q2eq3_residual(hm, aux_lin):
    assert auxsys.q2eq3_residual(aux_lin, hm, -4.0, 1e-3) < 1e-4


def test_eta_linearized_residual(hm, aux_lin):
    assert auxsys.eta_linearized_residual(aux_lin, hm, -4.0, 1e-3) < 1e-4


def test_degenerate_q2_guard():
    with pytest.raises(DegenerateQ2):
        auxsys.params_from_state(0.0, 1.0, 0.1, q2=-1.0, alpha=0.0)


def test_route_preconditions(hm):
    with pytest.raises(BadInterval):
        auxsys.integrate_linear(hm, t_start=7.0)
    with pytest.raises(BadInterval):
        auxsys.integrate_linear(hm, t_end=hm.t_min - 5.0)


def test_exports(aux_lin, tmp_path):
    csv_path = tmp_path / "aux.csv"
    auxsys.export_csv(aux_lin, csv_path)
    head = open(csv_path).readline().strip()
    assert head == "t,mu_plus,mu_minus,nu,q2,alpha,log_kappa"
    # the alpha column is one array call; rows equal the scalar calls
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    for i in (0, 1234, 5000, len(rows) - 1):
        assert rows[i, 5] == aux_lin.alpha_at(rows[i, 0])
    diag_path = tmp_path / "aux.json"
    auxsys.export_diagnostics(aux_lin, diag_path)
    payload = json.load(open(diag_path))
    assert payload["route"] == "linear"
    assert any(e["event"] == "q2-zero" for e in payload["events"])
