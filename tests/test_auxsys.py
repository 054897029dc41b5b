import copy
import dataclasses
import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from twlab import auxsys, cli, painleve2, rk
from twlab.errors import BadInterval, BlowUp, DegenerateQ2, PoleEncountered, StepFailure


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


def test_log_kappa_routes_agree(aux_lin, aux_nl):
    # log kappa rides along as a quadrature on the linear route and as a
    # state of the nonlinear one (measured gap 3.0e-12)
    ts = np.linspace(-10.5, 11.5, 441)
    assert np.max(np.abs(aux_lin.log_kappa_at(ts) - aux_nl.log_kappa_at(ts))) <= 1e-10


def _linear_part(hm):
    f = painleve2.fast_eval(hm)

    def rhs(t, y):
        u, ut, om = f(t)
        lu = ut / u
        return [
            (2.0 / 3.0) * lu * y[0] - y[2] / 3.0,
            -(2.0 / 3.0) * lu * y[1] + y[2] / 3.0,
            (2.0 / 3.0) * u * u * y[1] + (2.0 / 3.0) * (om / (u * u)) * y[0],
        ]

    return rhs


def test_pole_encountered_guard(hm):
    init = (1.0, 0.999, -10.0)
    with pytest.raises(PoleEncountered) as exc:
        auxsys.integrate_linear(hm, t_start=8.0, t_end=-2.0, init=init)
    # the (mu+, mu-, nu) part alone has no pole: find chi's zero on it
    sol = rk.solve_rk(_linear_part(hm), 8.0, -2.0, init, h_out=1e-4)
    chi = sol.y[0] - sol.y[1]
    t_zero = sol.t[np.argmax(chi <= 0)]
    # the guard stops 0.0016 from chi's zero, at step caps 0.05 and 0.2
    assert abs(exc.value.t - t_zero) <= 0.005


def test_step_failure_propagates_with_its_t(hm, monkeypatch):
    # the guard reports every pole, so a failed step is not relabelled
    def fail(*args, **kwargs):
        raise StepFailure(3.5)

    monkeypatch.setattr(auxsys, "solve_linear", fail)
    with pytest.raises(StepFailure) as exc:
        auxsys.integrate_linear(hm)
    assert exc.value.t == 3.5


def test_linear_route_matches_stagewise_dop853(hm, aux_lin):
    # the route as scipy's adaptive DOP853 integrates it, one RHS call per
    # stage, on the 7-channel system, with steps capped at 0.05 as an
    # accurate reference; measured gaps: q2 4.6e-15, alpha 4.2e-15,
    # log kappa 7.8e-14, J 9.7e-15 relative to max(1, |J|)
    f = painleve2.fast_eval(hm)
    linear = _linear_part(hm)

    def rhs(t, y):
        u, ut, om = f(t)
        lu = ut / u
        mp_, mm_, nu_ = y[0], y[1], y[2]
        chi = mp_ - mm_
        al = nu_ / chi - lu * mp_ / chi
        q2 = (mp_ + mm_) / chi
        return [
            *linear(t, y),
            -om / 3.0 - 2.0 * al / 3.0 - lu * (1.0 - 2.0 * q2) / 6.0,
            om,
            al,
            lu * 2.0 * mp_ / chi,
        ]

    y0 = [0.0, 1.0, 0.0, -0.5 * np.log(f(12.0)[0]), 0.0, 0.0, 0.0]
    sol = solve_ivp(rhs, (12.0, -11.0), y0, method="DOP853", rtol=1e-13,
                    atol=1e-24, max_step=0.05, dense_output=True)
    t = aux_lin.grid
    y = sol.sol(t)
    ref = auxsys.AuxSolution("linear", 12.0, -11.0, hm,
                             rk.HermiteTable(t, y, np.array(rhs(t, y))))
    assert np.max(np.abs(aux_lin.q2_at(t) - ref.q2_at(t))) <= 2e-14
    assert np.max(np.abs(aux_lin.alpha_at(t) - ref.alpha_at(t))) <= 2e-14
    assert np.max(np.abs(aux_lin.log_kappa_at(t) - ref.log_kappa_at(t))) <= 2e-13
    for j, j_ref in zip(aux_lin.integrals_from_start(t), ref.integrals_from_start(t)):
        assert np.max(np.abs(j - j_ref) / np.maximum(1.0, np.abs(j_ref))) <= 5e-14
    # the first pass, 115 steps of 0.2, fails DOP853's error test and sets
    # the step of the accepted second pass
    assert aux_lin.step_shrinks == 1
    assert aux_lin.rhs_calls == 16 * (115 + aux_lin.steps) <= 11_000


def test_q2_zero_event_recorded(aux_lin):
    zeros = aux_lin.q2_zero_locations()
    assert len(zeros) == 1
    assert abs(zeros[0] + 4.0236) < 2e-3


@pytest.mark.parametrize("route", ["aux_lin", "aux_nl"])
def test_q2_zero_bisection_takes_one_lookup_per_step(request, route):
    aux = copy.copy(request.getfixturevalue(route))
    (i,) = np.nonzero(np.diff(np.sign(aux.q2_nodes())))[0]
    # the bisection as first written, with the sign at t0 looked up anew
    t0, t1 = aux.grid[i], aux.grid[i + 1]
    for _ in range(60):
        tm = 0.5 * (t0 + t1)
        if np.sign(aux.q2_at(tm)) == np.sign(aux.q2_at(t0)):
            t0 = tm
        else:
            t1 = tm
    calls = []
    q2_at = aux.q2_at
    aux.q2_at = lambda t: calls.append(t) or q2_at(t)
    assert auxsys._q2_zero_events(aux) == [(0.5 * (t0 + t1), "q2-zero")]
    assert len(calls) == 61


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


def test_r_identities_hold_at_every_seed():
    # criterion 1's generator at 50 seeds: in float64, r1 missed (1 + q2)/2
    # by more than 1e-12 at ~16% of seeds (worst 6e-12), r2 missed -t/2 at
    # ~4%
    worst_r1 = worst_r2 = 0.0
    for seed in range(50):
        # the same values as drawing t, q2, alpha, u, ut one at a time
        tuples = np.random.default_rng(seed).uniform(
            [-8, -0.95, -2, 0.2, -2], [4, 0.95, 2, 2.0, 2], (1000, 5))
        for t, q2, alpha, u, ut in tuples.tolist():
            r = auxsys.eval_r_and_integrals(
                auxsys.params_from_state(t, u, ut, q2=q2, alpha=alpha))
            worst_r1 = max(worst_r1, abs(r.r1 - (1 + q2) / 2))
            worst_r2 = max(worst_r2, abs(r.r2 + t / 2))
    assert worst_r1 <= 1e-12
    assert worst_r2 <= 1e-12


@pytest.mark.parametrize("t, q2, alpha, u, ut", [
    # tuples of criterion 1's generator at seeds 96, 99 and 140 where r1,
    # evaluated in double-double from the rounded e1 and q1 alone, missed
    # (1 + q2)/2 by 1.3e-12, 1.5e-12 and 1.02e-12
    (-7.154555390110476, 0.9301674169408303, -1.9152749038170973,
     0.20649956131782643, -1.8488458272424881),
    (-0.04692360770138926, 0.9390739722216614, -1.6881623585333103,
     0.21434117684627027, -1.8979814827821193),
    (-2.345664770552256, 0.9429753458634444, -1.4286811574519622,
     0.2221256592866985, 1.893569908920398),
], ids=["seed96", "seed99", "seed140"])
def test_r1_needs_the_e1_q1_remainders(t, q2, alpha, u, ut):
    p = auxsys.params_from_state(t, u, ut, q2=q2, alpha=alpha)
    assert abs(auxsys.eval_r_and_integrals(p).r1 - (1 + q2) / 2) <= 1e-12


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


def _reference_reconstruct_params(aux, hm, t, mode="fd", h=5e-4):
    # the reconstruction one float lookup at a time, as it was written
    # before it took its stencils from one array lookup
    u, ut, omega = hm.eval(t)
    dq = float(aux.delta_at(t))
    alpha = float(aux.alpha_at(t))
    klog = float(aux.log_kappa_at(t))
    kwargs = {}
    if mode == "fd":
        stencil = t + h * np.arange(-2.0, 3.0)
        kwargs = dict(
            q2_t=float(rk.diff5(aux.delta_at(stencil), h)[2]),
            alpha_t=float(rk.diff5(aux.alpha_at(stencil), h)[2]),
            kappa_t_over_kappa=float(rk.diff5(aux.log_kappa_at(stencil), h)[2]),
        )
    return auxsys.params_from_state(
        t, float(u), float(ut), alpha=alpha, delta_q2=dq, kappa_log=klog, **kwargs
    )


def _reference_compatibility_residuals(aux, hm, t, h=5e-4):
    stencil = [_reference_reconstruct_params(aux, hm, t + k * h) for k in range(-2, 3)]
    p = stencil[2]
    lhs = {
        name: float(rk.diff5(np.array([getattr(s, name) for s in stencil]), h)[2])
        for name in ("e1", "e2", "e3", "q0", "q1", "q2")
    }
    one = p.q2 * p.q2 - 1.0
    rhs = {
        "e1": (p.b - p.e1) * (p.q2 * p.e1 - p.q1) + p.q2 * (p.c + p.e2) - p.q0,
        "e2": -2.0
        + p.q2 * (p.b * p.e2 + p.e3 - p.e1 * p.e2)
        + p.q1 * p.e2
        + p.q1 * p.c
        - p.q0 * p.b,
        "e3": p.e3 * (p.q1 - p.q2 * p.e1 + p.q2 * p.b) + p.q0 * p.c - p.b,
        "q0": -p.q2
        + 0.5 * p.e3 * one
        + p.c * (p.q1 * p.q2 + 0.5 * p.e1 * (1.0 - p.q2 * p.q2)),
        "q1": -p.q1 * p.q2 * p.b + 0.5 * one * (p.e2 + p.b * p.e1 + p.c),
        "q2": one * (p.e1 - 0.5 * p.b) - p.q1 * p.q2,
    }
    return {name: abs(lhs[name] - rhs[name]) for name in lhs}


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.int64)


def test_reconstruction_matches_float_reference(hm, aux_lin, aux_nl):
    # the verification nodes of verify-identities and criterion 2
    for aux in (aux_lin, aux_nl):
        for t in np.linspace(-10.0, 8.0, 37).tolist():
            for mode in ("fd", "ode"):
                p = auxsys.reconstruct_params(aux, hm, t, mode)
                ref = _reference_reconstruct_params(aux, hm, t, mode)
                assert all(type(v) is float for v in dataclasses.astuple(p))
                assert np.array_equal(_bits(dataclasses.astuple(p)),
                                      _bits(dataclasses.astuple(ref)))
            res = auxsys.compatibility_residuals(aux, hm, t)
            ref = _reference_compatibility_residuals(aux, hm, t)
            assert list(res) == list(ref)
            assert all(type(v) is float for v in res.values())
            assert np.array_equal(_bits(list(res.values())), _bits(list(ref.values())))


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
    # `twlab aux-solve` with the fixtures' solve settings writes aux_lin
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "hm": {"t_min": -13.0, "t_max": 13.0, "n": 52001, "tol": 1e-11},
        "aux": {"t_start": 12.0, "t_end": -11.0},
    }))
    assert cli.main(["aux-solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    csv_path = tmp_path / "aux.csv"
    head = open(csv_path).readline().strip()
    assert head == "t,mu_plus,mu_minus,nu,q2,alpha,log_kappa"
    # the alpha column is one array call; rows equal the scalar calls
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    for i in (0, 1234, 5000, len(rows) - 1):
        assert rows[i, 5] == aux_lin.alpha_at(rows[i, 0])
    payload = json.load(open(tmp_path / "aux_diagnostics.json"))
    assert payload["route"] == "linear"
    assert (payload["steps"], payload["step_shrinks"]) == (aux_lin.steps, 1)
    assert payload["rhs_calls"] == aux_lin.rhs_calls
    assert any(e["event"] == "q2-zero" for e in payload["events"])
