"""Auxiliary trajectory systems and Lax-pair parameter reconstruction.

Two routes to the pair (q2, alpha): the linear 3x3 system for
(mu+, mu-, nu) with q2 = (mu+ + mu-)/(mu+ - mu-), and the nonlinear
first-order system. Both are integrated backward from t_start, where
(q2, alpha) -> (-1, 0); the nonlinear route is carried in the variable
delta = 1 + q2 because the deviation from the fixed point is far below
the representable neighborhood of -1 near t_start. log kappa and the
three tail integrals entering the distribution formula ride along as
augmented quadrature states.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import painleve2
from .errors import (
    BadInterval,
    BlowUp,
    DegenerateDenominator,
    DegenerateQ2,
    PoleEncountered,
    StepFailure,
)
from .rk import HermiteTable, diff5, solve_rk

__all__ = [
    "AuxSolution",
    "LaxParams",
    "RIntegrals",
    "integrate_linear",
    "integrate_nonlinear",
    "compute_log_kappa",
    "reconstruct_params",
    "params_from_state",
    "eval_r_and_integrals",
    "r0_closed_form",
    "eta_residual",
    "q2eq3_residual",
    "compatibility_residuals",
    "export_csv",
    "export_diagnostics",
]

# bound on |q2| (linear route) and on |delta|, |alpha| (nonlinear route);
# the solved trajectories stay below 3
BLOWUP_GUARD = 1e6


@dataclass(eq=False)
class AuxSolution:
    """Dense auxiliary trajectory plus quadrature channels.

    Linear route state: (mu+, mu-, nu, log_kappa, J_omega, J_alpha, J_one)
    where J_x(t) = integral from t_start to t of (omega, alpha,
    (u'/u)(1+q2)). Nonlinear route state: (delta, alpha, log_kappa).
    """

    route: str
    t_start: float
    t_end: float
    hm: painleve2.Painleve2Solution
    table: HermiteTable
    rhs_calls: int = 0
    diagnostics: list = field(default_factory=list)
    tail_int_omega: float = 0.0
    b_constraint_scale: float = 2.0 / 3.0

    # --- channel accessors (dense, cubic Hermite) ---
    def delta_at(self, t):
        """1 + q2, cancellation-free near the t_start fixed point."""
        y = self.table(t)
        if self.route == "linear":
            return 2 * y[0] / (y[0] - y[1])
        return y[0]

    def q2_at(self, t):
        y = self.table(t)
        if self.route == "linear":
            return (y[0] + y[1]) / (y[0] - y[1])
        return y[0] - 1.0

    def alpha_at(self, t):
        y = self.table(t)
        if self.route == "linear":
            u, ut, _ = self.hm.eval(t)
            lu = ut / u
            chi = y[0] - y[1]
            return y[2] / chi - lu * y[0] / chi
        return y[1]

    def log_kappa_at(self, t):
        y = self.table(t)
        return y[3] if self.route == "linear" else y[2]

    def integrals_from_start(self, t):
        """(int omega, int alpha, int (u'/u)(1+q2)) from t_start down to t."""
        if self.route != "linear":
            raise BadInterval("integral channels exist only on the linear route")
        y = self.table(t)
        return y[4], y[5], y[6]

    @property
    def grid(self):
        return self.table.t

    def q2_nodes(self):
        y = self.table.y
        if self.route == "linear":
            return (y[0] + y[1]) / (y[0] - y[1])
        return y[0] - 1.0

    def q2_zero_locations(self):
        return [t for t, name in self.diagnostics if name == "q2-zero"]


def _first(t, flagged):
    """First flagged t on a backward route (the largest). The route RHS
    sees scalars inside a step and arrays at the output nodes."""
    return float(np.max(np.where(flagged, t, -np.inf)))


def _q2_zero_events(aux):
    """Sign changes of q2 between output nodes, refined by bisection on the
    interpolant; returns [(t, "q2-zero")]."""
    ts = aux.grid
    s = np.sign(aux.q2_nodes())
    out = []
    for i in np.nonzero(s[:-1] * s[1:] < 0)[0]:
        t0, t1 = ts[i], ts[i + 1]
        for _ in range(60):
            tm = 0.5 * (t0 + t1)
            if np.sign(aux.q2_at(tm)) == np.sign(aux.q2_at(t0)):
                t0 = tm
            else:
                t1 = tm
        out.append((0.5 * (t0 + t1), "q2-zero"))
    return out


def integrate_linear(
    hm: painleve2.Painleve2Solution,
    t_start: float = 12.0,
    t_end: float = -11.0,
    tol: float = 1e-13,
    h_out: float = 0.002,
    init=(0.0, 1.0, 0.0),
) -> AuxSolution:
    """Integrate the linear (mu+, mu-, nu) system backward from t_start.

    Initial data (0, 1, 0) realizes q2 = -1, q1 = 0 (hence alpha = 0) at
    t_start; any nonzero rescaling of it leaves q2 and q1 unchanged.
    """
    if t_start < 8.0:
        raise BadInterval("integrate_linear: t_start >= 8 required")
    if not (hm.t_min <= t_end < t_start <= hm.t_max):
        raise BadInterval("integrate_linear: [t_end, t_start] not inside hm range")
    f = painleve2.fast_eval(hm)
    u_start = f(t_start)[0]
    chi_sign = np.sign(init[0] - init[1])
    if chi_sign == 0:
        raise PoleEncountered("initial data has mu_plus = mu_minus")

    def rhs(t, y):
        u, ut, om = f(t)
        lu = ut / u
        mp_, mm_, nu_ = y[0], y[1], y[2]
        chi = mp_ - mm_
        # chi crossing zero, or |q2| = |mu+ + mu-| / |chi| past the guard:
        # near a pole roundoff in chi would otherwise creep the steps on
        pole = (chi_sign * chi <= 0) | (abs(mp_ + mm_) > BLOWUP_GUARD * abs(chi))
        if pole.any():
            raise PoleEncountered(f"q2 pole near t={_first(t, pole):.6f}")
        al = nu_ / chi - lu * mp_ / chi
        q2 = (mp_ + mm_) / chi
        return [
            (2.0 / 3.0) * lu * mp_ - nu_ / 3.0,
            -(2.0 / 3.0) * lu * mm_ + nu_ / 3.0,
            (2.0 / 3.0) * u * u * mm_ + (2.0 / 3.0) * (om / (u * u)) * mp_,
            -om / 3.0 - 2.0 * al / 3.0 - lu * (1.0 - 2.0 * q2) / 6.0,
            om,
            al,
            lu * 2.0 * mp_ / chi,
        ]

    y0 = [init[0], init[1], init[2], -0.5 * np.log(u_start), 0.0, 0.0, 0.0]
    try:
        sol = solve_rk(rhs, t_start, t_end, y0, rtol=tol, atol=1e-24, h_out=h_out)
    except StepFailure as exc:
        # the (mu+, mu-, nu) channels are linear with smooth coefficients:
        # only the 1/chi quadrature channels can stop the integrator
        raise PoleEncountered(
            f"integration stopped near t={exc.t:.6f} (q2 pole)"
        ) from exc
    aux = AuxSolution(
        route="linear",
        t_start=float(t_start),
        t_end=float(t_end),
        hm=hm,
        table=HermiteTable(sol.t, sol.y, sol.yp),
        rhs_calls=sol.rhs_calls,
        tail_int_omega=hm.int_omega_to_inf(t_start),
    )
    aux.diagnostics = _q2_zero_events(aux)
    return aux


def integrate_nonlinear(
    hm: painleve2.Painleve2Solution,
    t_start: float = 12.0,
    t_end: float = -11.0,
    tol: float = 1e-13,
    h_out: float = 0.002,
    b_constraint_scale: float = 2.0 / 3.0,
) -> AuxSolution:
    """Integrate the nonlinear (q2, alpha) system backward from (-1, 0).

    Internally carries delta = 1 + q2. b_constraint_scale is the ratio
    enforced between the two x-linear entries of the time Lax matrix; the
    value 2/3 gives the distribution's equations, any other value is a
    deliberately broken constraint used as the negative control of the
    PDE verification.
    """
    if t_start < 8.0:
        raise BadInterval("integrate_nonlinear: t_start >= 8 required")
    if not (hm.t_min <= t_end < t_start <= hm.t_max):
        raise BadInterval("integrate_nonlinear: [t_end, t_start] not inside hm range")
    f = painleve2.fast_eval(hm)
    lam = b_constraint_scale

    def rhs(t, y):
        u, ut, om = f(t)
        lu = ut / u
        d, al = y[0], y[1]
        blown = np.maximum(abs(d), abs(al)) > BLOWUP_GUARD
        if blown.any():
            raise BlowUp(_first(t, blown))
        ddot = 2.0 * (1.0 - lam) * al * (d - 1.0) + lu * d - (lam / 2.0) * lu * d * d
        aldot = (
            al * ((2.0 / 3.0) * al + lu * (3.0 - d) / 3.0)
            - (t / 6.0) * d
            - (u * u / 3.0) * (2.0 + d)
        )
        q2 = d - 1.0
        lkdot = -om / 3.0 - 2.0 * al / 3.0 - lu * (1.0 - 2.0 * q2) / 6.0
        return [ddot, aldot, lkdot]

    u_start = f(t_start)[0]
    sol = solve_rk(
        rhs,
        t_start,
        t_end,
        [0.0, 0.0, -0.5 * np.log(u_start)],
        rtol=tol,
        atol=1e-24,
        h_out=h_out,
    )
    aux = AuxSolution(
        route="nonlinear",
        t_start=float(t_start),
        t_end=float(t_end),
        hm=hm,
        table=HermiteTable(sol.t, sol.y, sol.yp),
        rhs_calls=sol.rhs_calls,
        tail_int_omega=hm.int_omega_to_inf(t_start),
        b_constraint_scale=lam,
    )
    aux.diagnostics = _q2_zero_events(aux)
    return aux


def compute_log_kappa(aux: AuxSolution, hm: painleve2.Painleve2Solution) -> AuxSolution:
    """Re-derive log kappa from the stored (q2, alpha) trajectory.

    log kappa(t) = -0.5 log u(t_start) + int_{t_start}^t
    (-omega/3 - 2 alpha/3 - (u'/u)(1 - 2 q2)/6) ds, so kappa sqrt(u) -> 1
    at t_start. Returns the same AuxSolution (the channel is already
    normalized this way during integration; this recomputes it from the
    dense trajectory as an independent consistency pass).
    """
    f = painleve2.fast_eval(hm)

    def rhs(t, y):
        u, ut, om = f(t)
        lu = ut / u
        q2 = aux.q2_at(t)
        al = aux.alpha_at(t)
        return [-om / 3.0 - 2.0 * al / 3.0 - lu * (1.0 - 2.0 * q2) / 6.0]

    u_start = f(aux.t_start)[0]
    sol = solve_rk(
        rhs,
        aux.t_start,
        aux.t_end,
        [-0.5 * np.log(u_start)],
        rtol=1e-13,
        atol=1e-18,
        h_out=0.004,
    )
    drift = float(np.max(np.abs(aux.log_kappa_at(sol.t) - sol.y[0])))
    aux.diagnostics.append((aux.t_start, f"log-kappa-recompute-drift:{drift:.3e}"))
    return aux


# ---------------------------------------------------------------------------
# Lax-pair parameter reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaxParams:
    t: float
    u: float
    ut: float
    omega: float
    q2: float
    alpha: float
    kappa_log: float
    q1: float
    q0: float
    e1: float
    e2: float
    e3: float
    a: float
    d: float
    b: float
    c: float
    U: float
    delta: float
    w: float


@dataclass(frozen=True)
class RIntegrals:
    r2: float
    r1: float
    r0: float
    i0: float
    i1: float
    i2: float


def params_from_state(
    t: float,
    u: float,
    ut: float,
    q2: float | None = None,
    alpha: float = 0.0,
    *,
    delta_q2: float | None = None,
    kappa_log: float = 0.0,
    q2_t: float | None = None,
    alpha_t: float | None = None,
    kappa_t_over_kappa: float | None = None,
) -> LaxParams:
    """Build all Lax parameters from free values (q2, alpha, u, ut, t).

    delta_q2 = 1 + q2 may be passed instead of q2: near the t_start fixed
    point (q2 -> -1) every 1 + q2 and 1 - q2^2 combination is formed from
    it directly, which keeps the 0/0 limits of the e-parameters accurate.
    Derivative-bearing entries (a, d, b, c, U) use the supplied derivatives
    when given, else the constraint closed forms.
    """
    if delta_q2 is None:
        if q2 is None:
            raise BadInterval("params_from_state: give q2 or delta_q2")
        delta_q2 = 1.0 + q2
    dq = float(delta_q2)
    q2 = dq - 1.0
    one_m = dq * (2.0 - dq)          # 1 - q2^2
    one_minus = 2.0 - dq             # 1 - q2
    if abs(one_m) < 1e-280:
        raise DegenerateQ2(f"1 - q2^2 vanishes at q2={q2}")
    lu = ut / u
    omega = u**4 + t * u**2 - ut**2
    delta = -t / 2.0 - u * u
    q1 = 2 * alpha + lu * dq
    q0 = 2 * alpha * lu - 2 * delta
    e1 = -4 * alpha * q2 / one_m - lu * dq / one_minus
    e2 = (4.0 / one_m) * (-(alpha**2) + u * u + dq * delta - dq * alpha * lu)
    e3 = -(4.0 / one_m) * (-2 * alpha * delta + alpha**2 * lu + ut * u + dq / 2.0)
    if q2_t is None:
        q2_t = q2 * ((2.0 / 3.0) * alpha + lu * (2 - q2) / 3.0) + lu * (2 - q2) / 3.0
    if alpha_t is None:
        alpha_t = (
            alpha * ((2.0 / 3.0) * alpha + lu * (2 - q2) / 3.0)
            - (t / 6.0) * dq
            - (u * u / 3.0) * (3 + q2)
        )
    if kappa_t_over_kappa is None:
        kappa_t_over_kappa = -omega / 3.0 - 2 * alpha / 3.0 - lu * (1 - 2 * q2) / 6.0
    a = kappa_t_over_kappa + lu / 2.0 + alpha
    d = kappa_t_over_kappa - lu / 2.0 - alpha - 2 * q2 * q2_t / one_m
    b = (4.0 / one_m) * (-alpha * q2 + q2_t / 2.0 - lu * dq / 2.0)
    c = (4.0 / one_m) * (alpha**2 - u * u - alpha_t + alpha * lu)
    U = 3.0 * (a + d) - t * t / 2.0
    return LaxParams(
        t=t, u=u, ut=ut, omega=omega, q2=q2, alpha=alpha, kappa_log=kappa_log,
        q1=q1, q0=q0, e1=e1, e2=e2, e3=e3, a=a, d=d, b=b, c=c, U=U,
        delta=delta, w=-ut,
    )


def reconstruct_params(
    aux: AuxSolution,
    hm: painleve2.Painleve2Solution,
    t: float,
    mode: str = "fd",
    h: float = 5e-4,
) -> LaxParams:
    """Lax parameters at t from the solved trajectory.

    mode 'fd' (default) takes q2_t, alpha_t, and (log kappa)_t from
    5-point finite differences of the dense trajectory, which keeps every
    downstream identity check independent of the constraint equations;
    mode 'ode' substitutes the constraint closed forms.
    """
    u, ut, omega = hm.eval(t)
    dq = float(aux.delta_at(t))
    alpha = float(aux.alpha_at(t))
    klog = float(aux.log_kappa_at(t))
    kwargs = {}
    if mode == "fd":
        stencil = t + h * np.arange(-2.0, 3.0)
        kwargs = dict(
            q2_t=float(diff5(aux.delta_at(stencil), h)[2]),
            alpha_t=float(diff5(aux.alpha_at(stencil), h)[2]),
            kappa_t_over_kappa=float(diff5(aux.log_kappa_at(stencil), h)[2]),
        )
    elif mode != "ode":
        raise BadInterval(f"unknown reconstruction mode {mode!r}")
    return params_from_state(
        t, float(u), float(ut), alpha=alpha, delta_q2=dq, kappa_log=klog, **kwargs
    )


def eval_r_and_integrals(params: LaxParams) -> RIntegrals:
    """Auxiliary r-functions and the three integrals of motion."""
    p = params
    m = (p.q2 * p.q2 - 1.0) / 4.0
    r2 = m * (p.e1**2 - p.e2) - 0.5 * p.e1 * p.q1 * p.q2 + 0.5 * p.q2 * p.q0 + 0.25 * p.q1**2
    r1 = m * (p.e3 - p.e2 * p.e1) + 0.5 * p.e2 * p.q1 * p.q2 - 0.5 * p.q1 * p.q0
    r0 = p.q0**2 / 4.0 + p.e1 * p.e3 * m - 0.5 * p.e3 * p.q1 * p.q2
    return RIntegrals(
        r2=r2,
        r1=r1,
        r0=r0,
        i0=2 * r0 + p.U - p.e1 * p.q2 + 2 * p.q1,
        i1=2 * r1 - 1.0 - p.q2,
        i2=2 * r2 + p.t,
    )


def r0_closed_form(params: LaxParams) -> float:
    """r0 = omega + t^2/4 - (u'/u)(1+q2)/2."""
    lu = params.ut / params.u
    return params.omega + params.t**2 / 4.0 - lu * (1.0 + params.q2) / 2.0


# ---------------------------------------------------------------------------
# Residual checks (all time derivatives by finite differences)
# ---------------------------------------------------------------------------

def _eta_value(aux, hm, s):
    u, ut, _ = hm.eval(s)
    om = hm.omega_smooth(s)
    q2 = aux.q2_at(s)
    al = aux.alpha_at(s)
    if abs(om) < 1e-280 or abs(1.0 - q2) < 1e-12:
        raise DegenerateDenominator(f"eta undefined at t={s}")
    lu = ut / u
    return 2 * al / (q2 - 1.0) - u * u / om - lu * (1 + q2) / (1 - q2)


def _g_value(hm, s):
    u, _, _ = hm.eval(s)
    om = hm.omega_smooth(s)
    return u * u / om - om


def _P_value(aux, hm, s, h):
    return 12.0 * (_g_value(hm, s + h) - _g_value(hm, s - h)) / (2 * h) - 4.0 * s


def eta_residual(aux: AuxSolution, hm: painleve2.Painleve2Solution,
                 t: float, h: float = 1e-3) -> float:
    """| 9 eta'' + 9 eta eta' + eta^3 + P eta + Q | at t, derivatives by
    centered differences of step h."""
    if t - 3 * h < aux.t_end or t + 3 * h > aux.t_start:
        raise BadInterval("t too close to the trajectory ends for the stencil")
    em, e0, ep = (_eta_value(aux, hm, s) for s in (t - h, t, t + h))
    eta_t = (ep - em) / (2 * h)
    eta_tt = (ep - 2 * e0 + em) / (h * h)
    P = _P_value(aux, hm, t, h)
    Q = (2.0 / 3.0) * (
        _P_value(aux, hm, t + h, h) - _P_value(aux, hm, t - h, h)
    ) / (2 * h) + 2.0 / 3.0
    return abs(9 * eta_tt + 9 * e0 * eta_t + e0**3 + P * e0 + Q)


def eta_linearized_residual(aux, hm, t: float, h: float = 1e-3) -> float:
    """Residual of 27 f''' + 3 P f' + Q f = 0 for f = exp((1/3) int eta),
    normalized by f(t)."""
    offsets = np.arange(-2.0, 3.0) * h
    # cumulative (1/3) int eta from the left stencil point, Simpson on h/8 steps
    fvals = [1.0]
    acc = 0.0
    for k in range(4):
        a = t + offsets[k]
        b = t + offsets[k + 1]
        m = 8
        xs = np.linspace(a, b, m + 1)
        ys = np.array([_eta_value(aux, hm, x) for x in xs])
        acc += (b - a) / (3 * m) * (
            ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum()
        )
        fvals.append(np.exp(acc / 3.0))
    f = np.array(fvals)
    f_t = diff5(f, h)[2]
    f_ttt = (-f[0] + 2 * f[1] - 2 * f[3] + f[4]) / (2 * h**3)
    P = _P_value(aux, hm, t, h)
    Q = (2.0 / 3.0) * (
        _P_value(aux, hm, t + h, h) - _P_value(aux, hm, t - h, h)
    ) / (2 * h) + 2.0 / 3.0
    return abs(27 * f_ttt + 3 * P * f_t + Q * f[2]) / abs(f[2])


def q2eq3_residual(aux, hm, t: float, h: float = 1e-3) -> float:
    """Residual of the single second-order q2 equation at t (FD derivatives)."""
    q = np.array([aux.q2_at(t + k * h) for k in range(-2, 3)])
    q2 = q[2]
    q2t = diff5(q, h)[2]
    q2tt = (-q[0] + 16 * q[1] - 30 * q[2] + 16 * q[3] - q[4]) / (12 * h * h)
    u, ut, _ = hm.eval(t)
    lu2 = (ut / u) ** 2
    rhs = (
        (2 * q2t / q2) * (q2t - ut / u)
        + (4.0 / 9.0) * (q2**2 - 1.5) * (lu2 - t - 2 * u * u)
        - (2.0 / 9.0) * q2 * (3 * lu2 - t)
        + (4.0 / (9.0 * q2)) * lu2
    )
    return abs(q2tt - rhs)


def compatibility_residuals(
    aux: AuxSolution,
    hm: painleve2.Painleve2Solution,
    t: float,
    h: float = 5e-4,
) -> dict[str, float]:
    """|dX/dt - RHS| for the six compatibility equations, X reconstructed
    on a 5-point stencil with finite differences."""
    stencil = [reconstruct_params(aux, hm, t + k * h, mode="fd") for k in range(-2, 3)]
    p = stencil[2]
    lhs = {
        name: float(diff5(np.array([getattr(s, name) for s in stencil]), h)[2])
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


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_csv(aux: AuxSolution, path) -> None:
    """t,mu_plus,mu_minus,nu,q2,alpha,log_kappa rows at the output nodes."""
    y = aux.table.y
    if aux.route == "linear":
        mu, lk = (y[0], y[1], y[2]), y[3]
    else:
        mu, lk = (np.full(len(aux.grid), np.nan),) * 3, y[2]
    cols = (aux.grid, *mu, aux.q2_nodes(), aux.alpha_at(aux.grid), lk)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["t", "mu_plus", "mu_minus", "nu", "q2", "alpha", "log_kappa"])
        for row in zip(*cols):
            wr.writerow([f"{v:.17g}" for v in row])


def export_diagnostics(aux: AuxSolution, path) -> None:
    payload = {
        "route": aux.route,
        "t_start": aux.t_start,
        "t_end": aux.t_end,
        "events": [{"t": float(t), "event": name} for t, name in aux.diagnostics],
        "rhs_calls": aux.rhs_calls,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
