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

import math
from dataclasses import dataclass, field

import numpy as np

from . import painleve2
from .errors import (
    BadInterval,
    BlowUp,
    DegenerateDenominator,
    DegenerateQ2,
    PoleEncountered,
)
from .rk import HermiteTable, diff5, solve_linear, solve_rk

__all__ = [
    "AuxSolution",
    "LaxParams",
    "RIntegrals",
    "integrate_linear",
    "integrate_nonlinear",
    "reconstruct_params",
    "params_from_state",
    "eval_r_and_integrals",
    "r0_closed_form",
    "eta_residual",
    "q2eq3_residual",
    "compatibility_residuals",
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

    log_f6 (linear route only; None on the nonlinear one) is the beta = 6
    log CDF at internal t as a one-row table on the same nodes,
    L = log((1 - q2)/2) + (tail_int_omega - J_omega)/3 - (2/3) J_alpha
    + J_one/3, with q2 = (mu+ + mu-)/(mu+ - mu-), so that a query reads
    one row instead of combining seven. Its slopes come from the node
    slopes exactly: L' = -q2'/(1 - q2) - J_omega'/3 - (2/3) J_alpha'
    + J_one'/3, with q2' = 2 (mu+ mu-' - mu- mu+')/(mu+ - mu-)^2.
    """

    route: str
    t_start: float
    t_end: float
    hm: painleve2.Painleve2Solution
    table: HermiteTable
    rhs_calls: int = 0
    steps: int = 0
    step_shrinks: int = 0
    diagnostics: list = field(default_factory=list)
    b_constraint_scale: float = 2.0 / 3.0
    log_f6: HermiteTable | None = None

    @property
    def tail_int_omega(self) -> float:
        """int_{t_start}^inf omega, which is log F2(t_start)."""
        return self.hm.log_f2(self.t_start)[0]

    # --- channel accessors (dense, cubic Hermite) ---
    def delta_at(self, t):
        """1 + q2, cancellation-free near the t_start fixed point."""
        return self._delta(self.table(t))

    def q2_at(self, t):
        y = self.table(t)
        if self.route == "linear":
            return (y[0] + y[1]) / (y[0] - y[1])
        return y[0] - 1.0

    def alpha_at(self, t):
        u, ut, _ = self.hm.eval(t) if self.route == "linear" else (None,) * 3
        return self._alpha(self.table(t), u, ut)

    def log_kappa_at(self, t):
        return self._log_kappa(self.table(t))

    # the channels from table rows y (and, for alpha on the linear route,
    # u and u' at the same t), so that one lookup can serve all three
    def _delta(self, y):
        return 2 * y[0] / (y[0] - y[1]) if self.route == "linear" else y[0]

    def _alpha(self, y, u, ut):
        if self.route == "linear":
            lu = ut / u
            chi = y[0] - y[1]
            return y[2] / chi - lu * y[0] / chi
        return y[1]

    def _log_kappa(self, y):
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


def _check_blowup(t, d, al):
    """Raise BlowUp at the first t (on a backward route, the largest) where
    |delta| or |alpha| passes BLOWUP_GUARD. The route RHS sees floats
    inside a step and arrays in the dense-output stages and at the nodes."""
    if isinstance(t, float):
        if abs(d) > BLOWUP_GUARD or abs(al) > BLOWUP_GUARD:
            raise BlowUp(t)
        return
    blown = np.maximum(abs(d), abs(al)) > BLOWUP_GUARD
    if blown.any():
        raise BlowUp(float(np.max(np.where(blown, t, -np.inf))))


def _q2_zero_events(aux):
    """Sign changes of q2 between output nodes, refined by bisection on the
    interpolant; returns [(t, "q2-zero")]."""
    ts = aux.grid
    s = np.sign(aux.q2_nodes())
    out = []
    for i in np.nonzero(s[:-1] * s[1:] < 0)[0]:
        t0, t1 = ts[i], ts[i + 1]
        # t0 only moves to points of this sign, so it is taken once
        sign0 = np.sign(aux.q2_at(t0))
        for _ in range(60):
            tm = 0.5 * (t0 + t1)
            if np.sign(aux.q2_at(tm)) == sign0:
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
    init=(0.0, 1.0, 0.0),
) -> AuxSolution:
    """Integrate the linear (mu+, mu-, nu) system backward from t_start.

    Initial data (0, 1, 0) realizes q2 = -1, q1 = 0 (hence alpha = 0) at
    t_start; any nonzero rescaling of it leaves q2 and q1 unchanged. The
    (mu+, mu-, nu) part is linear with smooth coefficients, and the four
    quadrature channels (log kappa, J_omega, J_alpha, J_one) never feed
    back into it, so rk.solve_linear integrates it in uniform DOP853 steps
    (rtol tol, atol 1e-24) built for all steps at once. A q2 pole (chi =
    mu+ - mu- reaching zero, or |q2| past BLOWUP_GUARD) at any stage or
    output node raises PoleEncountered at the first such t. A StepFailure
    of the integrator propagates with the t where it stopped.
    """
    if t_start < 8.0:
        raise BadInterval("integrate_linear: t_start >= 8 required")
    if not (hm.t_min <= t_end < t_start <= hm.t_max):
        raise BadInterval("integrate_linear: [t_end, t_start] not inside hm range")
    f = painleve2.fast_eval(hm)
    u_start = f(t_start)[0]
    chi_sign = np.sign(init[0] - init[1])
    if chi_sign == 0:
        raise PoleEncountered("initial data has mu_plus = mu_minus", t=float(t_start))

    def system(t):
        u, ut, om = f(t)
        lu = ut / u
        M = np.zeros((len(t), 3, 3))
        M[:, 0, 0] = (2.0 / 3.0) * lu
        M[:, 0, 2] = -1.0 / 3.0
        M[:, 1, 1] = -(2.0 / 3.0) * lu
        M[:, 1, 2] = 1.0 / 3.0
        M[:, 2, 0] = (2.0 / 3.0) * (om / (u * u))
        M[:, 2, 1] = (2.0 / 3.0) * u * u

        def quadratures(y):
            mp_, mm_, nu_ = y
            chi = mp_ - mm_
            al = nu_ / chi - lu * mp_ / chi
            q2 = (mp_ + mm_) / chi
            return [
                -om / 3.0 - 2.0 * al / 3.0 - lu * (1.0 - 2.0 * q2) / 6.0,
                om,
                al,
                lu * 2.0 * mp_ / chi,
            ]

        return M, quadratures

    def guard(t, y):
        # chi crossing zero, or |q2| = |mu+ + mu-| / |chi| past the guard
        chi = y[0] - y[1]
        pole = (chi_sign * chi <= 0) | (abs(y[0] + y[1]) > BLOWUP_GUARD * abs(chi))
        if pole.any():
            t_pole = float(t[np.argmax(pole)])
            raise PoleEncountered(f"q2 pole near t={t_pole:.6f}", t=t_pole)

    sol = solve_linear(
        system, t_start, t_end, init, [-0.5 * np.log(u_start), 0.0, 0.0, 0.0],
        rtol=tol, atol=1e-24, guard=guard,
    )
    aux = AuxSolution(
        route="linear",
        t_start=float(t_start),
        t_end=float(t_end),
        hm=hm,
        table=HermiteTable(sol.t, sol.y, sol.yp),
        rhs_calls=sol.rhs_calls,
        steps=sol.steps,
        step_shrinks=sol.step_shrinks,
        log_f6=_log_f6_table(sol, hm.log_f2(t_start)[0]),
    )
    aux.diagnostics = _q2_zero_events(aux)
    return aux


def _log_f6_table(sol, tail_int_omega) -> HermiteTable:
    """AuxSolution.log_f6 from the linear route's node values and slopes."""
    (mp, mm, _, _, j_om, j_al, j_one), yp = sol.y, sol.yp
    chi = mp - mm
    q2 = (mp + mm) / chi
    # q2 > 1 (never on the distribution's trajectory) reads NaN, not a warning
    with np.errstate(invalid="ignore"):
        log_f = (np.log((1.0 - q2) / 2.0) + (tail_int_omega - j_om) / 3.0
                 - (2.0 / 3.0) * j_al + j_one / 3.0)
        q2p = 2.0 * (mp * yp[1] - mm * yp[0]) / (chi * chi)
        slope = -q2p / (1.0 - q2) - yp[4] / 3.0 - (2.0 / 3.0) * yp[5] + yp[6] / 3.0
    return HermiteTable(sol.t, [log_f], [slope])


def integrate_nonlinear(
    hm: painleve2.Painleve2Solution,
    t_start: float = 12.0,
    t_end: float = -11.0,
    tol: float = 1e-13,
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
    u_start = f(t_start)[0]
    sol = solve_rk(
        _nonlinear_rhs(f, lam),
        t_start,
        t_end,
        [0.0, 0.0, -0.5 * np.log(u_start)],
        rtol=tol,
        atol=1e-24,
    )
    aux = AuxSolution(
        route="nonlinear",
        t_start=float(t_start),
        t_end=float(t_end),
        hm=hm,
        table=HermiteTable(sol.t, sol.y, sol.yp),
        rhs_calls=sol.rhs_calls,
        steps=sol.steps,
        b_constraint_scale=lam,
    )
    aux.diagnostics = _q2_zero_events(aux)
    return aux


def _nonlinear_rhs(f, lam):
    """The nonlinear route's RHS in (delta, alpha, log kappa), with f =
    painleve2.fast_eval(hm) and lam the b-constraint scale. Inside a step
    it sees float t and a list y and does float arithmetic only; in the
    dense-output stages and at the nodes it sees arrays."""

    def rhs(t, y):
        u, ut, om = f(t)
        lu = ut / u
        d, al = y[0], y[1]
        _check_blowup(t, d, al)
        ddot = 2.0 * (1.0 - lam) * al * (d - 1.0) + lu * d - (lam / 2.0) * lu * d * d
        aldot = (
            al * ((2.0 / 3.0) * al + lu * (3.0 - d) / 3.0)
            - (t / 6.0) * d
            - (u * u / 3.0) * (2.0 + d)
        )
        q2 = d - 1.0
        lkdot = -om / 3.0 - 2.0 * al / 3.0 - lu * (1.0 - 2.0 * q2) / 6.0
        return [ddot, aldot, lkdot]

    return rhs


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
    # rounding remainders: the exact e1 and q1 of the free values are
    # e1 + e1_lo and q1 + q1_lo (see eval_r_and_integrals)
    e1_lo: float = 0.0
    q1_lo: float = 0.0


@dataclass(frozen=True)
class RIntegrals:
    r2: float
    r1: float
    r0: float
    i0: float
    i1: float
    i2: float


# Double-double arithmetic on (hi, lo) pairs: each operation carries the
# rounding error of its float operation to first order in lo (Knuth's exact
# sum; Dekker's exact product with Veltkamp's split into 26-bit halves).

def _dd_add(x, y):
    a, b = x[0], y[0]
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb) + x[1] + y[1]


def _dd_mul(x, y):
    a, b = x[0], y[0]
    p = a * b
    c = 134217729.0 * a             # 2^27 + 1
    ah = c - (c - a)
    c = 134217729.0 * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * y[1] + x[1] * b


def _dd_div(x, y):
    q = x[0] / y[0]
    r = _dd_add(x, _dd_mul(y, (-q, 0.0)))      # the remainder x - q y
    return q, (r[0] + r[1]) / y[0]


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
    if abs(one_m) < 1e-280:
        raise DegenerateQ2(f"1 - q2^2 vanishes at q2={q2}")
    lu = ut / u
    alpha2 = alpha**2
    omega = u**4 + t * u**2 - ut**2
    delta = -t / 2.0 - u * u
    # q1 and e1 as (hi, lo) pairs: r1 and r2 are sensitive to their
    # rounding (see eval_r_and_integrals); hi is the float64 value
    dq_ = (dq, 0.0)
    one_minus_ = _dd_add((2.0, 0.0), (-dq, 0.0))
    q1, q1_lo = _dd_add((2 * alpha, 0.0), _dd_mul((lu, 0.0), dq_))
    e1, e1_lo = _dd_add(
        _dd_div(_dd_mul((-4 * alpha, 0.0), _dd_add(dq_, (-1.0, 0.0))),
                _dd_mul(dq_, one_minus_)),
        _dd_div(_dd_mul((-lu, 0.0), dq_), one_minus_),
    )
    q0 = 2 * alpha * lu - 2 * delta
    e2 = (4.0 / one_m) * (-alpha2 + u * u + dq * delta - dq * alpha * lu)
    e3 = -(4.0 / one_m) * (-2 * alpha * delta + alpha2 * lu + ut * u + dq / 2.0)
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
    c = (4.0 / one_m) * (alpha2 - u * u - alpha_t + alpha * lu)
    U = 3.0 * (a + d) - t * t / 2.0
    return LaxParams(
        t=t, u=u, ut=ut, omega=omega, q2=q2, alpha=alpha, kappa_log=kappa_log,
        q1=q1, q0=q0, e1=e1, e2=e2, e3=e3, a=a, d=d, b=b, c=c, U=U,
        delta=delta, w=-ut, e1_lo=e1_lo, q1_lo=q1_lo,
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
    mode 'ode' substitutes the constraint closed forms. hm is the
    solution aux was integrated on. One aux.table and one hm lookup serve
    t and its stencil.
    """
    return _params_at(aux, hm, np.array([float(t)]), mode, h)[0]


def _params_at(aux, hm, ts, mode, h):
    """reconstruct_params at each t of the array ts, from one aux.table and
    one hm lookup of all the stencil points: a list of LaxParams, one
    float call of params_from_state each."""
    if mode == "fd":
        points = ts[:, None] + h * np.arange(-2.0, 3.0)     # column 2 is ts
    elif mode == "ode":
        points = ts[:, None]
    else:
        raise BadInterval(f"unknown reconstruction mode {mode!r}")
    y = aux.table(points.ravel())
    u, ut, _ = hm.eval(points.ravel())
    # delta, alpha, log kappa, u, u', shape (5, len(ts), stencil)
    rows = np.array([aux._delta(y), aux._alpha(y, u, ut), aux._log_kappa(y), u, ut])
    rows = rows.reshape(5, *points.shape)
    dq, alpha, klog, u, ut = rows[:, :, points.shape[1] // 2].tolist()
    rates = [{}] * len(ts)
    if mode == "fd":
        rates = [
            dict(zip(("q2_t", "alpha_t", "kappa_t_over_kappa"), r))
            for r in diff5(rows[:3].T, h)[2].tolist()
        ]
    return [
        params_from_state(t, u[i], ut[i], alpha=alpha[i], delta_q2=dq[i],
                          kappa_log=klog[i], **rates[i])
        for i, t in enumerate(ts.tolist())
    ]


def eval_r_and_integrals(params: LaxParams) -> RIntegrals:
    """Auxiliary r-functions and the three integrals of motion.

    r2 and r1 are sums of terms up to ~1e4 times their value when |q2|
    nears 1 and |u'/u| is large, so they are evaluated in double-double
    from e1 + e1_lo and q1 + q1_lo and summed exactly: in float64 they
    missed r2 = -t/2 and r1 = (1 + q2)/2 by up to ~6e-12, and without the
    remainders r1 still missed by up to 1.5e-12.
    """
    p = params
    q2, e3, q0 = (p.q2, 0.0), (p.e3, 0.0), (p.q0, 0.0)
    e1, q1 = (p.e1, p.e1_lo), (p.q1, p.q1_lo)
    m_dd = _dd_mul(_dd_add(_dd_mul(q2, q2), (-1.0, 0.0)), (0.25, 0.0))
    # r2 = m (e1^2 - e2) - 0.5 e1 q1 q2 + 0.5 q2 q0 + 0.25 q1^2
    r2 = math.fsum(_dd_mul(m_dd, _dd_add(_dd_mul(e1, e1), (-p.e2, 0.0)))
                   + _dd_mul(_dd_mul(e1, q1), (-0.5 * p.q2, 0.0))
                   + _dd_mul((0.5 * p.q2, 0.0), q0)
                   + _dd_mul((0.25 * p.q1, 0.25 * p.q1_lo), q1))
    # r1 = m (e3 - e2 e1) + 0.5 e2 q1 q2 - 0.5 q1 q0
    r1 = math.fsum(_dd_mul(m_dd, _dd_add(e3, _dd_mul((-p.e2, 0.0), e1)))
                   + _dd_mul(_dd_mul((0.5 * p.e2, 0.0), q1), q2)
                   + _dd_mul(q1, (-0.5 * p.q0, 0.0)))
    m = (p.q2 * p.q2 - 1.0) / 4.0
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
    on a 5-point stencil with finite differences. The five reconstructions
    and their own stencils come from one aux.table and one hm lookup."""
    stencil = _params_at(aux, hm, t + h * np.arange(-2.0, 3.0), "fd", h)
    p = stencil[2]
    names = ("e1", "e2", "e3", "q0", "q1", "q2")
    rates = diff5(np.array([[getattr(s, name) for name in names] for s in stencil]), h)
    lhs = dict(zip(names, rates[2].tolist()))
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

