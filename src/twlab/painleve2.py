"""Hastings-McLeod solution of Painleve II and its asymptotic series.

The solution of u'' = t u + 2 u^3 with u ~ Ai(t) at +infinity and
u ~ sqrt(-t/2) at -infinity is a separatrix: shooting is exponentially
unstable in both directions, so the two-point boundary value problem is
solved globally by damped Newton iteration on a Numerov (fourth order)
discretization, with boundary data taken from Ai on the right and the
t -> -inf series on the left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import solve_banded

from . import specfun
from .errors import BadInterval, NewtonDivergence, OrderTooHigh, OutOfRange, UnknownSeries
from .rk import HermiteTable, diff5

__all__ = [
    "Painleve2Solution",
    "solve_hastings_mcleod",
    "eval_series",
    "series_term_magnitude",
    "fast_eval",
]

SQRT2 = np.sqrt(2.0)
# half-width in t of the moving average in _denoise_slope
SLOPE_WINDOW = 0.025
# Newton corrections up to this size skip the line search
NEWTON_FULL_STEP = 1e-6
# Newton's start on a grid comes from a grid this many times coarser
COARSE_FACTOR = 16
# Newton iterations per grid before NewtonDivergence
MAX_NEWTON_ITER = 50

# t -> -inf series, coefficients exact as printed: each term is
# coef * sqrt(2)^s2 * (-t)^expo.  For 'u' the ladder multiplies the leading
# sqrt(-t/2) = sqrt(2)^-1 (-t)^{1/2}.
_F = Fraction
_SERIES: dict[str, list[tuple[Fraction, int, Fraction]]] = {
    "u": [
        (_F(1), -1, _F(1, 2)),
        (_F(-1, 8), -1, _F(1, 2) - 3),
        (_F(-73, 128), -1, _F(1, 2) - 6),
        (_F(-10657, 1024), -1, _F(1, 2) - 9),
        (_F(-13912277, 32768), -1, _F(1, 2) - 12),
        (_F(-8045883943, 262144), -1, _F(1, 2) - 15),
        (_F(-14518451390349, 4194304), -1, _F(1, 2) - 18),
    ],
    "dlogu": [
        (_F(-1, 2), 0, _F(-1)),
        (_F(-3, 8), 0, _F(-4)),
        (_F(-111, 32), 0, _F(-7)),
        (_F(-1509, 16), 0, _F(-10)),
        (_F(-2617599, 512), 0, _F(-13)),
        (_F(-944695983, 2048), 0, _F(-16)),
        (_F(-127756233309, 2048), 0, _F(-19)),
    ],
    "omega": [
        (_F(-1, 4), 0, _F(2)),
        (_F(-1, 8), 0, _F(-1)),
        (_F(-9, 64), 0, _F(-4)),
        (_F(-189, 128), 0, _F(-7)),
        (_F(-21663, 512), 0, _F(-10)),
        (_F(-4825971, 2048), 0, _F(-13)),
        (_F(-3540311739, 16384), 0, _F(-16)),
        (_F(-241980297111, 8192), 0, _F(-19)),
    ],
    # second branch of the q2 expansion (the one the solved trajectory follows)
    "q2": [
        (_F(1), -1, _F(-3, 2)),
        (_F(21, 8), 0, _F(-3)),
        (_F(1707, 64), -1, _F(-9, 2)),
    ],
}


def _ladder(kind: str):
    if kind not in _SERIES:
        raise UnknownSeries(f"unknown series kind {kind!r}")
    return _SERIES[kind]


def eval_series(kind: str, t: float, order: int) -> float:
    """Truncated t -> -inf series value; order counts correction terms past
    the leading one."""
    ladder = _ladder(kind)
    if order < 0 or order + 1 > len(ladder):
        raise OrderTooHigh(
            f"{kind}: order {order} exceeds tabulated coefficients "
            f"(max {len(ladder) - 1})"
        )
    x = -float(t)
    if x <= 0:
        raise OutOfRange(f"{kind} series: needs t < 0, got {t}")
    return sum(float(c) * SQRT2**s2 * x ** float(e) for c, s2, e in ladder[:order + 1])


def series_term_magnitude(kind: str, t: float, index: int) -> float:
    """|term index| of the series at t, for remainder bounds in tests."""
    ladder = _ladder(kind)
    if index >= len(ladder):
        raise OrderTooHigh(f"{kind}: no tabulated term {index}")
    c, s2, e = ladder[index]
    return abs(float(c)) * SQRT2**s2 * (-float(t)) ** float(e)


@dataclass(eq=False)
class Painleve2Solution:
    """Dense Hastings-McLeod table with cubic Hermite interpolation.

    The table's rows are (u, u', omega) with slopes (u', t u + 2 u^3, u^2);
    grid, u and ut are views of it. omega = u^4 + t u^2 - u'^2 is stored
    as minus the integral of u^2 from the right end, which keeps full
    relative accuracy where the algebraic form suffers exponential
    cancellation (t >> 1); the property omega forms the algebraic one at
    the nodes. The two agree to ~4e-11 relative wherever omega is not
    exponentially small.

    log_f2 is the beta = 2 log CDF, log F2(t) = int_t^inf omega, as a
    one-row table on the same nodes with slope exactly -omega, as
    AuxSolution.log_f6 is for beta = 6.
    """

    table: HermiteTable
    log_f2: HermiteTable
    newton_iterations: int          # on the table's own grid
    final_update: float
    coarse_newton_iterations: int   # on the coarser grids that gave its start

    @property
    def grid(self) -> np.ndarray:
        return self.table.t

    @property
    def u(self) -> np.ndarray:
        return self.table.nodes[:, 0, 0]

    @property
    def ut(self) -> np.ndarray:
        return self.table.nodes[:, 0, 1]

    @property
    def omega(self) -> np.ndarray:
        """u^4 + t u^2 - u'^2 at the nodes, the algebraic form."""
        u = self.u
        return u**4 + self.grid * u**2 - self.ut**2

    @property
    def t_min(self) -> float:
        return self.table.t_lo

    @property
    def t_max(self) -> float:
        return self.table.t_hi

    @property
    def step(self) -> float:
        return self.table.h

    def eval(self, t):
        """(u, ut, omega) by cubic Hermite interpolation."""
        u, ut, om = self.table(t)
        return u, ut, om

    def omega_smooth(self, t):
        """omega alone by cubic Hermite interpolation (eval's third value)."""
        return self.table(t)[2]


def solve_hastings_mcleod(
    t_min: float = -13.0,
    t_max: float = 13.0,
    n: int = 52001,
    tol: float = 1e-11,
) -> Painleve2Solution:
    """Solve the Hastings-McLeod boundary value problem on [t_min, t_max].

    Numerov discretization (O(h^4)) of u'' = t u + 2 u^3 with boundary data
    u(t_max) = Ai(t_max) and u(t_min) from the 6-term t -> -inf series;
    damped Newton with a tridiagonal Jacobian. It starts from the solution
    on a grid COARSE_FACTOR times coarser while that has >= 2000 points
    (coarse_newton_iterations), else from the left profile sqrt(-t/2),
    switched off by a logistic step centered at t = -1, which keeps Newton
    inside the Hastings-McLeod basin. Steps of
    max|du| <= NEWTON_FULL_STEP are taken undamped, and the iteration
    stops once that undamped max|du| (reported as final_update) is below
    tol, so the converged u does not depend on the start.

    Grid-quality note: the stored midpoint ODE residual scales like
    u'''' h^2 / 24, so the 1e-8 residual target needs h <= ~5e-4
    (n >= 40001 over a 20-unit window).
    """
    if t_min > -10.0 or t_max < 6.0:
        raise BadInterval("need t_min <= -10 and t_max >= 6")
    if n < 2000:
        raise BadInterval("need n >= 2000")
    t = np.linspace(t_min, t_max, n)
    h = t[1] - t[0]
    u, it, last_update, coarse_it = _solve_on(t, tol)

    ut = _denoise_slope(t, u, diff5(u, h), h)

    # omega' = u^2 and log F2' = -omega, integrated from the right end with
    # the Airy tails beyond it
    f2 = u**2
    av = specfun.airy(t_max)
    tail_u2 = av.ai_prime**2 - t_max * av.ai**2
    omega = -(_integral_to_end(f2, 2 * u * ut, h) + tail_u2)
    # Airy product integral (DLMF 9.11(iv)): int_x^inf (s - x) Ai(s)^2 ds
    # = (2/3)(x^2 Ai^2 - x Ai'^2) - Ai Ai'/3 at x = t_max
    tail_om = -(
        2.0 / 3.0 * (t_max**2 * av.ai**2 - t_max * av.ai_prime**2)
        - av.ai * av.ai_prime / 3.0
    )
    return Painleve2Solution(
        table=HermiteTable(t, [u, ut, omega], [ut, t * u + 2 * u**3, f2]),
        log_f2=HermiteTable(t, [_integral_to_end(omega, f2, h) + tail_om], [-omega]),
        newton_iterations=it,
        final_update=last_update,
        coarse_newton_iterations=coarse_it,
    )


def _integral_to_end(f, fp, h):
    """int_t^t_end f at every node t, from node values f and slopes fp by
    the corrected trapezoid rule (O(h^4)), summed from the right end."""
    seg = h * (f[:-1] + f[1:]) / 2 + h * h * (fp[:-1] - fp[1:]) / 12
    return np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])


def _solve_on(t, tol):
    """u on the grid t, Newton's iterations and final update there, and the
    iterations of the coarser stages that gave its start."""
    n_coarse = (len(t) - 1) // COARSE_FACTOR + 1
    if n_coarse < 2000:
        return *_newton(t, _start(t), tol), 0
    tc = np.linspace(t[0], t[-1], n_coarse)
    uc, it, _, below = _solve_on(tc, tol)
    u = HermiteTable(tc, [uc], [diff5(uc, tc[1] - tc[0])])(t)[0]
    return *_newton(t, u, tol), it + below


def _newton(t, u, tol):
    """Damped Newton on the Numerov equations from the iterate u, whose ends
    are set to the boundary data: u, the iterations and the final update."""
    c = (t[1] - t[0]) ** 2 / 12.0
    u[0] = eval_series("u", t[0], 6)
    u[-1] = specfun.airy(t[-1]).ai

    def residual(uv):
        f = t * uv + 2 * uv**3
        return uv[:-2] - 2 * uv[1:-1] + uv[2:] - c * (f[:-2] + 10 * f[1:-1] + f[2:])

    last_update = np.inf
    for it in range(1, MAX_NEWTON_ITER + 1):
        R = residual(u)
        fp = t + 6 * u**2
        ab = np.zeros((3, len(t) - 2))
        ab[1, :] = -2.0 - 10 * c * fp[1:-1]
        ab[0, 1:] = 1.0 - c * fp[2:-1]
        ab[2, :-1] = 1.0 - c * fp[1:-2]
        du = solve_banded((1, 1), ab, -R)
        last_update = float(np.max(np.abs(du)))
        lam = 1.0
        # near the solution the residual sits at its rounding floor and
        # cannot decrease: there the full step is taken
        if last_update > NEWTON_FULL_STEP:
            nrm0 = float(np.max(np.abs(R)))
            while lam > 1e-4:
                un = u.copy()
                un[1:-1] += lam * du
                if float(np.max(np.abs(residual(un)))) < nrm0 or lam * last_update < 1e-15:
                    break
                lam /= 2
            del un
        u[1:-1] += lam * du
        if last_update < tol:
            return u, it, last_update
    raise NewtonDivergence(f"no contraction after {MAX_NEWTON_ITER} iterations "
                           f"(update {last_update:g})")


def _start(t, centre=-1.0):
    """Newton's first iterate: sqrt(-t/2) switched off by a logistic step
    centred at t = centre."""
    w = 1.0 / (1.0 + np.exp((t - centre) / 0.8))
    return w * np.sqrt(np.maximum(-t, 0.0) / 2)


def _denoise_slope(t, u, ut, h):
    """u' at the nodes without the roundoff noise of 5-point differences.

    The differences carry the rounding of u over h, white noise of ~1e-13
    at h = 5e-4 that an adaptive integrator stepping over many cells
    samples rather than averages. An antiderivative of u'' = t u + 2 u^3
    has no such noise but drifts smoothly away (~1e-10 over [-13, 13]);
    adding back a centered moving average of the difference (half-width
    SLOPE_WINDOW, narrowing at the ends) keeps the smooth part only.
    """
    # summed from the right, so that it keeps relative accuracy where u and
    # u' decay like Ai
    antider = ut[-1] - _integral_to_end(t * u + 2 * u**3, u + (t + 6 * u**2) * ut, h)
    cum = np.concatenate([[0.0], np.cumsum(ut - antider)])
    k = np.arange(len(t))
    half = np.minimum(max(1, round(SLOPE_WINDOW / h)), np.minimum(k, len(t) - 1 - k))
    return antider + (cum[k + half + 1] - cum[k - half]) / (2 * half + 1)


def fast_eval(solution: Painleve2Solution):
    """Evaluator for ODE right-hand sides: f(t) -> (u, ut, omega), floats
    for a scalar t, arrays for an array of t. It is the solution's table."""
    return solution.table

