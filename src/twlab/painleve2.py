"""Hastings-McLeod solution of Painleve II and its asymptotic series.

The solution of u'' = t u + 2 u^3 with u ~ Ai(t) at +infinity and
u ~ sqrt(-t/2) at -infinity is a separatrix: shooting is exponentially
unstable in both directions, so the two-point boundary value problem is
solved globally by damped Newton iteration on a Numerov (fourth order)
discretization, with boundary data taken from Ai on the right and the
t -> -inf series on the left.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.linalg import solve_banded

from . import specfun
from .errors import BadInterval, NewtonDivergence, OrderTooHigh, OutOfRange, UnknownSeries
from .rk import HermiteTable, diff5

__all__ = [
    "AsymptoticSeries",
    "Painleve2Solution",
    "solve_hastings_mcleod",
    "eval_series",
    "series_term_magnitude",
    "export_csv",
    "fast_eval",
]

SQRT2 = np.sqrt(2.0)
# half-width in t of the moving average in _denoise_slope
SLOPE_WINDOW = 0.025

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
    # log F6 tail in the external variable, constant term excluded
    # (it is undetermined here; see asymptotics.TailModel)
    "logF6": [
        (_F(-1, 4), 0, _F(3)),
        (_F(2, 3), 1, _F(3, 2)),
    ],
}
_LOGF6_LOG_COEF = _F(1, 24)


@dataclass(frozen=True)
class AsymptoticSeries:
    """Truncated t -> -inf expansion with exact rational x sqrt(2)-power terms."""

    variable: str
    terms: tuple  # ((Fraction coef, int sqrt2_power, Fraction exponent), ...)
    log_coef: Fraction = _F(0)
    side: str = "-inf"

    def __call__(self, t: float) -> float:
        x = -float(t)
        if x <= 0:
            raise OutOfRange(f"{self.variable} series: needs t < 0, got {t}")
        total = sum(
            float(c) * SQRT2**s2 * x ** float(e) for c, s2, e in self.terms
        )
        if self.log_coef:
            total += float(self.log_coef) * np.log(x)
        return total


def series(kind: str, order: int) -> AsymptoticSeries:
    """Series object for `kind` truncated after `order` correction terms."""
    if kind not in _SERIES:
        raise UnknownSeries(f"unknown series kind {kind!r}")
    ladder = _SERIES[kind]
    if order < 0 or order + 1 > len(ladder):
        raise OrderTooHigh(
            f"{kind}: order {order} exceeds tabulated coefficients "
            f"(max {len(ladder) - 1})"
        )
    return AsymptoticSeries(
        variable=kind,
        terms=tuple(ladder[: order + 1]),
        log_coef=_LOGF6_LOG_COEF if kind == "logF6" else _F(0),
    )


def eval_series(kind: str, t: float, order: int) -> float:
    """Truncated series value; order counts correction terms past the leading one."""
    return series(kind, order)(t)


def series_term_magnitude(kind: str, t: float, index: int) -> float:
    """|term index| of the series at t, for remainder bounds in tests."""
    if kind not in _SERIES:
        raise UnknownSeries(f"unknown series kind {kind!r}")
    ladder = _SERIES[kind]
    if index >= len(ladder):
        raise OrderTooHigh(f"{kind}: no tabulated term {index}")
    c, s2, e = ladder[index]
    return abs(float(c)) * SQRT2**s2 * (-float(t)) ** float(e)


@dataclass(eq=False)
class Painleve2Solution:
    """Dense Hastings-McLeod table with cubic Hermite interpolation.

    The table's rows are (u, u', omega_smooth, omega) with slopes
    (u', t u + 2 u^3, u^2, u^2); grid, u, ut and omega are views of it.
    omega stores the combination u^4 + t u^2 - ut^2 exactly as built from
    the table; omega_smooth is the same function obtained by integrating
    u^2 from the right end, which keeps full relative accuracy where the
    algebraic form suffers exponential cancellation (t >> 1). The two agree
    to ~4e-11 relative wherever omega is not exponentially small.
    """

    table: HermiteTable
    newton_iterations: int
    final_update: float
    _int_om_right: np.ndarray = field(repr=False, default=None)   # int_t^tmax omega
    _tail_int_om: float = 0.0      # int_tmax^inf omega

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
        return self.table.nodes[:, 0, 3]

    @property
    def t_min(self) -> float:
        return float(self.grid[0])

    @property
    def t_max(self) -> float:
        return float(self.grid[-1])

    @property
    def step(self) -> float:
        return self.table.h

    def eval(self, t):
        """(u, ut, omega) by cubic Hermite interpolation."""
        u, ut, _, om = self.table(t)
        return u, ut, om

    def omega_smooth(self, t):
        """omega from the integral form (full relative accuracy at large t)."""
        return self.table(t)[2]

    def int_omega_to_inf(self, t):
        """int_t^inf omega ds (equals log F2(t)), for a scalar or an array t.

        The part up to the next node is the exact integral of the
        omega_smooth interpolant, with the Hermite basis antiderivatives
        taken from s to 1.
        """
        i, s = self.table.locate(t)
        h = self.step
        om = self.table.nodes[:, :, 2]       # omega_smooth and its slope u^2
        y0, y1 = om[i, 0], om[i + 1, 0]
        d0, d1 = om[i, 1] * h, om[i + 1, 1] * h

        def anti(x):
            x3 = x * x * x
            x4 = x3 * x
            H00 = x - x3 + x4 / 2
            H10 = x * x / 2 - 2 * x3 / 3 + x4 / 4
            H01 = x3 - x4 / 2
            H11 = x4 / 4 - x3 / 3
            return H00 * y0 + H10 * d0 + H01 * y1 + H11 * d1

        piece = h * (anti(1.0) - anti(s))
        return piece + self._int_om_right[i + 1] + self._tail_int_om


def solve_hastings_mcleod(
    t_min: float = -13.0,
    t_max: float = 13.0,
    n: int = 52001,
    tol: float = 1e-11,
    max_iter: int = 50,
) -> Painleve2Solution:
    """Solve the Hastings-McLeod boundary value problem on [t_min, t_max].

    Numerov discretization (O(h^4)) of u'' = t u + 2 u^3 with boundary data
    u(t_max) = Ai(t_max) and u(t_min) from the 6-term t -> -inf series;
    damped Newton with a tridiagonal Jacobian. The initial iterate is a
    logistic blend of the two asymptotic profiles centered at t = -1,
    which keeps Newton inside the Hastings-McLeod basin.

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

    ai_all, _ = specfun.airy_grid(np.clip(t, -8.0, t_max))
    w = 1.0 / (1.0 + np.exp((t + 1.0) / 0.8))
    left = np.where(t < 0, np.sqrt(np.maximum(-t, 1e-12) / 2), 0.0)
    u = w * left + (1 - w) * ai_all
    u_series6 = eval_series("u", t_min, 6)
    u[0] = u_series6
    u[-1] = specfun.airy(t_max).ai

    c = h * h / 12.0

    def residual(uv):
        f = t * uv + 2 * uv**3
        return uv[:-2] - 2 * uv[1:-1] + uv[2:] - c * (f[:-2] + 10 * f[1:-1] + f[2:])

    last_update = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        R = residual(u)
        fp = t + 6 * u**2
        ab = np.zeros((3, n - 2))
        ab[1, :] = -2.0 - 10 * c * fp[1:-1]
        ab[0, 1:] = 1.0 - c * fp[2:-1]
        ab[2, :-1] = 1.0 - c * fp[1:-2]
        du = solve_banded((1, 1), ab, -R)
        lam, nrm0 = 1.0, float(np.max(np.abs(R)))
        while lam > 1e-4:
            un = u.copy()
            un[1:-1] += lam * du
            if float(np.max(np.abs(residual(un)))) < nrm0 or np.max(
                np.abs(lam * du)
            ) < 1e-15:
                break
            lam /= 2
        u[1:-1] += lam * du
        last_update = float(np.max(np.abs(lam * du)))
        if last_update < tol:
            break
    else:
        raise NewtonDivergence(
            f"no contraction after {max_iter} iterations (update {last_update:g})"
        )
    # the table is built at the end: release the work arrays before it
    del ai_all, w, left, R, fp, ab, du, un

    ut = _denoise_slope(t, u, diff5(u, h), h)
    omega = u**4 + t * u**2 - ut**2

    # cumulative integrals from the right (corrected trapezoid, O(h^4))
    f2 = u**2
    d2 = 2 * u * ut
    seg = h * (f2[:-1] + f2[1:]) / 2 + h * h * (d2[:-1] - d2[1:]) / 12
    int_u2_right = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    av = specfun.airy(t_max)
    tail_u2 = av.ai_prime**2 - t_max * av.ai**2
    omega_smooth = -(int_u2_right + tail_u2)
    seg_om = h * (omega_smooth[:-1] + omega_smooth[1:]) / 2 + h * h * (
        f2[:-1] - f2[1:]
    ) / 12
    int_om_right = np.concatenate([np.cumsum(seg_om[::-1])[::-1], [0.0]])
    tail_om = -specfun.integrate_to_infinity(
        lambda s: (s - t_max) * specfun.airy_grid(np.minimum(s, 30.0))[0] ** 2,
        t_max,
        0.5,
        rel_tol=1e-13,
    )

    return Painleve2Solution(
        table=HermiteTable(
            t, [u, ut, omega_smooth, omega], [ut, t * u + 2 * u**3, f2, f2]
        ),
        newton_iterations=it,
        final_update=last_update,
        _int_om_right=int_om_right,
        _tail_int_om=float(tail_om),
    )


def _denoise_slope(t, u, ut, h):
    """u' at the nodes without the roundoff noise of 5-point differences.

    The differences carry the rounding of u over h, white noise of ~1e-13
    at h = 5e-4 that an adaptive integrator stepping over many cells
    samples rather than averages. An antiderivative of u'' = t u + 2 u^3
    has no such noise but drifts smoothly away (~1e-10 over [-13, 13]);
    adding back a centered moving average of the difference (half-width
    SLOPE_WINDOW, narrowing at the ends) keeps the smooth part only.
    """
    f = t * u + 2 * u**3
    fp = u + (t + 6 * u**2) * ut
    seg = h * (f[:-1] + f[1:]) / 2 + h * h * (fp[:-1] - fp[1:]) / 12
    # summed from the right, so that it keeps relative accuracy where u and
    # u' decay like Ai
    antider = ut[-1] - np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    cum = np.concatenate([[0.0], np.cumsum(ut - antider)])
    k = np.arange(len(t))
    half = np.minimum(max(1, round(SLOPE_WINDOW / h)), np.minimum(k, len(t) - 1 - k))
    return antider + (cum[k + half + 1] - cum[k - half]) / (2 * half + 1)


def fast_eval(solution: Painleve2Solution):
    """Evaluator closure for ODE right-hand sides: f(t) -> (u, ut,
    omega_smooth), floats for a scalar t, arrays for an array of t."""
    table = solution.table

    def f(t):
        return table(t)[:3]

    return f


def export_csv(solution: Painleve2Solution, path) -> None:
    """Write the table as t,u,ut,omega with 17 significant digits."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["t", "u", "ut", "omega"])
        for i in range(len(solution.grid)):
            wr.writerow(
                [
                    f"{solution.grid[i]:.17g}",
                    f"{solution.u[i]:.17g}",
                    f"{solution.ut[i]:.17g}",
                    f"{solution.omega[i]:.17g}",
                ]
            )
