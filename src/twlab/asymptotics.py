"""Left-tail expansion machinery: closed-form constant, tail model, extraction.

As t -> -inf, log F_beta(t) = cubic |t|^3 + three_halves |t|^{3/2}
+ log_coef log|t| + c0 + o(1). The three coefficients are exact rationals
(the |t|^{3/2} one times sqrt(2)); this module states them once, and the
tail model, its derivative and the extraction fit all read them from here.

c0 is the Borot-Eynard-Majumdar-Nadal closed form (J. Stat. Mech. 2011,
P11024) with three corrections: its integrand divided by s^2, its -beta/4
term dropped and -log(beta/2)/2 added. The corrections were found by
matching the proven constants at beta = 1, 2 and 4 (Baik-Buckingham-
DiFranco, CMP 280, 2008), not derived from that paper, which is not in
this repository. The beta = 4 constant is the one of this repository's
convention F4(x) = F4^TW(2^{2/3} x). With them the formula meets those
three constants to 1e-15; at beta = 6 it is compared with the numerically
extracted constant (criterion 9), which a deeper solve than the test
fixtures is needed to gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadInterval, IllConditionedFit
from .specfun import gauss_legendre

__all__ = [
    "ZETA_PRIME_MINUS_ONE",
    "EULER_GAMMA",
    "TailModel",
    "eval_c0",
    "eval_tail_logF",
    "tail_logF_derivative",
    "extract_constant",
    "exact_tail_coefficients",
]

ZETA_PRIME_MINUS_ONE = -0.165421143700450929213919660243
EULER_GAMMA = 0.577215664901532860606512090082

SQRT2 = np.sqrt(2.0)

# B_{2k}/(2k)! for k = 2..17: below C0_SERIES_END, b(s) is summed from them,
# since 1/(e^s - 1) - 1/s + 1/2 - s/12 cancels to ~ s^3/720 there
_BERNOULLI_OVER_FACTORIAL = np.array([
    -1.388888888888889e-03, 3.306878306878307e-05, -8.267195767195768e-07,
    2.08767569878681e-08, -5.284190138687493e-10, 1.3382536530684679e-11,
    -3.3896802963225827e-13, 8.586062056277845e-15, -2.174868698558062e-16,
    5.5090028283602295e-18, -1.3954464685812522e-19, 3.534707039629467e-21,
    -8.953517427037546e-23, 2.267952452337683e-24, -5.744790668872202e-26,
    1.455172475614865e-27,
])
C0_SERIES_END = 0.05
# 30-node Gauss-Legendre panels between these ends, cut where
# exp(-beta s/2) = exp(-C0_DECAY_CUT): against 40-digit values, within
# 8e-16 for beta in [0.5, 10] and 1.1e-14 at beta = 0.05
C0_PANEL_ENDS = (0.0, C0_SERIES_END, 1.0, 5.0, 20.0, 80.0, 320.0)
C0_NODES = 30
C0_DECAY_CUT = 40.0


def _bernoulli_remainder(s: np.ndarray) -> np.ndarray:
    """b(s) = 1/(e^s - 1) - 1/s + 1/2 - s/12 for s > 0."""
    small = s < C0_SERIES_END
    x, y = s[small], s[~small]
    out = np.empty_like(s)
    out[small] = x**3 * np.polyval(_BERNOULLI_OVER_FACTORIAL[::-1], x * x)
    with np.errstate(over="ignore"):   # 1/inf = 0 is the limit past s = 709
        out[~small] = 1.0 / np.expm1(y) - 1.0 / y + 0.5 - y / 12.0
    return out


def eval_c0(beta: float) -> float:
    """The left-tail constant c0(beta) (corrected closed form, module
    docstring): (beta/2)(1/12 - zeta'(-1)) + gamma/(6 beta) - log(2 pi)/4
    + (17/8 - (25/24)(beta/2 + 2/beta)) log 2 - log(beta/2)/2
    + int_0^inf b(s) / (e^{beta s/2} - 1) ds/s."""
    if beta <= 0:
        raise BadInterval("eval_c0: beta > 0 required")
    b2 = beta / 2.0
    val = (
        b2 * (1.0 / 12.0 - ZETA_PRIME_MINUS_ONE)
        + EULER_GAMMA / (6.0 * beta)
        - np.log(2.0 * np.pi) / 4.0
        + (17.0 / 8.0 - (25.0 / 24.0) * (b2 + 2.0 / beta)) * np.log(2.0)
        - 0.5 * np.log(b2)
    )
    end = C0_DECAY_CUT / b2
    ends = [e for e in C0_PANEL_ENDS if e < end] + [end]
    rules = [gauss_legendre(C0_NODES, a, b) for a, b in zip(ends[:-1], ends[1:])]
    s = np.concatenate([r.nodes for r in rules])
    w = np.concatenate([r.weights for r in rules])
    return float(val + np.dot(w, _bernoulli_remainder(s) / (np.expm1(b2 * s) * s)))


def exact_tail_coefficients(beta: Fraction):
    """(cubic, sqrt2-multiplier of |t|^{3/2}, log coefficient) as exact
    rationals: (-beta/24, (beta/2 - 1)/3, (beta/2 + 2/beta - 3)/8)."""
    beta = Fraction(beta)
    cubic = -beta / 24
    three_halves_sqrt2 = (beta / 2 - 1) / 3
    log_coef = (beta / 2 + 2 / beta - 3) / 8
    return cubic, three_halves_sqrt2, log_coef


def _float_coefficients(beta: float) -> tuple[float, float, float]:
    """(cubic, three_halves, log_coef) of the tail model as floats."""
    cubic, th_sqrt2, log_coef = exact_tail_coefficients(
        Fraction(beta).limit_denominator()
    )
    return float(cubic), float(th_sqrt2) * SQRT2, float(log_coef)


@dataclass(frozen=True)
class TailModel:
    """log F(t) ~ cubic |t|^3 + three_halves |t|^{3/2} + log_coef log|t| + c0."""

    beta: float
    cubic: float
    three_halves: float
    log_coef: float
    c0: float
    t_cut: float = -4.0

    @classmethod
    def for_beta(cls, beta: float, c0: float | None = None) -> "TailModel":
        return cls(float(beta), *_float_coefficients(beta),
                   c0=eval_c0(beta) if c0 is None else float(c0))


def eval_tail_logF(model: TailModel, t: float) -> float:
    if t > model.t_cut:
        raise BadInterval(f"tail model valid for t <= {model.t_cut}")
    a = abs(t)
    return (
        model.cubic * a**3
        + model.three_halves * a**1.5
        + model.log_coef * np.log(a)
        + model.c0
    )


def tail_logF_derivative(beta: float, t: float) -> float:
    """d/dt of the tail model (external variable): for beta=6 this is
    (3/4) t^2 - sqrt(2) (-t)^{1/2} + 1/(24 t)."""
    cubic, three_halves, log_coef = _float_coefficients(beta)
    return -3.0 * cubic * t * t - 1.5 * three_halves * np.sqrt(-t) + log_coef / t


def extract_constant(
    numeric_logF,
    beta: float,
    window: tuple[float, float],
    n_points: int = 40,
):
    """Least-squares fit of numeric_logF minus the known beta tail terms
    against const + A |t|^{-3/2} over the window; returns (c0_est, drift A)."""
    t_lo, t_hi = window
    if not (t_lo < t_hi <= -4.0):
        raise BadInterval("extraction window must satisfy t_lo < t_hi <= -4")
    cubic, three_halves, log_coef = _float_coefficients(beta)
    tt = np.linspace(t_lo, t_hi, n_points)
    a = np.abs(tt)
    y = np.array([numeric_logF(tv) for tv in tt])
    known = cubic * a**3 + three_halves * a**1.5 + log_coef * np.log(a)
    design = np.vstack([np.ones_like(tt), a**-1.5]).T
    gram = design.T @ design
    if np.linalg.cond(gram) > 1e8:
        raise IllConditionedFit(f"window {window} gives condition {np.linalg.cond(gram):.2e}")
    sol, *_ = np.linalg.lstsq(design, y - known, rcond=None)
    return float(sol[0]), float(sol[1])
