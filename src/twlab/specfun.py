"""Foundation special functions and quadrature primitives.

Airy Ai and Ai' are evaluated from scratch: a Maclaurin series summed in
extended precision for moderate arguments, and Poincare asymptotic
expansions at optimal truncation outside. Gauss-Legendre rules come from
Newton iteration on the Legendre recurrence; semi-infinite integrals use
geometrically growing panels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadInterval, DomainError, NonConvergence

__all__ = [
    "AiryValue",
    "QuadratureRule",
    "airy",
    "airy_grid",
    "airy_branch_values",
    "gauss_legendre",
    "integrate_to_infinity",
]

AIRY_T_MIN = -30.0
AIRY_T_MAX = 30.0
# Branch routing keeps absolute error <= 1e-13 on [-30, 30]: the extended
# precision series is exact to ~1e-14 inside (-7.5, 6.0), the asymptotic
# expansions beat 1e-13 outside it. The oscillatory-side expansion cannot
# reach that accuracy until |t| >~ 7.5 (optimal truncation floor).
_SERIES_LO = -7.5
_SERIES_HI = 6.0

_LD = np.longdouble
# Ai(0) = 3^{-2/3}/Gamma(2/3), Ai'(0) = -3^{-1/3}/Gamma(1/3)
_C1 = _LD("0.355028053887817239260063186004183176397")
_C2 = _LD("0.258819403792806798405183560189203963479")


@dataclass(frozen=True)
class AiryValue:
    ai: float
    ai_prime: float


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights mapped to a finite interval."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def _airy_series_arrays(t: np.ndarray, nmax: int = 120):
    """Maclaurin Ai, Ai' summed in longdouble; valid to ~1e-14 for |t| <= 9."""
    t = np.asarray(t, dtype=_LD)
    t3 = t * t * t
    f = np.ones_like(t)
    fp = np.zeros_like(t)
    g = t.copy()
    gp = np.ones_like(t)
    tf = np.ones_like(t)
    tg = t.copy()
    for k in range(1, nmax):
        dfp = tf * t * t / (3 * k - 1)
        tf = tf * t3 / ((3 * k) * (3 * k - 1))
        dgp = tg * t * t / (3 * k)
        tg = tg * t3 / ((3 * k + 1) * (3 * k))
        f += tf
        fp += dfp
        g += tg
        gp += dgp
        if max(np.max(np.abs(tf)), np.max(np.abs(tg))) < 1e-40 * max(
            np.max(np.abs(f)), 1.0
        ):
            break
    ai = _C1 * f - _C2 * g
    aip = _C1 * fp - _C2 * gp
    return np.asarray(ai, dtype=np.float64), np.asarray(aip, dtype=np.float64)


def _u_ladder(n: int) -> np.ndarray:
    u = np.empty(n + 1)
    u[0] = 1.0
    for k in range(1, n + 1):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 1) / (72.0 * k)
    return u


_U = _u_ladder(60)
_V = np.empty_like(_U)
_V[0] = 1.0
for _k in range(1, len(_U)):
    _V[_k] = -(6 * _k + 1) / (6 * _k - 1) * _U[_k]


def _airy_asym_pos(t: np.ndarray):
    """Ai, Ai' for t >= 6 from the exp(-z) expansion, z = (2/3) t^{3/2}.

    The sum over term index k runs for all points at once; each point stops
    at its own optimal truncation, the first term larger than the one
    before it.
    """
    z = (2.0 / 3.0) * t**1.5
    s, sp = sums = np.zeros((2,) + t.shape)
    prev = np.full_like(t, np.inf)
    live = np.ones(t.shape, dtype=bool)
    zk = np.ones_like(t)
    for k in range(len(_U)):
        term = _U[k] / zk
        live &= term <= prev
        if not live.any():
            break
        sums += np.where(live, (-1) ** k * np.array([_U[k], _V[k]])[:, None] / zk, 0.0)
        prev = term
        zk = zk * z
    pre = np.exp(-z) / (2 * np.sqrt(np.pi) * t**0.25)
    return pre * s, -(t**0.25) * np.exp(-z) / (2 * np.sqrt(np.pi)) * sp


def _airy_asym_neg(t: np.ndarray):
    """Ai, Ai' for t <= -7.5 from the oscillatory expansion in
    z = (2/3) (-t)^{3/2}, each point at its own optimal truncation."""
    x = -t
    z = (2.0 / 3.0) * x**1.5
    P, Q, Pp, Qp = sums = np.zeros((4,) + t.shape)
    prev = np.full_like(t, np.inf)
    live = np.ones(t.shape, dtype=bool)
    for k in range(len(_U) // 2 - 1):
        ze, zo = z ** (2 * k), z ** (2 * k + 1)
        terms = np.array([_U[2 * k] / ze, _U[2 * k + 1] / zo,
                          _V[2 * k] / ze, _V[2 * k + 1] / zo])
        big = np.maximum(terms[0], terms[1])
        live &= big <= prev
        if not live.any():
            break
        sums += np.where(live, (-1) ** k * terms, 0.0)
        prev = big
    c = np.cos(z - np.pi / 4)
    s = np.sin(z - np.pi / 4)
    ai = (c * P + s * Q) / (np.sqrt(np.pi) * x**0.25)
    aip = (x**0.25) / np.sqrt(np.pi) * (s * Pp - c * Qp)
    return ai, aip


def _airy_values(ts: np.ndarray):
    """Ai, Ai' over an array in [-30, 30], each point on its own branch."""
    ai = np.empty_like(ts)
    aip = np.empty_like(ts)
    for branch, mask in (
        (_airy_series_arrays, (ts > _SERIES_LO) & (ts < _SERIES_HI)),
        (_airy_asym_pos, ts >= _SERIES_HI),
        (_airy_asym_neg, ts <= _SERIES_LO),
    ):
        if mask.any():
            ai[mask], aip[mask] = branch(ts[mask])
    return ai, aip


def airy(t: float) -> AiryValue:
    """Ai(t) and Ai'(t) for t in [-30, 30], absolute error <= 1e-13 for t >= -10."""
    t = float(t)
    if not (AIRY_T_MIN <= t <= AIRY_T_MAX):
        raise DomainError(f"airy: t={t} outside [{AIRY_T_MIN}, {AIRY_T_MAX}]")
    ai, aip = _airy_values(np.array([t]))
    return AiryValue(float(ai[0]), float(aip[0]))


def airy_grid(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Ai, Ai' over an array of arguments."""
    ts = np.asarray(ts, dtype=np.float64)
    if ts.size and (ts.min() < AIRY_T_MIN or ts.max() > AIRY_T_MAX):
        raise DomainError("airy_grid: arguments outside [-30, 30]")
    return _airy_values(ts)


def airy_branch_values(t: float) -> tuple[AiryValue, AiryValue]:
    """Both branch evaluations at one point, for crossover consistency checks.

    The series branch is meaningful for |t| <= ~9, the asymptotic branch for
    |t| >= ~4; the overlap is where the routing switch is audited.
    """
    ts = np.array([float(t)])
    ai_s, aip_s = _airy_series_arrays(ts)
    ai_a, aip_a = _airy_asym_pos(ts) if t >= 0 else _airy_asym_neg(ts)
    return (
        AiryValue(float(ai_s[0]), float(aip_s[0])),
        AiryValue(float(ai_a[0]), float(aip_a[0])),
    )


def _legendre(m: int, x: np.ndarray):
    """P_m(x) and P_m'(x) by the three-term recurrence."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for j in range(2, m + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, m * (x * p1 - p0) / (x * x - 1)


def gauss_legendre(m: int, a: float, b: float) -> QuadratureRule:
    """m-point Gauss-Legendre rule on (a, b) by Newton iteration on P_m."""
    if m < 2:
        raise BadInterval("gauss_legendre: m >= 2 required")
    if not a < b:
        raise BadInterval("gauss_legendre: need a < b")
    k = np.arange(1, m + 1)
    x = np.cos(np.pi * (k - 0.25) / (m + 0.5))
    for _ in range(100):
        p, dp = _legendre(m, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    x = x[::-1]
    _, dp = _legendre(m, x)   # P_m' at the converged nodes
    w = 2.0 / ((1 - x * x) * dp * dp)
    half = 0.5 * (b - a)
    return QuadratureRule(
        nodes=a + half * (x + 1.0), weights=half * w, interval=(float(a), float(b))
    )


def integrate_to_infinity(
    f,
    t0: float,
    decay_scale: float,
    *,
    rel_tol: float = 1e-15,
    max_panels: int = 60,
    nodes_per_panel: int = 24,
    growth: float = 1.5,
) -> float:
    """Integral of f over (t0, inf) for integrands decaying at least like
    exp(-s/decay_scale), by Gauss-Legendre on geometrically growing panels.

    Truncates when a panel contributes less than rel_tol of the running
    total; raises NonConvergence if max_panels do not reach that criterion.
    """
    if decay_scale <= 0:
        raise BadInterval("integrate_to_infinity: decay_scale must be positive")
    total = 0.0
    left = float(t0)
    width = float(decay_scale)
    scale = 0.0
    for _ in range(max_panels):
        rule = gauss_legendre(nodes_per_panel, left, left + width)
        panel = rule.integrate(f)
        total += panel
        scale = max(scale, abs(total))
        if abs(panel) <= rel_tol * max(scale, 1e-300):
            return total
        left += width
        width *= growth
    raise NonConvergence(
        f"integrate_to_infinity: no truncation after {max_panels} panels"
    )
