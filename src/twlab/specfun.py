"""Foundation special functions and quadrature primitives.

Airy Ai and Ai' come from scipy.special.airy in float64 on [-30, 30]
(DomainError outside). Against 40-digit values on 601 points of that
range they are within 2.3e-14 relative for t >= 0 and 2.5e-14 absolute
for t < 0. Gauss-Legendre rules come from Newton iteration on the
Legendre recurrence.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import BadInterval, DomainError

__all__ = [
    "AiryValue",
    "QuadratureRule",
    "airy",
    "airy_grid",
    "gauss_legendre",
    "inverse_node_gaps",
]

AIRY_T_MIN = -30.0
AIRY_T_MAX = 30.0


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


def airy(t: float) -> AiryValue:
    """Ai(t) and Ai'(t) for t in [-30, 30] (accuracy: module docstring)."""
    t = float(t)
    if not (AIRY_T_MIN <= t <= AIRY_T_MAX):
        raise DomainError(f"airy: t={t} outside [{AIRY_T_MIN}, {AIRY_T_MAX}]")
    ai, aip, _, _ = special.airy(t)
    return AiryValue(float(ai), float(aip))


def airy_grid(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Ai, Ai' over an array of arguments."""
    ts = np.asarray(ts, dtype=np.float64)
    if not np.all((AIRY_T_MIN <= ts) & (ts <= AIRY_T_MAX)):
        raise DomainError("airy_grid: arguments outside [-30, 30]")
    ai, aip, _, _ = special.airy(ts)
    return ai, aip


def _legendre(m: int, x: np.ndarray):
    """P_m(x) and P_m'(x) by the three-term recurrence."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for j in range(2, m + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, m * (x * p1 - p0) / (x * x - 1)


@functools.lru_cache(maxsize=32)
def _gauss_legendre_unit(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point rule on [-1, 1], read-only."""
    k = np.arange(1, m + 1)
    x = np.cos(np.pi * (k - 0.25) / (m + 0.5))
    for _ in range(100):
        p, dp = _legendre(m, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    x = x[::-1].copy()
    _, dp = _legendre(m, x)   # P_m' at the converged nodes
    w = 2.0 / ((1 - x * x) * dp * dp)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=8)
def inverse_node_gaps(m: int) -> np.ndarray:
    """1/(x_i - x_j) over the nodes of the m-point rule on [-1, 1], 0 on
    the diagonal, read-only; on (a, b) the gaps are (b - a)/2 times these."""
    x, _ = _gauss_legendre_unit(m)
    gap = np.subtract.outer(x, x)
    gap.flat[:: m + 1] = np.inf
    inv = 1.0 / gap
    inv.flags.writeable = False
    return inv


def gauss_legendre(m: int, a: float, b: float) -> QuadratureRule:
    """m-point Gauss-Legendre rule on (a, b) by Newton iteration on P_m.

    The rule on [-1, 1] is solved once per m and cached. Library rules
    are less accurate: for m = 120 the outermost weight is off by 1.1e-11
    relative in numpy's leggauss, 3.7e-12 in scipy.special.roots_legendre
    and 4.0e-13 here (40-digit reference).
    """
    try:
        m = operator.index(m)
    except TypeError:
        raise BadInterval(f"gauss_legendre: m={m!r} is not an integer") from None
    if m < 2:
        raise BadInterval("gauss_legendre: m >= 2 required")
    if not a < b:
        raise BadInterval("gauss_legendre: need a < b")
    x, w = _gauss_legendre_unit(m)
    half = 0.5 * (b - a)
    return QuadratureRule(
        nodes=a + half * (x + 1.0), weights=half * w, interval=(float(a), float(b))
    )

