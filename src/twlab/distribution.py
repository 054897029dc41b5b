"""Tracy-Widom distribution evaluation for beta = 2 and beta = 6.

The beta=6 value is produced from the solved auxiliary trajectory. Two
equivalent closed forms exist; the one with the (1+q2)/q2 integrand has a
non-integrable-looking 1/q2 whose log divergence cancels against the
prefactor zero exactly where q2 vanishes (the trajectory does cross zero,
near internal t = -4.02). The alpha-form used as the primary route is the
same function written with smooth integrands, valid through the crossing;
the q2-route is kept and cross-checked on the right of the crossing.
"""

from __future__ import annotations

import hashlib
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import auxsys, painleve2, specfun
from .errors import BadInterval, OutOfRange, OutOfSupportedRange, QZeroCrossing
from .rk import HermiteTable, _basis, diff5

__all__ = [
    "DistTable",
    "is_effectively_monotone",
    "table_from_values",
    "eval_F2",
    "log_F2",
    "eval_F6",
    "log_F6",
    "eval_F6_q2route",
    "tabulate",
    "quantile",
    "SCALE_T",
]

SCALE_T = 3.0 ** (2.0 / 3.0)
# quantile stops at a step below QUANTILE_TOL of a cell
QUANTILE_TOL = 1e-15


def _is_scalar(t) -> bool:
    # np.float64 is a float: the first test catches the common case
    return isinstance(t, float) or np.ndim(t) == 0


def _read_log_cdf(row, t, t_lo, t_hi, where):
    """A log CDF from its one-row table `row` at t (a scalar or an array):
    OutOfRange below t_lo, 0 from t_hi on, where the right tail is below
    roundoff, and capped at 0, as roundoff there would otherwise give
    F = 1 + ulp. A scalar t gives a float, computed on floats and equal to
    the array path bit for bit; NaN passes both tests and raises
    OutOfRange in the lookup. `where` names the range in the message."""
    if _is_scalar(t):
        t = float(t)
        if t < t_lo:
            raise OutOfRange(f"t={t:.3f} below {where} [{t_lo}, {t_hi}]")
        if t >= t_hi:
            return 0.0
        log_f = row(t)[0]
        return 0.0 if log_f >= 0.0 else log_f
    t = np.asarray(t, dtype=np.float64)
    if (t < t_lo).any():
        raise OutOfRange(f"t={np.min(t):.3f} below {where} [{t_lo}, {t_hi}]")
    # the float cap is np.minimum's (NaN stays NaN, -0.0 gives 0.0)
    return np.where(t >= t_hi, 0.0, np.minimum(row(np.minimum(t, t_hi))[0], 0.0))


def log_F2(hm: painleve2.Painleve2Solution, t):
    """log F2(t) = int_t^inf omega(s) ds, for a scalar or an array t, read
    from the one-row table hm.log_f2; 0 from the right end of the grid on,
    where the Airy decay of u bounds the tail."""
    return _read_log_cdf(hm.log_f2, t, hm.t_min, hm.t_max, "the Hastings-McLeod range")


def eval_F2(hm: painleve2.Painleve2Solution, t: float) -> float:
    return float(np.exp(log_F2(hm, t)))


def log_F6(hm: painleve2.Painleve2Solution, aux: auxsys.AuxSolution, t):
    """log F6 at external argument t (scalar or array), from the
    smooth-integrand form.

    log F6 = log((1 - q2)/2) + (1/3) I_omega + (2/3) I_alpha - (1/3) I_one
    with I_x = int_{t_int}^inf of (omega, alpha, (u'/u)(1+q2)). The tails
    beyond t_start: I_omega's is computed from the Airy decay, the other two
    are bounded by u(t_start)^2-scale and dropped. The sum is tabulated once
    per solve, as the one-row table aux.log_f6 (values and exact slopes at
    the aux nodes, see AuxSolution), so a query is one Hermite lookup, read
    as log_F2 reads hm.log_f2 at the internal t; 0 from t_start on, where
    1 - F6 is below the u(t_start)^2 scale (~1e-13).
    """
    if aux.log_f6 is None:
        raise BadInterval("log_F6 needs the linear-route AuxSolution")
    ti = SCALE_T * (float(t) if _is_scalar(t) else np.asarray(t, dtype=np.float64))
    return _read_log_cdf(aux.log_f6, ti, aux.t_end, aux.t_start, "the internal aux range")


def eval_F6(
    hm: painleve2.Painleve2Solution, aux: auxsys.AuxSolution, t: float
) -> float:
    return float(np.exp(log_F6(hm, aux, t)))


def eval_F6_q2route(
    hm: painleve2.Painleve2Solution,
    aux: auxsys.AuxSolution,
    t: float,
) -> float:
    """The (q2-1)/(2 q2) prefactor form, valid only right of the q2 zero.

    Raises QZeroCrossing when q2 vanishes inside [t_int, t_start]; use
    eval_F6 (same function, smooth integrands) there instead. The q2
    integral takes 400 Gauss-Legendre nodes.
    """
    ti = SCALE_T * float(t)
    if ti > aux.t_start:
        return 1.0
    if ti < aux.t_end:
        raise OutOfRange(f"internal t={ti:.3f} outside aux range")
    for tz in aux.q2_zero_locations():
        if ti <= tz <= aux.t_start:
            raise QZeroCrossing(
                f"q2 vanishes at internal t={tz:.6f} inside the integration range"
            )
    q2 = float(aux.q2_at(ti))
    rule = specfun.gauss_legendre(400, ti, aux.t_start)
    u, ut, _ = hm.eval(rule.nodes)
    q2s = aux.q2_at(rule.nodes)
    i_two = float(np.dot(rule.weights, (ut / u) * (1.0 + q2s) / q2s))
    j_om, _, _ = aux.integrals_from_start(ti)
    i_om = -float(j_om) + aux.tail_int_omega
    return float(
        (q2 - 1.0) / (2.0 * q2) * np.exp(i_om / 3.0 - (2.0 / 3.0) * i_two)
    )


@dataclass(eq=False)
class DistTable:
    """Tabulated CDF rows on a uniform grid with provenance metadata."""

    beta: int
    t: np.ndarray
    F: np.ndarray
    logF: np.ndarray
    pdf: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self._table = HermiteTable(self.t, [self.F], [self.pdf])
        # F may step back by up to 1e-12 in its saturated top; its running
        # maximum is sorted, for quantile's cell search
        self._F_rising = np.maximum.accumulate(self._table.y[0])

    def cdf(self, tq):
        """F by cubic Hermite interpolation with the pdf column as slopes.

        Beyond the table the CDF saturates: F[0] below it, F[-1] above.
        Unlike the other tables it does not raise there, because the
        distribution is used on unbounded data such as Monte Carlo samples.
        """
        lo, hi = self.t[0], self.t[-1]
        if _is_scalar(tq):
            return self._table(min(max(float(tq), lo), hi))[0]
        return self._table(np.clip(tq, lo, hi))[0]


def _array_hash(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# provenance digests, one per solve, hashed on first use; a solve's tables
# are read-only, so a kept digest cannot go stale, and an entry goes with
# its solve (both solution classes hash by identity)
_DIGESTS = weakref.WeakKeyDictionary()


def _solve_hash(solve, *arrays) -> str:
    """_array_hash(*arrays) of one solve's arrays, kept for the solve."""
    digest = _DIGESTS.get(solve)
    if digest is None:
        digest = _DIGESTS[solve] = _array_hash(*arrays)
    return digest


def is_effectively_monotone(F: np.ndarray, saturation: float = 1e-12) -> bool:
    """Strict increase away from the saturated top, non-decrease there.

    Double precision cannot distinguish neighboring CDF values once
    1 - F drops below roundoff, so the strictness requirement is applied
    only where F < 1 - saturation.
    """
    F = np.asarray(F)
    d = np.diff(F)
    live = (F[:-1] < 1.0 - saturation) & (F[1:] < 1.0 - saturation)
    return bool((d[live] > 0).all() and (d >= -saturation).all())


def table_from_values(beta: int, t: np.ndarray, F: np.ndarray) -> DistTable:
    """DistTable from externally computed CDF values on a uniform grid."""
    t = np.asarray(t, dtype=np.float64)
    F = np.asarray(F, dtype=np.float64)
    h = float(t[1] - t[0])
    return DistTable(
        beta=int(beta),
        t=t,
        F=F,
        logF=np.log(np.maximum(F, 1e-300)),
        pdf=np.maximum(diff5(F, h), 0.0),
        metadata={"beta": int(beta), "n": int(len(t)), "source": "external"},
    )


def tabulate(
    hm: painleve2.Painleve2Solution,
    aux: auxsys.AuxSolution | None,
    beta: int,
    t_grid: np.ndarray,
) -> DistTable:
    """Table of (t, F, logF, pdf) on a uniform grid; pdf by 5-point
    differentiation of F."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if len(t_grid) < 5:
        raise BadInterval("tabulate: need at least 5 grid points")
    steps = np.diff(t_grid)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise BadInterval("tabulate: grid must be uniform")
    if beta == 2:
        logF = log_F2(hm, t_grid)
        prov = {"hm": _solve_hash(hm, hm.grid, hm.u)}
    elif beta == 6:
        if aux is None:
            raise BadInterval("tabulate: beta=6 needs an AuxSolution")
        logF = log_F6(hm, aux, t_grid)
        prov = {
            "hm": _solve_hash(hm, hm.grid, hm.u),
            "aux": _solve_hash(aux, aux.table.t, aux.table.y),
        }
    else:
        raise BadInterval("tabulate: beta must be 2 or 6")
    F = np.exp(logF)
    pdf = diff5(F, float(steps[0]))
    meta = {
        "beta": int(beta),
        "provenance": prov,
        "t_lo": float(t_grid[0]),
        "t_hi": float(t_grid[-1]),
        "n": int(len(t_grid)),
    }
    return DistTable(
        beta=int(beta), t=t_grid, F=F, logF=logF, pdf=np.maximum(pdf, 0.0),
        metadata=meta,
    )


def quantile(table: DistTable, p: float) -> float:
    """t with F(t) = p on the table's interpolant (the cubic of DistTable.cdf).

    A binary search of the running maximum of F (F may step back by up to
    1e-12 in its saturated top) finds the first cell with F_j < p <=
    F_j+1. Its cubic is solved by Newton's method on its own derivative
    from the chord, with bisection when a step leaves the bracket around
    the root, to a step below QUANTILE_TOL of the cell. Raises
    OutOfSupportedRange for p outside [F[0], max F].
    """
    top = table._F_rising[-1]
    if not (table.F[0] <= p <= top):
        raise OutOfSupportedRange(
            f"p={p} outside tabulated range [{table.F[0]:.3g}, {top:.3g}]"
        )
    p = float(p)
    j = int(np.searchsorted(table._F_rising, p))    # F_rising[j-1] < p <= F[j]
    cdf = table._table
    if j == 0:
        return cdf.t_lo
    (y0, m0), (y1, m1) = cdf.nodes[j - 1:j + 1, :, 0].tolist()
    ta, tb = cdf.t[j - 1:j + 1].tolist()
    h = cdf.h
    lo, hi = 0.0, 1.0               # the cubic is < p at lo, >= p at hi
    s = (p - y0) / (y1 - y0)
    for _ in range(60):             # bisection alone takes 50
        b00, b10, b01, b11 = _basis(s, h)
        c = b00 * y0 + b10 * m0 + b01 * y1 + b11 * m1 - p
        if c == 0.0:
            break
        if c < 0.0:
            lo = s
        else:
            hi = s
        # dc/ds from the derivatives of the basis
        slope = 6.0 * s * (1.0 - s) * (y1 - y0) + h * (
            (1.0 - s) * (1.0 - 3.0 * s) * m0 + s * (3.0 * s - 2.0) * m1)
        s_old = s
        s = s - c / slope if slope > 0.0 else math.nan
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
        if abs(s - s_old) <= QUANTILE_TOL:
            break
    # exact at both nodes, so that a node value F_j+1 gives t_j+1
    return (1.0 - s) * ta + s * tb
