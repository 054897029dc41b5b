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

import csv
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import auxsys, painleve2, specfun
from .errors import BadInterval, OutOfRange, OutOfSupportedRange, QZeroCrossing
from .rk import HermiteTable, diff5

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


def log_F2(hm: painleve2.Painleve2Solution, t):
    """log F2(t) = int_t^inf omega(s) ds, for a scalar or an array t; 0 from
    the right end of the grid on, where the Airy decay of u bounds the tail."""
    t = np.asarray(t, dtype=np.float64)
    if (t < hm.t_min).any():
        raise OutOfRange(f"t below solved range {hm.t_min}")
    out = np.where(t >= hm.t_max, 0.0, hm.int_omega_to_inf(np.minimum(t, hm.t_max)))
    return float(out) if out.ndim == 0 else out


def eval_F2(hm: painleve2.Painleve2Solution, t: float) -> float:
    return float(np.exp(log_F2(hm, t)))


def log_F6(hm: painleve2.Painleve2Solution, aux: auxsys.AuxSolution, t):
    """log F6 at external argument t (scalar or array), from the
    smooth-integrand form.

    log F6 = log((1 - q2)/2) + (1/3) I_omega + (2/3) I_alpha - (1/3) I_one
    with I_x = int_{t_int}^inf of (omega, alpha, (u'/u)(1+q2)). The tails
    beyond t_start: I_omega's is computed from the Airy decay, the other two
    are bounded by u(t_start)^2-scale and dropped.
    """
    if aux.route != "linear":
        raise BadInterval("log_F6 needs the linear-route AuxSolution")
    ti = SCALE_T * np.asarray(t, dtype=np.float64)
    if (ti < aux.t_end).any():
        raise OutOfRange(
            f"internal t={np.min(ti):.3f} outside aux range "
            f"[{aux.t_end}, {aux.t_start}]"
        )
    # q2 and the three J channels of the trajectory, from one table lookup
    y = aux.table(np.minimum(ti, aux.t_start))
    q2 = (y[0] + y[1]) / (y[0] - y[1])
    i_om = -y[4] + aux.tail_int_omega
    i_al = -y[5]
    i_one = -y[6]
    log_f = np.log((1.0 - q2) / 2.0) + i_om / 3.0 + (2.0 / 3.0) * i_al - i_one / 3.0
    # right of t_start 1 - F6 is below the u(t_start)^2 scale (~1e-13), and
    # roundoff in that saturated tail would otherwise give F6 = 1 + ulp
    out = np.where(ti > aux.t_start, 0.0, np.minimum(log_f, 0.0))
    return float(out) if out.ndim == 0 else out


def eval_F6(
    hm: painleve2.Painleve2Solution, aux: auxsys.AuxSolution, t: float
) -> float:
    return float(np.exp(log_F6(hm, aux, t)))


def eval_F6_q2route(
    hm: painleve2.Painleve2Solution,
    aux: auxsys.AuxSolution,
    t: float,
    n_quad: int = 400,
) -> float:
    """The (q2-1)/(2 q2) prefactor form, valid only right of the q2 zero.

    Raises QZeroCrossing when q2 vanishes inside [t_int, t_start]; use
    eval_F6 (same function, smooth integrands) there instead.
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
    rule = specfun.gauss_legendre(n_quad, ti, aux.t_start)
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

    def cdf(self, tq):
        """F by cubic Hermite interpolation with the pdf column as slopes.

        Beyond the table the CDF saturates: F[0] below it, F[-1] above.
        Unlike the other tables it does not raise there, because the
        distribution is used on unbounded data such as Monte Carlo samples.
        """
        lo, hi = self.t[0], self.t[-1]
        if isinstance(tq, float) or np.ndim(tq) == 0:
            return self._table(min(max(float(tq), lo), hi))[0]
        return self._table(np.clip(tq, lo, hi))[0]

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["t", "F", "logF", "pdf"])
            for i in range(len(self.t)):
                wr.writerow(
                    [
                        f"{v:.17g}"
                        for v in (self.t[i], self.F[i], self.logF[i], self.pdf[i])
                    ]
                )

    def export_metadata(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _array_hash(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


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
        prov = {"hm": _array_hash(hm.grid, hm.u)}
    elif beta == 6:
        if aux is None:
            raise BadInterval("tabulate: beta=6 needs an AuxSolution")
        logF = log_F6(hm, aux, t_grid)
        prov = {
            "hm": _array_hash(hm.grid, hm.u),
            "aux": _array_hash(aux.table.t, aux.table.y),
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


def quantile(table: DistTable, p: float, tol: float = 1e-9) -> float:
    """t with F(t) = p by bisection plus Hermite-slope refinement."""
    if not (table.F[0] <= p <= table.F[-1]):
        raise OutOfSupportedRange(
            f"p={p} outside tabulated range [{table.F[0]:.3g}, {table.F[-1]:.3g}]"
        )
    lo, hi = float(table.t[0]), float(table.t[-1])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if table.cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, abs(hi)):
            break
    x = 0.5 * (lo + hi)
    for _ in range(8):
        err = table.cdf(x) - p
        if abs(err) <= tol:
            break
        slope = max(float(np.interp(x, table.t, table.pdf)), 1e-300)
        x = float(np.clip(x - err / slope, table.t[0], table.t[-1]))
    return x
