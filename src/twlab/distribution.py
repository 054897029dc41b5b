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

from . import auxsys, painleve2
from .errors import BadInterval, OutOfRange, OutOfSupportedRange, QZeroCrossing

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


def log_F2(hm: painleve2.Painleve2Solution, t: float) -> float:
    """log F2(t) = int_t^inf omega(s) ds, tail beyond the grid bounded by
    the Airy decay of u."""
    if t < hm.t_min:
        raise OutOfRange(f"t={t} below solved range {hm.t_min}")
    if t >= hm.t_max:
        return 0.0
    return hm.int_omega_to_inf(float(t))


def eval_F2(hm: painleve2.Painleve2Solution, t: float) -> float:
    return float(np.exp(log_F2(hm, t)))


def _internal_t(t_external: float) -> float:
    return SCALE_T * float(t_external)


def log_F6(
    hm: painleve2.Painleve2Solution, aux: auxsys.AuxSolution, t: float
) -> float:
    """log F6 at external argument t, from the smooth-integrand form.

    log F6 = log((1 - q2)/2) + (1/3) I_omega + (2/3) I_alpha - (1/3) I_one
    with I_x = int_{t_int}^inf of (omega, alpha, (u'/u)(1+q2)). The tails
    beyond t_start: I_omega's is computed from the Airy decay, the other two
    are bounded by u(t_start)^2-scale and dropped.
    """
    if aux.route != "linear":
        raise BadInterval("log_F6 needs the linear-route AuxSolution")
    ti = _internal_t(t)
    if ti > aux.t_start:
        # saturated region: 1 - F6 is below u(t_start)^2 scale (~1e-13)
        return 0.0
    if ti < aux.t_end:
        raise OutOfRange(
            f"internal t={ti:.3f} outside aux range [{aux.t_end}, {aux.t_start}]"
        )
    q2 = float(aux.q2_at(ti))
    j_om, j_al, j_one = aux.integrals_from_start(ti)
    i_om = -float(j_om) + aux.tail_int_omega
    i_al = -float(j_al)
    i_one = -float(j_one)
    log_f = np.log((1.0 - q2) / 2.0) + i_om / 3.0 + (2.0 / 3.0) * i_al - i_one / 3.0
    # roundoff in the saturated right tail would otherwise give F6 = 1 + ulp
    return min(float(log_f), 0.0)


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
    ti = _internal_t(t)
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
    f = painleve2.fast_eval(hm)

    def integrand(s):
        u, ut, _ = f(s)
        q2s = aux.q2_at(s)
        return (ut / u) * (1.0 + q2s) / q2s

    from .specfun import gauss_legendre

    rule = gauss_legendre(n_quad, ti, aux.t_start)
    i_two = float(
        np.dot(rule.weights, np.array([integrand(s) for s in rule.nodes]))
    )
    j_om, _, _ = aux.integrals_from_start(ti)
    i_om = -float(j_om) + aux.tail_int_omega
    return float(
        (q2 - 1.0) / (2.0 * q2) * np.exp(i_om / 3.0 - (2.0 / 3.0) * i_two)
    )


@dataclass(eq=False)
class DistTable:
    """Tabulated CDF rows with provenance metadata."""

    beta: int
    t: np.ndarray
    F: np.ndarray
    logF: np.ndarray
    pdf: np.ndarray
    metadata: dict = field(default_factory=dict)

    def cdf(self, tq):
        """Monotone cubic-ish interpolation of F (Hermite with pdf slopes)."""
        tq = np.asarray(tq, dtype=np.float64)
        scalar = tq.ndim == 0
        tq = np.atleast_1d(tq)
        out = np.empty_like(tq)
        below = tq <= self.t[0]
        above = tq >= self.t[-1]
        out[below] = self.F[0]
        out[above] = self.F[-1]
        mid = ~(below | above)
        if mid.any():
            i = np.clip(np.searchsorted(self.t, tq[mid]) - 1, 0, len(self.t) - 2)
            h = self.t[i + 1] - self.t[i]
            s = (tq[mid] - self.t[i]) / h
            h00 = (1 + 2 * s) * (1 - s) ** 2
            h10 = s * (1 - s) ** 2
            h01 = s * s * (3 - 2 * s)
            h11 = s * s * (s - 1)
            out[mid] = (
                h00 * self.F[i]
                + h10 * h * self.pdf[i]
                + h01 * self.F[i + 1]
                + h11 * h * self.pdf[i + 1]
            )
        return float(out[0]) if scalar else out

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
        pdf=np.maximum(_diff5(F, h), 0.0),
        metadata={"beta": int(beta), "n": int(len(t)), "source": "external"},
    )


def _diff5(y: np.ndarray, h: float) -> np.ndarray:
    """5-point differentiation on a uniform grid, one-sided at the edges."""
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    for i in (0, 1):
        d[i] = (
            -25 * y[i] + 48 * y[i + 1] - 36 * y[i + 2] + 16 * y[i + 3] - 3 * y[i + 4]
        ) / (12 * h)
    for i in (-1, -2):
        d[i] = (
            25 * y[i] - 48 * y[i - 1] + 36 * y[i - 2] - 16 * y[i - 3] + 3 * y[i - 4]
        ) / (12 * h)
    return d


def _eval_chunked(fn, t_grid, workers):
    if workers <= 1:
        return np.array([fn(tv) for tv in t_grid])
    from concurrent.futures import ThreadPoolExecutor

    chunks = np.array_split(np.arange(len(t_grid)), workers)
    out = np.empty(len(t_grid))

    def work(idx):
        for i in idx:
            out[i] = fn(t_grid[i])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(work, chunks))
    return out


def tabulate(
    hm: painleve2.Painleve2Solution,
    aux: auxsys.AuxSolution | None,
    beta: int,
    t_grid: np.ndarray,
    workers: int = 1,
) -> DistTable:
    """Table of (t, F, logF, pdf) on a uniform grid; pdf by 5-point
    differentiation of F. Values are identical for any worker count."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if len(t_grid) < 5:
        raise BadInterval("tabulate: need at least 5 grid points")
    steps = np.diff(t_grid)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise BadInterval("tabulate: grid must be uniform")
    if beta == 2:
        logF = _eval_chunked(lambda tv: log_F2(hm, tv), t_grid, workers)
        prov = {"hm": _array_hash(hm.grid, hm.u)}
    elif beta == 6:
        if aux is None:
            raise BadInterval("tabulate: beta=6 needs an AuxSolution")
        logF = _eval_chunked(lambda tv: log_F6(hm, aux, tv), t_grid, workers)
        prov = {
            "hm": _array_hash(hm.grid, hm.u),
            "aux": _array_hash(aux.table.t, aux.table.y),
        }
    else:
        raise BadInterval("tabulate: beta must be 2 or 6")
    F = np.exp(logF)
    pdf = _diff5(F, float(steps[0]))
    meta = {
        "beta": int(beta),
        "provenance": prov,
        "t_lo": float(t_grid[0]),
        "t_hi": float(t_grid[-1]),
        "n": int(len(t_grid)),
        "tolerances": {"cdf_abs": 1e-8, "pdf_abs": 1e-5},
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
