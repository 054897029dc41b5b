"""Adaptive float64 integration sampled onto a uniform output grid.

solve_rk runs scipy's DOP853, the explicit 8(5,3) Runge-Kutta pair of
Dormand and Prince with its 7th-order dense output (Hairer, Norsett and
Wanner, Solving ODEs I, sec. II.10), in float64. It samples the dense
output at uniformly spaced nodes and evaluates the right-hand side there
in one vectorized call; the nodes with their derivatives feed a cubic
Hermite table, whose interpolation error is ~h_out^4 whatever steps the
integrator took.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import StepFailure

# Step cap: with uncapped steps the nonlinear auxiliary route drifts up to
# ~1e-9 from the linear one (criterion 4); capped, ~2e-12.
MAX_STEP = 0.05
# DOP853 rejects a relative tolerance below 100 machine epsilons.
RTOL_FLOOR = 100 * np.finfo(np.float64).eps


@dataclass
class RkSolution:
    """Solution at uniform output nodes (values + derivatives)."""

    t: np.ndarray           # output nodes, in integration order
    y: np.ndarray           # shape (dim, len(t))
    yp: np.ndarray          # RHS at the nodes
    rhs_calls: int          # RHS calls made by the integrator's steps

    def hermite(self):
        return HermiteTable(self.t, self.y, self.yp)


class HermiteTable:
    """Piecewise-cubic Hermite evaluation from (t, y, y') node data."""

    def __init__(self, t: np.ndarray, y: np.ndarray, yp: np.ndarray):
        order = np.argsort(t)
        self.t = np.asarray(t, dtype=np.float64)[order]
        self.y = np.asarray(y, dtype=np.float64)[:, order]
        self.yp = np.asarray(yp, dtype=np.float64)[:, order]

    def __call__(self, tq, component=None):
        tq = np.asarray(tq, dtype=np.float64)
        scalar = tq.ndim == 0
        tq = np.atleast_1d(tq)
        i = np.clip(np.searchsorted(self.t, tq) - 1, 0, len(self.t) - 2)
        h = self.t[i + 1] - self.t[i]
        s = (tq - self.t[i]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        rows = list(range(self.y.shape[0])) if component is None else [component]
        out = np.empty((len(rows), len(tq)))
        for j, r in enumerate(rows):
            out[j] = (
                h00 * self.y[r, i]
                + h10 * h * self.yp[r, i]
                + h01 * self.y[r, i + 1]
                + h11 * h * self.yp[r, i + 1]
            )
        if component is not None:
            return float(out[0, 0]) if scalar else out[0]
        return out[:, 0] if scalar else out


def solve_rk(
    f,
    t0: float,
    t1: float,
    y0,
    *,
    rtol: float = 1e-13,
    atol: float = 1e-20,
    h_out: float = 0.002,
    max_rhs_calls: int = 100_000,
) -> RkSolution:
    """Integrate y' = f(t, y) from t0 to t1, output every ~h_out.

    f takes a scalar t with y of shape (dim,) inside a step, and the node
    array with y of shape (dim, nodes) for the output derivatives.
    rtol below RTOL_FLOOR is raised to it. Raises StepFailure at the t
    where the integrator stopped when it fails or its steps need more than
    max_rhs_calls RHS calls. The default budget is over ten times what an
    auxiliary route over [-11, 12] takes (~7500); near a singularity
    whose RHS is dominated by roundoff the steps shrink to a few ulps of t
    without failing, and the budget is what stops them.
    """
    direction = 1.0 if t1 > t0 else -1.0
    n_out = max(1, int(round(abs(t1 - t0) / h_out)))
    nodes = t0 + direction * (abs(t1 - t0) / n_out) * np.arange(n_out + 1)
    nodes[-1] = t1

    calls = 0
    t_last = float(t0)

    def counted(t, y):
        nonlocal calls, t_last
        calls += 1
        if calls > max_rhs_calls:
            raise StepFailure(t_last, f"solve_rk: step budget exhausted near t={t_last}")
        t_last = t
        return f(t, y)

    with np.errstate(invalid="ignore", over="ignore"):
        res = solve_ivp(
            counted,
            (t0, t1),
            np.asarray(y0, dtype=np.float64),
            method="DOP853",
            rtol=max(rtol, RTOL_FLOOR),
            atol=atol,
            max_step=MAX_STEP,
            dense_output=True,
        )
    t_stop = float(res.t[-1])
    if res.status != 0 or not np.all(np.isfinite(res.y[:, -1])):
        raise StepFailure(t_stop, f"solve_rk: {res.message} near t={t_stop}")
    y = res.sol(nodes)
    yp = np.asarray(f(nodes, y), dtype=np.float64)
    return RkSolution(t=nodes, y=y, yp=yp, rhs_calls=res.nfev)
