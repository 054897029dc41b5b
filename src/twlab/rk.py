"""The shared numerical kernels: ODE integration, table lookup, differences.

solve_rk runs scipy's DOP853, the explicit 8(5,3) Runge-Kutta pair of
Dormand and Prince with its 7th-order dense output (Hairer, Norsett and
Wanner, Solving ODEs I, sec. II.10), in float64. It samples the dense
output at uniformly spaced nodes and evaluates the right-hand side there
in one vectorized call.

HermiteTable is the one cubic Hermite interpolant every table uses (the
Hastings-McLeod table, the auxiliary trajectory, the CDF table): node
values and slopes on a uniform grid, error ~h^4. diff5 is the one 5-point
first-derivative stencil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import BadInterval, OutOfRange, StepFailure

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


def _basis(s, h):
    """Cubic Hermite weights of (y_i, y'_i, y_{i+1}, y'_{i+1}) at s in [0, 1]."""
    r = 1.0 - s
    return (
        (1.0 + 2.0 * s) * r * r,
        s * r * r * h,
        s * s * (3.0 - 2.0 * s),
        s * s * (s - 1.0) * h,
    )


class HermiteTable:
    """Piecewise-cubic Hermite interpolation of node values and slopes.

    y and yp have shape (rows, n), one row per channel, on a uniform grid
    t, ascending or descending. The node data is kept node-major in
    `nodes`, shape (n, 2, rows), so that a scalar lookup reads one
    contiguous block. A scalar t gives one value per row, an array of t
    gives shape (rows, len(t)); both do the same float operations in the
    same order and agree bitwise. A t more than 1e-12 outside the grid
    raises OutOfRange.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray, yp: np.ndarray):
        # filled row by row from views, so that building a large table
        # allocates little beyond the table itself
        t = np.asarray(t, dtype=np.float64)
        step = 1 if t[-1] > t[0] else -1
        self.t = t[::step].copy()
        self.nodes = np.empty((len(t), 2, len(y)))
        for r, (v, p) in enumerate(zip(y, yp)):
            self.nodes[:, 0, r] = v[::step]
            self.nodes[:, 1, r] = p[::step]
        self.h = float(self.t[1] - self.t[0])
        steps = np.diff(self.t)
        if steps.max() - steps.min() > 1e-9 * self.h:
            raise BadInterval("HermiteTable: grid must be uniform")
        self._t0 = float(self.t[0])
        self._lo = self._t0 - 1e-12
        self._hi = float(self.t[-1]) + 1e-12
        self._imax = len(self.t) - 2

    @property
    def y(self) -> np.ndarray:
        """Node values, shape (rows, n): a view of `nodes`."""
        return self.nodes[:, 0].T

    def locate(self, tq):
        """Cell index i and local coordinate s of tq (scalar or array).

        s is exactly 1 at the upper node of a cell, so that node values
        come back exactly.
        """
        if isinstance(tq, float) or np.ndim(tq) == 0:
            tq = float(tq)
            if not self._lo <= tq <= self._hi:
                raise OutOfRange(f"t={tq} outside table [{self.t[0]}, {self.t[-1]}]")
            i = min(max(int((tq - self._t0) / self.h), 0), self._imax)
            ta, tb = self.t[i:i + 2].tolist()
            return i, (1.0 if tq == tb else (tq - ta) / self.h)
        tq = np.asarray(tq, dtype=np.float64)
        if not ((tq >= self._lo) & (tq <= self._hi)).all():
            raise OutOfRange(f"t outside table [{self.t[0]}, {self.t[-1]}]")
        i = np.clip(((tq - self._t0) / self.h).astype(int), 0, self._imax)
        s = np.where(tq == self.t[i + 1], 1.0, (tq - self.t[i]) / self.h)
        return i, s

    def __call__(self, tq):
        i, s = self.locate(tq)
        b00, b10, b01, b11 = _basis(s, self.h)
        if isinstance(i, int):
            # the same operations on floats, far cheaper than on short arrays
            (y0, p0), (y1, p1) = self.nodes[i:i + 2].tolist()
            return [b00 * a + b10 * b + b01 * c + b11 * d
                    for a, b, c, d in zip(y0, p0, y1, p1)]
        y0, p0 = self.nodes[i].transpose(1, 2, 0)
        y1, p1 = self.nodes[i + 1].transpose(1, 2, 0)
        return b00 * y0 + b10 * p0 + b01 * y1 + b11 * p1


def diff5(y: np.ndarray, h: float) -> np.ndarray:
    """5-point first derivative along axis 0 of samples at uniform spacing h.

    Centered in the interior, one-sided at the two points of each end
    (which needs six samples: with exactly five, the second and fourth
    are NaN and [2] is the centered derivative at the middle sample).
    """
    d = np.full_like(y, np.nan)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    for i in (0, 1)[: len(y) - 4]:
        d[i] = (
            -25 * y[i] + 48 * y[i + 1] - 36 * y[i + 2] + 16 * y[i + 3] - 3 * y[i + 4]
        ) / (12 * h)
    for i in (-1, -2)[: len(y) - 4]:
        d[i] = (
            25 * y[i] - 48 * y[i - 1] + 36 * y[i - 2] - 16 * y[i - 3] + 3 * y[i - 4]
        ) / (12 * h)
    return d


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
