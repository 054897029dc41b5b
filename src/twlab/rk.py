"""The shared numerical kernels: ODE integration, table lookup, differences.

One method, two integrators. Every ODE here is integrated by DOP853, the
explicit 8(5,3) Runge-Kutta pair of Dormand and Prince with its 7th-order
dense output (Hairer, Norsett and Wanner, Solving ODEs I, sec. II.10), in
float64, and sampled at uniformly spaced output nodes.

solve_rk runs scipy's adaptive DOP853 on a general y' = f(t, y): one RHS
call per stage, with scipy's step control. It serves the systems that are
not linear: the nonlinear auxiliary route and the log kappa recomputation.

solve_linear takes the same tableau (scipy's own coefficients) to
y' = M(t) y with quadratures q' = g(t, y) that do not feed back. There one
DOP853 step is a d x d matrix and every stage state a d x d map applied to
the state at the step's start, so a pass builds the maps of all steps at
once from M at all stage times, then advances the state by one matrix
product per step. The step is uniform; when DOP853's own error estimate
exceeds 1 anywhere, the whole pass is redone with a smaller step. It
serves the linear auxiliary route, ~7x faster than stepping it stage by
stage, and the determinant window of the x-equation.

HermiteTable is the one cubic Hermite interpolant every table uses (the
Hastings-McLeod table, the auxiliary trajectory, the CDF table): node
values and slopes on a uniform grid, error ~h^4. diff5 is the one 5-point
first-derivative stencil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as dop853

from .errors import BadInterval, OutOfRange, StepFailure

# Step cap of solve_rk and first step of solve_linear: with uncapped steps
# the nonlinear auxiliary route drifts up to ~1e-9 from the linear one
# (criterion 4); capped, ~1e-13.
MAX_STEP = 0.05
# DOP853 rejects a relative tolerance below 100 machine epsilons.
RTOL_FLOOR = 100 * np.finfo(np.float64).eps
# passes of solve_linear, each with a smaller uniform step, before it gives up
MAX_TRIES = 4
# stage evaluations of all passes of solve_linear; a pass holds its stage
# maps in memory, so this also bounds its size (the auxiliary route takes
# ~17000)
MAX_STAGE_CALLS = 100_000


@dataclass
class RkSolution:
    """Solution at uniform output nodes (values + derivatives)."""

    t: np.ndarray           # output nodes, in integration order
    y: np.ndarray           # shape (dim, len(t))
    yp: np.ndarray          # RHS at the nodes
    rhs_calls: int          # RHS calls (stage evaluations) of the steps
    steps: int = 0          # accepted steps
    step_shrinks: int = 0   # passes redone with a smaller step (solve_linear)


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
    nodes = _output_nodes(t0, t1, h_out)
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
    return RkSolution(t=nodes, y=y, yp=yp, rhs_calls=res.nfev, steps=len(res.t) - 1)


def _output_nodes(t0, t1, h_out):
    """Uniform nodes from t0 to t1 (both included), about h_out apart."""
    n_out = max(1, int(round(abs(t1 - t0) / h_out)))
    nodes = t0 + np.sign(t1 - t0) * (abs(t1 - t0) / n_out) * np.arange(n_out + 1)
    nodes[-1] = t1
    return nodes


def solve_linear(
    system,
    t0: float,
    t1: float,
    y0,
    q0=(),
    *,
    rtol: float = 1e-13,
    atol: float = 1e-20,
    h_out: float = 0.002,
    guard=None,
) -> RkSolution:
    """Integrate y' = M(t) y, q' = g(t, y) from t0 to t1 by DOP853 in uniform
    steps, output every ~h_out; the solution's rows are (y, q).

    system(t) takes a 1-d array of times and returns (M, g): M of shape
    (len(t), d, d), and g, which maps the states y of shape (d, len(t))
    at those times to q' of shape (m, len(t)), or None when there are no
    quadratures. guard(t, y), if given, sees the states y (shape (d, k))
    at every stage and every output node of a pass, with their times t,
    in integration order, and raises where the problem leaves its domain;
    it runs before the step-size test, so that leaving the domain never
    turns into step shrinking.

    The first pass takes the largest uniform step not above MAX_STEP. A
    pass is accepted when DOP853's error estimate (scipy's E3/E5 norm over
    all channels, with rtol and atol) is below 1 on every step; otherwise
    the step shrinks by max(0.2, 0.9 err^(-1/8)) for the worst step and the
    pass is redone. rtol below RTOL_FLOOR is raised to it. Raises
    StepFailure at the worst step's t after MAX_TRIES passes, or when a
    pass would take the stage evaluations past MAX_STAGE_CALLS.
    """
    rtol = max(rtol, RTOL_FLOOR)
    y0 = np.asarray(y0, dtype=np.float64)
    q0 = np.asarray(q0, dtype=np.float64)
    span = abs(t1 - t0)
    n_steps = int(np.ceil(span / MAX_STEP))
    nodes = _output_nodes(t0, t1, h_out)
    calls = 0
    for tries in range(MAX_TRIES):
        calls += dop853.N_STAGES_EXTENDED * n_steps
        if calls > MAX_STAGE_CALLS:
            raise StepFailure(t0, f"solve_linear: step budget exhausted at {n_steps} steps")
        h = np.sign(t1 - t0) * span / n_steps
        y, err = _linear_pass(system, t0, t1, h, n_steps, y0, q0, nodes, guard, rtol, atol)
        worst = int(np.argmax(err))
        if err[worst] < 1.0:
            break
        n_steps = int(np.ceil(span / (abs(h) * max(0.2, 0.9 * err[worst] ** -0.125))))
    else:
        raise StepFailure(
            t0 + worst * h,
            f"solve_linear: error estimate {err[worst]:.3g} after {MAX_TRIES} passes "
            f"near t={t0 + worst * h}",
        )
    M, g = system(nodes)
    d = len(y0)
    yp = np.einsum("nab,bn->an", M, y[:d])
    if len(q0):
        yp = np.concatenate([yp, np.asarray(g(y[:d]))])
    return RkSolution(
        t=nodes, y=y, yp=yp, rhs_calls=calls, steps=n_steps, step_shrinks=tries
    )


def _linear_pass(system, t0, t1, h, n_steps, y0, q0, nodes, guard, rtol, atol):
    """One uniform-step DOP853 pass of solve_linear: the dense output at the
    nodes, shape (channels, len(nodes)), and the error estimate of each
    step. Arrays over the stages of all steps are stage-major."""
    A, C, n_st = dop853.A, dop853.C, dop853.N_STAGES
    d = len(y0)
    times = t0 + h * (np.arange(n_steps) + C[:, None])
    times[C == 1.0, -1] = t1
    M, g = system(times.ravel())
    M = M.reshape(len(C), n_steps, d, d)
    # stage maps: the state at stage s is S[s] y_n, its derivative K[s] y_n;
    # row 12 of A is B, so S[12] holds the step matrices
    S = np.empty_like(M)
    K = np.empty_like(M)
    S[0] = np.eye(d)
    K[0] = M[0]
    for s in range(1, len(C)):
        S[s] = np.eye(d) + h * np.tensordot(A[s, :s], K[:s], axes=1)
        K[s] = M[s] @ S[s]
    y = np.empty((n_steps + 1, d))
    y[0] = y0
    for n, step in enumerate(S[n_st]):
        y[n + 1] = step @ y[n]
    states = (S @ y[:-1, :, None])[..., 0]
    k = (K @ y[:-1, :, None])[..., 0]
    z = y
    if len(q0):
        with np.errstate(all="ignore"):
            gk = np.asarray(g(states.reshape(-1, d).T)).T.reshape(len(C), n_steps, -1)
        dq = h * np.tensordot(dop853.B, gk[:n_st], axes=1)
        q = q0 + np.concatenate([np.zeros((1, len(q0))), np.cumsum(dq, axis=0)])
        z = np.concatenate([y, q], axis=1)
        k = np.concatenate([k, gk], axis=2)
    out = _dense_output(z, k, t0, h, nodes)
    if guard is not None:
        t_all = np.concatenate([times.ravel(), nodes])
        y_all = np.concatenate([states.reshape(-1, d), out[:d].T])
        order = np.argsort((t_all - t0) * np.sign(h), kind="stable")
        guard(t_all[order], y_all[order].T)
    # DOP853's error norm, step by step (scipy's _estimate_error_norm)
    scale = atol + rtol * np.maximum(abs(z[:-1]), abs(z[1:]))
    e5 = ((np.tensordot(dop853.E5, k[:n_st + 1], axes=1) / scale) ** 2).sum(axis=1)
    e3 = ((np.tensordot(dop853.E3, k[:n_st + 1], axes=1) / scale) ** 2).sum(axis=1)
    denom = np.sqrt((e5 + 0.01 * e3) * z.shape[1])
    with np.errstate(invalid="ignore", divide="ignore"):
        err = np.where(denom > 0, abs(h) * e5 / denom, 0.0)
    return out, np.where(np.isnan(err), np.inf, err)


def _dense_output(z, k, t0, h, nodes):
    """DOP853's dense output (scipy's F rows) at the nodes, shape
    (channels, len(nodes)), from the step-start states z and the
    stage-major stage derivatives k of a uniform-step pass."""
    dz = z[1:] - z[:-1]
    F = np.concatenate([
        [dz, h * k[0] - dz, 2 * dz - h * (k[dop853.N_STAGES] + k[0])],
        h * np.tensordot(dop853.D, k, axes=1),
    ])
    n = np.clip(((nodes - t0) / h).astype(int), 0, len(dz) - 1)
    x = (nodes - (t0 + n * h)) / h
    F = F.transpose(0, 2, 1)            # (row, channel, step)
    out = np.zeros((z.shape[1], len(nodes)))
    for i, f in enumerate(F[::-1]):
        out += f[:, n]
        out *= x if i % 2 == 0 else 1 - x
    return out + z[n].T
