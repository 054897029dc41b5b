"""The shared numerical kernels: ODE integration, table lookup, differences.

One DOP853, two ways to advance it. Every ODE here is integrated by
DOP853, the explicit 8(5,3) Runge-Kutta pair of Dormand and Prince with
its 7th-order dense output (Hairer, Norsett and Wanner, Solving ODEs I,
sec. II.4 and II.10), in float64 with scipy's coefficients, and sampled
at uniformly spaced output nodes. Both ways share the error norm
(_error_norm) and the dense output (_dense_output).

solve_rk steps a general y' = f(t, y) adaptively, with scipy's step
control: one RHS call per stage inside the step loop, then the three
dense-output stages of all accepted steps in one array call. It serves
the system that is not linear: the nonlinear auxiliary route.

solve_linear takes y' = M(t) y with quadratures q' = g(t, y) that do not
feed back. There one DOP853 step is a d x d matrix and every stage state
a d x d map applied to the state at the step's start, so a pass builds
the maps of all steps at once from M at all stage times, then advances
the state by one matrix product per step. The step is uniform; when
DOP853's own error estimate exceeds 1 anywhere, the whole pass is redone
with a smaller step. It serves the linear auxiliary route, ~7x faster
than stepping it stage by stage.

HermiteTable is the one cubic Hermite interpolant every table uses (the
Hastings-McLeod table and its log F2 row, the auxiliary trajectory and
its log F6 row, the CDF table): node values and slopes on a uniform
grid, error ~h^4. diff5 is the one 5-point first-derivative stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as dop853

from .errors import BadInterval, OutOfRange, StepFailure

# Step cap of solve_rk and first step of solve_linear. On the auxiliary
# routes over [-11, 12] at rtol 1e-13, caps 0.05 / 0.1 / 0.2 take: linear
# 460+577 / 230+568 / 115+552 steps (discarded + accepted pass), nonlinear
# 498 / 337 / 300, its negative control 480 / 315 / 280; max |dq2| between
# the routes (criterion 4 gates 1e-8) is 2.7 / 3.0 / 8.0e-14.
MAX_STEP = 0.2
# DOP853 rejects a relative tolerance below 100 machine epsilons.
RTOL_FLOOR = 100 * np.finfo(np.float64).eps
# passes of solve_linear, each with a smaller uniform step, before it gives up
MAX_TRIES = 4
# stage evaluations of all passes of solve_linear; a pass holds its stage
# maps in memory, so this also bounds its size (the auxiliary route takes
# ~10700)
MAX_STAGE_CALLS = 100_000

# solve_rk's step control, scipy's for DOP853: the step factor is
# SAFETY err^(-1/8), clamped to [MIN_FACTOR, MAX_FACTOR]. solve_linear
# shrinks by SAFETY err^(-1/8) unclamped, and by MIN_FACTOR when err is
# not finite
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0
N_STAGES = dop853.N_STAGES                    # 12; stage 12 is f at the step end
N_STAGES_EXTENDED = dop853.N_STAGES_EXTENDED  # 16, with the dense-output stages
_A = [dop853.A[s, :s].copy() for s in range(N_STAGES_EXTENDED)]
_C = dop853.C.tolist()
_E5 = dop853.E5[None]
_E3 = dop853.E3[None]


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
    contiguous block. `t` and `nodes` are read-only: a table never changes
    once built, so what is derived from it (such as a provenance digest)
    can be kept. `t_lo` and `t_hi` are the grid's ends as floats.

    An array of t gives shape (rows, len(t)). A scalar t (a float, an int,
    a numpy scalar or a 0-d array) takes a path on plain floats, from the
    cell index through the basis to the combination, and gives a list of
    one float per row; it reads the node block with one `.tolist()`. Both
    paths do the same float operations in the same order and agree
    bitwise. A t more than 1e-12 outside the grid raises OutOfRange.
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
        self.t.flags.writeable = False
        self.nodes.flags.writeable = False
        self.h = float(self.t[1] - self.t[0])
        steps = np.diff(self.t)
        if steps.max() - steps.min() > 1e-9 * self.h:
            raise BadInterval("HermiteTable: grid must be uniform")
        self.t_lo = float(self.t[0])
        self.t_hi = float(self.t[-1])
        self._lo = self.t_lo - 1e-12
        self._hi = self.t_hi + 1e-12
        self._imax = len(self.t) - 2

    @property
    def y(self) -> np.ndarray:
        """Node values, shape (rows, n): a view of `nodes`."""
        return self.nodes[:, 0].T

    def __call__(self, tq):
        # s is exactly 1 at the upper node of a cell, so that node values
        # come back exactly
        if isinstance(tq, float) or np.ndim(tq) == 0:
            # the same operations on floats, far cheaper than on short arrays
            tq = float(tq)
            if not self._lo <= tq <= self._hi:       # NaN fails it too
                raise OutOfRange(f"t={tq} outside table [{self.t_lo}, {self.t_hi}]")
            i = min(int((tq - self.t_lo) / self.h), self._imax)
            ta, tb = self.t[i:i + 2].tolist()
            b00, b10, b01, b11 = _basis(1.0 if tq == tb else (tq - ta) / self.h, self.h)
            (y0, p0), (y1, p1) = self.nodes[i:i + 2].tolist()
            return [b00 * a + b10 * b + b01 * c + b11 * d
                    for a, b, c, d in zip(y0, p0, y1, p1)]
        tq = np.asarray(tq, dtype=np.float64)
        if not ((tq >= self._lo) & (tq <= self._hi)).all():
            raise OutOfRange(f"t outside table [{self.t_lo}, {self.t_hi}]")
        # in range, the index is >= 0 already (truncation toward zero)
        i = np.minimum(((tq - self.t_lo) / self.h).astype(int), self._imax)
        b00, b10, b01, b11 = _basis(
            np.where(tq == self.t[i + 1], 1.0, (tq - self.t[i]) / self.h), self.h)
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
    """Integrate y' = f(t, y) from t0 to t1 by adaptive DOP853, output
    every ~h_out.

    Inside a step f takes a float t and y as a list of floats (the stage
    state), so that a RHS written on plain floats does no numpy scalar
    work; a stage whose float arithmetic fails (ArithmeticError, such as
    an overflowing power) counts as non-finite and fails the error test.
    The three dense-output stages of all accepted steps and the output
    derivatives come from f's array form: t of shape (k,) with y of shape
    (dim, k).

    The step control is scipy's DOP853 (its select_initial_step, safety
    0.9, step factors in [0.2, 10] with exponent -1/8, no growth right
    after a rejection), with steps capped at MAX_STEP; rhs_calls counts
    as scipy's nfev does, two start-up calls plus 12 per attempted and 3
    per accepted step. rtol below RTOL_FLOOR is raised to it. Raises
    StepFailure at the t where the integrator stopped: when a step falls
    below 10 ulps of t, when the end state is not finite, or when the
    next step would take the RHS calls past max_rhs_calls. The default
    budget is over twenty times what an auxiliary route over [-11, 12]
    takes (~4600); near a singularity whose RHS is dominated by roundoff the
    steps shrink to a few ulps of t without failing, and the budget is
    what stops them.
    """
    if t1 == t0:
        raise BadInterval("solve_rk: empty interval")
    t0, t1 = float(t0), float(t1)
    rtol = max(rtol, RTOL_FLOOR)
    direction = 1.0 if t1 > t0 else -1.0
    dim = len(y0)

    def stage(t, y):
        try:
            return f(t, y.tolist())
        except ArithmeticError:
            return [math.nan] * dim

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        y = np.asarray(y0, dtype=np.float64)
        K = np.empty((N_STAGES + 1, dim))
        K[0] = stage(t0, y)
        h_abs = _initial_step(stage, t0, t1, y, K[0], direction, rtol, atol)
        calls = 2
        t = t0
        starts, states, stages = [t0], [y], []
        while direction * (t - t1) < 0:
            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            h_abs = min(max(h_abs, min_step), MAX_STEP)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise StepFailure(t, f"solve_rk: step size below 10 ulps near t={t}")
                calls += N_STAGES
                if calls + 3 * (len(stages) + 1) > max_rhs_calls:
                    raise StepFailure(t, f"solve_rk: step budget exhausted near t={t}")
                t_new = t + h_abs * direction
                if direction * (t_new - t1) > 0:
                    t_new = t1
                h = t_new - t
                h_abs = abs(h)
                for s in range(1, N_STAGES + 1):
                    y_new = y + np.dot(K[:s].T, _A[s]) * h
                    K[s] = stage(t + _C[s] * h, y_new)
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                err = float(_error_norm(K, h, scale))
                if err < 1.0:
                    factor = MAX_FACTOR if err == 0 else min(
                        MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                    if rejected:
                        factor = min(1.0, factor)
                    h_abs *= factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                rejected = True
            stages.append(K.copy())
            starts.append(t_new)
            states.append(y_new)
            t, y = t_new, y_new
            K[0] = K[N_STAGES]
        if not np.all(np.isfinite(y)):
            raise StepFailure(t, f"solve_rk: non-finite state near t={t}")
        ts = np.array(starts)
        z = np.array(states)
        h = np.diff(ts)[:, None]
        k = np.empty((N_STAGES_EXTENDED, len(h), dim))
        k[:N_STAGES + 1] = np.array(stages).transpose(1, 0, 2)
        for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
            ys = z[:-1] + np.tensordot(_A[s], k[:s], axes=1) * h
            k[s] = np.asarray(f(ts[:-1] + _C[s] * h[:, 0], ys.T), dtype=np.float64).T
        calls += 3 * len(h)
        nodes = _output_nodes(t0, t1, h_out)
        n = np.clip(np.searchsorted(direction * ts, direction * nodes) - 1, 0, len(h) - 1)
        out = _dense_output(z, k, h, n, (nodes - ts[n]) / h[n, 0])
        yp = np.asarray(f(nodes, out), dtype=np.float64)
    return RkSolution(t=nodes, y=out, yp=yp, rhs_calls=calls, steps=len(h))


def _initial_step(stage, t0, t1, y0, f0, direction, rtol, atol):
    """scipy's select_initial_step for DOP853 (error order 7), capped at
    MAX_STEP (Hairer, Norsett and Wanner, sec. II.4)."""
    span = abs(t1 - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = np.asarray(stage(t0 + h0 * direction, y0 + h0 * direction * f0))
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span, MAX_STEP)


def _rms(x):
    return float(np.linalg.norm(x)) / x.size ** 0.5


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
    the step shrinks by 0.9 err^(-1/8) for the worst step's err (by
    MIN_FACTOR when that err is not finite), without scipy's 0.2 floor, and
    the pass is redone. rtol below RTOL_FLOOR is raised to it. Raises
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
        calls += N_STAGES_EXTENDED * n_steps
        if calls > MAX_STAGE_CALLS:
            raise StepFailure(t0, f"solve_linear: step budget exhausted at {n_steps} steps")
        h = np.sign(t1 - t0) * span / n_steps
        y, err = _linear_pass(system, t0, t1, h, n_steps, y0, q0, nodes, guard, rtol, atol)
        worst = int(np.argmax(err))
        if err[worst] < 1.0:
            break
        e = err[worst]
        factor = SAFETY * e ** ERROR_EXPONENT if np.isfinite(e) else MIN_FACTOR
        n_steps = int(np.ceil(span / (abs(h) * factor)))
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
    A, C, n_st = dop853.A, dop853.C, N_STAGES
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
    n = np.clip(((nodes - t0) / h).astype(int), 0, n_steps - 1)
    out = _dense_output(z, k, h, n, (nodes - (t0 + n * h)) / h)
    if guard is not None:
        t_all = np.concatenate([times.ravel(), nodes])
        y_all = np.concatenate([states.reshape(-1, d), out[:d].T])
        order = np.argsort((t_all - t0) * np.sign(h), kind="stable")
        guard(t_all[order], y_all[order].T)
    scale = atol + rtol * np.maximum(abs(z[:-1]), abs(z[1:]))
    return out, _error_norm(k[:n_st + 1], h, scale)


def _error_norm(k, h, scale):
    """DOP853's error norm (scipy's _estimate_error_norm), one per step:
    k holds the step's stage derivatives 0..12, stage-major, and scale
    is atol + rtol max(|y_n|, |y_n+1|) per channel. A norm that is not
    finite reads inf."""
    k = k.reshape(len(k), -1)           # as np.tensordot contracts, cheaper
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        e5 = ((np.dot(_E5, k).reshape(scale.shape) / scale) ** 2).sum(axis=-1)
        e3 = ((np.dot(_E3, k).reshape(scale.shape) / scale) ** 2).sum(axis=-1)
        denom = np.sqrt((e5 + 0.01 * e3) * scale.shape[-1])
        err = np.where(denom == 0, 0.0, abs(h) * e5 / denom)
    # a NaN or inf stage makes denom NaN or inf; finite, it bounds e5
    return np.where(np.isfinite(denom), err, np.inf)


def _dense_output(z, k, h, n, x):
    """DOP853's dense output (scipy's F rows), shape (channels, len(x)):
    for each output point, step n at local coordinate x in [0, 1]. z holds
    the states at the step boundaries, k the stage derivatives of every
    step, stage-major, and h the step size, a float or one per step of
    shape (steps, 1)."""
    dz = z[1:] - z[:-1]
    F = np.concatenate([
        [dz, h * k[0] - dz, 2 * dz - h * (k[N_STAGES] + k[0])],
        h * np.tensordot(dop853.D, k, axes=1),
    ])
    F = F.transpose(0, 2, 1)            # (row, channel, step)
    out = np.zeros((z.shape[1], len(x)))
    for i, f in enumerate(F[::-1]):
        out += f[:, n]
        out *= x if i % 2 == 0 else 1 - x
    return out + z[n].T
