"""Both Lax pairs, the gauge between them, and the PDE verification field.

The x-equation for the first-kind pair has modes growing like
exp(+-(x^3/6 - x t/2)); only the recessive-at-plus-infinity column is
needed for the distribution field, and its scaled form
w = (column) * exp(+x^3/6 - x t/2) satisfies a plain linear ODE with no
exponential factor left. One Magnus sweep carries that column inward
from its series start at large x, across all time rows at once.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import auxsys, painleve2
from .distribution import SCALE_T
from .errors import BadInterval, DegenerateGauge
from .rk import diff5

__all__ = [
    "PsiField",
    "build_L0_B0",
    "build_gauged_L_B",
    "zero_curvature_residual",
    "painleve_pair_residual",
    "gauge_psi",
    "psi11_field",
    "edge_pde_residual",
]

CBRT3 = 3.0 ** (1.0 / 3.0)
# criterion 6: the O(h^2) edge-PDE residual at stride 2 over stride 1
RICHARDSON_WINDOW = (3.5, 4.5)

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(eq=False)
class PsiField:
    """Rectangular (x, t) grid of the constructed scalar field Psi11.

    x_ext and t_ext are the distribution-side coordinates; the stored
    internal coordinates carry the 3^{1/3} / 3^{2/3} factors exactly once.
    w holds the scaled column (2, nx, nt), read-only: psi11_field shares
    it with every field it builds on the same solve and grid. The
    x-equation, its series start and the gauge factors are all real, so
    both arrays are float64. substeps counts the Magnus substeps of the
    sweep that built w, from its series start at x_int = sweep_start;
    that sweep may have run in an earlier call.
    """

    x_ext: np.ndarray
    t_ext: np.ndarray
    x_int: np.ndarray
    t_int: np.ndarray
    w: np.ndarray
    psi11: np.ndarray           # (nx, nt)
    substeps: int               # Magnus substeps of the x-sweep
    sweep_start: float          # internal x of the series start


def theta(x, t):
    return x**3 / 6.0 - x * t / 2.0


def build_L0_B0(hm: painleve2.Painleve2Solution, x: float, t: float):
    """First-kind pair matrices at (x, t)."""
    u, ut, _ = hm.eval(t)
    delta = -t / 2.0 - u * u
    w = -ut
    L0 = np.array(
        [
            [x * x / 2.0 + delta, x * u + w],
            [x * u - w, -x * x / 2.0 - delta],
        ],
        dtype=complex,
    )
    B0 = np.array([[-x / 2.0, -u], [-u, x / 2.0]], dtype=complex)
    return L0, B0


def build_gauged_L_B(params: auxsys.LaxParams, x: float):
    """Second-kind pair matrices at spectral point x."""
    p = params
    L = 0.5 * np.array(
        [
            [
                x * x - p.t + x * x * p.q2 - x * p.q1 + p.q0,
                2 * (x**3 - x * x * p.e1 + x * p.e2 - p.e3),
            ],
            [
                (x + p.e1) * (1 - p.q2 * p.q2) / 2.0 + p.q1 * p.q2,
                x * x - p.t - x * x * p.q2 + x * p.q1 - p.q0,
            ],
        ],
        dtype=complex,
    )
    a = p.d + p.q2 * (p.b - p.e1) + p.q1
    B = np.array(
        [
            [-x / 2.0 * (1 + p.q2) + a, -x * x + x * p.b + p.c],
            [(p.q2 * p.q2 - 1) / 4.0, -x / 2.0 * (1 - p.q2) + p.d],
        ],
        dtype=complex,
    )
    return L, B


def painleve_pair_residual(
    hm: painleve2.Painleve2Solution, x: float, t: float, h: float = 5e-4
) -> float:
    """|dB0/dx - dL0/dt - [L0, B0]| max-entry; vanishing is the Painleve
    II equation itself."""
    dB_dx = np.array([[-0.5, 0.0], [0.0, 0.5]], dtype=complex)
    Ls = np.array([build_L0_B0(hm, x, t + k * h)[0] for k in range(-2, 3)])
    dL_dt = diff5(Ls, h)[2]
    L0, B0 = build_L0_B0(hm, x, t)
    R = dB_dx - dL_dt - (L0 @ B0 - B0 @ L0)
    return float(np.max(np.abs(R)))


def zero_curvature_residual(
    aux: auxsys.AuxSolution,
    hm: painleve2.Painleve2Solution,
    x: float,
    t: float,
    h: float = 5e-4,
) -> float:
    """Zero-curvature residual of the second-kind pair along the solved
    trajectory, with d/dt by finite differences of reconstructed entries."""
    params = auxsys._params_at(aux, hm, t + h * np.arange(-2.0, 3.0), "fd", h)
    Ls = np.array([build_gauged_L_B(p, x)[0] for p in params])
    dL_dt = diff5(Ls, h)[2]
    p = params[2]
    L, B = build_gauged_L_B(p, x)
    dB_dx = np.array(
        [[-(1 + p.q2) / 2.0, -2 * x + p.b], [0.0, -(1 - p.q2) / 2.0]], dtype=complex
    )
    R = dB_dx - dL_dt - (L @ B - B @ L)
    return float(np.max(np.abs(R)))


def gauge_psi(
    hm: painleve2.Painleve2Solution,
    aux: auxsys.AuxSolution,
    x: float,
    t: float,
    psi0: np.ndarray,
    log_scale: float = 0.0,
):
    """Apply the gauge at (x, t) to a first-kind solution value psi0.

    Returns (Psi, log_scale') where the true matrix is Psi * exp(log_scale')
    and log_scale' = log_scale + x^3/6 - x t / 2 carries the scalar
    exponential separately.
    """
    u, _, _ = hm.eval(t)
    if u <= 0:
        raise DegenerateGauge("gauge needs u > 0 for the square-root branch")
    q2 = float(aux.q2_at(t))
    if abs(1.0 - q2 * q2) < 1e-12:
        raise DegenerateGauge(f"R matrix singular: 1 - q2^2 = {1 - q2 * q2:.3e}")
    al = float(aux.alpha_at(t))
    kappa = np.exp(float(aux.log_kappa_at(t)))
    R = np.array(
        [[(1 + q2) * x / 2.0 - al, -1.0], [(1 - q2 * q2) / 4.0, 0.0]], dtype=complex
    )
    su = np.sqrt(u)
    phase = np.diag([-1j / su, 1j * su])
    return kappa * (R @ phase @ psi0), log_scale + theta(x, t)


# ---------------------------------------------------------------------------
# Column integrations
# ---------------------------------------------------------------------------

# Magnus steps are at most h(x) = _H0 min(1, (_X_KNEE/|x|)^{3/4}). With a
# fixed step the error grows like |x|^3 along the run-in from the start; the
# |x|^{-3/4} factor keeps it level. Criterion 6's figures, the 2280 substeps
# of its grid and the 1.8e-10 bound against the far start (below) were all
# measured at this _H0.
_H0 = 0.01
_X_KNEE = 4.0
# Gauss-Legendre nodes on [0, 1] and the 4th-order Magnus commutator weight
_GAUSS = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
_COMM = np.sqrt(3.0) / 12.0
# Magnus substeps whose step matrices are built together: a bounded chunk
# keeps the (chunk, rows) temporaries at a few MB on any grid
_CHUNK = 64
# psi11_field starts its sweep from the series at x = SWEEP_START (or at its
# largest node, if that lies farther out), kept through x^-SERIES_TERMS.
# Against a start at x = 30 with 30 terms, psi11 on criterion 6's grid is
# off by 1.8e-10 (9.2e-10 with 12 terms); the 3-term start at x = 15 was off
# by 1.4e-4.
SERIES_TERMS = 16
SWEEP_START = 10.0
# psi11_field's last sweep on each Hastings-McLeod solution, as
# (key, W, substeps). w depends on u alone, not on the aux route, so a field
# and its negative control on one grid share a sweep. Painleve2Solution
# hashes by identity, and an entry goes with its solution.
_SWEPT = weakref.WeakKeyDictionary()


def _series_w_init(x: float, t, u, ut, om):
    """Recessive-column scaled value from the canonical expansion through
    x^-SERIES_TERMS.

    With w1 = sum_{k>=1} a_k x^-k and w2 = sum_{k>=0} b_k x^-k, b0 = 1 and
    a1 = -u, matching powers of x in the x-equation gives for j >= 1
      b_j = [(j-1)(u'/u) b_{j-1} - (omega/u) a_j + (j-1) u a_{j-1}] / j
      a_{j+1} = [-(j-1) b_{j-1} - u' a_j - u^2 b_j] / u,
    where omega/u stands for u'^2/u - t u - u^3 (the Hamiltonian
    u'^2 - t u^2 - u^4 is -omega), so every coefficient is local in u, u'
    and omega; t enters only through omega. The arrays run over the time
    rows.
    """
    a = [0.0, -u]
    b = [np.ones_like(u)]
    for j in range(1, SERIES_TERMS + 1):
        b.append(((j - 1) * (ut / u) * b[j - 1] - (om / u) * a[j]
                  + (j - 1) * u * a[j - 1]) / j)
        a.append((-(j - 1) * b[j - 1] - ut * a[j] - u * u * b[j]) / u)
    w1 = w2 = 0.0
    for j in range(SERIES_TERMS, 0, -1):
        w1 = (w1 + a[j]) / x
        w2 = (w2 + b[j]) / x
    return w1, w2 + 1.0


def _expm_traceless(P, Q, R):
    """exp [[P, Q], [R, -P]] = cosh(s) I + sinh(s)/s Omega, s^2 = P^2 + Q R.

    Returns (c, f) with the exponential c I + f Omega; s^2 < 0 takes the
    cos / sin branch, and f -> 1 as s -> 0.
    """
    s2 = P * P + Q * R
    a = np.sqrt(np.abs(s2))
    c, f = np.cosh(a), np.sinh(a)
    trig = s2 < 0
    if trig.any():
        c[trig], f[trig] = np.cos(a[trig]), np.sin(a[trig])
    return c, np.divide(f, a, out=np.ones_like(a), where=a > 0)


def _gap_substeps(x_start, x_nodes):
    """Magnus substeps from x_start to x_nodes[0] and between later nodes.

    A gap gets the fewest equal substeps no longer than h(x) at the end of
    the gap farther from zero.
    """
    ends = np.concatenate(([x_start], x_nodes))
    far = np.maximum(np.maximum(np.abs(ends[:-1]), np.abs(ends[1:])), _X_KNEE)
    return np.ceil(np.abs(np.diff(ends)) / (_H0 * (_X_KNEE / far) ** 0.75)).astype(int)


def _step_matrices(x0, h, t_rows, u, ut, delta):
    """Yield the entries (M00, M01, M10, M11) of e^{dtheta} exp(Omega) for
    the substeps x0[j] -> x0[j] + h[j] in order, each over all rows, with
    dtheta = theta(x0[j] + h[j]) - theta(x0[j]).

    L0's entries a = x^2/2 + delta, b = x u - u', c = x u + u' are
    polynomial in x, so P, Q and R are sums of per-substep weights times
    per-row columns; with x1, x2 the Gauss points and k = _COMM h^2:
      P = h (x1^2 + x2^2)/4 + h delta + 2k (x1 - x2) u u'
      Q = [h (x1 + x2)/2 + k x1 x2 (x1 - x2)] u + [k (x2^2 - x1^2) - h] u'
          - 2k (x1 - x2) delta u
      R = [h (x1 + x2)/2 - k x1 x2 (x1 - x2)] u + [k (x2^2 - x1^2) + h] u'
          + 2k (x1 - x2) delta u
    Each is one (chunk, 3) @ (3, rows) product for _CHUNK substeps at once.
    """
    p_cols = np.stack([np.ones_like(u), delta, u * ut])
    qr_cols = np.stack([u, ut, delta * u])
    for lo in range(0, h.size, _CHUNK):
        hs, xs = h[lo:lo + _CHUNK], x0[lo:lo + _CHUNK]
        x1, x2 = xs + _GAUSS[1] * hs, xs + _GAUSS[0] * hs
        k = _COMM * hs * hs
        comm = 2.0 * k * (x1 - x2)
        mid = hs * (x1 + x2) / 2.0
        cross = k * x1 * x2 * (x1 - x2)
        sq = k * (x2 * x2 - x1 * x1)
        P = np.stack([hs * (x1 * x1 + x2 * x2) / 4.0, hs, comm], axis=1) @ p_cols
        Q = np.stack([mid + cross, sq - hs, -comm], axis=1) @ qr_cols
        R = np.stack([mid - cross, sq + hs, comm], axis=1) @ qr_cols
        c, f = _expm_traceless(P, Q, R)
        # theta(x + h) - theta(x), without the cancellation of x^3 / 6
        xe = xs + hs
        dth = hs * (xe * xe + xe * xs + xs * xs) / 6.0
        g = np.exp(dth[:, None] - (hs / 2.0)[:, None] * t_rows)
        gc, gf = g * c, g * f
        yield from zip(gc + gf * P, gf * Q, gf * R, gc - gf * P)


def _sweep_columns(t_rows, x_nodes, hm, x_start):
    """Scaled recessive column w, shape (2, len(x_nodes), len(t_rows)).

    w is the first-kind column recessive at +infinity, scaled by e^{+theta}.
    It is swept from its series start at x_start >= x_nodes[0] >=
    x_nodes[1] >= ...; nodes out of that order raise BadInterval, since
    rightward is the unstable direction. w solves
    y' = (L0(x) + theta'(x) I) y, L0 as in build_L0_B0. The identity part
    commutes, so a step is e^{theta(x+h) - theta(x)} exp(Omega) with the
    4th-order two-point Gauss Magnus Omega (Iserles-Norsett 1999; Blanes,
    Casas, Oteo and Ros, Phys. Rep. 470, 2009). exp(Omega) is stable for
    the fast x^2 mode at any step, so the step follows accuracy alone.

    The sweep runs in two phases. _step_matrices builds the four entries of
    the step matrix for a chunk of _CHUNK substeps as (chunk, rows) arrays;
    the state is then multiplied by each step matrix in turn, and stored at
    every node. The chunk bound keeps memory flat on any grid.
    """
    t_rows = np.atleast_1d(np.asarray(t_rows, dtype=np.float64))
    x_nodes = np.atleast_1d(np.asarray(x_nodes, dtype=np.float64))
    starts = np.concatenate(([x_start], x_nodes[:-1]))
    if np.any(x_nodes > starts):
        raise BadInterval(
            "_sweep_columns: nodes must run from x_start toward -infinity"
        )
    u, ut, _ = hm.eval(t_rows)
    om = hm.omega_smooth(t_rows)
    delta = -t_rows / 2.0 - u * u
    y0, y1 = _series_w_init(x_start, t_rows, u, ut, om)

    n_sub = _gap_substeps(x_start, x_nodes)
    h = np.repeat((x_nodes - starts) / np.maximum(n_sub, 1), n_sub)
    k = np.arange(h.size) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
    steps = _step_matrices(np.repeat(starts, n_sub) + k * h, h, t_rows, u, ut,
                           delta)
    out = np.empty((2, len(x_nodes), len(t_rows)))
    for ni, n in enumerate(n_sub):
        for m00, m01, m10, m11 in islice(steps, n):
            y0, y1 = m00 * y0 + m01 * y1, m10 * y0 + m11 * y1
        out[:, ni] = y0, y1
    return out


# ---------------------------------------------------------------------------
# The verification field and the PDE residual
# ---------------------------------------------------------------------------

def psi11_field(
    hm: painleve2.Painleve2Solution,
    aux: auxsys.AuxSolution,
    x_ext: np.ndarray,
    t_ext: np.ndarray,
) -> PsiField:
    """Gauge-constructed Psi11 on the external grid x_ext x t_ext.

    Psi11(x,t) = kappa [ u^{-1/2}((1+q2)x/2 - alpha) w1 + u^{1/2} w2 ]:
    the scalar exponential cancels exactly against the column scaling, so
    the stored field needs no ledger on the ranges used here. The column
    is swept inward, its stable direction, from the series start at
    max(SWEEP_START, 3^{1/3} max x_ext).

    w depends on hm and the grid, not on aux, so the sweep is kept per
    solve: a later call on the same hm with the same internal x nodes (in
    the same order), the same t rows (bit for bit), the same series start
    and the same SERIES_TERMS reuses it, and only the gauge product is
    formed. One grid is kept per solve; a new grid replaces it.
    """
    x_ext = np.asarray(x_ext, dtype=np.float64)
    t_ext = np.asarray(t_ext, dtype=np.float64)
    xi = CBRT3 * x_ext
    ti = SCALE_T * t_ext
    if ti.min() < aux.t_end or ti.max() > aux.t_start:
        raise BadInterval("psi11_field: internal t range not covered by aux")
    x_start = max(SWEEP_START, float(xi.max()))
    key = (xi.tobytes(), ti.tobytes(), x_start, SERIES_TERMS)
    hit = _SWEPT.get(hm)
    if hit is not None and hit[0] == key:
        _, W, substeps = hit
    else:
        # the sweep visits x in descending order; scatter back to x_ext's order
        order = np.argsort(xi)[::-1]
        W = np.empty((2, len(xi), len(ti)))
        W[:, order] = _sweep_columns(ti, xi[order], hm, x_start)
        W.flags.writeable = False
        substeps = int(_gap_substeps(x_start, xi[order]).sum())
        _SWEPT[hm] = (key, W, substeps)

    q2 = aux.q2_at(ti)
    al = aux.alpha_at(ti)
    kap = np.exp(aux.log_kappa_at(ti))
    uv, _, _ = hm.eval(ti)
    su = np.sqrt(np.atleast_1d(uv))
    X = xi[:, None]
    psi11 = kap * (((1 + q2) * X / 2.0 - al) / su * W[0] + su * W[1])
    return PsiField(
        x_ext=x_ext,
        t_ext=t_ext,
        x_int=xi,
        t_int=ti,
        w=W,
        psi11=psi11,
        substeps=substeps,
        sweep_start=x_start,
    )


def edge_pde_residual(fld: PsiField, stride: int = 1):
    """Max |3 Psi_t + Psi_xx + (t - x^2) Psi_x| over interior nodes.

    Centered second-order stencils in the internal coordinates; stride > 1
    evaluates the same field on a 2x/4x coarser stencil for Richardson
    ratio checks without recomputing the field.
    """
    P = fld.psi11[::stride, ::stride]
    xi = fld.x_int[::stride]
    ti = fld.t_int[::stride]
    hx = xi[1] - xi[0]
    ht = ti[1] - ti[0]
    Pt = (P[1:-1, 2:] - P[1:-1, :-2]) / (2 * ht)
    Px = (P[2:, 1:-1] - P[:-2, 1:-1]) / (2 * hx)
    Pxx = (P[2:, 1:-1] - 2 * P[1:-1, 1:-1] + P[:-2, 1:-1]) / (hx * hx)
    X = xi[1:-1][:, None]
    T = ti[None, 1:-1]
    R = 3 * Pt + Pxx + (T - X * X) * Px
    return float(np.max(np.abs(R)))

