"""Independent ground truth: Airy-kernel determinant and edge sampling.

Both oracles avoid every formula of the distribution pipeline: the
determinant route discretizes the integral operator directly, and the
sampler realizes the ensemble through its tridiagonal matrix model with
the largest eigenvalue extracted by Laguerre's iteration.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInterval, EigenFailure, NonConvergence
from .specfun import airy_grid, gauss_legendre, inverse_node_gaps

__all__ = [
    "EdgeSampleSet",
    "airy_kernel_fredholm",
    "sample_edge",
    "ks_distance",
]

_CHUNK = 4096  # matrices per RNG block; sample i of a seed does not depend on count


@dataclass(frozen=True)
class EdgeSampleSet:
    """Scaled largest-eigenvalue samples s = sqrt(2) n'^{1/6} (lmax - sqrt(2n')),
    n' = n + 1/2 - 1/beta."""

    n: int
    beta: float
    seed: int
    samples: np.ndarray
    lambda_max: np.ndarray
    block_rows: int       # m: rows of the top-left block that is searched
    laguerre_rounds: int  # Laguerre passes, summed over the 4096-sample blocks

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["index", "lambda_max", "scaled_s"])
            for i in range(len(self.samples)):
                wr.writerow(
                    [i, f"{self.lambda_max[i]:.17g}", f"{self.samples[i]:.17g}"]
                )

    def export_summary(self, path, ks: float | None = None) -> None:
        payload = {
            "n": self.n,
            "beta": self.beta,
            "count": int(len(self.samples)),
            "seed": self.seed,
            "block_rows": self.block_rows,
            "laguerre_rounds": self.laguerre_rounds,
        }
        if ks is not None:
            payload["ks"] = float(ks)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def airy_kernel_fredholm(t: float, m: int = 120, span: float | None = None) -> float:
    """det(I - K_Airy) on L^2(t, inf) by Nystrom discretization.

    Gauss-Legendre nodes s_i with weights w_i on [t, t + span], where the
    truncation point is chosen so the dropped tail is far below the
    determinant tolerance. With a = sqrt(w) Ai and a' = sqrt(w) Ai' at the
    nodes, the symmetric matrix A = I - W^(1/2) K W^(1/2) is assembled
    directly:

        A_ij = (a'_i a_j - a_i a'_j) / (s_i - s_j)      (i != j),
        A_ii = 1 - w_i (Ai'(s_i)^2 - s_i Ai(s_i)^2),

    the kernel (Ai(x)Ai'(y) - Ai'(x)Ai(y))/(x - y) and its diagonal limit.
    The gap s_i - s_j is span/2 times that of the unit rule, whose
    reciprocals are cached per m (`inverse_node_gaps`). Only the diagonal
    takes the limit: the smallest node gap on a span of 14 is about 86/m^2
    (5.3e-2 at m = 40, 5.9e-3 at 120, 5.4e-4 at 400, 8.6e-5 at 1000,
    5.4e-6 at 4000), so no off-diagonal pair comes within 1e-6 below
    m ~ 9000. The numerator and the gap both change sign exactly under
    i <-> j, so A is exactly symmetric, and I - K_Airy is positive definite
    on L^2(t, inf). The determinant is prod(diag L)^2 from the Cholesky
    factor L of A; a failed factorization raises NonConvergence.
    """
    if m < 40:
        raise BadInterval("airy_kernel_fredholm: m >= 40 required")
    if t < -10.0:
        raise BadInterval("airy_kernel_fredholm: t >= -10 required")
    if span is None:
        span = max(14.0, 12.0 - t)
    rule = gauss_legendre(m, t, t + span)
    s, w = rule.nodes, rule.weights
    ai, aip = airy_grid(s)
    sw = np.sqrt(w)
    a, ap = sw * ai / (0.5 * span), sw * aip  # a takes the gaps' factor 2/span
    A = np.multiply.outer(ap, a) - np.multiply.outer(a, ap)
    A *= inverse_node_gaps(m)
    A.flat[:: m + 1] = 1.0 - w * (aip * aip - s * ai * ai)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise NonConvergence(
            "I - K not positive definite (discretization failure)") from None
    return float(np.prod(np.diagonal(L)) ** 2)


def _block_rows(n: int) -> int:
    """Rows of the top-left block that carries the largest eigenvalue."""
    return min(n, math.ceil(15.0 * np.cbrt(n) + 20.0))


def _laguerre_lambda_max(diag: np.ndarray, off2: np.ndarray) -> tuple[np.ndarray, int]:
    """Largest eigenvalue of each column's tridiagonal matrix by Laguerre's
    iteration, and the number of passes over the rows.

    diag is (m, k) and off2 is (m - 1, k): one column per sample, so each
    step of the pivot recurrence reads one contiguous row. Each column
    starts at its Gershgorin upper bound. One pass of the LDL^T pivot
    recurrence of T - x carries d_i, g_i = d_i'/d_i and h_i = d_i''/d_i;
    with t = off2_{i-1}/d_{i-1}:

        d_i = a_i - x - t,  g_i = (t g_{i-1} - 1)/d_i,
        h_i = t (h_{i-1} - 2 g_{i-1}^2)/d_i,

    so G = sum g_i = p'/p and L = sum (h_i - g_i^2) = (log p)'' for the
    characteristic polynomial p. The step m / (G + sqrt((m-1)(-mL - G^2)))
    moves x down toward lambda_max, monotonically and cubically, because p
    is real-rooted (Li-Zeng, SIAM J. Sci. Comput. 15, 1994).

    All pivots negative is the Sturm test that x lies above every
    eigenvalue. On the first pass it checks the Gershgorin start
    (EigenFailure if it fails). A column stops when its step is at most
    2 ulps of x, or at a crossing: a pivot that is non-negative (or NaN).
    In exact arithmetic no iterate reaches lambda_max, so a crossing
    iterate lies within rounding of it and is kept; the iterate before it
    is often still ~1e-5 above (about half of a block's columns stop at a
    crossing). Stopped columns leave the active set.
    """
    m = len(diag)
    off = np.sqrt(off2)
    x = diag.copy()
    x[:-1] += off
    x[1:] += off
    x = x.max(axis=0)
    active = np.arange(diag.shape[1])
    a, b2 = diag, off2
    passes = 0
    while active.size:
        xa = x[active]
        t, g, h, G, L = (np.zeros_like(xa) for _ in range(5))
        d, rd, u = (np.empty_like(xa) for _ in range(3))
        dmax = np.full_like(xa, -np.inf)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for i in range(m):
                if i:
                    np.multiply(b2[i - 1], rd, out=t)
                np.subtract(a[i], xa, out=d)
                d -= t
                np.maximum(dmax, d, out=dmax)
                np.divide(1.0, d, out=rd)
                np.multiply(g, g, out=u)  # h_i from h_{i-1}, g_{i-1}
                h -= u
                h -= u
                h *= t
                h *= rd
                g *= t  # then g_i
                g -= 1.0
                g *= rd
                G += g
                L += h
                np.multiply(g, g, out=u)
                L -= u
            step = m / (G + np.sqrt(np.maximum((m - 1) * (-m * L - G * G), 0.0)))
        above = dmax < 0
        if passes == 0 and not above.all():
            raise EigenFailure("Gershgorin bound failed to lie above the spectrum")
        passes += 1
        move = above & (step > 2.0 * np.spacing(np.abs(xa)))
        x[active[move]] = (xa - step)[move]
        if not move.all():
            active = active[move]
            a, b2 = a[:, move], b2[:, move]
    return x, passes


def sample_edge(n: int, beta: float, count: int, seed: int) -> EdgeSampleSet:
    """Draw scaled edge samples from the tridiagonal ensemble realization.

    Matrix: diagonal N(0, 1/beta); off-diagonal chi_{beta(n-k)}/sqrt(2 beta)
    (Dumitriu-Edelman; this normalization reproduces the classical cases
    exactly and is validated against the determinant oracle at beta=2).

    Sampling runs in blocks of 4096 matrices, block j drawn from
    SeedSequence((seed, j)): all n diagonal normals, then all n - 1
    chi-squares, so every block consumes the full stream of the n x n
    model. The largest eigenvalue is then found from the top-left
    m = min(n, ceil(15 n^(1/3) + 20)) block alone, since the top
    eigenvector decays beyond O(n^(1/3)) rows (Edelman-Persson,
    math-ph/0501068); at n = 100, 400 and 800 it equals the full
    matrix's to <= 1e-10 (m = 80 at n = 400 would miss by 1e-9).

    lambda_max comes from Laguerre's iteration on all of a block's
    columns at once (`_laguerre_lambda_max`, 7-11 passes).
    `block_rows` (m) and `laguerre_rounds` (passes, summed over blocks)
    record the work done.

    The scaling centres at sqrt(2 n') with n' = n + 1/2 - 1/beta, which
    removes the O(n^(-1/3)) bias of the mean (n' = n at beta = 2).
    """
    if n < 50:
        raise BadInterval("sample_edge: n >= 50 required")
    if beta <= 0:
        raise BadInterval("sample_edge: beta > 0 required")
    m = _block_rows(n)
    k = np.arange(n - 1, 0, -1)
    lam = np.empty(count)
    rounds = 0
    done = 0
    chunk_index = 0
    while done < count:
        take = min(_CHUNK, count - done)
        rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
        diag = np.ascontiguousarray(
            rng.normal(0.0, np.sqrt(1.0 / beta), size=(take, n))[:, :m].T
        )
        off2 = np.ascontiguousarray(
            rng.chisquare(beta * k, size=(take, n - 1))[:, : m - 1].T
        ) / (2.0 * beta)
        lam[done : done + take], passes = _laguerre_lambda_max(diag, off2)
        rounds += passes
        done += take
        chunk_index += 1
    n_eff = n + 0.5 - 1.0 / beta
    scaled = np.sqrt(2.0) * n_eff ** (1.0 / 6.0) * (lam - np.sqrt(2.0 * n_eff))
    return EdgeSampleSet(
        n=int(n), beta=float(beta), seed=int(seed), samples=scaled,
        lambda_max=lam, block_rows=m, laguerre_rounds=rounds,
    )


def ks_distance(samples, cdf) -> float:
    """Two-sided sup-norm distance between the empirical CDF and cdf."""
    if isinstance(samples, EdgeSampleSet):
        xs = samples.samples
    else:
        xs = np.asarray(samples, dtype=np.float64)
    if xs.size == 0:
        raise BadInterval("ks_distance: empty sample set")
    xs = np.sort(xs)
    ref = np.asarray(cdf(xs), dtype=np.float64)
    k = np.arange(1, len(xs) + 1) / len(xs)
    return float(max(np.max(np.abs(k - ref)), np.max(np.abs(k - 1.0 / len(xs) - ref))))
