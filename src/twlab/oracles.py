"""Independent ground truth: Airy-kernel determinant and edge sampling.

Both oracles avoid every formula of the distribution pipeline: the
determinant route discretizes the integral operator directly, and the
sampler realizes the ensemble through its tridiagonal matrix model with
the largest eigenvalue extracted by Laguerre's iteration.
"""

from __future__ import annotations

import math
import operator
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
LIVE_CUT = 10.0  # the determinant's nodes from here on are dropped: Ai < 1.2e-10
# Largest determinant order: its cached gap matrix is m x m and its factored
# block at most that, 8 MB each at m = 1000 (tests and perfbench use m <= 400)
MAX_ORDER = 1000
# Largest sampled matrix size: each of a block's two draws is 4096 x n
# float64, 33 MB at n = 1000 (tests and perfbench use n <= 400; the block
# rows are checked at n = 800)
MAX_SIZE = 1000


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


def airy_kernel_fredholm(t: float, m: int = 120) -> float:
    """det(I - K_Airy) on L^2(t, inf) by Nystrom discretization, for
    -10 <= t <= 16 and 40 <= m <= MAX_ORDER (BadInterval outside, for NaN
    and for an m that is not an integer).

    Gauss-Legendre nodes s_i with weights w_i on [t, t + span], span =
    max(14, 12 - t), a truncation point that puts the dropped tail far
    below the determinant tolerance; the interval stays inside [-10, 30].
    With a = sqrt(w) Ai and a' = sqrt(w) Ai' at the nodes, the symmetric
    matrix A = I - W^(1/2) K W^(1/2) is

        A_ij = (a'_i a_j - a_i a'_j) / (s_i - s_j)      (i != j),
        A_ii = 1 - w_i (Ai'(s_i)^2 - s_i Ai(s_i)^2),

    the kernel (Ai(x)Ai'(y) - Ai'(x)Ai(y))/(x - y) and its diagonal limit.

    Only the k nodes below LIVE_CUT = 10 are assembled and factored (52-96
    of 120, median 91, over 271 points of [-9, 4.5]); det A is taken as
    det A11 of that block, and 1.0 exactly when k = 0 (every t >= 10).
    Past 10, Ai < 1.2e-10 and the rest of A is the identity to roundoff:
    with A = [[A11, A12], [A21, A22]] split at k,
    det A = det A11 det(A22 - A21 A11^-1 A12), and A11's eigenvalues lie
    in (0, 1], so |det A - det A11| <= sum|A22 - I| + ||A12||_F^2. The
    worst case over m in {40, 60, 120, 200, 400} and 200 values of t in
    [-9, 9.9] is 1.1e-20 for the first term and 3.4e-22 for the second.

    The gap s_i - s_j is span/2 times that of the unit rule, whose
    reciprocals are cached per m (`inverse_node_gaps`). Only the diagonal
    takes the limit: the smallest node gap on a span of 14 is about 86/m^2
    (5.3e-2 at m = 40, 5.9e-3 at 120, 5.4e-4 at 400, 8.6e-5 at 1000,
    5.4e-6 at 4000), so no off-diagonal pair comes within 1e-6 below
    m ~ 9000. The numerator and the gap both change sign exactly under
    i <-> j, so A is exactly symmetric, and I - K_Airy is positive definite
    on L^2(t, inf). The determinant is prod(diag L)^2 from the Cholesky
    factor L of A11; a failed factorization raises NonConvergence.
    """
    try:
        m = operator.index(m)
    except TypeError:
        raise BadInterval(f"airy_kernel_fredholm: m={m!r} is not an integer") from None
    if not 40 <= m <= MAX_ORDER:
        raise BadInterval(f"airy_kernel_fredholm: 40 <= m <= {MAX_ORDER} required")
    if not -10.0 <= t <= 16.0:
        raise BadInterval(f"airy_kernel_fredholm: t={t} outside [-10, 16]")
    span = max(14.0, 12.0 - t)
    rule = gauss_legendre(m, t, t + span)
    k = int(np.searchsorted(rule.nodes, LIVE_CUT))
    if k == 0:
        return 1.0
    s, w = rule.nodes[:k], rule.weights[:k]
    ai, aip = airy_grid(s)
    sw = np.sqrt(w)
    a, ap = sw * ai / (0.5 * span), sw * aip  # a takes the gaps' factor 2/span
    M = np.multiply.outer(ap, a)
    A = M - M.T  # ap_i a_j - a_i ap_j: products commute, so A = -A.T exactly
    A *= inverse_node_gaps(m)[:k, :k]
    A.flat[:: k + 1] = 1.0 - w * (aip * aip - s * ai * ai)
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
    """Draw scaled edge samples from the tridiagonal ensemble realization,
    for 50 <= n <= MAX_SIZE, beta > 0, count >= 1 and seed >= 0
    (BadInterval otherwise).

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
    if not 50 <= n <= MAX_SIZE:
        raise BadInterval(f"sample_edge: 50 <= n <= {MAX_SIZE} required")
    if beta <= 0:
        raise BadInterval("sample_edge: beta > 0 required")
    if count < 1:
        raise BadInterval("sample_edge: count >= 1 required")
    if seed < 0:
        raise BadInterval("sample_edge: seed >= 0 required")
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
