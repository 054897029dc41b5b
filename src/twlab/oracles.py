"""Independent ground truth: Airy-kernel determinant and edge sampling.

Both oracles avoid every formula of the distribution pipeline: the
determinant route discretizes the integral operator directly, and the
sampler realizes the ensemble through its tridiagonal matrix model with
the largest eigenvalue extracted by Sturm bisection.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInterval, EigenFailure, NonConvergence
from .specfun import airy_grid, gauss_legendre

__all__ = [
    "EdgeSampleSet",
    "airy_kernel_fredholm",
    "sample_edge",
    "ks_distance",
]

_CHUNK = 4096  # matrices per RNG block; sample i of a seed does not depend on count


@dataclass(frozen=True)
class EdgeSampleSet:
    """Scaled largest-eigenvalue samples s = sqrt(2) n^{1/6} (lmax - sqrt(2n))."""

    n: int
    beta: float
    seed: int
    samples: np.ndarray
    lambda_max: np.ndarray
    block_rows: int      # m: rows of the top-left block that is bisected
    sturm_rounds: int    # bisection rounds, summed over the 4096-sample blocks

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
            "sturm_rounds": self.sturm_rounds,
        }
        if ks is not None:
            payload["ks"] = float(ks)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def airy_kernel_fredholm(t: float, m: int = 120, span: float | None = None) -> float:
    """det(I - K_Airy) on L^2(t, inf) by Nystrom discretization.

    Gauss-Legendre nodes on [t, t + span]; the kernel is
    (Ai(x)Ai'(y) - Ai'(x)Ai(y))/(x - y) with the diagonal limit
    Ai'(x)^2 - x Ai(x)^2 used for |x - y| < 1e-6. The truncation point is
    chosen so the dropped tail is far below the determinant tolerance.
    """
    if m < 40:
        raise BadInterval("airy_kernel_fredholm: m >= 40 required")
    if t < -10.0:
        raise BadInterval("airy_kernel_fredholm: t >= -10 required")
    if span is None:
        span = max(14.0, 12.0 - t)
    rule = gauss_legendre(m, t, t + span)
    s = rule.nodes
    ai, aip = airy_grid(s)
    diff = s[:, None] - s[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        K = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / diff
    diag_limit = aip**2 - s * ai**2
    close = np.abs(diff) < 1e-6
    K[close] = np.broadcast_to(diag_limit[:, None], K.shape)[close]
    sw = np.sqrt(rule.weights)
    A = np.eye(m) - sw[:, None] * K * sw[None, :]
    sign, logdet = np.linalg.slogdet(A)
    if sign <= 0:
        raise NonConvergence("nonpositive determinant (discretization failure)")
    return float(sign * np.exp(logdet))


def _block_rows(n: int) -> int:
    """Rows of the top-left block that carries the largest eigenvalue."""
    return min(n, math.ceil(15.0 * np.cbrt(n) + 20.0))


def _pivots(diag: np.ndarray, off2: np.ndarray, x: np.ndarray, guard: bool):
    """LDL^T pivots of T - x, one column per sample; with guard, a pivot
    below 1e-300 in magnitude divides as -1e-300."""
    piv = diag - x
    for i in range(1, len(piv)):
        d = piv[i - 1]
        if guard:
            d = np.where(np.abs(d) < 1e-300, -1e-300, d)
        piv[i] -= off2[i - 1] / d
    return piv


def _all_below(diag: np.ndarray, off2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per sample: are all eigenvalues below x (Sturm count == m)?

    diag is (m, k) and off2 is (m - 1, k): one column per sample, so each
    step of the pivot recurrence reads one contiguous row. The unguarded
    recurrence is exact whenever no dividing pivot is below the guard; a
    run with such a pivot (or a NaN) is redone with the guard.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        piv = _pivots(diag, off2, x, guard=False)
    if not np.abs(piv[:-1]).min() >= 1e-300:
        piv = _pivots(diag, off2, x, guard=True)
    return piv.max(axis=0) < 0


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

    Bisection on Sturm counts starts from the full matrix's Gershgorin
    bracket. It stops at the fixed point, once every midpoint equals an
    end of its bracket (adjacent floats, about 54 rounds): no further
    round can move either end, so the result is that of the 70-round cap.
    `block_rows` (m) and `sturm_rounds` record the work done.
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
        diag = rng.normal(0.0, np.sqrt(1.0 / beta), size=(take, n))
        off2 = rng.chisquare(beta * k, size=(take, n - 1)) / (2.0 * beta)
        radius = np.zeros_like(diag)  # Gershgorin: |off_{i-1}| + |off_i|
        np.sqrt(off2, out=radius[:, :-1])
        radius[:, 1:] += radius[:, :-1]  # ufuncs buffer overlapping operands
        hi = (diag + radius).max(axis=1)
        lo = np.subtract(diag, radius, out=radius).min(axis=1)
        diag_m = np.ascontiguousarray(diag[:, :m].T)
        off2_m = np.ascontiguousarray(off2[:, : m - 1].T)
        del diag, off2, radius
        if not np.all(_all_below(diag_m, off2_m, hi + 1.0)):
            raise EigenFailure("Gershgorin bracket failed to contain the spectrum")
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            if np.all((mid == lo) | (mid == hi)):
                break
            below = _all_below(diag_m, off2_m, mid)
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
            rounds += 1
        lam[done : done + take] = 0.5 * (lo + hi)
        done += take
        chunk_index += 1
    scaled = np.sqrt(2.0) * n ** (1.0 / 6.0) * (lam - np.sqrt(2.0 * n))
    return EdgeSampleSet(
        n=int(n), beta=float(beta), seed=int(seed), samples=scaled,
        lambda_max=lam, block_rows=m, sturm_rounds=rounds,
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
