"""Reference values computed without twlab.

* `airy_det`: det(I - K_Airy) on L^2(t, inf) by a Nystrom rule built from
  scipy.special.airy and numpy's Gauss-Legendre nodes.
* `edge_lambda_max`: the largest eigenvalue of the tridiagonal beta-ensemble
  matrices, rebuilt from the same seeded draws the sampler makes and solved
  by LAPACK through scipy.linalg.eigvalsh_tridiagonal.
* `tail_slope_internal`: the exact beta = 6 left-tail slope of log F in the
  internal variable, (1/12) t^2 - (sqrt 2 / 3) sqrt(-t) + 1/(24 t).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import airy

# The kernel at x ~ 16 is below exp(-4/3 * 16^1.5) ~ 1e-37, so the operator
# is truncated there; 160 nodes resolve the oscillating Airy side on [-9, 16].
DET_UPPER = 16.0
DET_NODES = 160
_GL = leggauss(DET_NODES)

# The sampler draws in blocks of this many samples, each block from the
# stream SeedSequence((seed, block_index)).
SAMPLE_BLOCK = 4096


def airy_det(t: float) -> float:
    x, w = _GL
    half = 0.5 * (DET_UPPER - t)
    s = t + half * (x + 1.0)
    ws = half * w
    ai, aip, _, _ = airy(s)
    diff = s[:, None] - s[None, :]
    np.fill_diagonal(diff, 1.0)
    K = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / diff
    np.fill_diagonal(K, aip**2 - s * ai**2)
    sw = np.sqrt(ws)
    sign, logdet = np.linalg.slogdet(np.eye(len(s)) - sw[:, None] * K * sw[None, :])
    if sign <= 0:
        raise ArithmeticError(f"Nystrom determinant not positive at t={t}")
    return math.exp(logdet)


def edge_lambda_max(n: int, beta: float, count: int, seed: int, indices) -> np.ndarray:
    """lambda_max of matrices number `indices` of a draw of `count` samples."""
    indices = np.asarray(indices)
    k = np.arange(n - 1, 0, -1)
    out = np.empty(len(indices))
    for block in np.unique(indices // SAMPLE_BLOCK):
        rng = np.random.default_rng(np.random.SeedSequence((seed, int(block))))
        take = min(SAMPLE_BLOCK, count - block * SAMPLE_BLOCK)
        diag = rng.normal(0.0, np.sqrt(1.0 / beta), size=(take, n))
        off = np.sqrt(rng.chisquare(beta * k, size=(take, n - 1)) / (2.0 * beta))
        for j in np.nonzero(indices // SAMPLE_BLOCK == block)[0]:
            r = indices[j] - block * SAMPLE_BLOCK
            out[j] = eigvalsh_tridiagonal(
                diag[r], off[r], select="i", select_range=(n - 1, n - 1)
            )[0]
    return out


def tail_slope_internal(t: float) -> float:
    return t * t / 12.0 - (math.sqrt(2.0) / 3.0) * math.sqrt(-t) + 1.0 / (24.0 * t)
