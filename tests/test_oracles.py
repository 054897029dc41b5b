import json
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import airy

from twlab import oracles
from twlab.errors import BadInterval, EigenFailure, NonConvergence


def test_fredholm_empty_spectrum_limit():
    # true trace gap at t=6 is ~4e-12, slightly above the naive roundoff
    # expectation; asserted at 1e-11
    assert abs(oracles.airy_kernel_fredholm(6.0, 80) - 1.0) < 1e-11


def test_fredholm_order_doubling():
    a = oracles.airy_kernel_fredholm(-4.0, 40)
    b = oracles.airy_kernel_fredholm(-4.0, 80)
    assert abs(a - b) < 1e-10


def test_fredholm_spectral_ladder():
    ref = oracles.airy_kernel_fredholm(-4.0, 160)
    errs = [abs(oracles.airy_kernel_fredholm(-4.0, m) - ref) for m in (40, 60, 80)]
    assert errs[0] < 1e-10
    assert errs[1] < 5e-12
    assert errs[2] < 5e-12


def _nystrom_det(t):
    # textbook Nystrom determinant: numpy's 160-node Gauss-Legendre rule on
    # [t, 16], scipy's Airy functions, the kernel with its diagonal limit,
    # and an LU log-determinant
    x, w = leggauss(160)
    half = 0.5 * (16.0 - t)
    s = t + half * (x + 1.0)
    ai, aip, _, _ = airy(s)
    diff = s[:, None] - s[None, :]
    np.fill_diagonal(diff, 1.0)
    K = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / diff
    np.fill_diagonal(K, aip**2 - s * ai**2)
    sw = np.sqrt(half * w)
    sign, logdet = np.linalg.slogdet(np.eye(160) - sw[:, None] * K * sw[None, :])
    return sign * np.exp(logdet)


@pytest.mark.parametrize("t", np.linspace(-9.0, 4.5, 8))
def test_fredholm_matches_textbook_nystrom(t):
    # measured |difference| at m = 120: 3.2e-32, 9.0e-22, 1.5e-16, 1.3e-15,
    # 1.3e-14, 5.6e-16, 6.7e-16, 1.7e-15 (t = -9 ... 4.5); 1.6e-14 at most
    # over 271 points of [-9, 4.5]
    assert abs(oracles.airy_kernel_fredholm(t, 120) - _nystrom_det(t)) <= 4e-14


@pytest.mark.parametrize("t", [-8.0, -4.0, -2.0, 0.0])
def test_fredholm_indefinite_matrix_raises(monkeypatch, t):
    # Ai and Ai' scaled by 10 make I - 100 K indefinite, with 6, 3, 2 and 1
    # negative eigenvalues at these t; an even count gives a positive
    # determinant at t = -8 and -2, which the Cholesky factorization rejects
    airy_grid = oracles.airy_grid
    monkeypatch.setattr(
        oracles, "airy_grid", lambda s: tuple(10.0 * v for v in airy_grid(s))
    )
    with pytest.raises(NonConvergence):
        oracles.airy_kernel_fredholm(t, 120)


def test_fredholm_preconditions():
    with pytest.raises(BadInterval):
        oracles.airy_kernel_fredholm(-4.0, 20)
    with pytest.raises(BadInterval):
        oracles.airy_kernel_fredholm(-11.0, 80)


def test_sampler_determinism():
    a = oracles.sample_edge(100, 2.0, 500, 77)
    b = oracles.sample_edge(100, 2.0, 500, 77)
    assert np.array_equal(a.samples, b.samples)
    c = oracles.sample_edge(100, 2.0, 500, 78)
    assert not np.array_equal(a.samples, c.samples)


def test_sampler_chunking_invariance():
    # count that is not a chunk multiple still reproduces the prefix
    a = oracles.sample_edge(60, 2.0, 5000, 9)
    b = oracles.sample_edge(60, 2.0, 4100, 9)
    assert np.array_equal(a.samples[:4096], b.samples[:4096])


def test_sampler_chunking_invariance_truncated():
    # same at n = 400, where only the top-left 131 rows are bisected
    a = oracles.sample_edge(400, 2.0, 4100, 9)
    b = oracles.sample_edge(400, 2.0, 4097, 9)
    assert np.array_equal(a.lambda_max[:4096], b.lambda_max[:4096])


def test_block_rows_rule():
    # m = min(n, ceil(15 n^(1/3) + 20)): the whole matrix up to n = 87
    assert all(oracles._block_rows(n) == n for n in range(50, 88))
    assert oracles._block_rows(88) == 87
    assert [oracles._block_rows(n) for n in (100, 400, 800, 1000)] == [90, 131, 160, 170]


def _draw_block(n, beta, count, seed):
    # block 0 of the sampler's stream, one row per matrix
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    diag = rng.normal(0.0, np.sqrt(1.0 / beta), size=(count, n))
    off2 = rng.chisquare(beta * np.arange(n - 1, 0, -1), size=(count, n - 1)) / (2.0 * beta)
    return diag, off2


@pytest.mark.parametrize("n", [100, 400, 800])
@pytest.mark.parametrize("beta", [1.0, 2.0, 6.0])
def test_truncated_sampler_matches_full_matrix(n, beta):
    # LAPACK's largest eigenvalue of the full n x n matrix
    count, seed = 256, 4321
    s = oracles.sample_edge(n, beta, count, seed)
    diag, off2 = _draw_block(n, beta, count, seed)
    full = np.array([
        eigvalsh_tridiagonal(diag[j], np.sqrt(off2[j]), select="i",
                             select_range=(n - 1, n - 1))[0]
        for j in range(count)
    ])
    assert np.max(np.abs(s.lambda_max - full)) <= 1e-10
    assert s.block_rows == oracles._block_rows(n)
    assert 7 <= s.laguerre_rounds <= 10


def _reference_bisection(diag, off2, m):
    # the bisection sampler that Laguerre's iteration replaced: Sturm counts
    # of the top-left m rows, bracketed by the full matrix's Gershgorin
    # discs, run to the fixed point; the 1e-300 pivot guard is kept
    def all_below(x, guard):
        piv = diag_m - x
        for i in range(1, m):
            d = piv[i - 1]
            if guard:
                d = np.where(np.abs(d) < 1e-300, -1e-300, d)
            piv[i] -= off2_m[i - 1] / d
        return piv

    def below(x):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            piv = all_below(x, guard=False)
        if not np.abs(piv[:-1]).min() >= 1e-300:
            piv = all_below(x, guard=True)
        return piv.max(axis=0) < 0

    radius = np.zeros_like(diag)
    radius[:, :-1] = np.sqrt(off2)
    radius[:, 1:] += radius[:, :-1].copy()
    hi = (diag + radius).max(axis=1)
    lo = (diag - radius).min(axis=1)
    diag_m = np.ascontiguousarray(diag[:, :m].T)
    off2_m = np.ascontiguousarray(off2[:, : m - 1].T)
    assert below(hi + 1.0).all()
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        inside = below(mid)
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n", [100, 400, 800])
@pytest.mark.parametrize("beta", [1.0, 2.0, 6.0])
def test_laguerre_matches_reference_bisection(n, beta):
    count, seed = 1024, 99
    s = oracles.sample_edge(n, beta, count, seed)
    ref = _reference_bisection(*_draw_block(n, beta, count, seed), oracles._block_rows(n))
    assert np.max(np.abs(s.lambda_max - ref)) <= 1e-13


def _pivots(diag, off2, x):
    # textbook LDL^T pivots of T - x for one matrix
    d = [diag[0] - x]
    for i in range(1, len(diag)):
        d.append(diag[i] - x - off2[i - 1] / d[-1])
    return np.array(d)


def _lapack_max(diag, off2):
    return eigvalsh_tridiagonal(diag, np.sqrt(off2))[-1]


def test_laguerre_tiny_pivots_and_crossings():
    # an iterate that lands exactly on lambda_max: [[2, 2], [2, -1]] has
    # eigenvalues 3 and -2, Laguerre is exact on a quadratic, and at x = 3
    # the last pivot is exactly zero
    lam, passes = oracles._laguerre_lambda_max(np.array([[2.0], [-1.0]]), np.array([[4.0]]))
    assert _pivots([2.0, -1.0], [4.0], lam[0]).tolist() == [-1.0, 0.0]
    assert lam[0] == 3.0 and passes == 2
    # a subnormal diagonal whose off-diagonal^2 is 1e-300: lambda_max is
    # about 5e-301, and x = 0 lies below it although the pivot -1e-310 is
    # negative, because the next pivot is about +1e10
    diag = np.array([-1e-310, -2.0, -5.0, -5.0, -5.0, -5.0])
    off2 = np.array([1e-300, 1.0, 1.0, 1.0, 1.0])
    lam, _ = oracles._laguerre_lambda_max(diag[:, None], off2[:, None])
    assert abs(lam[0] - _lapack_max(diag, off2)) <= 4 * np.spacing(5.0)
    # random columns, the second half with a negative spectrum: about half
    # of them stop at a crossing, an iterate on or below lambda_max (a
    # non-negative pivot)
    rng = np.random.default_rng(3)
    m, k = 6, 40
    diag = rng.normal(size=(m, k)) - np.repeat([0.0, 10.0], k // 2)
    off2 = rng.chisquare(4.0, size=(m - 1, k))
    lam, _ = oracles._laguerre_lambda_max(diag, off2)
    crossed = 0
    for j in range(k):
        scale = np.abs(diag[:, j]).max() + 2 * np.sqrt(off2[:, j]).max()
        assert abs(lam[j] - _lapack_max(diag[:, j], off2[:, j])) <= 4 * np.spacing(scale)
        crossed += _pivots(diag[:, j], off2[:, j], lam[j]).max() >= 0
    assert crossed > 0


def test_laguerre_start_must_lie_above_spectrum():
    # [[0, 1], [1, 0]]: the Gershgorin bound 1 is the top eigenvalue itself
    with pytest.raises(EigenFailure):
        oracles._laguerre_lambda_max(np.zeros((2, 1)), np.ones((1, 1)))


def test_sampler_block_memory():
    # one 4096-sample block at n = 400 keeps only the 131-row block of
    # the stream past its draw
    tracemalloc.start()
    try:
        oracles.sample_edge(400, 6.0, 4096, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_sampler_preconditions():
    with pytest.raises(BadInterval):
        oracles.sample_edge(10, 2.0, 100, 1)
    with pytest.raises(BadInterval):
        oracles.sample_edge(100, 0.0, 100, 1)


def test_chi_square_moments():
    rng = np.random.default_rng(5)
    n = 20000
    for k in (5, 50, 500):
        draws = rng.chisquare(k, n)
        assert abs(draws.mean() - k) < 3.0 * np.sqrt(2.0 * k / n)


def test_ks_single_sample_at_median():
    assert oracles.ks_distance(np.array([0.0]), lambda x: 0.5 * np.ones_like(x)) == 0.5


def test_ks_inverse_transform_samples():
    rng = np.random.default_rng(31)
    u = rng.uniform(size=10000)
    samples = np.log(u / (1 - u))  # logistic quantile
    cdf = lambda x: 1.0 / (1.0 + np.exp(-x))
    assert oracles.ks_distance(samples, cdf) < 0.03


def test_ks_shifted_cdf():
    rng = np.random.default_rng(13)
    u = rng.uniform(size=20000)
    samples = np.log(u / (1 - u))
    cdf = lambda x: 1.0 / (1.0 + np.exp(-x))
    shifted = lambda x: cdf(x - 1.0)
    got = oracles.ks_distance(samples, shifted)
    xs = np.linspace(-8, 8, 2001)
    want = np.max(np.abs(cdf(xs) - cdf(xs - 1.0)))
    assert abs(got - want) < 0.02


def test_beta2_ks_small_run(fredholm_table):
    s = oracles.sample_edge(400, 2.0, 5000, 1234)
    assert oracles.ks_distance(s, fredholm_table.cdf) < 0.035


def test_beta2_ks_shrinks_with_n(fredholm_table):
    # finite-size drift: recorded-seed endpoints decrease from n=100 to 800
    ks = {
        n: oracles.ks_distance(
            oracles.sample_edge(n, 2.0, 20000, 1234), fredholm_table.cdf
        )
        for n in (100, 800)
    }
    print(f"beta=2 KS by n: {ks}")
    assert ks[800] < ks[100]


def test_exports(tmp_path):
    s = oracles.sample_edge(60, 2.0, 50, 3)
    csv_path = tmp_path / "samples.csv"
    s.export_csv(csv_path)
    lines = open(csv_path).read().strip().split("\n")
    assert lines[0] == "index,lambda_max,scaled_s"
    assert len(lines) == 51
    js = tmp_path / "summary.json"
    s.export_summary(js, ks=0.01)
    summary = json.load(open(js))
    assert summary["ks"] == 0.01
    assert summary["block_rows"] == 60 and summary["laguerre_rounds"] == s.laguerre_rounds
