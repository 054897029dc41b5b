import json

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from twlab import oracles
from twlab.errors import BadInterval


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


@pytest.mark.parametrize("n", [100, 400, 800])
@pytest.mark.parametrize("beta", [1.0, 2.0, 6.0])
def test_truncated_sampler_matches_full_matrix(n, beta):
    # rebuild block 0 of the stream and take LAPACK's largest eigenvalue
    # of the full n x n matrix
    count, seed = 256, 4321
    s = oracles.sample_edge(n, beta, count, seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    diag = rng.normal(0.0, np.sqrt(1.0 / beta), size=(count, n))
    off2 = rng.chisquare(beta * np.arange(n - 1, 0, -1), size=(count, n - 1)) / (2.0 * beta)
    full = np.array([
        eigvalsh_tridiagonal(diag[j], np.sqrt(off2[j]), select="i",
                             select_range=(n - 1, n - 1))[0]
        for j in range(count)
    ])
    assert np.max(np.abs(s.lambda_max - full)) <= 1e-10
    assert s.block_rows == oracles._block_rows(n)
    assert 50 <= s.sturm_rounds <= 70


def _count_below_guarded(diag, off2, x):
    # textbook Sturm count of one matrix with the 1e-300 pivot guard
    d = diag[0] - x
    cnt = int(d < 0)
    for i in range(1, len(diag)):
        if abs(d) < 1e-300:
            d = -1e-300
        d = diag[i] - x - off2[i - 1] / d
        cnt += d < 0
    return cnt


def test_all_below_tiny_pivots():
    # columns 0 and 1 hit an exactly zero pivot (rows 0 and 1); in column 2
    # the guard turns the subnormal pivot -1e-310 into -1e-300, which flips
    # the answer; the rest are random
    rng = np.random.default_rng(3)
    m, k = 6, 40
    diag = rng.normal(size=(m, k))
    off2 = rng.chisquare(4.0, size=(m - 1, k))
    x = rng.normal(scale=3.0, size=k)
    x[0] = diag[0, 0]
    x[1], diag[:2, 1], off2[0, 1] = 0.5, 1.5, 1.0
    x[2], diag[:, 2], off2[:, 2] = 0.0, [-1e-310, -2.0, -5, -5, -5, -5], 1.0
    off2[0, 2] = 1e-300
    got = oracles._all_below(diag, off2, x)
    want = [_count_below_guarded(diag[:, j], off2[:, j], x[j]) == m for j in range(k)]
    assert want[2]
    assert got.tolist() == want
    eig = [eigvalsh_tridiagonal(diag[:, j], np.sqrt(off2[:, j]))[-1] for j in range(k)]
    for j in range(3, k):
        assert got[j] == (eig[j] < x[j])


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
    assert summary["block_rows"] == 60 and summary["sturm_rounds"] == s.sturm_rounds
