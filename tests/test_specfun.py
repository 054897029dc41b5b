import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twlab import specfun
from twlab.errors import BadInterval, DomainError, NonConvergence

# classical closed forms: Ai(0) = 3^{-2/3}/Gamma(2/3), Ai'(0) = -3^{-1/3}/Gamma(1/3),
# cross-checked against a 40-term Maclaurin sum before freezing
AI0 = 0.3550280538878172392600631860
AIP0 = -0.2588194037928067984051835601


def test_airy_at_zero_closed_forms():
    v = specfun.airy(0.0)
    assert abs(v.ai - AI0) < 1e-15
    assert abs(v.ai_prime - AIP0) < 1e-15


def test_airy_positive_decay():
    a6 = specfun.airy(6.0).ai
    a8 = specfun.airy(8.0).ai
    assert a6 > 0 and a8 > 0
    assert a8 / a6 < 1e-2


def test_airy_ode_residual_via_differences():
    # Ai''(2) - 2 Ai(2) = 0, with Ai'' from a 5-point centered stencil of Ai'
    h = 1e-3
    vals = [specfun.airy(2.0 + k * h).ai_prime for k in range(-2, 3)]
    second = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
    assert abs(second - 2.0 * specfun.airy(2.0).ai) < 1e-12


def test_airy_against_maclaurin_oracle():
    # independent 40-term Maclaurin sum in float arithmetic
    import math

    def oracle(t):
        c1 = AI0
        c2 = -AIP0
        f = g = 0.0
        for k in range(40):
            f += 3**k * math.gamma(k + 1 / 3) / math.gamma(1 / 3) * t ** (3 * k) / math.factorial(3 * k)
            g += 3**k * math.gamma(k + 2 / 3) / math.gamma(2 / 3) * t ** (3 * k + 1) / math.factorial(3 * k + 1)
        return c1 * f - c2 * g

    for t in (-3.0, -1.0, 0.5, 2.0, 4.0):
        assert abs(specfun.airy(t).ai - oracle(t)) < 1e-12


def test_airy_crossover_consistency():
    s, a = specfun.airy_branch_values(5.0)
    assert abs(s.ai - a.ai) < 1e-11
    assert abs(s.ai_prime - a.ai_prime) < 1e-11
    s, a = specfun.airy_branch_values(-8.0)
    assert abs(s.ai - a.ai) < 1e-11
    # On the oscillatory side at t=-5 the asymptotic expansion floors at
    # its optimal-truncation error ~1e-8; no arithmetic can push the
    # divergent series below that, so the branch agreement is bounded there.
    s, a = specfun.airy_branch_values(-5.0)
    assert abs(s.ai - a.ai) < 3e-8


def test_airy_domain_error():
    with pytest.raises(DomainError):
        specfun.airy(31.0)
    with pytest.raises(DomainError):
        specfun.airy(-30.5)


def _airy_asym_loop(t):
    """Point-by-point asymptotic Ai, Ai' at optimal truncation: the scalar
    loop the vectorized branches of specfun replaced, kept as reference."""
    U, V = specfun._U, specfun._V
    if t > 0:
        z = (2.0 / 3.0) * t**1.5
        s = sp = 0.0
        prev, sgn, zk = np.inf, 1.0, 1.0
        for k in range(len(U)):
            term = U[k] / zk
            if abs(term) > prev:
                break
            s += sgn * term
            sp += sgn * V[k] / zk
            prev, sgn, zk = abs(term), -sgn, zk * z
        e = np.exp(-z) / (2 * np.sqrt(np.pi))
        return e / t**0.25 * s, -(t**0.25) * e * sp
    x = -t
    z = (2.0 / 3.0) * x**1.5
    P = Q = Pp = Qp = 0.0
    prev, sgn = np.inf, 1.0
    for k in range(len(U) // 2 - 1):
        e_t = U[2 * k] / z ** (2 * k)
        o_t = U[2 * k + 1] / z ** (2 * k + 1)
        if max(e_t, o_t) > prev:
            break
        P += sgn * e_t
        Q += sgn * o_t
        Pp += sgn * V[2 * k] / z ** (2 * k)
        Qp += sgn * V[2 * k + 1] / z ** (2 * k + 1)
        prev, sgn = max(e_t, o_t), -sgn
    c, s = np.cos(z - np.pi / 4), np.sin(z - np.pi / 4)
    return (c * P + s * Q) / (np.sqrt(np.pi) * x**0.25), (
        x**0.25 / np.sqrt(np.pi) * (s * Pp - c * Qp)
    )


ASYMPTOTIC_TS = np.concatenate([np.linspace(-30.0, -7.5, 901), np.linspace(6.0, 30.0, 961)])


def test_airy_grid_asymptotic_branches_match_loop():
    # the asymptotic branches sum over all points at once; each point must
    # stop at its own optimal truncation, as the point-by-point loop does
    from scipy.special import airy as scipy_airy

    ts = ASYMPTOTIC_TS
    ai, aip = specfun.airy_grid(ts)
    loop = np.array([_airy_asym_loop(float(t)) for t in ts])
    assert np.max(np.abs(ai - loop[:, 0])) <= 1e-13
    assert np.max(np.abs(aip - loop[:, 1])) <= 1e-13
    sai, saip, _, _ = scipy_airy(ts)
    assert np.max(np.abs(ai - sai)) <= 1e-13
    assert np.max(np.abs(aip - saip)) <= 1e-13


def test_airy_grid_matches_scalar():
    ts = np.concatenate([[-9.5, -5.0, 0.0, 3.0, 7.0], ASYMPTOTIC_TS])
    ai, aip = specfun.airy_grid(ts)
    for i, t in enumerate(ts):
        v = specfun.airy(float(t))
        assert ai[i] == v.ai and aip[i] == v.ai_prime


def test_gauss_legendre_two_point():
    rule = specfun.gauss_legendre(2, -1.0, 1.0)
    assert np.allclose(rule.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
    assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15)


def test_gauss_legendre_cubic_exact():
    rule = specfun.gauss_legendre(2, 0.0, 1.0)
    assert abs(rule.integrate(lambda x: x**3) - 0.25) < 1e-15


def test_gauss_legendre_exponential():
    rule = specfun.gauss_legendre(20, 0.0, 1.0)
    assert abs(rule.integrate(np.exp) - (np.e - 1.0)) < 1e-14


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
@example(10, 75599)  # failed (3.2e-13) while the weights used a stale P_m'
def test_gauss_legendre_degree_exactness(m, seed):
    # integrates polynomials up to degree 2m-1 exactly (1e-13 relative)
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1, 1, size=2 * m)
    rule = specfun.gauss_legendre(m, -0.5, 1.5)
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(1.5) - poly.integ()(-0.5)
    scale = max(1.0, abs(exact))
    assert abs(rule.integrate(poly) - exact) < 1e-13 * scale


def test_gauss_legendre_preconditions():
    with pytest.raises(BadInterval):
        specfun.gauss_legendre(1, 0.0, 1.0)
    with pytest.raises(BadInterval):
        specfun.gauss_legendre(4, 1.0, 1.0)


def test_integrate_to_infinity_exponential():
    val = specfun.integrate_to_infinity(lambda s: np.exp(-s), 0.0, 1.0)
    assert abs(val - 1.0) < 1e-13


def test_integrate_to_infinity_gaussian_moment():
    val = specfun.integrate_to_infinity(lambda s: s * np.exp(-s * s), 0.0, 1.0)
    assert abs(val - 0.5) < 1e-13


def test_integrate_to_infinity_airy_squared_self_consistent():
    f = lambda s: specfun.airy_grid(np.minimum(s, 30.0))[0] ** 2
    a = specfun.integrate_to_infinity(f, 0.0, 0.5)
    b = specfun.integrate_to_infinity(f, 0.0, 0.5, nodes_per_panel=48)
    assert abs(a - b) < 1e-12


def test_integrate_to_infinity_order_doubling():
    f = lambda s: np.exp(-s) * np.sin(s)
    a = specfun.integrate_to_infinity(f, 0.0, 1.0)
    b = specfun.integrate_to_infinity(f, 0.0, 1.0, nodes_per_panel=48)
    assert abs(a - b) < 1e-13


def test_integrate_to_infinity_nonconvergence():
    with pytest.raises(NonConvergence):
        specfun.integrate_to_infinity(lambda s: 1.0 / (1.0 + s * s), 0.0, 1.0)
