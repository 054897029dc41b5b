import ast
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twlab import specfun
from twlab.errors import BadInterval, DomainError

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


def test_airy_domain_error():
    with pytest.raises(DomainError):
        specfun.airy(31.0)
    with pytest.raises(DomainError):
        specfun.airy(-30.5)


# 40-digit mpmath Ai(t), Ai'(t), frozen to 20 significant digits
AIRY_TABLE = [
    (-30.0, -8.7968188456842162833e-2, 1.2286206026374851347),
    (-20.0, -1.7640612707798468959e-1, 8.928628567364712384e-1),
    (-7.5, 3.2177571638064787527e-1, 3.1880950669855459621e-1),
    (-5.0, 3.5076100902411431979e-1, 3.2719281855444313679e-1),
    (-2.0, 2.2740742820168557599e-1, 6.1825902074169104141e-1),
    (0.0, 3.5502805388781723926e-1, -2.5881940379280679841e-1),
    (2.0, 3.4924130423274379135e-2, -5.3090384433653631704e-2),
    (5.0, 1.0834442813607441735e-4, -2.47413890868462476e-4),
    (6.0, 9.9476943602528895702e-6, -2.4765200397034954754e-5),
    (8.0, 4.6922076160992316256e-8, -1.3414392979067865743e-7),
    (10.0, 1.1047532552898685934e-10, -3.5206336767389236366e-10),
    (13.0, 3.981776078833335363e-15, -1.4432080573972626044e-14),
    (20.0, 1.6916728686705403136e-27, -7.5863916257483549605e-27),
    (30.0, 3.2082175915504955711e-49, -1.7598765814327259821e-48),
]


def test_airy_against_mpmath_table():
    for t, ai, aip in AIRY_TABLE:
        v = specfun.airy(t)
        assert abs(v.ai - ai) <= 1e-13 * abs(ai), t
        assert abs(v.ai_prime - aip) <= 1e-13 * abs(aip), t


def test_sources_use_no_extended_precision():
    # results must not depend on the platform's long double
    src = pathlib.Path(specfun.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        for word in ("longdouble", "float128", "clongdouble"):
            assert word not in text, f"{path.name} uses {word}"


def test_no_solve_ivp_in_src():
    # one ODE integrator, rk's DOP853: no module of the package calls or
    # imports scipy's solve_ivp
    src = pathlib.Path(specfun.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", None) or getattr(node, "attr", None)]
            assert "solve_ivp" not in names, f"{path.name} uses solve_ivp"


def test_only_cli_writes_files():
    # one artifact writer: no module of the package but cli imports csv or
    # json or calls open
    src = pathlib.Path(specfun.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module.split(".")[0]]
            else:
                modules = []
            assert not {"csv", "json"} & set(modules), f"{path.name} imports {modules}"
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                assert name != "open", f"{path.name} calls open"


def test_airy_grid_matches_scalar():
    ts = np.concatenate([[-9.5, -5.0, 0.0, 3.0, 7.0], np.linspace(-30.0, 30.0, 601)])
    ai, aip = specfun.airy_grid(ts)
    for i, t in enumerate(ts):
        v = specfun.airy(float(t))
        assert ai[i] == v.ai and aip[i] == v.ai_prime


def test_airy_grid_rejects_nan():
    # NaN fails both range comparisons, as in the scalar airy
    with pytest.raises(DomainError):
        specfun.airy_grid(np.array([np.nan, 1.0]))
    with pytest.raises(DomainError):
        specfun.airy(np.nan)


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
    # m must be an integer; a numpy integer is one
    for m in (120.0, 120.5, 2.5):
        with pytest.raises(BadInterval, match="not an integer"):
            specfun.gauss_legendre(m, 0.0, 1.0)
    rule = specfun.gauss_legendre(np.int64(120), 0.0, 1.0)
    assert np.array_equal(rule.nodes, specfun.gauss_legendre(120, 0.0, 1.0).nodes)


def test_gauss_legendre_m120_outermost_against_mpmath():
    # the Fredholm oracle's rule; numpy's leggauss misses the weight by 1.1e-11
    rule = specfun.gauss_legendre(120, -1.0, 1.0)
    node, weight = 0.9998008656589589205718347, 0.0005110260636946121179729661
    assert abs(rule.nodes[-1] - node) <= 1e-15
    assert abs(rule.weights[-1] - weight) <= 1e-12 * weight


@pytest.mark.parametrize("m", [16, 24, 120, 400])
def test_gauss_legendre_cache_matches_fresh_solve(m):
    fresh_x, fresh_w = specfun._gauss_legendre_unit.__wrapped__(m)
    for _ in range(2):  # the first call may fill the cache, the second reads it
        rule = specfun.gauss_legendre(m, -2.0, 3.0)
        assert np.array_equal(rule.nodes, -2.0 + 2.5 * (fresh_x + 1.0))
        assert np.array_equal(rule.weights, 2.5 * fresh_w)


def test_gauss_legendre_cache_is_read_only():
    x, w = specfun._gauss_legendre_unit(24)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    rule = specfun.gauss_legendre(24, 0.0, 1.0)
    want_nodes, want_weights = rule.nodes.copy(), rule.weights.copy()
    rule.nodes[:] = 0.0
    rule.weights[:] = 0.0
    again = specfun.gauss_legendre(24, 0.0, 1.0)
    assert np.array_equal(again.nodes, want_nodes)
    assert np.array_equal(again.weights, want_weights)

