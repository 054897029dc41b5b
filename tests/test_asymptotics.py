from fractions import Fraction

import numpy as np
import pytest

from twlab import asymptotics, distribution, specfun
from twlab.errors import BadInterval, IllConditionedFit

# the proven constants, 30 digits (mpmath), in this repository's beta = 4
# convention F4(x) = F4^TW(2^{2/3} x):
# beta = 1: zeta'(-1)/2 - (11/48) log 2
# beta = 2: zeta'(-1) + (1/24) log 2
# beta = 4: zeta'(-1)/2 - (37/48) log 2
C0_PROVEN = {
    1.0: -0.241556800728546264681742191289,
    2.0: -0.136540011177119874654868321849,
    4.0: -0.617011523531849973949409590412,
}
C0_BETA2_REFERENCE = C0_PROVEN[2.0]
# the same integral at other beta, mpmath quad at 50 digits, 30 kept
C0_MPMATH = {
    0.5: -1.19256566938247164786446396388,
    6.0: -1.18042201771006651578298274626,
    10.0: -2.29243150222646462837775814569,
}


def test_eval_c0_matches_proven_constants():
    # zeta'(-1) enters the formula with coefficient -beta/2 and each
    # reference with +1 or +1/2, and gamma the formula alone, so the three
    # betas check both literals
    for beta, want in C0_PROVEN.items():
        assert abs(asymptotics.eval_c0(beta) - want) <= 1e-12


def test_eval_c0_matches_mpmath_integral():
    for beta, want in C0_MPMATH.items():
        assert abs(asymptotics.eval_c0(beta) - want) <= 1e-13


def test_c0_integrand_branches_agree():
    # b(s) = 1/(e^s - 1) - 1/s + 1/2 - s/12 comes from the frozen Bernoulli
    # series below s = 0.05 and from its direct form above. From the seam
    # on, the direct form has lost < 1e-15 to cancellation and the two agree
    # (measured gap 6.7e-16); at s = 0.01 it has lost 1.3e-14
    s = np.array([0.01, 0.03, 0.05, 0.1, 0.3, 1.0])
    direct = 1.0 / np.expm1(s) - 1.0 / s + 0.5 - s / 12.0
    series = s**3 * np.polyval(asymptotics._BERNOULLI_OVER_FACTORIAL[::-1], s * s)
    assert np.max(np.abs(series - direct)[2:]) < 1e-15
    b = asymptotics._bernoulli_remainder(s)
    assert np.array_equal(b[:2], series[:2]) and np.array_equal(b[2:], direct[2:])


def test_exact_beta6_coefficients():
    cubic, th_sqrt2, logc = asymptotics.exact_tail_coefficients(Fraction(6))
    assert cubic == Fraction(-1, 4)
    assert th_sqrt2 == Fraction(2, 3)
    assert logc == Fraction(1, 24)


def test_tail_model_for_beta6():
    model = asymptotics.TailModel.for_beta(6.0, c0=0.0)
    assert model.cubic == -0.25
    assert abs(model.three_halves - 2 * np.sqrt(2) / 3) < 5e-16
    assert model.log_coef == 1.0 / 24.0


def test_tail_derivative_display_at_minus8():
    got = asymptotics.tail_logF_derivative(6.0, -8.0)
    want = 0.75 * 64 - np.sqrt(2.0) * np.sqrt(8.0) + 1.0 / (24.0 * -8.0)
    assert abs(got - want) < 1e-13


def test_tail_fundamental_theorem():
    model = asymptotics.TailModel.for_beta(6.0, c0=-1.0)
    a, b = -9.0, -5.0
    rule = specfun.gauss_legendre(60, a, b)
    integral = rule.integrate(
        lambda s: np.array([asymptotics.tail_logF_derivative(6.0, x) for x in np.atleast_1d(s)])
    )
    d = asymptotics.eval_tail_logF(model, b) - asymptotics.eval_tail_logF(model, a)
    assert abs(d - integral) < 1e-10


def test_extraction_shift_identity():
    model = asymptotics.TailModel.for_beta(6.0, c0=-1.1)

    def synthetic(t):
        return asymptotics.eval_tail_logF(model, t) + 0.3

    c0_est, drift = asymptotics.extract_constant(synthetic, 6.0, (-9.0, -6.0))
    assert abs(c0_est - (model.c0 + 0.3)) < 1e-12
    assert abs(drift) < 1e-10


def test_extraction_recovers_drift():
    model = asymptotics.TailModel.for_beta(6.0, c0=0.2)

    def synthetic(t):
        return asymptotics.eval_tail_logF(model, t) + 0.7 * abs(t) ** -1.5

    c0_est, drift = asymptotics.extract_constant(synthetic, 6.0, (-10.0, -6.0))
    assert abs(drift - 0.7) < 1e-10


def test_extraction_window_guards():
    with pytest.raises(BadInterval):
        asymptotics.extract_constant(lambda t: 0.0, 2.0, (-3.0, -2.0))
    with pytest.raises(IllConditionedFit):
        asymptotics.extract_constant(lambda t: 0.0, 2.0, (-8.0000001, -8.0))


def test_beta2_extraction_matches_known_constant(hm):
    c0_est, drift = asymptotics.extract_constant(
        lambda t: distribution.log_F2(hm, t), 2.0, (-9.0, -7.0)
    )
    assert abs(c0_est - C0_BETA2_REFERENCE) < 5e-3


def test_beta2_drift_shrinks_leftward(hm_deep):
    out = {}
    for window in ((-9.0, -7.0), (-13.0, -11.0)):
        c0_est, drift = asymptotics.extract_constant(
            lambda t: distribution.log_F2(hm_deep, t), 2.0, window
        )
        mid = 0.5 * (window[0] + window[1])
        out[window] = abs(drift) * abs(mid) ** -1.5
    assert out[(-13.0, -11.0)] < out[(-9.0, -7.0)]


def test_beta2_formula_matches_extraction(hm):
    c0_est, _ = asymptotics.extract_constant(
        lambda t: distribution.log_F2(hm, t), 2.0, (-9.0, -7.0)
    )
    assert abs(c0_est - asymptotics.eval_c0(2.0)) < 5e-3


def test_eval_c0_precondition():
    with pytest.raises(BadInterval):
        asymptotics.eval_c0(0.0)
