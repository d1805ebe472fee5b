import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyldelta.errors import OverflowRangeError, PoleError, PreconditionError
from weyldelta.numerics import loglog_slope
from weyldelta.specialfn import (
    GammaFactorKind,
    _gamma_args,
    complex_gamma,
    gamma_factor,
    holomorphic_kind,
    log_gamma,
    maass_kind,
    residual_derivative,
    stirling_profile,
)

# high-precision reference values (40-digit arithmetic, independent
# product-series evaluation)
GAMMA_1_PLUS_I = complex(0.498015668118356042713691117462, -0.154949828301810685124955130484)
GAMMA_K12_AT_1_10I = complex(0.1561097970306534358628650547212, -0.0309843054082648520523741970174)


def test_gamma_at_one():
    assert complex_gamma(1.0) == pytest.approx(1.0, abs=1e-14)


def test_gamma_at_half():
    assert complex_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_1_plus_i_against_high_precision_oracle():
    assert complex_gamma(1 + 1j) == pytest.approx(GAMMA_1_PLUS_I, rel=1e-12)


def test_gamma_pole_raises():
    with pytest.raises(PoleError):
        complex_gamma(0.0)
    with pytest.raises(PoleError):
        complex_gamma(-3.0)


def test_gamma_overflow_signalled():
    with pytest.raises(OverflowError):
        complex_gamma(500.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=4.0),
    st.floats(min_value=-1000.0, max_value=1000.0),
)
def test_gamma_recurrence_log_space(re, im):
    s = complex(re, im)
    lhs = log_gamma(s + 1)
    rhs = log_gamma(s) + cmath.log(s)
    diff = lhs - rhs
    # compare modulo 2 pi i
    wrapped = (diff.imag + math.pi) % (2 * math.pi) - math.pi
    assert abs(complex(diff.real, wrapped)) <= 1e-10 * max(1.0, abs(lhs))


def test_gamma_recurrence_direct_where_representable():
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = complex(rng.uniform(1, 4), rng.uniform(-300, 300))
        lhs = complex_gamma(s + 1)
        rhs = s * complex_gamma(s)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_reflection_formula():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = complex(rng.uniform(0.1, 0.9), rng.uniform(-30, 30))
        lhs = complex_gamma(s) * complex_gamma(1 - s)
        rhs = math.pi / cmath.sin(math.pi * s)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_log_gamma_large_imaginary():
    # reference from 30-digit arithmetic
    ref = complex(-157072.9572782239721361803438556, 1051293.331894352906123969231892)
    val = log_gamma(complex(1.0, 1e5))
    assert abs(val - ref) <= 1e-9 * abs(ref)


# --- the archimedean factor families ---------------------------------------


def test_holomorphic_factor_at_zero_is_two_elevenths():
    # (2 pi)^0 * G(11/2) / G(13/2) = 2/11 by the recurrence
    val = gamma_factor(holomorphic_kind(12), 0.0)
    assert val == pytest.approx(2.0 / 11.0, rel=1e-14)


def test_holomorphic_factor_against_high_precision_quotient():
    val = gamma_factor(holomorphic_kind(12), 1 + 10j)
    assert val == pytest.approx(GAMMA_K12_AT_1_10I, rel=1e-12)


def test_maass_factor_symmetric_in_spectral_sign():
    s = 0.3 + 2.0j
    for parity in (0, 1):
        a = gamma_factor(maass_kind(5.0, parity), s)
        b = gamma_factor(maass_kind(-5.0, parity), s)
        assert a == b


def test_denominator_pole_gives_exact_zero():
    # weight 12: denominator gamma pole at s = 13
    assert gamma_factor(holomorphic_kind(12), 13.0) == 0.0


def test_invalid_kind_rejected():
    with pytest.raises(PreconditionError):
        GammaFactorKind("holomorphic", weight=7)
    with pytest.raises(PreconditionError):
        GammaFactorKind("maass", ell=0.3 + 0.3j, parity=0)
    with pytest.raises(PreconditionError):
        GammaFactorKind("maass", ell=0.3, parity=2)
    with pytest.raises(PreconditionError):
        GammaFactorKind("banana")


@pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0])
@pytest.mark.parametrize(
    "kind", [holomorphic_kind(12), maass_kind(9.5, 0), maass_kind(9.5, 1)]
)
def test_growth_bound_on_vertical_lines(kind, sigma):
    # |factor(sigma + i tau)| / (1 + |tau|^(sigma-1)) stays bounded
    taus = np.geomspace(10, 1e4, 25)
    ratios = [
        abs(gamma_factor(kind, complex(sigma, t))) / (1 + t ** (sigma - 1)) for t in taus
    ]
    assert max(ratios) < 10.0


# --- phase profiles ----------------------------------------------------------


def test_profile_reconstructs_factor():
    kind = holomorphic_kind(12)
    for tau in (1e2, 1e3, 1e4):
        prof = stirling_profile(kind, tau)
        exact = gamma_factor(kind, 1 + 1j * tau)
        assert abs(prof.leading_phase * prof.residual - exact) <= 1e-10 * abs(exact)
        assert abs(abs(prof.leading_phase) - 1.0) < 1e-12


def test_profile_modulus_is_inverse_two_pi():
    # on Re s = 1 the factor's numerator/denominator gammas are conjugate
    # pairs, so |factor| = 1/(2 pi) exactly; the residual inherits it
    for kind in (holomorphic_kind(12), maass_kind(5.0, 0)):
        for tau in (1e2, 1e3, 1e4):
            prof = stirling_profile(kind, tau)
            assert abs(prof.residual) == pytest.approx(1 / (2 * math.pi), rel=1e-9)


def test_profile_conjugate_symmetry():
    kind = maass_kind(3.0, 1)
    plus = stirling_profile(kind, 500.0)
    minus = stirling_profile(kind, -500.0)
    assert minus.residual == pytest.approx(np.conj(plus.residual), rel=1e-12)


def test_profile_requires_moderate_tau():
    with pytest.raises(PreconditionError):
        stirling_profile(holomorphic_kind(12), 1.0)


def test_residual_derivative_small_and_decaying():
    kind = holomorphic_kind(12)
    d_mid = abs(residual_derivative(kind, 1e3, h=1.0))
    assert d_mid <= 10.0 / 1e3
    taus = np.geomspace(1e2, 1e4, 9)
    derivs = [abs(residual_derivative(kind, float(t), h=1.0)) for t in taus]
    assert loglog_slope(taus, derivs) <= -0.9


def test_maass_profile_derivative_decay():
    kind = maass_kind(7.0, 0)
    taus = np.geomspace(1e2, 1e4, 7)
    derivs = [abs(residual_derivative(kind, float(t), h=1.0)) for t in taus]
    assert loglog_slope(taus, derivs) <= -0.9


ARRAY_KINDS = [
    holomorphic_kind(12),
    maass_kind(9.5, 0),
    maass_kind(9.5, 1),
    maass_kind(0.2j, 0),
    maass_kind(0.2j, 1),
]


def _scalar_log_factor(kind, s):
    """log of the factor by the scalar route (unwrapped: its phase reaches ~2e4)."""
    num, den = _gamma_args(kind, s)
    return -s * math.log(2 * math.pi) + sum(map(log_gamma, num)) - sum(map(log_gamma, den))


@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("kind", ARRAY_KINDS, ids=lambda k: f"{k.family}-{k.ell}-{k.parity}")
def test_gamma_factor_array_matches_scalar(kind, sigma):
    taus = np.linspace(-4000.0, 4000.0, 1601)
    s = sigma + 1j * taus
    got = gamma_factor(kind, s)
    assert got.shape == s.shape
    for z, value in zip(s, got):
        oracle = gamma_factor(kind, complex(z))
        scale = 1.0 + abs(_scalar_log_factor(kind, complex(z)))
        assert abs(value - oracle) <= 1e-15 * scale * abs(oracle), z


def test_log_gamma_array_matches_scalar():
    # reflection (Re s < 1/2, including negative non-integers), the shift
    # region |s| < 16 and the bare Stirling series
    heights = np.array([-3000.0, -50.0, -0.7, 0.0, 0.2, 9.0, 4000.0])
    s = (np.linspace(-30.3, 40.0, 141)[:, None] + 1j * heights).ravel()
    got = log_gamma(s)
    for z, value in zip(s, got):
        oracle = log_gamma(complex(z))
        assert abs(value - oracle) <= 1e-15 * (1.0 + abs(oracle)), z


def test_gamma_factor_array_poles_behave_like_scalar():
    kind = holomorphic_kind(12)
    # numerator Gamma(s/2 + 11/2) has a pole at s = -11: anywhere in the array it raises
    with pytest.raises(PoleError):
        gamma_factor(kind, np.array([1.0 + 2j, -11.0, 3.0]))
    with pytest.raises(PoleError):
        gamma_factor(kind, -11.0)
    # denominator Gamma(13/2 - s/2) has poles at s = 13, 15: those entries are 0
    s = np.array([13.0, 2.0 + 1j, 15.0, 0.5 - 7j])
    got = gamma_factor(kind, s)
    assert got[0] == 0.0 and got[2] == 0.0
    assert got[1] == gamma_factor(kind, 2.0 + 1j)
    assert got[3] == gamma_factor(kind, 0.5 - 7j)
    assert np.all(gamma_factor(kind, np.array([13.0, 15.0])) == 0.0)
    with pytest.raises(PoleError):
        log_gamma(np.array([0.5, -2.0]))
    with pytest.raises(OverflowRangeError):
        gamma_factor(kind, np.array([1.0, 2000.0]))
    with pytest.raises(OverflowRangeError):
        gamma_factor(kind, 2000.0)
