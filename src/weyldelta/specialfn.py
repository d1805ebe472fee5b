"""Complex gamma function, archimedean gamma-factor ratios, and their
high-frequency phase profiles.

The two factor families implemented here are

    gamma_hol_k(s)  = (2 pi)^(-s) G(s/2 + (k-1)/2) / G(1 - s/2 + (k-1)/2)
    gamma_maass(s)  = (2 pi)^(-s) G((d + s/2 + i l)/2) G((d + s/2 - i l)/2)
                                / [G((1 + d - s/2 + i l)/2) G((1 + d - s/2 - i l)/2)]

for a holomorphic weight k and a spectral parameter l with parity d in {0, 1}.
On the line Re s = 1 both have modulus exactly 1/(2 pi) and a phase that is
asymptotically tau*log(tau/(4 pi e)) (holomorphic) resp. tau*log(tau/(8 pi e))
(Maass); :func:`stirling_profile` peels that leading phase off and returns the
slowly varying residual.

Everything is computed through a Stirling-series log-gamma with
recurrence-based argument shifting, which stays accurate to ~1e-13 relative
for |Im s| up to 1e5 and avoids external special-function dependencies.

:func:`log_gamma` and :func:`gamma_factor` also take numpy arrays of s and
return arrays: the same reflection, recurrence shifts and Stirling series,
applied under masks, so a grid of N nodes costs one call and a few dozen
vector operations instead of N Python calls. Products and quotients are
rounded as CPython rounds them, so the array route returns the scalar
route's values to the last bit or nearly so. Scalar input runs the `cmath`
code, which is the test oracle of the array route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import OverflowRangeError, PoleError, PreconditionError

# B_2 .. B_30 as exact rationals, converted to float once at import.
_BERNOULLI = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
    Fraction(-23749461029, 870),
    Fraction(8615841276005, 14322),
]
_STIRLING_COEFF = [float(b / (2 * k * (2 * k - 1))) for k, b in enumerate(_BERNOULLI, start=1)]

# |s| above which the truncated Stirling series is good to ~1e-16 relative.
_SHIFT_RADIUS = 16.0
_LOG_TWO_PI = math.log(2 * math.pi)
# exp() overflows past ~709.78; keep a little headroom.
_EXP_LIMIT = 709.0


def _is_nonpositive_integer(s: complex, tol: float = 1e-12) -> bool:
    return s.imag == 0 and s.real <= 0.5 and abs(s.real - round(s.real)) < tol


def _log_sin_pi(s: complex) -> complex:
    # log sin(pi s) without overflow for large |Im s|:
    # sin(pi s) = (i/2) e^{-i pi s} (1 - e^{2 pi i s}), |e^{2 pi i s}| <= 1 for Im s >= 0.
    if s.imag >= 0:
        return cmath.log(0.5j) - 1j * cmath.pi * s + cmath.log(1 - cmath.exp(2j * cmath.pi * s))
    return _log_sin_pi(s.conjugate()).conjugate()


def log_gamma(s: complex) -> complex:
    """log Gamma(s), accurate to ~1e-13 relative (modulo 2 pi i branch).

    Reflection is used for Re s < 1/2; the argument is then shifted by the
    recurrence until |s| >= 16 where the Bernoulli series through B_30
    converges to full double precision. An array s gives the array of
    values; a pole anywhere in it raises.
    """
    if np.ndim(s):
        return _log_gamma_array(np.asarray(s, dtype=complex))
    s = complex(s)
    if _is_nonpositive_integer(s):
        raise PoleError(f"gamma pole at s = {s}", location=s)
    if s.real < 0.5:
        return cmath.log(cmath.pi) - _log_sin_pi(s) - log_gamma(1 - s)
    shift = 0j
    while abs(s) < _SHIFT_RADIUS:
        shift -= cmath.log(s)
        s += 1
    res = (s - 0.5) * cmath.log(s) - s + 0.5 * _LOG_TWO_PI
    spow = s
    s2 = s * s
    for coeff in _STIRLING_COEFF:
        res += coeff / spow
        spow *= s2
    return res + shift


def _pole_mask(s: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Elementwise :func:`_is_nonpositive_integer`."""
    return (s.imag == 0) & (s.real <= 0.5) & (np.abs(s.real - np.round(s.real)) < tol)


def _mul(a, b) -> np.ndarray:
    """a * b rounded as CPython rounds it (numpy may fuse the products)."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _real_over(c: float, b: np.ndarray) -> np.ndarray:
    """c / b for real c, by CPython's scaled division rather than numpy's."""
    br, bi = b.real, b.imag
    wide = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):  # the unused branch may divide by 0
        ratio = np.where(wide, bi / br, br / bi)
        denom = np.where(wide, br + bi * ratio, br * ratio + bi)
        c_ratio = c * ratio
        out = np.empty_like(b)
        out.real = np.where(wide, c, c_ratio) / denom
        out.imag = -np.where(wide, c_ratio, c) / denom
    return out


def _log_sin_pi_array(s: np.ndarray) -> np.ndarray:
    """Elementwise :func:`_log_sin_pi`: the upper half-plane formula at s or conj(s)."""
    lower = s.imag < 0
    z = np.where(lower, s.conj(), s)
    out = np.log(0.5j) - _mul(1j * math.pi, z) + np.log(1 - np.exp(_mul(2j * math.pi, z)))
    return np.where(lower, out.conj(), out)


def _log_gamma_array(s: np.ndarray) -> np.ndarray:
    """:func:`log_gamma` over an array, in the scalar route's order of operations."""
    poles = _pole_mask(s)
    if poles.any():
        raise PoleError(f"gamma pole at s = {s[poles][0]}", location=complex(s[poles][0]))
    reflect = s.real < 0.5
    z = np.where(reflect, 1 - s, s)
    shift = np.zeros_like(z)
    near = np.abs(z) < _SHIFT_RADIUS
    while near.any():
        shift[near] -= np.log(z[near])
        z[near] += 1
        near = np.abs(z) < _SHIFT_RADIUS
    res = _mul(z - 0.5, np.log(z)) - z + 0.5 * _LOG_TWO_PI
    spow = z
    z2 = _mul(z, z)
    for coeff in _STIRLING_COEFF:
        res += _real_over(coeff, spow)
        spow = _mul(spow, z2)
    res += shift
    if reflect.any():
        res[reflect] = math.log(math.pi) - _log_sin_pi_array(s[reflect]) - res[reflect]
    return res


def complex_gamma(s: complex) -> complex:
    """Gamma(s) in double precision.

    Raises :class:`PoleError` at non-positive integers and
    :class:`OverflowRangeError` when |Gamma(s)| exceeds the double range.
    Results that underflow return 0.0 (signed information is lost there;
    use :func:`log_gamma` for ratios of huge/tiny values).
    """
    lg = log_gamma(s)
    if lg.real > _EXP_LIMIT:
        raise OverflowRangeError(f"|gamma({s})| overflows double precision")
    if lg.real < -745.0:
        return 0.0 + 0.0j
    return cmath.exp(lg)


@dataclass(frozen=True)
class GammaFactorKind:
    """Which archimedean factor family to use.

    family  : "holomorphic" or "maass"
    weight  : positive even integer k (holomorphic only)
    ell     : spectral parameter (real, or purely imaginary with |Im| <= 1/4)
    parity  : 0 or 1 (Maass only)
    """

    family: str
    weight: int = 0
    ell: complex = 0.0
    parity: int = 0

    def __post_init__(self):
        if self.family == "holomorphic":
            if self.weight < 2 or self.weight % 2 != 0:
                raise PreconditionError("holomorphic weight must be an even integer >= 2")
        elif self.family == "maass":
            if self.parity not in (0, 1):
                raise PreconditionError("parity must be 0 or 1")
            ell = complex(self.ell)
            if abs(ell.real) > 1e-12 and abs(ell.imag) > 1e-12:
                raise PreconditionError("ell must be real or purely imaginary")
            if abs(ell.imag) > 0.25 + 1e-12:
                raise PreconditionError("imaginary spectral parameter limited to |Im ell| <= 1/4")
        else:
            raise PreconditionError(f"unknown gamma factor family {self.family!r}")

    @property
    def phase_base(self) -> float:
        """Base of the leading phase (tau/base)^(i tau) on Re s = 1."""
        return 4 * math.pi * math.e if self.family == "holomorphic" else 8 * math.pi * math.e


def holomorphic_kind(weight: int) -> GammaFactorKind:
    return GammaFactorKind("holomorphic", weight=weight)


def maass_kind(ell: Union[float, complex], parity: int) -> GammaFactorKind:
    return GammaFactorKind("maass", ell=complex(ell), parity=parity)


def _gamma_args(kind: GammaFactorKind, s: complex):
    """(numerator, denominator) gamma arguments of the factor at s."""
    if kind.family == "holomorphic":
        h = (kind.weight - 1) / 2.0
        return [s / 2 + h], [1 - s / 2 + h]
    ell = complex(kind.ell)
    d = kind.parity
    num = [(d + s / 2 + 1j * ell) / 2, (d + s / 2 - 1j * ell) / 2]
    den = [(1 + d - s / 2 + 1j * ell) / 2, (1 + d - s / 2 - 1j * ell) / 2]
    return num, den


def gamma_factor(kind: GammaFactorKind, s: complex) -> complex:
    """The ratio (2 pi)^(-s) * (numerator gammas)/(denominator gammas).

    Denominator poles are exact zeros of the factor and return 0.0 without
    evaluating a 0*inf quotient. Numerator poles raise :class:`PoleError`.
    Everything runs through log-gamma so the huge individual gamma
    magnitudes never materialize. An array s gives the array of values,
    with the same pole rules per element: a numerator pole anywhere raises.
    """
    if np.ndim(s):
        return _gamma_factor_array(kind, np.asarray(s, dtype=complex))
    s = complex(s)
    num, den = _gamma_args(kind, s)
    for arg in num:
        if _is_nonpositive_integer(arg):
            raise PoleError(f"gamma factor pole: numerator gamma at {arg}", location=s)
    for arg in den:
        if _is_nonpositive_integer(arg):
            return 0.0 + 0.0j
    lg = -s * _LOG_TWO_PI
    for arg in num:
        lg += log_gamma(arg)
    for arg in den:
        lg -= log_gamma(arg)
    if lg.real > _EXP_LIMIT:
        raise OverflowRangeError(f"gamma factor overflows at s = {s}")
    return cmath.exp(lg)


def _gamma_factor_array(kind: GammaFactorKind, s: np.ndarray) -> np.ndarray:
    """:func:`gamma_factor` over an array: one log_gamma call per gamma argument."""
    num, den = _gamma_args(kind, s)
    for arg in num:
        poles = _pole_mask(arg)
        if poles.any():
            raise PoleError(
                f"gamma factor pole: numerator gamma at {arg[poles][0]}",
                location=complex(s[poles][0]),
            )
    live = ~np.logical_or.reduce([_pole_mask(arg) for arg in den])
    lg = -s[live] * _LOG_TWO_PI
    for arg in num:
        lg += log_gamma(arg[live])
    for arg in den:
        lg -= log_gamma(arg[live])
    overflow = lg.real > _EXP_LIMIT
    if overflow.any():
        raise OverflowRangeError(f"gamma factor overflows at s = {s[live][overflow][0]}")
    out = np.zeros(s.shape, dtype=complex)
    out[live] = np.exp(lg)
    return out


@dataclass(frozen=True)
class StirlingProfile:
    """Factorization gamma_factor(1 + i tau) = leading_phase * residual.

    leading_phase = exp(i tau log(|tau|/base)) has modulus 1 (base = 4 pi e
    holomorphic, 8 pi e Maass); residual is the slowly varying remainder
    whose derivative decays like 1/tau.
    """

    tau: float
    leading_phase: complex
    residual: complex

    def value(self) -> complex:
        return self.leading_phase * self.residual


def stirling_profile(kind: GammaFactorKind, tau: float) -> StirlingProfile:
    """Peel the leading oscillation off gamma_factor(kind, 1 + i tau).

    Requires |tau| >= 2. Using |tau| in the base keeps leading_phase
    unimodular for both signs, so residual(-tau) = conj(residual(tau))
    for real spectral data.
    """
    if abs(tau) < 2.0:
        raise PreconditionError("stirling_profile needs |tau| >= 2")
    phase = cmath.exp(1j * tau * math.log(abs(tau) / kind.phase_base))
    value = gamma_factor(kind, 1 + 1j * tau)
    return StirlingProfile(tau=float(tau), leading_phase=phase, residual=value / phase)


def residual_derivative(kind: GammaFactorKind, tau: float, h: float = 1.0) -> complex:
    """Centered difference of the profile residual at tau."""
    hi = stirling_profile(kind, tau + h).residual
    lo = stirling_profile(kind, tau - h).residual
    return (hi - lo) / (2 * h)
