"""Central-line L-values through the approximate functional equation, and
an empirical growth scan along the critical line.

For s = 1/2 + it the value is assembled as

    L(s) = sum_n lambda(n) n^(-s) V_s(n / sqrt(M))
         + eps(f) M^(1/2 - s) (gamma(f, 1-s)/gamma(f, s))
           * sum_n conj(lambda(n)) n^(-(1-s)) V_(1-s)(n / sqrt(M)),

    V_s(y) = (1/2 pi i) int_(3) y^(-u) G(u) (gamma(f, s+u)/gamma(f, s)) du/u,

with G an even entire weight normalized by G(0) = 1 and bounded on the
strip |Re u| <= 4. The archimedean factor is

    holomorphic weight k: gamma(f, s) = (2 pi)^(-s) Gamma(s + (k-1)/2)
    Maass (ell, parity d): gamma(f, s) = pi^(-s) Gamma((s+d+i ell)/2)
                                               * Gamma((s+d-i ell)/2)

(s-independent constants cancel in every ratio). Two admissible G's must
produce the same value; their agreement is the module's main cross-check,
and it is sensitive to any error in the factor ratios above.

The weight decays superpolynomially past n ~ (1+|t|) sqrt(M), so the sums
are effectively that long; truncation defaults carry a x3 margin.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import CoefficientRangeError, PreconditionError
from .forms import CuspForm
from .numerics import PanelGrid, loglog_fit
from .specialfn import log_gamma

TWO_PI = 2.0 * math.pi


def weight_gaussian(u):
    """G(u) = exp(u^2): even, entire, G(0) = 1, decays on vertical lines."""
    return np.exp(np.asarray(u) ** 2)


def weight_quartic(u):
    """G(u) = exp(-(u/4)^4): the alternate weight for cross-validation.

    The scale 1/4 keeps |G| <= e^3 on the Re u = 3 line; an unscaled u^4
    bulges to e^40 there and would destroy double-precision truncation.
    """
    u = np.asarray(u)
    return np.exp(-((u / 4.0) ** 4))


def log_gamma_quotient_factor(form: CuspForm, s: complex) -> complex:
    """log gamma(f, s) up to an s-independent constant; s may be an array."""
    kind = form.kind
    if kind.family == "holomorphic":
        return -s * math.log(TWO_PI) + log_gamma(s + (kind.weight - 1) / 2.0)
    ell = complex(kind.ell)
    d = kind.parity
    return (
        -s * math.log(math.pi)
        + log_gamma((s + d + 1j * ell) / 2.0)
        + log_gamma((s + d - 1j * ell) / 2.0)
    )


@dataclass
class AfeConfig:
    """Weight function, contour data and truncations for the AFE."""

    weight: Callable = weight_gaussian
    abscissa: float = 3.0
    v_cut: float = 13.0
    v_panels: int = 70
    n_afe: Optional[int] = None
    weight_floor: float = 1e-8  # truncate where |V_s| has decayed to this
    tail_fraction: float = 1e-3  # records above this tail/value ratio are flagged

    def resolved_n_afe(self, form: CuspForm, t: float) -> int:
        """Truncation length from the weight's actual decay.

        For gaussian-type weights V_s(y) falls off like
        exp(-log(y/X)^2 / 4) where X = |gamma(f, s+1)/gamma(f, s)| is the
        local ratio scale, so reaching `weight_floor` needs
        y ~ X exp(2 sqrt(log(1/floor))). This always dominates the nominal
        effective length 3 (1 + |t|) sqrt(M).
        """
        if self.n_afe is not None:
            return self.n_afe
        s = 0.5 + 1j * t
        x_scale = abs(
            cmath.exp(log_gamma_quotient_factor(form, s + 1) - log_gamma_quotient_factor(form, s))
        )
        deep = x_scale * math.exp(2.0 * math.sqrt(math.log(1.0 / self.weight_floor)))
        nominal = 3.0 * (1.0 + abs(t)) * math.sqrt(form.level)
        return int(math.ceil(1.15 * max(deep, nominal))) + 50


def afe_weight(form: CuspForm, s: complex, ys: np.ndarray, cfg: AfeConfig) -> np.ndarray:
    """V_s(y) for an array of positive y, by contour quadrature.

    The u-integral runs on Re u = abscissa, truncated where the even weight
    has decayed to ~1e-20; the gamma ratio is computed in log space. With
    y^(-u) = y^(-a) exp(-i v log y) the v-integral for every y is a sum over
    the factored v grid: per y, 16 + v_panels complex exponentials and one
    row of a (len(ys) x 16) @ (16 x v_panels) product.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if np.any(ys <= 0):
        raise PreconditionError("V_s arguments must be positive")
    a = cfg.abscissa
    grid = PanelGrid(-cfg.v_cut, cfg.v_cut, cfg.v_panels, 16)
    u = a + 1j * grid.nodes
    lg_s = log_gamma_quotient_factor(form, s)
    ratio = np.exp(log_gamma_quotient_factor(form, s + u) - lg_s)
    core = grid.weights * np.asarray(cfg.weight(u)) * ratio / u
    # (1/2 pi i) int du = (1/2 pi) int dv along u = a + iv
    log_y = np.log(ys)
    return np.exp(-a * log_y) * grid.sums_at_freqs(log_y, core) / TWO_PI


@dataclass
class AfeValue:
    value: complex
    first_sum: complex
    second_sum: complex
    n_used: int
    tail_estimate: float


def afe_value(form: CuspForm, t: float, cfg: Optional[AfeConfig] = None) -> AfeValue:
    """L(1/2 + it) by the approximate functional equation (R taken as 0).

    Needs the form's root number; coefficients must reach the resolved
    truncation length.
    """
    cfg = cfg or AfeConfig()
    if form.epsilon_f is None:
        raise PreconditionError("form has no root number; the reflected term is unavailable")
    n_afe = cfg.resolved_n_afe(form, t)
    if n_afe > form.n_max:
        raise CoefficientRangeError(
            f"AFE needs coefficients to {n_afe}, stored {form.n_max}"
        )
    s = 0.5 + 1j * t
    sqrt_m = math.sqrt(form.level)
    ns = np.arange(1, n_afe + 1, dtype=float)
    lam = form.lam_slice(n_afe)
    ys = ns / sqrt_m

    w_s = afe_weight(form, s, ys, cfg)
    terms_1 = lam * np.exp(-s * np.log(ns)) * w_s
    first = complex(np.sum(terms_1))

    w_r = afe_weight(form, 1 - s, ys, cfg)
    terms_2 = np.conj(lam) * np.exp(-(1 - s) * np.log(ns)) * w_r
    reflect_factor = form.epsilon_f * cmath.exp(
        (0.5 - s) * math.log(form.level)
        + log_gamma_quotient_factor(form, 1 - s)
        - log_gamma_quotient_factor(form, s)
    )
    second = complex(reflect_factor * np.sum(terms_2))

    tail = float(
        np.sqrt(np.sum(np.abs(terms_1[int(0.9 * n_afe) :]) ** 2))
        + np.sqrt(np.sum(np.abs(terms_2[int(0.9 * n_afe) :]) ** 2))
    )
    return AfeValue(
        value=first + second,
        first_sum=first,
        second_sum=second,
        n_used=n_afe,
        tail_estimate=tail,
    )


def tail_check(form: CuspForm, t: float, cfg: Optional[AfeConfig] = None):
    """Decay of |V_s| past the effective length (1+|t|) sqrt(M).

    Returns (lambdas, values, slope): the weight sampled at
    n = lam * (1+|t|) sqrt(M) for lam in {1, 2, 4, 8} and the log-log slope,
    which should be steeply negative (superpolynomial decay).
    """
    cfg = cfg or AfeConfig()
    s = 0.5 + 1j * t
    lams = np.array([1.0, 2.0, 4.0, 8.0])
    ys = lams * (1.0 + abs(t))  # n / sqrt(M) at n = lam (1+|t|) sqrt(M)
    vals = afe_weight(form, s, ys, cfg)
    slope, _, _ = loglog_fit(lams, np.abs(vals))
    return lams, vals, slope


@dataclass
class ScanRecord:
    t: float
    l_abs: float
    first_sum: complex
    second_sum: complex
    n_used: int
    tail_estimate: float
    flagged: bool


@dataclass
class ScanResult:
    records: List[ScanRecord]
    exponent: float
    exponent_stderr: float
    window_maxima: List[tuple]
    disclaimer: str = (
        "empirical least-squares exponent of |L(1/2+it)| window maxima over a finite"
        " t-range; not a certification of any asymptotic growth bound"
    )


def growth_scan(
    form: CuspForm,
    t_grid: Sequence[float],
    cfg: Optional[AfeConfig] = None,
    windows: int = 12,
    values: Optional[Sequence[float]] = None,
) -> ScanResult:
    """|L(1/2+it)| over the grid plus a fitted growth exponent.

    The exponent comes from window maxima (the scan envelope), fitted in
    log-log coordinates with its standard error. `values` allows injecting
    precomputed |L| data (used by degeneracy controls in the tests). The
    default config relaxes the weight floor: scan values carry ~1e-3
    relative accuracy, which the envelope fit cannot distinguish from
    exact ones, and the sums stay short enough to cover hundreds of
    sample points.
    """
    cfg = cfg or AfeConfig(weight_floor=3e-4)
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    if np.any(t_grid < 2.001):
        raise PreconditionError("scan grid must stay above t = 2")
    records = []
    if values is None:
        for t in t_grid:
            res = afe_value(form, float(t), cfg)
            l_abs = abs(res.value)
            flagged = res.tail_estimate >= cfg.tail_fraction * max(l_abs, 1e-30)
            records.append(
                ScanRecord(
                    t=float(t),
                    l_abs=l_abs,
                    first_sum=res.first_sum,
                    second_sum=res.second_sum,
                    n_used=res.n_used,
                    tail_estimate=res.tail_estimate,
                    flagged=flagged,
                )
            )
    else:
        for t, v in zip(t_grid, values):
            records.append(ScanRecord(float(t), float(v), 0j, 0j, 0, 0.0, False))

    edges = np.exp(np.linspace(math.log(t_grid[0]), math.log(t_grid[-1]), windows + 1))
    maxima = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = [r for r in records if lo <= r.t <= hi]
        if sel:
            best = max(sel, key=lambda r: r.l_abs)
            maxima.append((math.sqrt(lo * hi), best.l_abs))
    xs = [m[0] for m in maxima]
    vals = [m[1] for m in maxima]
    slope, _, se = loglog_fit(xs, vals)
    return ScanResult(records=records, exponent=slope, exponent_stderr=se, window_maxima=maxima)
