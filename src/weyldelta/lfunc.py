"""Central-line L-values through the approximate functional equation, and
an empirical growth scan along the critical line.

For s = 1/2 + it the value is assembled as

    L(s) = sum_n lambda(n) n^(-s) V_s(n / sqrt(M))
         + eps(f) M^(1/2 - s) (gamma(f, 1-s)/gamma(f, s))
           * sum_n conj(lambda(n)) n^(-(1-s)) V_(1-s)(n / sqrt(M)),

    V_s(y) = (1/2 pi i) int_(a) y^(-u) G(u) (gamma(f, s+u)/gamma(f, s)) du/u,

with G an even entire weight normalized by G(0) = 1 and bounded on the
strip |Re u| <= 4, and the contour at Re u = a = 1 (any a > 0 clears the
pole at u = 0; higher lines grow the gamma ratio like |t|^a and cancel
digits). The archimedean factor is

    holomorphic weight k: gamma(f, s) = (2 pi)^(-s) Gamma(s + (k-1)/2)
    Maass (ell, parity d): gamma(f, s) = pi^(-s) Gamma((s+d+i ell)/2)
                                               * Gamma((s+d-i ell)/2)

(s-independent constants cancel in every ratio). Two admissible G's must
produce the same value; their agreement is the module's main cross-check,
and it is sensitive to any error in the factor ratios above.

The weight decays superpolynomially past n ~ (1+|t|) sqrt(M), so the sums
are effectively that long; truncation defaults carry a x3 margin.

The contour is a finite sum over |Im u| <= V_CUT, so y^a V_s(y) is
band-limited in log y. `afe_value` therefore evaluates V_s and V_(1-s) by
contour quadrature at m Chebyshev points of [log y_1, log y_n] only, with
m = chebyshev_size(V_CUT (log y_n - log y_1) / 2), and interpolates both to
every n with one shared barycentric matrix (Berrut & Trefethen, SIAM Rev.
46 (2004)); see :func:`afe_weight_pair`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .forms import CuspForm
from .numerics import PanelGrid, chebyshev_interpolant, chebyshev_size, loglog_fit, tail_norm
from .specialfn import log_gamma

TWO_PI = 2.0 * math.pi
# the weight's contour: v in [-V_CUT, V_CUT] (u = abscissa + iv), V_PANELS panels
V_CUT = 13.0
V_PANELS = 70
# rows of the barycentric matrix built at a time: a block (~1.5 MB) stays in
# cache, and the whole (n x m) matrix is never held
INTERP_BLOCK = 2048
TAIL_FRACTION = 1e-3  # scan records above this tail/value ratio are flagged
SCAN_WINDOWS = 12  # the growth exponent is fitted to the |L| maxima of this many windows


def weight_gaussian(u):
    """G(u) = exp(u^2): even, entire, G(0) = 1, decays on vertical lines."""
    return np.exp(np.asarray(u) ** 2)


def weight_quartic(u):
    """G(u) = exp(-(u/4)^4): the alternate weight for cross-validation.

    On the line Re u = a, |G| peaks at exp(a^4 / 32) (at Im u = sqrt(3) a):
    1.03 on the default a = 1. The scale 1/4 keeps that bounded on every
    admissible line; an unscaled u^4 peaks at exp(8 a^4), e^648 at a = 3,
    and would destroy double-precision truncation.
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


@dataclass(frozen=True)
class AfeConfig:
    """Weight function, contour abscissa and truncations for the AFE.

    The contour's v range and panels are the module constants V_CUT and
    V_PANELS.
    """

    weight: Callable = weight_gaussian
    abscissa: float = 1.0
    n_afe: Optional[int] = None
    weight_floor: float = 1e-8  # truncate where |V_s| has decayed to this

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

    The u-integral runs on Re u = abscissa, truncated at |Im u| = V_CUT
    where the even weight has decayed to ~1e-20; the gamma ratio is
    computed in log space. With y^(-u) = y^(-a) exp(-i v log y) the
    v-integral for every y is a sum over the factored v grid: per y, about
    2 sqrt(V_PANELS) + 16 complex exponentials and one row of a
    (len(ys) x 16) @ (16 x V_PANELS) product.

    This is the direct route: :func:`afe_weight_pair` calls it at its
    Chebyshev points only and interpolates the rest.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if np.any(ys <= 0):
        raise PreconditionError("V_s arguments must be positive")
    a = cfg.abscissa
    grid = PanelGrid(-V_CUT, V_CUT, V_PANELS, 16)
    u = a + 1j * grid.nodes
    lg_s = log_gamma_quotient_factor(form, s)
    ratio = np.exp(log_gamma_quotient_factor(form, s + u) - lg_s)
    core = grid.weights * np.asarray(cfg.weight(u)) * ratio / u
    # (1/2 pi i) int du = (1/2 pi) int dv along u = a + iv
    log_y = np.log(ys)
    return np.exp(-a * log_y) * grid.sums_at_freqs(log_y, core) / TWO_PI


def afe_weight_pair(form: CuspForm, s: complex, ys: np.ndarray, cfg: AfeConfig) -> np.ndarray:
    """(V_s(y), V_(1-s)(y)) as the two columns of a (len(ys), 2) array.

    `ys` must increase. y^a V(y) is a sum of exp(-i v log y) over
    |v| <= V_CUT, so on [log y_1, log y_n] its bandwidth is exactly
    omega = V_CUT (log y_n - log y_1) / 2. Both weights come from
    :func:`afe_weight` at the m = chebyshev_size(omega) Chebyshev points
    (87 for the 5920-term sum at t = 0; 69 to 97 over the scan's t in
    [10, 500], where the sums run to 27300 terms) and reach every y by one
    (len(ys) x m) @ (m x 2) barycentric product, built and applied
    INTERP_BLOCK rows at a time. A sum shorter than m takes the same
    route: for 40 terms (m = 54) both columns are within 1e-13 of
    :func:`afe_weight` at the ys themselves.
    """
    log_y = np.log(ys)
    m = chebyshev_size(V_CUT * (log_y[-1] - log_y[0]) / 2)
    lo, hi, block = log_y[0], log_y[-1], INTERP_BLOCK
    nodes, interp = chebyshev_interpolant(lo, hi, m, log_y[:block])
    y_nodes = np.exp(nodes)
    a = cfg.abscissa
    nodal = [afe_weight(form, s, y_nodes, cfg), afe_weight(form, 1 - s, y_nodes, cfg)]
    # the matrix is real: real (block x m) @ (m x 4) products on the (re, im) pairs
    banded = (y_nodes[:, None] ** a * np.column_stack(nodal)).view(float)
    out = np.empty((len(ys), 4))
    out[:block] = interp @ banded
    for i in range(block, len(ys), block):
        out[i : i + block] = chebyshev_interpolant(lo, hi, m, log_y[i : i + block])[1] @ banded
    return np.exp(-a * log_y)[:, None] * out.view(complex)


@dataclass
class AfeValue:
    value: complex
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
    s = 0.5 + 1j * t
    sqrt_m = math.sqrt(form.level)
    ns = np.arange(1, n_afe + 1, dtype=float)
    lam = form.lam_slice(n_afe)
    weights = afe_weight_pair(form, s, ns / sqrt_m, cfg)

    terms_1 = lam * np.exp(-s * np.log(ns)) * weights[:, 0]
    first = complex(np.sum(terms_1))

    terms_2 = np.conj(lam) * np.exp(-(1 - s) * np.log(ns)) * weights[:, 1]
    reflect_factor = form.epsilon_f * cmath.exp(
        (0.5 - s) * math.log(form.level)
        + log_gamma_quotient_factor(form, 1 - s)
        - log_gamma_quotient_factor(form, s)
    )
    second = complex(reflect_factor * np.sum(terms_2))

    tail = tail_norm(terms_1) + tail_norm(terms_2)
    return AfeValue(value=first + second, n_used=n_afe, tail_estimate=tail)


@dataclass
class ScanRecord:
    t: float
    l_abs: float
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


# The scan relaxes the weight floor: its values carry ~1e-3 relative
# accuracy, which the envelope fit cannot distinguish from exact ones, and
# the sums stay short enough to cover hundreds of sample points.
SCAN_CONFIG = AfeConfig(weight_floor=3e-4)


def _scan_grid(t_grid: Sequence[float]) -> np.ndarray:
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    if len(t_grid) == 0:
        raise PreconditionError("the scan grid is empty")
    if np.any(t_grid < 2.001):
        raise PreconditionError("scan grid must stay above t = 2")
    if t_grid[-1] <= t_grid[0]:
        # a single t would sit in every window and fake a fit
        raise PreconditionError("the scan grid spans no interval; the exponent fit needs 2 windows")
    return t_grid


def scan_length(form: CuspForm, t_grid: Sequence[float]) -> int:
    """Coefficients `growth_scan` reads over `t_grid`, after the same grid checks."""
    return max(SCAN_CONFIG.resolved_n_afe(form, float(t)) for t in _scan_grid(t_grid))


def growth_scan(form: CuspForm, t_grid: Sequence[float]) -> ScanResult:
    """|L(1/2+it)| over the grid, by `afe_value` at SCAN_CONFIG, plus a
    fitted growth exponent.

    The exponent comes from the maxima of SCAN_WINDOWS windows (the scan
    envelope), fitted in log-log coordinates with its standard error.
    """
    t_grid = _scan_grid(t_grid)
    records = []
    for t in t_grid:
        res = afe_value(form, float(t), SCAN_CONFIG)
        l_abs = abs(res.value)
        flagged = res.tail_estimate >= TAIL_FRACTION * max(l_abs, 1e-30)
        records.append(ScanRecord(float(t), l_abs, res.n_used, res.tail_estimate, flagged))

    edges = np.exp(np.linspace(math.log(t_grid[0]), math.log(t_grid[-1]), SCAN_WINDOWS + 1))
    # exp(log t) rounds the outer edges inward, past the grid's own ends
    edges[0], edges[-1] = t_grid[0], t_grid[-1]
    maxima = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = [r for r in records if lo <= r.t <= hi]
        if sel:
            best = max(sel, key=lambda r: r.l_abs)
            maxima.append((math.sqrt(lo * hi), best.l_abs))
    if len(maxima) < 2:
        raise PreconditionError(
            f"the scan grid fills {len(maxima)} of {SCAN_WINDOWS} windows; the exponent fit needs 2"
        )
    xs = [m[0] for m in maxima]
    vals = [m[1] for m in maxima]
    slope, _, se = loglog_fit(xs, vals)
    return ScanResult(records=records, exponent=slope, exponent_stderr=se, window_maxima=maxima)
