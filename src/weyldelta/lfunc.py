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
band-limited in log y. :func:`afe_values` takes V_s and V_(1-s), for every
t at once, by contour quadrature at the m = chebyshev_size(V_CUT (log y_n -
log y_1) / 2) Chebyshev points of [log y_1, log y_n] only (n the longest
sum), and reaches every n by one barycentric matrix that all t share
(Berrut & Trefethen, SIAM Rev. 46 (2004)); :func:`afe_weight` is the direct route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .forms import CuspForm
from .numerics import PanelGrid, chebyshev_interpolant, chebyshev_size, loglog_fit
from .specialfn import log_gamma

TWO_PI = 2.0 * math.pi
# the weight's contour: u = ABSCISSA + iv, v in [-V_CUT, V_CUT], V_PANELS panels
ABSCISSA = 1.0
V_CUT = 13.0
V_PANELS = 70
# rows of n per block of the sums and t per contour pass: no (n x m) or (n x t) table is held
ROW_BLOCK = 256
T_BLOCK = 8
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


def nominal_length(form: CuspForm, t: float) -> float:
    """The nominal effective length 3 (1 + |t|) sqrt(M) of the AFE sums."""
    return 3.0 * (1.0 + abs(t)) * math.sqrt(form.level)


@dataclass(frozen=True)
class AfeConfig:
    """Weight function and truncations for the AFE (the contour's abscissa,
    v range and panels are the module constants ABSCISSA, V_CUT and V_PANELS)."""

    weight: Callable = weight_gaussian
    n_afe: Optional[int] = None
    weight_floor: float = 1e-8  # truncate where |V_s| has decayed to this

    def resolved_n_afe(self, form: CuspForm, t: float) -> int:
        """Truncation length from the weight's actual decay.

        For gaussian-type weights V_s(y) falls off like
        exp(-log(y/X)^2 / 4) where X = |gamma(f, s+1)/gamma(f, s)| is the
        local ratio scale, so reaching `weight_floor` needs
        y ~ X exp(2 sqrt(log(1/floor))). This always dominates the
        :func:`nominal_length`.
        """
        if self.n_afe is not None:
            return self.n_afe
        s = 0.5 + 1j * t
        x_scale = abs(
            cmath.exp(log_gamma_quotient_factor(form, s + 1) - log_gamma_quotient_factor(form, s))
        )
        deep = x_scale * math.exp(2.0 * math.sqrt(math.log(1.0 / self.weight_floor)))
        return int(math.ceil(1.15 * max(deep, nominal_length(form, t)))) + 50


def afe_weight(form: CuspForm, s: complex, ys: np.ndarray, cfg: AfeConfig) -> np.ndarray:
    """V_s(y) for an array of positive y, by contour quadrature.

    The u-integral runs on Re u = ABSCISSA, truncated at |Im u| = V_CUT
    where the even weight has decayed to ~1e-20; the gamma ratio is
    computed in log space. With y^(-u) = y^(-a) exp(-i v log y) the
    v-integral for every y is a sum over the factored v grid: per y, about
    2 sqrt(V_PANELS) + 16 complex exponentials and one row of a
    (len(ys) x 16) @ (16 x V_PANELS) product.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if np.any(ys <= 0):
        raise PreconditionError("V_s arguments must be positive")
    grid = PanelGrid(-V_CUT, V_CUT, V_PANELS, 16)
    u = ABSCISSA + 1j * grid.nodes
    lg_s = log_gamma_quotient_factor(form, s)
    ratio = np.exp(log_gamma_quotient_factor(form, s + u) - lg_s)
    core = grid.weights * np.asarray(cfg.weight(u)) * ratio / u
    # (1/2 pi i) int du = (1/2 pi) int dv along u = a + iv
    log_y = np.log(ys)
    return np.exp(-ABSCISSA * log_y) * grid.sums_at_freqs(log_y, core) / TWO_PI


@dataclass
class AfeValue:
    value: complex
    n_used: int
    tail_estimate: float


def _nodal_weights(form: CuspForm, ts: np.ndarray, log_nodes: np.ndarray, cfg: AfeConfig):
    """y^a V_s(y), y^a V_(1-s)(y) at y = exp(log_nodes) for each s = 1/2 + it,
    as a real (nodes, t, 4) array: :func:`afe_weight`'s contour, T_BLOCK t at
    a time. With 1 - s = conj(s) and the v nodes symmetric, V_(1-s)'s gamma
    ratio is V_s's conjugated and reversed in v."""
    grid = PanelGrid(-V_CUT, V_CUT, V_PANELS, 16)
    u = ABSCISSA + 1j * grid.nodes
    pre = grid.weights * np.asarray(cfg.weight(u)) / (u * TWO_PI)
    out = np.empty((len(log_nodes), len(ts), 2), dtype=complex)
    for i in range(0, len(ts), T_BLOCK):
        s = 0.5 + 1j * ts[i : i + T_BLOCK, None]
        ratio = np.exp(log_gamma_quotient_factor(form, s + u) - log_gamma_quotient_factor(form, s))
        core = np.stack([ratio, ratio[:, ::-1].conj()], axis=1) * pre
        sums = grid.sums_at_freqs(log_nodes, core.reshape(-1, len(u)).T)
        out[:, i : i + T_BLOCK] = sums.reshape(len(log_nodes), -1, 2)
    return out.view(float)


def afe_values(
    form: CuspForm, ts: Sequence[float], cfg: Optional[AfeConfig] = None
) -> List[AfeValue]:
    """L(1/2 + it) for each t in `ts`, in order, by the AFE (R taken as 0).

    Needs the form's root number; coefficients must reach the longest
    resolved truncation, and each t sums its own n_afe terms. Each block of
    ROW_BLOCK rows of the barycentric matrix takes the n^(-it) phases of the
    t whose sums reach it. V_(1-s) takes V_s's gamma ratio conjugated, as
    1 - s = conj(s): the gamma factor and `cfg.weight` must satisfy
    g(conj z) = conj g(z), as every admitted factor (real weight, real or
    imaginary ell) and both built-in weights do.
    """
    cfg = cfg or AfeConfig()
    if form.epsilon_f is None:
        raise PreconditionError("form has no root number; the reflected term is unavailable")
    ts = np.asarray(ts, dtype=float)
    n_afe = np.array([cfg.resolved_n_afe(form, float(t)) for t in ts])
    lam = form.lam_slice(int(n_afe.max(initial=1)))
    log_n = np.log(np.arange(1, len(lam) + 1, dtype=float))
    log_y = log_n - 0.5 * math.log(form.level)
    lo, hi = log_y[0], log_y[-1]
    m = chebyshev_size(V_CUT * (hi - lo) / 2)
    banded = _nodal_weights(form, ts, chebyshev_interpolant(lo, hi, m, [])[0], cfg)
    # lambda(n) n^(-1/2) y^(-a), and the dual form's for the reflected sum
    scale = np.exp(-0.5 * log_n - ABSCISSA * log_y)
    coef = np.stack([lam, form.dual_lam_slice(len(lam))], axis=1) * scale[:, None]
    sums = np.zeros((len(ts), 2), dtype=complex)
    tail_sq = np.zeros((len(ts), 2))
    for i in range(0, len(lam), ROW_BLOCK):
        rows = np.arange(i, min(i + ROW_BLOCK, len(lam)))
        live = n_afe > i  # the t whose sums reach this block
        interp = chebyshev_interpolant(lo, hi, m, log_y[rows])[1]
        terms = (interp @ banded[:, live].reshape(m, -1)).view(complex).reshape(len(rows), -1, 2)
        phase = np.exp(-1j * np.outer(log_n[rows], ts[live]))
        terms *= coef[rows, None, :] * np.stack([phase, phase.conj()], axis=2)
        terms[rows[:, None] >= n_afe[live]] = 0
        sums[live] += terms.sum(axis=0)
        tail = rows[:, None] >= (0.9 * n_afe[live]).astype(int)  # tail_norm's last tenth
        tail_sq[live] += np.sum(np.abs(terms) ** 2 * tail[:, :, None], axis=0)
    lg_s = log_gamma_quotient_factor(form, 0.5 + 1j * ts)
    # eps M^(1/2 - s) gamma(f, 1 - s) / gamma(f, s), with gamma(f, 1 - s) = conj gamma(f, s)
    reflect = form.epsilon_f * np.exp(-1j * ts * math.log(form.level) + lg_s.conj() - lg_s)
    values = sums[:, 0] + reflect * sums[:, 1]
    tails = np.sqrt(tail_sq).sum(axis=1)
    return [AfeValue(complex(v), int(n), float(tl)) for v, n, tl in zip(values, n_afe, tails)]


def afe_value(form: CuspForm, t: float, cfg: Optional[AfeConfig] = None) -> AfeValue:
    """L(1/2 + it) by :func:`afe_values` at the one t."""
    return afe_values(form, [t], cfg)[0]


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
    """|L(1/2+it)| over the grid, by one `afe_values` call at SCAN_CONFIG, plus a
    fitted growth exponent.

    The exponent comes from the maxima of SCAN_WINDOWS windows (the scan
    envelope), fitted in log-log coordinates with its standard error.
    """
    t_grid = _scan_grid(t_grid)
    records = []
    for t, res in zip(t_grid, afe_values(form, t_grid, SCAN_CONFIG)):
        l_abs = abs(res.value)
        flagged = res.tail_estimate >= TAIL_FRACTION * max(l_abs, 1e-30)
        records.append(ScanRecord(float(t), l_abs, res.n_used, res.tail_estimate, flagged))

    edges = np.exp(np.linspace(math.log(t_grid[0]), math.log(t_grid[-1]), SCAN_WINDOWS + 1))
    # exp(log t) rounds the outer edges inward, past the grid's own ends
    edges[0], edges[-1] = t_grid[0], t_grid[-1]
    maxima = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = [r.l_abs for r in records if lo <= r.t <= hi]
        if sel:
            maxima.append((math.sqrt(lo * hi), max(sel)))
    if len(maxima) < 2:
        raise PreconditionError(
            f"the scan grid fills {len(maxima)} of {SCAN_WINDOWS} windows; the exponent fit needs 2"
        )
    slope, _, se = loglog_fit(*zip(*maxima))
    return ScanResult(records=records, exponent=slope, exponent_stderr=se, window_maxima=maxima)
