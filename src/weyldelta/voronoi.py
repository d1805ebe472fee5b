"""Two-sided numerical verification of the dual summation formula

    sum_n lambda(n) e(a n / c) W(n / N)
        = (eta / sqrt(M)) (N / c) sum_(rows) sum_n conj(lambda(n)) w_sign(n) What_sign(y_n),
    w_sign(n) = chi(-sign c) eps_g^[sign = -1] e(-sign conj(aM) n / c),  y_n = n N / (M c^2),

for gcd(a, c) = gcd(c, M) = 1, with the dual form's coefficients conj(lambda(n))
(:meth:`CuspForm.dual_lam_slice`), the form's weight w_sign (:func:`term_weight`)
and one term per row of :func:`dual_terms`; :func:`weyldelta.deltapipe.s_c_dual`
reads all three too:

    holomorphic weight k:  sign +1, front i^(k-1)/2, kernel gamma_k;
    Maass (ell):           sign +1, front 1/2i,      kernel C_{l,0} - C_{l,1},
                           sign -1, front 1/2i,      kernel C_{l,0} + C_{l,1},

and What_sign(y) = front int_(sigma) m_W(s) y^(-s/2) kernel(s) ds, a contour
transform of W against the archimedean factor of the form, with
m_W(s) = int W(x) x^(-s/2) dx and ds = i dtau. For holomorphic forms the
contour collapses to a J_(k-1) transform of W, and every y is read from one
Chebyshev table in omega = 4 pi sqrt(y): one Clenshaw pass of m terms per y,
plus a share of the one-time build of its group of panels. Panels below the seam
:attr:`WhatTransform.y_seam` are seeded by Bessel's integral, those above it
by the Hankel expansion. Maass forms take the contour route, which stays as
the table's oracle: the inner x-integral is evaluated first (it decays
superpolynomially in the contour height because W is smooth), then the
tau-integral is truncated where that decay beats the tolerance, on tau panels
of the width that the gamma-factor phase needs at the top of the contour.

eta has modulus one but is otherwise measured, not assumed:
:func:`calibrate_eta` fits it across probe instances and the unconstrained
least-squares modulus coming out at 1 is itself a check of all the
normalization above.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import CalibrationError, PreconditionError
from .forms import CuspForm
from .numerics import PanelGrid, chebyshev_size, modular_inverse, tail_norm, unit_phases
from .specialfn import GammaFactorKind, gamma_factor
from .testfn import SmoothWindow

DEFAULT_SIGMA_HOLOMORPHIC = 0.5
DEFAULT_SIGMA_MAASS = 0.1
DEFAULT_Y_DEEP = 8000.0  # the dual sum runs out to y ~ DEFAULT_Y_DEEP unless capped


def dual_terms(kind: GammaFactorKind, factor: Callable[[GammaFactorKind], np.ndarray]):
    """[(sign, front, kernel)] of the dual formula for `kind`, the kernel built from
    factor(k), the factor of kind k on the caller's nodes. The caller weights a
    term's n by :func:`term_weight`."""
    if kind.family == "holomorphic":
        return [(+1, 1j ** (kind.weight - 1) / 2.0, factor(kind))]
    g0, g1 = (factor(GammaFactorKind("maass", ell=kind.ell, parity=d)) for d in (0, 1))
    return [(+1, 1.0 / 2j, g0 - g1), (-1, 1.0 / 2j, g0 + g1)]


def term_weight(form: CuspForm, sign: int, a: int, c: int, ns: np.ndarray) -> np.ndarray:
    """The form's weight on the `sign` term of :func:`dual_terms` for the twist a/c
    at the integers ns: chi(-sign c), times eps_g on the -1 term, times
    e(-sign conj(aM) n / c). Raises ValueError unless gcd(aM, c) = 1."""
    unit = form.chi_at(-sign * c) * (form.epsilon_g if sign == -1 else 1)
    return unit * unit_phases(-sign * modular_inverse(a * form.level, c) * ns, c)


def default_sigma(kind: GammaFactorKind) -> float:
    if kind.family == "holomorphic":
        return DEFAULT_SIGMA_HOLOMORPHIC
    # small positive abscissa; for exceptional (imaginary) spectral values the
    # contour must stay right of the first factor pole at 2|Im ell|
    sigma = DEFAULT_SIGMA_MAASS
    bound = 2 * abs(complex(kind.ell).imag)
    if sigma <= bound:
        sigma = bound + 0.05
    return sigma


class WhatTransform:
    """Precomputed evaluator for What_pm of one (kind, window) pair.

    The grid sizes are the class constants Y_SPLIT, PANEL_WIDTH, SEED_U_PANELS,
    TAU_MAX, Y_MAX and U_PANELS. For holomorphic kinds every y is read from one
    Chebyshev table in omega = 4 pi sqrt(y), one Clenshaw pass of m terms per y
    (about 0.2 us) plus its share of its group's one-time build; with x = u^2
    and n = k - 1 (odd) the contour collapses to

        What_plus(y) = 2 pi i^k int W(x) J_n(4 pi sqrt(x y)) dx
                     = 2 pi i^k int 2u W(u^2) J_n(omega u) du.

    With u <= sqrt(b) on the window's support [a, b], What_plus / (2 pi i^k) is
    real and entire of exponential type sqrt(b) in omega, so it is held on
    panels of m = chebyshev_size(sqrt(b) PANEL_WIDTH / 2) first-kind nodes (42
    for [1, 2]): near panels tile [0, omega_seam] in equal widths of at most
    PANEL_WIDTH (17 of 15.68 for k <= 12), far panels of width PANEL_WIDTH start
    at omega_seam. Panels p of one p // PANEL_GROUP are built together when eval
    first touches one, by one sum on rules sized at the group's top, and kept
    on the instance; a value depends on y alone.

    * Near seeds: Bessel's integral (DLMF 10.9.2) folded onto [0, pi/2],

          What_plus / (2 pi i^k) = (2/pi) int_0^(pi/2) sin(n theta) S(omega sin theta) d theta,
          S(xi) = int 2u W(u^2) sin(xi u) du,

      by the trapezoid rule, exact to rounding once its [0, pi] point count
      passes (omega sqrt(b) + n)/2 + 40 (Trefethen & Weideman, SIAM Rev. 56
      (2014)). S has a Chebyshev table of its own on the near panels, a group of
      them one `sums_at_freqs` over a u rule of 1.2 GL-16 panels per cycle at
      its top, at least SEED_U_PANELS. For k = 12, 18 and 24 on y in [1e-6, y_seam)
      the table is within 9.4e-15 of max|What| of Bessel's integral; 3.4e-14 at 36.
    * Far seeds: the Hankel expansion J_nu(v) = Re[sqrt(2 / (pi v)) e^(i(v - phi))
      sum_(j<=5) i^j a_j(nu) v^(-j)], phi = (nu/2 + 1/4) pi, drops terms of
      relative size about (nu^2 / 2v)^j / j!, j >= 6, so it serves from
      omega_seam = max(4 pi sqrt(Y_SPLIT), 2 (k-1)^2) on (y_seam = 450 for
      k <= 12, 38011 for k = 36). Since v^(-j) = omega^(-j) u^(-j), the sums
      are six columns sum_u 2u W(u^2) w_u u^(-1/2-j) e^(i omega u) on one u
      rule with 1.2 panels per cycle at the group's top. On y in [450, 2e4]
      the table is within 6.1e-15 absolute of these sums on one grid
      (`_eval_bessel`, its oracle); halving PANEL_WIDTH moves it by 3.9e-15.
    * The contour route, Maass kinds and the holomorphic oracle:

          What(y) = 2i front y^(-sigma/2) Re sum_tau w kernel(tau) e^(-i tau log(y) / 2),

      one `sums_at_freqs` at the frequencies log(y) / 2, about 30 us per y,
      at sigma = default_sigma(kind). m_W (one `band_sums_at_nodes` over
      the U_PANELS log-x rule, whose frequencies log(x)/2 span a narrow
      band) and the gamma factors, `kernels`, are built on
      first use, on equal tau panels over [0, TAU_MAX] as wide as the phase
      tau (log(tau / 4 pi) + |log y| / 2) allows at TAU_MAX and y = y_seam
      (Y_MAX for Maass kinds), so GL-16 sees <= ~1.5 cycles per panel. The cut
      at TAU_MAX leaves holomorphic values 6e-12 to 2.8e-11 off, an error
      that oscillates like y^(-i TAU_MAX / 2). Maass values are not
      converged: for maass_kind(9.5, 0) and y in [0.05, 4000], halving the tau
      panel width moves What by up to 1.9e-3. No check runs a Maass dual side.
    """

    Y_SPLIT = 450.0
    PANEL_WIDTH = 16.0  # the widest omega = 4 pi sqrt(y) panel of the Chebyshev table
    PANEL_GROUP = 8  # consecutive panels built by one sum
    SEED_U_PANELS = 24  # least panels of the u rule behind the near seeds' S table
    TAU_MAX = 2000.0  # top of the contour's tau panels
    Y_MAX = 4000.0  # the largest y the Maass contour panels are sized for
    U_PANELS = 160  # panels of the log-x rule of the Mellin table

    def __init__(self, kind: GammaFactorKind, window: SmoothWindow):
        self.kind = kind
        self.window = window
        self.sigma = default_sigma(kind)
        a, b = window.support
        if a <= 0:
            raise PreconditionError("window support must lie in (0, infinity)")
        self.holomorphic = kind.family == "holomorphic"
        self.y_seam = max(self.Y_SPLIT, (2 * (kind.weight - 1) ** 2 / (4 * math.pi)) ** 2)
        contour_y = self.y_seam if self.holomorphic else self.Y_MAX
        # the signs of the rows of dual_terms; their kernels wait for the contour route
        self.signs = [sign for sign, _, _ in dual_terms(kind, lambda k: 0.0)]

        # equal tau panels on [0, TAU_MAX], as wide as the combined phase rate
        # log(tau/4pi) + |log y|/2 allows at TAU_MAX, where it is largest
        rate = math.log(self.TAU_MAX / (4 * math.pi)) + abs(math.log(contour_y)) / 2.0 + 0.5
        width = min(2 * math.pi * 1.5 / rate, 8.0)
        self.tau_grid = PanelGrid(0.0, self.TAU_MAX, math.ceil(self.TAU_MAX / width))
        self.tau_nodes, self.tau_weights = self.tau_grid.nodes, self.tau_grid.weights

        # the omega table {p: Chebyshev coefficients of What_plus / (2 pi i^k)}
        # and the near seeds' table {p: those of S}, both filled on first touch;
        # panel p >= 0 is omega_seam + [p, p + 1) PANEL_WIDTH, p < 0 is
        # omega_seam + [p, p + 1) near_width. The coefficient sums use the
        # discrete orthogonality of cos(k theta_j) at the m first-kind nodes.
        self._panels, self._seeds = {}, {}
        self._omega_seam = 4 * math.pi * math.sqrt(self.y_seam)
        self._near_panels = math.ceil(self._omega_seam / self.PANEL_WIDTH)
        self._near_width = self._omega_seam / self._near_panels
        m = chebyshev_size(math.sqrt(b) * 0.5 * self.PANEL_WIDTH)
        self._cheb_theta = np.pi * (np.arange(m) + 0.5) / m
        self._cheb_cos = np.cos(np.outer(np.arange(m), self._cheb_theta)) * (2.0 / m)
        self._cheb_cos[0] /= 2.0

    @functools.cached_property
    def kernels(self):
        """{sign: (front, m_W kernel)} of the contour route on the tau nodes,
        built on first use."""
        a, b = self.window.support
        # m_W(sigma + i tau) = int Wt(u) e^{-i tau u / 2} du after x = e^u
        u_grid = PanelGrid(math.log(a), math.log(b), self.U_PANELS)
        u = u_grid.nodes
        wt = self.window(np.exp(u)) * np.exp(u * (1 - self.sigma / 2)) * u_grid.weights
        m_vals = self.tau_grid.band_sums_at_nodes(wt, 0.5 * u)
        s_nodes = self.sigma + 1j * self.tau_nodes
        # the kernel a named operand: numpy would multiply into a temporary in
        # place, and that loop rounds differently in the last bit
        return {
            sign: (front, m_vals * kernel)
            for sign, front, kernel in dual_terms(self.kind, lambda k: gamma_factor(k, s_nodes))
        }

    def _eval_contour(self, ys: np.ndarray, kernel: np.ndarray, front: complex) -> np.ndarray:
        # conjugate symmetry in tau (real window, real spectral data):
        # int_R = 2 Re int_0^inf; ds = i dtau
        sums = self.tau_grid.sums_at_freqs(0.5 * np.log(ys), self.tau_weights * kernel)
        return front * 2j * ys ** (-0.5 * self.sigma) * sums.real

    def _bessel_grid(self, y_hi: float, least: int = 8) -> PanelGrid:
        """The u = sqrt(x) rule of the Bessel sums, 1.2 panels per cycle at y_hi
        (the top of the omega panel that the rule tabulates) and at least `least`."""
        a, b = (math.sqrt(e) for e in self.window.support)
        # phase 4 pi sqrt(y) u spans 2 sqrt(y)(sqrt(b) - sqrt(a)) cycles
        cycles = 2 * math.sqrt(y_hi) * (b - a)
        return PanelGrid(a, b, max(least, math.ceil(1.2 * cycles)))

    def _hankel_sums(self, ys: np.ndarray, y_hi: float) -> np.ndarray:
        """What_plus / (2 pi i^k), real, by the order-(k-1) kernel's Hankel
        expansion in u = sqrt(x) on the u rule sized at y_hi >= max(ys)."""
        nu = self.kind.weight - 1
        mu = 4.0 * nu * nu
        grid = self._bessel_grid(y_hi)
        u = grid.nodes
        j = np.arange(6)
        # a_j(nu) = prod_(m<=j) (mu - (2m - 1)^2) / (j! 8^j)
        a_j = np.cumprod(np.r_[1.0, (mu - (2 * j[1:] - 1) ** 2) / (8.0 * j[1:])])
        cols = (2 * u * self.window(u * u) * grid.weights)[:, None] * u[:, None] ** (-0.5 - j)
        omega = 4 * math.pi * np.sqrt(ys)
        sums = grid.sums_at_freqs(-omega, cols)  # sum_u cols e^{i omega u}
        series = (sums * omega[:, None] ** (-0.5 - j)) @ (np.array([1, 1j, -1, -1j])[j % 4] * a_j)
        phi = (nu * 0.5 + 0.25) * math.pi
        return (math.sqrt(2.0 / math.pi) * np.exp(-1j * phi) * series).real

    def _eval_bessel(self, ys: np.ndarray) -> np.ndarray:
        """Far regime by the Hankel sums on one u rule sized at max(ys): the
        oracle of the far panels, which come from the same sums."""
        return 2 * math.pi * (1j**self.kind.weight) * self._hankel_sums(ys, float(np.max(ys)))

    def _panel_nodes(self, ps: np.ndarray):
        """The m first-kind nodes of omega panels ps, one row each, and the top of the last."""
        width = self.PANEL_WIDTH if ps[0] >= 0 else self._near_width
        mid, half = self._omega_seam + (ps[:, None] + 0.5) * width, 0.5 * width
        return mid + half * np.cos(self._cheb_theta), float(mid[-1, 0]) + half

    def _seed_coefficients(self, ps: np.ndarray) -> np.ndarray:
        """Chebyshev coefficients of S(xi) = int 2u W(u^2) sin(xi u) du on panels ps,
        one row each, from one u rule sized at their top."""
        xi, top = self._panel_nodes(ps)
        grid = self._bessel_grid((top / (4 * math.pi)) ** 2, self.SEED_U_PANELS)
        u = grid.nodes
        sums = grid.sums_at_freqs(-xi.ravel(), 2 * u * self.window(u * u) * grid.weights)
        return sums.imag.reshape(xi.shape) @ self._cheb_cos.T

    def _panel_coefficients(self, ps: np.ndarray) -> np.ndarray:
        """Chebyshev coefficients of What_plus / (2 pi i^k) on omega panels ps, a row
        each: far ones from one Hankel sum, near ones from one trapezoid product of
        Bessel's integral over the S table, each rule sized at the panels' top."""
        omega, top = self._panel_nodes(ps)
        if ps[0] >= 0:
            ys, y_top = (omega.ravel() / (4 * math.pi)) ** 2, (top / (4 * math.pi)) ** 2
            return self._hankel_sums(ys, y_top).reshape(omega.shape) @ self._cheb_cos.T
        n = self.kind.weight - 1
        # the trapezoid rule of M = 2 half steps on [0, pi], folded onto [0, pi/2]:
        # weights (1/M)(1, 2, ..., 2, 1)
        half = math.ceil(((top * math.sqrt(self.window.support[1]) + n) / 2 + 40) / 2)
        theta = 0.5 * np.pi * np.arange(half + 1) / half
        w = np.full(half + 1, 1.0 / half)
        w[[0, -1]] /= 2
        xi = np.outer(omega, np.sin(theta))
        s = self._clenshaw(self._seeds, xi.ravel(), self._seed_coefficients).reshape(xi.shape)
        return (s @ (w * np.sin(n * theta))).reshape(omega.shape) @ self._cheb_cos.T

    @staticmethod
    def _unique_inverse(keys: np.ndarray):
        """np.unique(keys, return_inverse=True) for integer keys of a small range."""
        hit = np.bincount(keys - keys.min()) > 0
        return np.flatnonzero(hit) + keys.min(), (np.cumsum(hit) - 1)[keys - keys.min()]

    def _clenshaw(self, table: dict, omega: np.ndarray, build) -> np.ndarray:
        """The Chebyshev `table` at omega >= 0, one Clenshaw pass of m terms per
        point on its panel; a missing panel's group ps, the panels of one
        p // PANEL_GROUP (p >= -_near_panels), is built as table[ps] = build(ps)."""
        shift = omega - self._omega_seam
        near = np.maximum(np.floor(shift / self._near_width), -self._near_panels)
        idx = np.where(shift >= 0, np.floor(shift / self.PANEL_WIDTH), near).astype(np.intp)
        width = np.where(idx >= 0, self.PANEL_WIDTH, self._near_width)
        panels, inv = self._unique_inverse(idx)
        g = self.PANEL_GROUP
        for q in {p // g for p in panels.tolist() if p not in table}:
            ps = np.arange(max(q * g, -self._near_panels), q * g + g)
            table.update(zip(ps.tolist(), build(ps)))
        coef = np.stack([table[p] for p in panels.tolist()], axis=1)
        # omega mapped to [-1, 1] on its panel, as _panel_nodes places the nodes
        mids = self._omega_seam + (idx + 0.5) * width
        t = (omega - mids) / (0.5 * width)
        two_t, b1, b2 = 2.0 * t, 0.0, 0.0  # Clenshaw's recurrence, one gathered row per degree
        for row in coef[:0:-1]:
            b1, b2 = row[inv] + two_t * b1 - b2, b1
        return coef[0][inv] + t * b1 - b2

    def eval(self, y, sign: int = +1):
        """What_pm(y), unweighted (see term_weight); y: finite positive reals or one."""
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        if not np.all(np.isfinite(ys) & (ys > 0)):
            raise PreconditionError("transform argument y must be finite and positive")
        if sign not in (+1, -1):
            raise PreconditionError("sign must be +1 or -1")
        if sign not in self.signs:  # the holomorphic minus term
            return 0.0 + 0.0j if np.ndim(y) == 0 else np.zeros(ys.shape, dtype=complex)
        if self.holomorphic:
            table = self._clenshaw(self._panels, 4 * math.pi * np.sqrt(ys), self._panel_coefficients)
            vals = 2 * math.pi * (1j**self.kind.weight) * table
        else:
            front, kernel = self.kernels[sign]
            vals = self._eval_contour(ys, kernel, front)
        if np.ndim(y) == 0:
            return complex(vals[0])
        return vals


def dual_sum_length(scale: float, c: int, level: int = 1) -> int:
    """Dual-sum terms n that reach y = n N / (M c^2) ~ DEFAULT_Y_DEEP (at least 400)."""
    return max(400, int(math.ceil(DEFAULT_Y_DEEP * level * c**2 / scale)))


@dataclass
class VoronoiInstance:
    """One concrete identity check: which form, twist a/c, scaling N, window.

    The dual side is evaluated by a :class:`WhatTransform` of the same window
    that the caller builds once and passes in.
    """

    form: CuspForm
    a: int
    c: int
    window: SmoothWindow
    scale: float  # N

    def __post_init__(self):
        if self.c < 1:
            raise PreconditionError("modulus c must be positive")
        if math.gcd(self.a, self.c) != 1:
            raise PreconditionError(f"need gcd(a, c) = 1, got ({self.a}, {self.c})")
        if math.gcd(self.c, self.form.level) != 1:
            raise PreconditionError("need gcd(c, M) = 1")

    def wanted_n_cut(self) -> int:
        """The dual-sum length that reaches DEFAULT_Y_DEEP, before any cap."""
        return dual_sum_length(self.scale, self.c, self.form.level)

    def resolved_n_cut(self) -> int:
        """wanted_n_cut(), capped at the stored coefficients."""
        return min(self.form.n_max, self.wanted_n_cut())


@dataclass
class VoronoiCheck:
    lhs: complex
    rhs: complex
    residual: float
    rhs_terms: int
    tail_estimate: float
    n_cut_wanted: int  # rhs_terms before the cap at the stored coefficients


def direct_side(inst: VoronoiInstance) -> complex:
    """lhs = sum_n lambda(n) e(a n / c) W(n / N); finite by support."""
    ns = inst.window.indices(inst.scale)
    lam = inst.form.lam_slice(ns[-1])[ns[0] - 1 :]
    return complex(np.sum(lam * unit_phases(inst.a * ns, inst.c) * inst.window(ns / inst.scale)))


def dual_side(inst: VoronoiInstance, transform: WhatTransform) -> Tuple[complex, int, float]:
    """The eta-free rhs plus term count and tail estimate.

    The tail estimate is the l2 size of the last tenth of the included
    terms times the rhs prefactor (N/c)/sqrt(M): a proxy, on the rhs's own
    scale, for the (sign-cancelling) remainder beyond the cut. The transform
    must be of the form's kind and of the instance's window object.
    """
    form = inst.form
    if transform.kind != form.kind or transform.window is not inst.window:
        raise PreconditionError("the transform's kind or window is not the instance's")
    n_cut = inst.resolved_n_cut()
    ns = np.arange(1, n_cut + 1)
    ys = ns * inst.scale / (form.level * inst.c**2)
    lam = form.dual_lam_slice(n_cut)
    total = 0.0 + 0.0j
    tail = 0.0
    for sign in transform.signs:
        terms = term_weight(form, sign, inst.a, inst.c, ns) * lam * transform.eval(ys, sign=sign)
        total += complex(np.sum(terms))
        tail = max(tail, tail_norm(terms))
    prefactor = (inst.scale / inst.c) / math.sqrt(form.level)
    return prefactor * total, n_cut, prefactor * tail


def voronoi_check(inst: VoronoiInstance, transform: WhatTransform) -> VoronoiCheck:
    """Compute both sides independently and their scaled residual, the rhs times eta.

    The tail estimate is scaled as the residual is, so the two compare.
    """
    if inst.form.eta is None:
        raise PreconditionError("form has no calibrated eta; run calibrate_eta")
    lhs = direct_side(inst)
    rhs, used, tail = dual_side(inst, transform=transform)
    rhs *= inst.form.eta
    size = 1.0 + abs(lhs) + abs(rhs)
    return VoronoiCheck(
        lhs=lhs, rhs=rhs, residual=abs(lhs - rhs) / size, rhs_terms=used,
        tail_estimate=tail / size, n_cut_wanted=inst.wanted_n_cut(),
    )


def calibrate_eta(form: CuspForm, probes, transform: WhatTransform) -> complex:
    """Fit the modulus-one constant of the dual side over probe instances.

    Solves min_eta sum |lhs_i - eta * rhs0_i|^2 with rhs0 the eta-free
    dual side; the unconstrained optimum is
    eta_raw = sum lhs conj(rhs0) / sum |rhs0|^2 and its modulus coming out
    at 1 validates every normalization constant in the transform. The
    stored value is eta_raw normalized to exact modulus one.

    Raises :class:`CalibrationError` when per-probe phases disagree by more
    than 1e-3 (an implementation bug, not a math failure).
    """
    probes = list(probes)
    if len(probes) < 2:
        raise PreconditionError("calibration needs at least 2 probe instances")
    lhs_vals = []
    rhs_vals = []
    for inst in probes:
        if inst.form is not form:
            raise PreconditionError("all probes must reference the form being calibrated")
        lhs = direct_side(inst)
        rhs0, _, _ = dual_side(inst, transform=transform)
        if abs(lhs) < 1e-12 or abs(rhs0) < 1e-12:
            raise PreconditionError("degenerate probe (vanishing side); pick another instance")
        lhs_vals.append(lhs)
        rhs_vals.append(rhs0)
    lhs_vals = np.array(lhs_vals)
    rhs_vals = np.array(rhs_vals)
    per_probe = lhs_vals / rhs_vals
    spread = float(np.max(np.abs(per_probe - per_probe.mean())))
    if spread > 1e-3:
        raise CalibrationError(
            f"probe eta estimates disagree by {spread:.3e}; transforms are inconsistent"
        )
    eta_raw = complex(np.sum(lhs_vals * np.conj(rhs_vals)) / np.sum(np.abs(rhs_vals) ** 2))
    form.eta = eta_raw / abs(eta_raw)
    form.eta_modulus_raw = abs(eta_raw)
    form.eta_probe_spread = spread
    return form.eta
