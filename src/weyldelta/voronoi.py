"""Two-sided numerical verification of the dual summation formula

    sum_n lambda(n) e(a n / c) W(n / N)
        = (eta / sqrt(M)) (N / c) sum_pm chi(-/+ c)
          sum_n lambda(n) e(-/+ conj(aM) n / c) What_pm(n N / (M c^2)),

for gcd(a, c) = gcd(c, M) = 1, where What_pm is a contour transform of W
against the archimedean factor of the form:

    holomorphic weight k:
        What_plus(y)  = (i^(k-1)/2) int_(sigma) m_W(s) y^(-s/2) gamma_k(s) ds,
        What_minus    = 0,
    Maass (ell, eps_g):
        What_plus(y)  = (1/2i)     int_(sigma) m_W(s) y^(-s/2) (C_{l,0} - C_{l,1})(s) ds,
        What_minus(y) = (eps_g/2i) int_(sigma) m_W(s) y^(-s/2) (C_{l,0} + C_{l,1})(s) ds,

with m_W(s) = int W(x) x^(-s/2) dx and the contour differential ds = i dtau.
The inner x-integral is evaluated first (it decays superpolynomially in the
contour height because W is smooth), then the tau-integral is truncated
where that decay beats the tolerance. The tau panels all have the width
that the gamma-factor phase needs at the top of the contour, where it turns
fastest.

eta has modulus one but is otherwise measured, not assumed:
:func:`calibrate_eta` fits it across probe instances and the unconstrained
least-squares modulus coming out at 1 is itself a check of all the
normalization above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import CalibrationError, PreconditionError
from .forms import CuspForm
from .numerics import PanelGrid, modular_inverse, panel_rule, unit_phases
from .specialfn import GammaFactorKind, gamma_factor
from .testfn import SmoothWindow

DEFAULT_SIGMA_HOLOMORPHIC = 0.5
DEFAULT_SIGMA_MAASS = 0.1
DEFAULT_Y_DEEP = 8000.0  # the dual sum runs out to y ~ DEFAULT_Y_DEEP unless capped


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

    Both regimes are sums over a factored :class:`PanelGrid`, so a value of
    y costs (panels + 16) complex exponentials plus its share of one GEMM,
    not one transcendental per (y, node) pair:

    * y below `y_split` (every y for Maass kinds): the contour form. m_W and
      the gamma factors are tabulated once on equal tau panels over
      [0, tau_max]. The panel width is the one the phase
      tau (log(tau / 4 pi) + |log y| / 2) needs at tau_max, where it turns
      fastest, so GL-16 sees <= ~1.5 cycles per panel. The Mellin table is
      one `sums_at_nodes` over the log-x rule, and

          What(y) = 2i front y^(-sigma/2) Re sum_tau w kernel(tau) e^(-i tau log(y) / 2)

      is one `sums_at_freqs` at the frequencies log(y) / 2.
    * y above `y_split`, holomorphic kinds only: the same transform written
      against its oscillatory kernel. The contour collapses to the Mellin
      representation of the order-(k-1) Bessel function; with x = u^2,

          What_plus(y) = 2 pi i^k int W(x) J_{k-1}(4 pi sqrt(x y)) dx
                       = 2 pi i^k int 2u W(u^2) J_{k-1}(omega u) du,   omega = 4 pi sqrt(y).

      The Hankel expansion J_nu(v) = Re[sqrt(2 / (pi v)) e^(i(v - phi))
      sum_(j<=5) i^j a_j(nu) v^(-j)], phi = (nu/2 + 1/4) pi, is accurate to
      ~1e-10 relative once v >= 260. Since v^(-j) = omega^(-j) u^(-j), the
      regime is six column sums sum_u 2u W(u^2) w_u u^(-1/2-j) e^(i omega u)
      on one u grid with 1.2 panels per cycle at the largest y. This keeps
      deep right-hand-side tails cheap; the contour route would need
      absolute-accuracy levels that the oscillatory cancellation there
      cannot deliver.

    Maass kinds always use the contour route, and its values there are not
    converged: for maass_kind(9.5, 0) and y in [0.05, 4000], halving the tau
    panel width moves What by up to 1.9e-3, and the adaptive-width grid this
    one replaced gave values up to 2.6e-2 away. No check runs a Maass dual
    side.
    """

    Y_SPLIT = 450.0

    def __init__(
        self,
        kind: GammaFactorKind,
        window: SmoothWindow,
        sigma: Optional[float] = None,
        tau_max: float = 2000.0,
        y_max: float = 4000.0,
        u_panels: int = 160,
    ):
        self.kind = kind
        self.window = window
        self.sigma = default_sigma(kind) if sigma is None else float(sigma)
        self.tau_max = float(tau_max)
        a, b = window.support
        if a <= 0:
            raise PreconditionError("window support must lie in (0, infinity)")
        self.holomorphic = kind.family == "holomorphic"
        # the contour table only serves y below the split for holomorphic
        contour_y = self.Y_SPLIT if self.holomorphic else y_max

        # equal tau panels on [0, tau_max], as wide as the combined phase rate
        # log(tau/4pi) + |log y|/2 allows at tau_max, where it is largest
        rate = (
            max(math.log(max(self.tau_max, 8.0) / (4 * math.pi)), 0.2)
            + abs(math.log(contour_y)) / 2.0
            + 0.5
        )
        width = min(2 * math.pi * 1.5 / rate, 8.0)
        self.tau_grid = PanelGrid(0.0, self.tau_max, max(1, math.ceil(self.tau_max / width)))
        self.tau_nodes, self.tau_weights = self.tau_grid.nodes, self.tau_grid.weights

        # m_W(sigma + i tau) = int Wt(u) e^{-i tau u / 2} du after x = e^u
        u_nodes, u_weights = panel_rule(math.log(a), math.log(b), u_panels, 16)
        wt = window(np.exp(u_nodes)) * np.exp(u_nodes * (1 - self.sigma / 2)) * u_weights
        m_vals = self.tau_grid.sums_at_nodes(wt, 0.5 * u_nodes)
        self.mellin_values = m_vals
        self.mellin_tail = float(np.abs(m_vals[-16:]).max())

        s_nodes = self.sigma + 1j * self.tau_nodes
        if kind.family == "holomorphic":
            # a named operand: numpy would multiply into a temporary in
            # place, and that loop rounds differently in the last bit
            gam = gamma_factor(kind, s_nodes)
            self.kernel_plus = m_vals * gam
            self.kernel_minus = None
            k = kind.weight
            self.front_plus = 1j**(k - 1) / 2.0
            self.front_minus = 0.0
        else:
            kind0 = GammaFactorKind("maass", ell=kind.ell, parity=0)
            kind1 = GammaFactorKind("maass", ell=kind.ell, parity=1)
            g0 = gamma_factor(kind0, s_nodes)
            g1 = gamma_factor(kind1, s_nodes)
            self.kernel_plus = m_vals * (g0 - g1)
            self.kernel_minus = m_vals * (g0 + g1)
            self.front_plus = 1.0 / 2j
            self.front_minus = 1.0 / 2j  # times eps_g at evaluation

    def _eval_contour(self, ys: np.ndarray, kernel: np.ndarray, front: complex) -> np.ndarray:
        # conjugate symmetry in tau (real window, real spectral data):
        # int_R = 2 Re int_0^inf; ds = i dtau
        sums = self.tau_grid.sums_at_freqs(0.5 * np.log(ys), self.tau_weights * kernel)
        return front * 2j * ys ** (-0.5 * self.sigma) * sums.real

    def _bessel_grid(self, y_hi: float) -> PanelGrid:
        """The u = sqrt(x) rule of the far regime, 1.2 panels per cycle at y_hi."""
        a, b = (math.sqrt(e) for e in self.window.support)
        # phase 4 pi sqrt(y) u spans 2 sqrt(y)(sqrt(b) - sqrt(a)) cycles
        cycles = 2 * math.sqrt(y_hi) * (b - a)
        return PanelGrid(a, b, max(8, math.ceil(1.2 * cycles)))

    def _eval_bessel(self, ys: np.ndarray) -> np.ndarray:
        """Far regime via the order-(k-1) kernel's Hankel expansion in u = sqrt(x)."""
        k = self.kind.weight
        nu = k - 1
        mu = 4.0 * nu * nu
        grid = self._bessel_grid(float(np.max(ys)))
        u = grid.nodes
        j = np.arange(6)
        # a_j(nu) = prod_(m<=j) (mu - (2m - 1)^2) / (j! 8^j)
        a_j = np.cumprod(np.r_[1.0, (mu - (2 * j[1:] - 1) ** 2) / (8.0 * j[1:])])
        cols = (2 * u * self.window(u * u) * grid.weights)[:, None] * u[:, None] ** (-0.5 - j)
        omega = 4 * math.pi * np.sqrt(ys)
        sums = grid.sums_at_freqs(-omega, cols)  # sum_u cols e^{i omega u}
        series = (sums * omega[:, None] ** (-0.5 - j)) @ (np.array([1, 1j, -1, -1j])[j % 4] * a_j)
        phi = (nu * 0.5 + 0.25) * math.pi
        bessel = (math.sqrt(2.0 / math.pi) * np.exp(-1j * phi) * series).real
        return 2 * math.pi * (1j**k) * bessel

    def eval(self, y, sign: int = +1, eps_g: float = 1.0):
        """What_pm(y); y may be a scalar or an array of positive reals."""
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(ys <= 0):
            raise PreconditionError("transform argument y must be positive")
        if sign not in (+1, -1):
            raise PreconditionError("sign must be +1 or -1")
        if sign == +1:
            kernel, front = self.kernel_plus, self.front_plus
        else:
            kernel, front = self.kernel_minus, self.front_minus * eps_g
            if kernel is None:
                return np.zeros(ys.shape, dtype=complex) if ys.shape else 0.0 + 0.0j
        vals = np.empty(len(ys), dtype=complex)
        if self.holomorphic:
            near = ys < self.Y_SPLIT
            if np.any(near):
                vals[near] = self._eval_contour(ys[near], kernel, front)
            if np.any(~near):
                vals[~near] = self._eval_bessel(ys[~near])
        else:
            vals[:] = self._eval_contour(ys, kernel, front)
        if np.ndim(y) == 0:
            return complex(vals[0])
        return vals


def what_transform(
    kind: GammaFactorKind,
    window: SmoothWindow,
    y: float,
    sign: int,
    eps_g: float = 1.0,
    sigma: Optional[float] = None,
    tau_max: float = 2000.0,
) -> complex:
    """One-off What_pm(y). For sums over many y build a WhatTransform."""
    if kind.family == "holomorphic" and sign == -1:
        return 0.0 + 0.0j
    transform = WhatTransform(kind, window, sigma=sigma, tau_max=tau_max, y_max=max(4 * y, 10.0))
    return transform.eval(y, sign=sign, eps_g=eps_g)


def dual_sum_length(scale: float, c: int, level: int = 1, y_deep: float = DEFAULT_Y_DEEP) -> int:
    """Dual-sum terms n that reach y = n N / (M c^2) ~ y_deep (at least 400)."""
    return max(400, int(math.ceil(y_deep * level * c**2 / scale)))


@dataclass
class VoronoiInstance:
    """One concrete identity check: which form, twist a/c, scaling N, window."""

    form: CuspForm
    a: int
    c: int
    window: SmoothWindow
    scale: float  # N
    sigma: Optional[float] = None
    tau_max: float = 2000.0
    n_cut_rhs: Optional[int] = None
    y_deep: float = DEFAULT_Y_DEEP

    def __post_init__(self):
        if self.c < 1:
            raise PreconditionError("modulus c must be positive")
        if math.gcd(self.a, self.c) != 1:
            raise PreconditionError(f"need gcd(a, c) = 1, got ({self.a}, {self.c})")
        if math.gcd(self.c, self.form.level) != 1:
            raise PreconditionError("need gcd(c, M) = 1")

    def wanted_n_cut(self) -> int:
        """The dual-sum length that reaches y_deep, before any cap."""
        if self.n_cut_rhs is not None:
            return self.n_cut_rhs
        return dual_sum_length(self.scale, self.c, self.form.level, self.y_deep)

    def resolved_n_cut(self) -> int:
        """wanted_n_cut(), capped at the stored coefficients unless given."""
        if self.n_cut_rhs is not None:
            return self.n_cut_rhs
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
    a_supp, b_supp = inst.window.support
    n_lo = max(1, int(math.floor(a_supp * inst.scale)))
    n_hi = int(math.ceil(b_supp * inst.scale))
    form = inst.form
    if n_hi > form.n_max:
        raise PreconditionError(f"need coefficients to {n_hi}, stored {form.n_max}")
    ns = np.arange(n_lo, n_hi + 1)
    phases = unit_phases(inst.a * ns, inst.c)
    return complex(np.sum(form.lam_slice(n_hi)[n_lo - 1 :] * phases * inst.window(ns / inst.scale)))


def dual_side(
    inst: VoronoiInstance, transform: Optional[WhatTransform] = None, strip_eta: bool = False
) -> Tuple[complex, int, float]:
    """rhs (with the form's eta unless strip_eta) plus term count and tail estimate.

    The tail estimate is the l2 size of the last decade of included terms,
    a proxy for the (sign-cancelling) remainder beyond the cut.
    """
    form = inst.form
    big_m = form.level
    n_cut = inst.resolved_n_cut()
    if transform is None:
        transform = WhatTransform(
            form.kind, inst.window, sigma=inst.sigma, tau_max=inst.tau_max,
            y_max=max(n_cut * inst.scale / (big_m * inst.c**2), 10.0),
        )
    a_bar_m = modular_inverse(inst.a * big_m, inst.c)
    eps_g = form.epsilon_g if form.epsilon_g is not None else 1.0

    ns = np.arange(1, n_cut + 1)
    ys = ns * inst.scale / (big_m * inst.c**2)
    lam = form.lam_slice(n_cut)
    total = 0.0 + 0.0j
    tail = 0.0
    signs = (+1,) if form.kind.family == "holomorphic" else (+1, -1)
    for sign in signs:
        chi_factor = form.chi_at(-sign * inst.c)
        if chi_factor == 0:
            continue
        w_vals = transform.eval(ys, sign=sign, eps_g=eps_g)
        terms = chi_factor * lam * unit_phases(-sign * a_bar_m * ns, inst.c) * w_vals
        total += complex(np.sum(terms))
        last = terms[int(0.9 * n_cut) :]
        tail = max(tail, float(np.sqrt(np.sum(np.abs(last) ** 2))))
    prefactor = (inst.scale / inst.c) / math.sqrt(big_m)
    if not strip_eta:
        if form.eta is None:
            raise PreconditionError(
                "form has no calibrated eta; run calibrate_eta or pass strip_eta=True"
            )
        prefactor *= form.eta
    return prefactor * total, n_cut, tail


def voronoi_check(inst: VoronoiInstance, transform: Optional[WhatTransform] = None) -> VoronoiCheck:
    """Compute both sides independently and their scaled residual."""
    lhs = direct_side(inst)
    rhs, used, tail = dual_side(inst, transform=transform)
    residual = abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
    return VoronoiCheck(
        lhs=lhs, rhs=rhs, residual=residual, rhs_terms=used, tail_estimate=tail,
        n_cut_wanted=inst.wanted_n_cut(),
    )


def calibrate_eta(form: CuspForm, probes, transform: Optional[WhatTransform] = None) -> complex:
    """Fit the modulus-one constant of the dual side over probe instances.

    Solves min_eta sum |lhs_i - eta * rhs0_i|^2 with rhs0 the eta-stripped
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
        rhs0, _, _ = dual_side(inst, transform=transform, strip_eta=True)
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
