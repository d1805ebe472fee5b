"""Delta-method identities and the dual-summation pipeline.

The chain verified here, schematically:

  S(N) = sum_r lambda(r) r^(-it) V(r/N)                      (smoothed sum)
       = sum_{n,r} lambda(n) V(n/N) r^(-it) U(r/N) delta(r=n)
       = S_star(N) + S_flat(N)                               (averaged delta)
  S_c(N) --Voronoi--> --Poisson--> dual sum over (m, r) with the kernel
       I_delta(m, r, c) = (1/2 pi i) int_(1) (sqrt(mN)/(c sqrt(M)))^(-s)
                          Gamma_delta(s) Istar(r, c, s) ds,
       Istar(r, c, s)  = int V(x) Vdag(Kx, 1-s/2) Udag(Nr/c - Kx, 1-it) dx.

The delta symbol detecting r = n is the averaged one,

  (1/P*) sum_{p in PP} (1/p) sum_{alpha mod p} e((r-n) alpha / p)
       * int e(K(r-n)x/N) V(x) dx,

whose alpha sum is an exact divisibility gate, so S_star + S_flat equals the
delta-expanded double sum up to quadrature error only; the gap to the
diagonal S(N) is the finite-size delta-method error and is reported, not
asserted.

The dual side's outer constant is derived here from the dual summation and
Poisson steps (the combination below makes the two representations agree to
the stated tolerances; see dual_identity_check):

  holomorphic:  S_c = (pi i^k eta N^(2-it) / (P* sqrt(M)))
                      sum_p chi(-c)/(p c) sum_m lambda(m)
                      sum_{(r,c)=1} e(-m conj(rM)/c) I_gamma(m, r, c)
  Maass:        same without the i^k, with chi(-c) e(-...)(I_0 - I_1)
                      + chi(c) eps_g e(+...)(I_0 + I_1) inside.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .forms import CuspForm
from .numerics import PanelGrid, modular_inverse, panel_rule, unit_phases
from .oscillate import integrate_1d
from .specialfn import GammaFactorKind, gamma_factor, holomorphic_kind
from .statphase import sharp_weight
from .testfn import SmoothWindow, make_window_u, make_window_v

EPS_RANGE = 0.1  # every t^eps / N^eps range condition is instantiated at 0.1

TWO_PI = 2.0 * math.pi


@functools.lru_cache(maxsize=1)
def _window_v() -> SmoothWindow:
    return make_window_v()


@functools.lru_cache(maxsize=1)
def _window_u() -> SmoothWindow:
    return make_window_u()


def _window_fourier(window: SmoothWindow, theta: float, budget: Optional[int] = None) -> complex:
    """int e(theta x) window(x) dx over the support, in at most `budget` cells.

    Raises BudgetExceededError instead of returning the truncated value of
    an exhausted cell budget, so no caller (or cache) keeps it.
    """
    res = integrate_1d(
        lambda x: window(x), lambda x: theta * x, *window.support, tol=1e-13, budget=budget
    )
    if res.budget_exhausted:
        raise BudgetExceededError(
            f"window Fourier integral at theta = {theta:.6g} exhausted {res.cells} cells"
        )
    return complex(res.value)


@functools.lru_cache(maxsize=4096)
def _fourier_v(theta: float, budget: Optional[int] = None) -> complex:
    """int e(theta x) V(x) dx over the V support (the budget is part of the cache key)."""
    return _window_fourier(_window_v(), theta, budget)


@dataclass
class PipelineConfig:
    """Parameter bundle for the identity checks.

    Range conventions (all with eps = 0.1): q > X^(1+eps) for the single
    modulus delta; min(prime_set) > N^(1+eps)/K for the averaged one; the
    primes are coprime to the form's level. Truncations default to sizes
    with an explicit x8-style safety margin and are meant to be swept
    (doubled) to demonstrate stability, not trusted blindly.
    """

    N: float = 20.0
    t: float = 5.0
    K: float = 3.0
    prime_set: Tuple[int, ...] = ()
    c: int = 1
    X: float = 10.0
    q: int = 13
    tau_cut: Optional[float] = None
    r_cut: Optional[int] = None
    n_cut: Optional[int] = None
    tol: float = 1e-6
    grid_scale: float = 1.0
    eval_budget: float = 2e9

    def resolved_tau_cut(self) -> float:
        # Vdag(Kx, 1 - s/2) has a stationary point inside supp V for
        # |tau| up to 8 pi K x <= 16 pi K; the bump window's derivative
        # constants delay the superpolynomial decay, so the cut sits
        # several band-widths past the edge (verified by doubling sweeps)
        return self.tau_cut if self.tau_cut is not None else 96 * math.pi * abs(self.K) + 100.0

    def resolved_r_cut(self, c: int) -> int:
        if self.r_cut is not None:
            return self.r_cut
        return int(math.ceil(c * (2 * self.K + self.t) / self.N)) + 8

    def resolved_n_cut(self, c: int, level: int = 1) -> int:
        if self.n_cut is not None:
            return self.n_cut
        # the dual mass peaks at m ~ (2K)^2 M c^2 / N where the transform
        # kernel is stationary; the tail past the band decays only like
        # m^(-3.5) at desk scale, so the cut sits far beyond the peak
        return min(int(math.ceil(160 * level * c * c * self.K * self.K / self.N)) + 200, 20000)

    def validate(self, level: int = 1, need_primes: bool = False):
        if self.t <= 2:
            raise PreconditionError("need t > 2")
        if not (0 < self.K < self.N):
            raise PreconditionError("need 0 < K < N")
        if self.q <= self.X ** (1 + EPS_RANGE):
            raise PreconditionError(
                f"q = {self.q} must exceed X^(1+eps) = {self.X ** (1 + EPS_RANGE):.2f}"
            )
        if need_primes:
            if not self.prime_set:
                raise PreconditionError("prime_set is empty")
            floor = self.N ** (1 + EPS_RANGE) / self.K
            if min(self.prime_set) <= floor:
                raise PreconditionError(
                    f"min prime {min(self.prime_set)} must exceed N^(1+eps)/K = {floor:.2f}"
                )
            for p in self.prime_set:
                if math.gcd(p, level) != 1:
                    raise PreconditionError(f"prime {p} shares a factor with the level {level}")


# ---------------------------------------------------------------------------
# the two delta symbols
# ---------------------------------------------------------------------------


def trivial_delta(
    n: int, q: int, X: float, window: Optional[SmoothWindow] = None, budget: Optional[int] = None
) -> complex:
    """Single-modulus delta detector for the event n = 0.

    Exactly [q | n] * int e(n x / X) V(x) dx: the full additive character
    sum over alpha mod q is an integer divisibility gate, evaluated as such
    (so 0 < |n| < q returns complex zero bit-exactly), while the x-integral
    is an oscillatory quadrature in at most `budget` cells. Requires
    q > X^(1+eps).
    """
    if q <= X ** (1 + EPS_RANGE):
        raise PreconditionError(f"q = {q} must exceed X^(1+eps) = {X ** (1 + EPS_RANGE):.2f}")
    if n % q != 0:
        return 0.0 + 0.0j
    return _window_fourier(window or _window_v(), n / X, budget)


def trivial_delta_alpha_sum(
    n: int, q: int, X: float, window: Optional[SmoothWindow] = None, budget: Optional[int] = None
) -> complex:
    """Same quantity with the character sum evaluated numerically (oracle)."""
    v = window or _window_v()
    alpha = np.arange(q)
    gate = np.sum(np.exp(2j * np.pi * ((n * alpha) % q) / q)) / q
    return complex(gate * _window_fourier(v, n / X, budget))


def averaged_delta(r: int, n: int, cfg: PipelineConfig, budget: Optional[int] = None) -> complex:
    """Averaged delta detector for r = n over the prime set.

    Closed form: (#{p in PP : p | r-n} / P*) * int e(K(r-n)x/N) V(x) dx,
    with the x-integral shared across primes. r = n gives exactly 1 (the
    unit-mass window integral is taken as exact there); differences not
    divisible by any prime give complex zero bit-exactly.
    """
    if not cfg.prime_set:
        raise PreconditionError("prime_set is empty")
    d = r - n
    if d == 0:
        return 1.0 + 0.0j
    count = sum(1 for p in cfg.prime_set if d % p == 0)
    if count == 0:
        return 0.0 + 0.0j
    return (count / len(cfg.prime_set)) * _fourier_v(cfg.K * d / cfg.N, budget)


def averaged_delta_alpha_sum(
    r: int, n: int, cfg: PipelineConfig, budget: Optional[int] = None
) -> complex:
    """Averaged delta with every character sum carried out numerically."""
    if not cfg.prime_set:
        raise PreconditionError("prime_set is empty")
    d = r - n
    gate = 0.0 + 0.0j
    for p in cfg.prime_set:
        alpha = np.arange(p)
        gate += np.sum(np.exp(2j * np.pi * ((d * alpha) % p) / p)) / p
    gate /= len(cfg.prime_set)
    integral = 1.0 + 0.0j if d == 0 else _fourier_v(cfg.K * d / cfg.N, budget)
    return gate * integral


# ---------------------------------------------------------------------------
# the smoothed sum and its averaged-delta decomposition
# ---------------------------------------------------------------------------


def s_direct(form: CuspForm, N: float, t: float, window: Optional[SmoothWindow] = None) -> complex:
    """S(N) = sum_r lambda(r) r^(-it) V(r/N); finite by support."""
    v = window or _window_v()
    a, b = v.support
    r_lo = max(1, int(math.floor(a * N)))
    r_hi = int(math.ceil(b * N))
    if r_hi < r_lo:
        return 0.0 + 0.0j
    if r_hi > form.n_max:
        raise PreconditionError(f"need coefficients to {r_hi}, stored {form.n_max}")
    rs = np.arange(r_lo, r_hi + 1, dtype=float)
    vals = form.lam[r_lo - 1 : r_hi] * np.exp(-1j * t * np.log(rs)) * v(rs / N)
    return complex(np.sum(vals))


@dataclass
class SplitResult:
    s_star: complex
    s_flat: complex
    double_sum: complex  # delta-expanded reference, closed-form gates
    residual: float  # |double_sum - (s_star + s_flat)| (bookkeeping + quadrature)
    diagonal: complex  # S(N) proper
    diagonal_gap: float  # |S(N) - double_sum|: finite-size delta-method error


def _index_ranges(form: CuspForm, cfg: PipelineConfig):
    v, u = _window_v(), _window_u()
    n_lo = max(1, int(math.floor(v.support[0] * cfg.N)))
    n_hi = int(math.ceil(v.support[1] * cfg.N))
    r_lo = max(1, int(math.floor(u.support[0] * cfg.N)))
    r_hi = int(math.ceil(u.support[1] * cfg.N))
    if n_hi > form.n_max:
        raise PreconditionError(f"need coefficients to {n_hi}, stored {form.n_max}")
    return (n_lo, n_hi), (r_lo, r_hi)


def _x_rule(cfg: PipelineConfig):
    panels = max(12, int(math.ceil(6 * abs(cfg.K) * cfg.grid_scale)) + 4)
    return panel_rule(1.0, 2.0, panels, 16)


def _amplitudes(form: CuspForm, cfg: PipelineConfig):
    """(ns, lambda(n) V(n/N), rs, r^(-it) U(r/N)) over the index ranges."""
    (n_lo, n_hi), (r_lo, r_hi) = _index_ranges(form, cfg)
    v, u = _window_v(), _window_u()
    ns = np.arange(n_lo, n_hi + 1)
    rs = np.arange(r_lo, r_hi + 1)
    lam_n = form.lam[n_lo - 1 : n_hi] * v(ns / cfg.N)
    amp_r = np.exp(-1j * cfg.t * np.log(rs.astype(float))) * u(rs / cfg.N)
    return ns, lam_n, rs, amp_r


class _Strata:
    """The (alphas, modulus) strata of the delta-expanded S(N) at one config.

    A stratum is sum_alpha int V(x) A(x; alpha) B(x; alpha) dx, with A the
    r-side sum of r^(-it) U(r/N) e(alpha r / modulus + K r x / N) and B the
    n-side sum of lambda(n) V(n/N) e(-alpha n / modulus - K n x / N), so
    each stratum is two matrix products. The x-dependent factors are built
    once per config and shared by every stratum (alpha = 0 mod 1 is the
    flat one).
    """

    def __init__(self, cfg: PipelineConfig, ns, lam_n, rs, amp_r):
        xs, ws = _x_rule(cfg)
        self.ns, self.rs = ns, rs
        # x-dependent oscillation factors with the amplitudes folded in: (r, x) and (n, x)
        self.ar = amp_r[:, None] * np.exp(2j * np.pi * cfg.K / cfg.N * np.outer(rs, xs))
        self.bn = lam_n[:, None] * np.exp(-2j * np.pi * cfg.K / cfg.N * np.outer(ns, xs))
        self.vx = _window_v()(xs) * ws

    def __call__(self, alphas, modulus: int) -> complex:
        er = np.exp(2j * np.pi * np.outer(alphas, self.rs % modulus) / modulus)  # (alpha, r)
        en = np.exp(-2j * np.pi * np.outer(alphas, self.ns % modulus) / modulus)  # (alpha, n)
        return complex(np.sum(self.vx[None, :] * (er @ self.ar) * (en @ self.bn)))


def s_split(form: CuspForm, cfg: PipelineConfig, budget: Optional[int] = None) -> SplitResult:
    """Evaluate S_star + S_flat and compare against the delta-expanded sum.

    S_star runs the nonzero residues alpha mod p with the x-integral kept
    inside, S_flat is the alpha = 0 stratum (see :class:`_Strata`). The
    reference double sum applies the closed-form averaged delta termwise,
    its window Fourier integrals in at most `budget` cells each.
    """
    cfg.validate(level=form.level, need_primes=True)
    (n_lo, n_hi), (r_lo, r_hi) = _index_ranges(form, cfg)
    ns, lam_n, rs, amp_r = _amplitudes(form, cfg)
    pstar = len(cfg.prime_set)
    evaluations = len(_x_rule(cfg)[0]) * (len(ns) + len(rs)) * sum(cfg.prime_set)
    if evaluations > cfg.eval_budget:
        raise BudgetExceededError(f"stratum sums need ~{evaluations:.2e} evaluations")

    strata = _Strata(cfg, ns, lam_n, rs, amp_r)
    s_flat = strata([0], 1) / pstar * sum(1.0 / p for p in cfg.prime_set)
    s_star = sum(strata(np.arange(1, p), p) / p for p in cfg.prime_set) / pstar

    # closed-form reference: group by difference d = r - n
    double = 0.0 + 0.0j
    for d in range(r_lo - n_hi, r_hi - n_lo + 1):
        if d == 0:
            gate = 1.0
            integral = 1.0 + 0.0j
        else:
            count = sum(1 for p in cfg.prime_set if d % p == 0)
            if count == 0:
                continue
            gate = count / pstar
            integral = _fourier_v(cfg.K * d / cfg.N, budget)
        lo = max(n_lo, r_lo - d)
        hi = min(n_hi, r_hi - d)
        if lo > hi:
            continue
        idx = np.arange(lo, hi + 1)
        pair = np.sum(lam_n[idx - n_lo] * amp_r[idx + d - r_lo])
        double += gate * integral * pair

    diagonal = s_direct(form, cfg.N, cfg.t)
    total = s_star + s_flat
    return SplitResult(
        s_star=complex(s_star),
        s_flat=complex(s_flat),
        double_sum=complex(double),
        residual=abs(double - total) / (1.0 + abs(double)),
        diagonal=complex(diagonal),
        diagonal_gap=abs(diagonal - double),
    )


# ---------------------------------------------------------------------------
# dagger kernels on fixed grids
# ---------------------------------------------------------------------------


class DualKernel:
    """Precomputed quadrature tables for Istar / I_delta at fixed (cfg, c).

    Udag values depend on (r, x) but not on s, Vdag values on (x, tau) but
    not on r, so both are tabulated once; each Istar row is then one
    matrix-vector product over the x grid and each I_delta(m, r) a weighted
    dot product over the tau grid. The Vdag table costs n_x * n_u * n_tau
    multiply-adds but only n_u * (tau panels + 16) complex exponentials,
    since the tau grid is a factored :class:`PanelGrid`. Grid densities
    scale with the oscillation rates (~K cycles across supp V for the
    x-integral, O(1) cycles per unit tau).
    """

    def __init__(self, cfg: PipelineConfig, c: int, kind: GammaFactorKind, level: int = 1):
        self.cfg = cfg
        self.c = int(c)
        self.kind = kind
        self.level = level
        self.tau_cut = cfg.resolved_tau_cut()
        v, u = _window_v(), _window_u()
        scale = cfg.grid_scale

        self.x_nodes, self.x_weights = _x_rule(cfg)
        tau_panels = max(24, int(math.ceil(self.tau_cut * scale)))
        self.tau_grid = PanelGrid(-self.tau_cut, self.tau_cut, tau_panels, 16)
        self.tau_nodes, self.tau_weights = self.tau_grid.nodes, self.tau_grid.weights
        self._vdag = None

        # Udag(N r / c - K x, 1 - it) rows, cached per r with row-sized grids
        self._u_support = u.support
        self._udag_rows: Dict[int, np.ndarray] = {}

        self._gamma_cache: Dict[int, np.ndarray] = {}
        self._istar_cache: Dict[int, np.ndarray] = {}
        self.vx = v(self.x_nodes) * self.x_weights

    def _build_tau_tables(self):
        """The Vdag(K x, 1 - s/2) table over (x, tau); built on first use.

        The (x, u) x (u, tau) product dominates the kernel cost, so paths
        that never integrate over tau (istar_value, udag_row) skip it.
        (No conjugate shortcut in tau here: the e(-Kxu) twist keeps its
        sign, so Vdag at -tau is not the mirror of Vdag at +tau.)
        """
        cfg, scale = self.cfg, self.cfg.grid_scale
        v = _window_v()
        va, vb = v.support
        v_cycles = 2 * abs(cfg.K) * (vb - va) + self.tau_cut * math.log(vb / va) / (4 * math.pi)
        v_panels = max(12, int(math.ceil(1.6 * v_cycles * scale)))
        uv, wv = panel_rule(va, vb, v_panels, 16)
        amp_v = wv * v(uv) * uv ** (-0.5)
        t1 = np.exp(-2j * np.pi * cfg.K * np.outer(self.x_nodes, uv)) * amp_v[None, :]
        # u^(-i tau/2) = exp(-i (log u / 2) tau)
        self._vdag = self.tau_grid.sums_at_nodes(t1, 0.5 * np.log(uv))

    @property
    def vdag(self) -> np.ndarray:
        if self._vdag is None:
            self._build_tau_tables()
        return self._vdag

    def udag_row(self, r: int) -> np.ndarray:
        """Udag(N r / c - K x_i, 1 - it) over the x grid.

        Each row carries its own u quadrature sized by that row's maximal
        twist frequency, so large t or large |r| only inflate the rows that
        need it. A row is one `PanelGrid.sums_at_freqs` at the frequencies
        2 pi rho, i.e. (panels + 16) complex exponentials per x node.
        """
        if r not in self._udag_rows:
            cfg = self.cfg
            u = _window_u()
            ua, ub = self._u_support
            rho = cfg.N * r / self.c - cfg.K * self.x_nodes
            cycles = np.max(np.abs(rho)) * (ub - ua) + abs(cfg.t) * math.log(ub / ua) / TWO_PI
            panels = max(16, int(math.ceil(1.6 * cycles * cfg.grid_scale)))
            grid = PanelGrid(ua, ub, panels, 16)
            amp = grid.weights * u(grid.nodes) * np.exp(-1j * cfg.t * np.log(grid.nodes))
            self._udag_rows[r] = grid.sums_at_freqs(TWO_PI * rho, amp)
        return self._udag_rows[r]

    def gamma_on_grid(self, delta: int) -> np.ndarray:
        if delta not in self._gamma_cache:
            if self.kind.family == "holomorphic":
                kind = self.kind
            else:
                kind = GammaFactorKind("maass", ell=self.kind.ell, parity=delta)
            n_tau = len(self.tau_nodes)
            if kind.family == "maass" and abs(complex(kind.ell).imag) > 0:
                vals = gamma_factor(kind, 1.0 + 1j * self.tau_nodes)
            else:
                half = n_tau // 2
                vals = np.empty(n_tau, dtype=complex)
                vals[half:] = gamma_factor(kind, 1.0 + 1j * self.tau_nodes[half:])
                # real spectral data: the factor at 1 - i tau is the conjugate
                vals[:half] = np.conj(vals[n_tau - half :][::-1])
            self._gamma_cache[delta] = vals
        return self._gamma_cache[delta]

    def istar_row(self, r: int) -> np.ndarray:
        """Istar(r, c, 1 + i tau) over the tau grid (x-integral done)."""
        if r not in self._istar_cache:
            self._istar_cache[r] = (self.vx * self.udag_row(r)) @ self.vdag
        return self._istar_cache[r]

    def istar_value(self, r: int, tau: float) -> complex:
        """Istar(r, c, 1 + i tau) at a single tau (fresh Vdag column)."""
        v = _window_v()
        va, vb = v.support
        cycles = 2 * abs(self.cfg.K) * (vb - va) + abs(tau) * math.log(vb / va) / (4 * math.pi)
        panels = max(12, int(math.ceil(1.6 * cycles * self.cfg.grid_scale)))
        uv, wv = panel_rule(va, vb, panels, 16)
        amp = wv * v(uv) * uv ** (-0.5) * np.exp(-0.5j * tau * np.log(uv))
        vdag_col = np.exp(-2j * np.pi * self.cfg.K * np.outer(self.x_nodes, uv)) @ amp
        return complex(np.sum(self.vx * vdag_col * self.udag_row(r)))

    def i_delta(self, n: int, r: int, delta: int) -> complex:
        """I_delta(n, r, c) = (1/2 pi) int (sqrt(nN)/(c sqrt(M)))^(-s)
        Gamma_delta(s) Istar(r, c, s) dtau on Re s = 1."""
        base = math.sqrt(n * self.cfg.N) / (self.c * math.sqrt(self.level))
        power = np.exp(-(1.0 + 1j * self.tau_nodes) * math.log(base))
        vals = self.tau_weights * power * self.gamma_on_grid(delta) * self.istar_row(r)
        return complex(np.sum(vals) / TWO_PI)


def i_delta_direct(
    n: int, r: int, c: int, kind: GammaFactorKind, cfg: PipelineConfig, level: int = 1
) -> Tuple[complex, complex]:
    """(I_0, I_1) for one (n, r, c); holomorphic kinds return (I_gamma, 0).

    One-off convenience wrapper; sweeps over many (n, r) should build a
    DualKernel and reuse it.
    """
    kernel = DualKernel(cfg, c, kind, level=level)
    if kind.family == "holomorphic":
        return kernel.i_delta(n, r, 0), 0.0 + 0.0j
    return kernel.i_delta(n, r, 0), kernel.i_delta(n, r, 1)


def i_star_direct(r: int, c: int, tau: float, cfg: PipelineConfig) -> complex:
    """Istar(r, c, 1 + i tau) by direct nested quadrature."""
    kernel = DualKernel(cfg, c, holomorphic_kind(12))
    return kernel.istar_value(r, tau)


# ---------------------------------------------------------------------------
# stationary-phase main term for Istar
# ---------------------------------------------------------------------------


@dataclass
class StarMainTerm:
    value: complex
    x0: float
    stationary: bool
    band_ok: bool


def i_star_main(r: int, c: int, tau: float, cfg: PipelineConfig) -> StarMainTerm:
    """Explicit stationary-phase main term of Istar(r, c, 1 + i tau).

    Written with every constant explicit: inserting the two dagger
    asymptotics turns Istar into int G(x) e(f(x)) dx with

      f(x)  = [bu (log(bu/(2 pi rho(x))) - 1) + bv (log(bv/(2 pi K x)) - 1)]/(2 pi),
      G(x)  = (2 pi) e(1/4) / (sqrt(-bu) sqrt(-bv))
              * Usharp(1, y(x)) Vsharp(1/2, y(x)) V(x),

    bu = -t, bv = -tau/2, rho(x) = N r / c - K x, y(x) = bu/(2 pi rho(x)),
    and the single interior stationary point x0 = N r tau / ((tau + 2t) K c)
    gives the part-two main term G(x0) e(f(x0) + 1/8) / sqrt(f''(x0)).
    Returns 0 with the flag down when x0 is outside supp V or the dagger
    amplitudes vanish there. Requires K < t^(1-eps) and |tau| inside the
    stationary band (K^(1-eps), K t^eps).
    """
    t, big_k, big_n = cfg.t, cfg.K, cfg.N
    if big_k >= t ** (1 - EPS_RANGE):
        raise PreconditionError("stationary analysis requires K < t^(1-eps)")
    # stationary band (K^(1-eps), 16 pi K): the upper edge is where the
    # second transform loses its own stationary point (u = -tau/(4 pi K x)
    # leaves supp V for every x); the nominal K t^eps edge is replaced by
    # this explicit geometric cap
    band_lo = big_k ** (1 - EPS_RANGE)
    band_hi = 16.0 * math.pi * big_k
    band_ok = band_lo < abs(tau) < band_hi
    if not band_ok:
        raise PreconditionError(
            f"|tau| = {abs(tau):.3g} outside the stationary band ({band_lo:.3g}, {band_hi:.3g})"
        )
    v, u = _window_v(), _window_u()
    x0 = big_n * r * tau / ((tau + 2 * t) * big_k * c)
    va, vb = v.support
    if not (va < x0 < vb):
        return StarMainTerm(value=0.0 + 0.0j, x0=float(x0), stationary=False, band_ok=band_ok)

    rho0 = big_n * r / c - big_k * x0
    bu = -t
    bv = -tau / 2.0
    y0 = bu / (TWO_PI * rho0)  # equals bv/(2 pi K x0) at the stationary point
    ua, ub = u.support
    if not (ua / 2 <= y0 <= 2 * ub):
        return StarMainTerm(value=0.0 + 0.0j, x0=float(x0), stationary=False, band_ok=band_ok)

    phi0 = bu * (math.log(bu / (TWO_PI * rho0)) - 1.0) + bv * (
        math.log(bv / (TWO_PI * big_k * x0)) - 1.0
    )
    phi2 = -t * big_k**2 / rho0**2 - tau / (2 * x0**2)

    g0 = (
        TWO_PI
        * np.exp(0.5j * np.pi)
        / (np.sqrt(complex(-bu)) * np.sqrt(complex(-bv)))
        * complex(sharp_weight(u, 1.0, y0, bu))
        * complex(sharp_weight(v, 0.5, y0, bv))
        * v(x0)
    )
    if phi2 > 0:
        main = g0 * np.exp(1j * phi0) * np.exp(0.25j * np.pi) * math.sqrt(TWO_PI / phi2)
    else:
        main = g0 * np.exp(1j * phi0) * np.exp(-0.25j * np.pi) * math.sqrt(-TWO_PI / phi2)
    return StarMainTerm(value=complex(main), x0=float(x0), stationary=True, band_ok=band_ok)


# ---------------------------------------------------------------------------
# the dual identity
# ---------------------------------------------------------------------------


@dataclass
class DualCheckResult:
    s_c_direct: complex
    s_c_dual: complex
    residual: float
    n_cut: int
    r_cut: int
    tau_cut: float
    stability: Dict[str, float] = field(default_factory=dict)


def s_c_direct(form: CuspForm, cfg: PipelineConfig, c: int) -> complex:
    """S_c(N) from its definition: nonzero residues alpha mod c, both sums
    and the coupling x-integral evaluated directly (c = 1 means the single
    alpha = 0 stratum)."""
    strata = _Strata(cfg, *_amplitudes(form, cfg))
    pstar = max(len(cfg.prime_set), 1)
    if c == 1:
        return strata([0], 1) / pstar * sum(1.0 / p for p in cfg.prime_set or (1,))
    return strata(np.arange(1, c), c) / (pstar * c)


def _dirichlet_class_sums(form: CuspForm, c: int, n_cut: int, grid: PanelGrid):
    """T_b(tau) = sum_{m <= n_cut, m = b mod c} lambda(m) m^(-(1+i tau)/2)
    at the nodes of the tau grid.

    Splitting the dual m-sum by residue class lets the additive twists
    e(-m conj(rM)/c) come out of the tau-integral, so the sums are built
    once for all r. Each class is one (16 x M_b) @ (M_b x panels) product
    on the factored grid: n_cut * (panels + 16) complex exponentials and
    16 * n_cut * panels multiply-adds in all.
    """
    logm = np.log(np.arange(1, n_cut + 1, dtype=float))
    coeffs = form.lam_slice(n_cut) * np.exp(-0.5 * logm)
    t_class = np.zeros((c, len(grid.nodes)), dtype=complex)
    for b in range(c):
        sel = slice((b - 1) % c, n_cut, c)  # index m - 1 of the m = b mod c
        t_class[b] = grid.sums_at_nodes(coeffs[sel], 0.5 * logm[sel])
    return t_class


def s_c_dual(
    form: CuspForm,
    cfg: PipelineConfig,
    c: int,
    kernel: Optional[DualKernel] = None,
    n_cut: Optional[int] = None,
    r_cut: Optional[int] = None,
) -> complex:
    """S_c(N) through the dual (Voronoi + Poisson) representation.

    The m-sum is folded into the tau-integral through residue-class
    Dirichlet partial sums, so the cost is O(n_cut * n_tau) multiply-adds
    (with n_cut * (n_tau / 16 + 16) complex exponentials) plus
    O(r_cut * n_x * n_tau) for the Istar rows, rather than per-(m, r)
    quadratures.
    """
    if form.eta is None:
        raise PreconditionError("form needs a calibrated eta (see voronoi.calibrate_eta)")
    if kernel is None:
        kernel = DualKernel(cfg, c, form.kind, level=form.level)
    pstar = max(len(cfg.prime_set), 1)
    n_cut = n_cut or cfg.resolved_n_cut(c, form.level)
    r_cut = r_cut or cfg.resolved_r_cut(c)
    if n_cut > form.n_max:
        raise PreconditionError(f"n_cut = {n_cut} beyond stored coefficients {form.n_max}")

    # N^(2-it) = N^2 e^{-it log N}
    front = math.pi * form.eta * cfg.N**2 * np.exp(-1j * cfg.t * math.log(cfg.N)) / (
        pstar * math.sqrt(form.level)
    )

    rs = [r for r in range(-r_cut, r_cut + 1) if r != 0 and math.gcd(r, c) == 1]
    inv_rm = {r: modular_inverse(r * form.level, c) for r in rs} if c > 1 else {r: 0 for r in rs}

    taus = kernel.tau_nodes
    t_class = _dirichlet_class_sums(form, c, n_cut, kernel.tau_grid)
    # m-independent part of (sqrt(mN)/(c sqrt(M)))^(-s) on Re s = 1
    base = math.sqrt(cfg.N) / (c * math.sqrt(form.level))
    pref = kernel.tau_weights * np.exp(-(1.0 + 1j * taus) * math.log(base)) / TWO_PI

    chi_minus = form.chi_at(-c)
    chi_plus = form.chi_at(c)
    eps_g = form.epsilon_g if form.epsilon_g is not None else 1.0
    holo = form.kind.family == "holomorphic"
    gam0 = kernel.gamma_on_grid(0)
    gam1 = None if holo else kernel.gamma_on_grid(1)
    bs = np.arange(c)

    total = 0.0 + 0.0j
    for r in rs:
        istar = kernel.istar_row(r)
        if holo:
            # (i^(k-1)/2) from the plus-transform and ds = i dtau give i^k pi
            twist = unit_phases(-inv_rm[r] * bs, c)
            d_r = twist @ t_class
            total += chi_minus * (1j**form.kind.weight) * np.sum(pref * gam0 * istar * d_r)
        else:
            d_minus = unit_phases(-inv_rm[r] * bs, c) @ t_class
            d_plus = unit_phases(+inv_rm[r] * bs, c) @ t_class
            total += chi_minus * np.sum(pref * (gam0 - gam1) * istar * d_minus)
            total += chi_plus * eps_g * np.sum(pref * (gam0 + gam1) * istar * d_plus)
    # S_star stratum weight: the single prime contributes 1/(p c) = 1/c^2
    total /= c * c
    return complex(front * total)


def dual_identity_check(form: CuspForm, cfg: PipelineConfig, sweep: bool = True) -> DualCheckResult:
    """Compare S_c computed both ways for c = the configured prime.

    The stability entries record how much the dual side moves when each
    truncation is halved (n_cut, r_cut) or when the grids are refined; a
    trustworthy residual must dominate those movements.
    """
    if cfg.c <= 1:
        raise PreconditionError("dual_identity_check needs c = a prime from the prime set")
    if cfg.prime_set and cfg.c not in cfg.prime_set:
        raise PreconditionError("c must belong to the prime set")
    cfg.validate(level=form.level, need_primes=True)
    c = cfg.c
    kernel = DualKernel(cfg, c, form.kind, level=form.level)
    direct = s_c_direct(form, cfg, c)
    n_cut = cfg.resolved_n_cut(c, form.level)
    r_cut = cfg.resolved_r_cut(c)
    dual = s_c_dual(form, cfg, c, kernel=kernel, n_cut=n_cut, r_cut=r_cut)
    residual = abs(direct - dual) / max(abs(direct), 1e-30)
    stability = {}
    if sweep:
        scale = max(abs(direct), 1e-30)
        n_double = min(2 * n_cut, form.n_max)
        dual_n = s_c_dual(form, cfg, c, kernel=kernel, n_cut=n_double, r_cut=r_cut)
        dual_r = s_c_dual(form, cfg, c, kernel=kernel, n_cut=n_cut, r_cut=2 * r_cut)
        stability["double_n_cut"] = abs(dual - dual_n) / scale
        stability["double_r_cut"] = abs(dual - dual_r) / scale
        tau_cfg = replace(cfg, tau_cut=2 * cfg.resolved_tau_cut())
        tau_kernel = DualKernel(tau_cfg, c, form.kind, level=form.level)
        dual_tau = s_c_dual(form, tau_cfg, c, kernel=tau_kernel, n_cut=n_cut, r_cut=r_cut)
        stability["double_tau_cut"] = abs(dual - dual_tau) / scale
        fine_cfg = replace(cfg, grid_scale=cfg.grid_scale * 1.5)
        fine_kernel = DualKernel(fine_cfg, c, form.kind, level=form.level)
        dual_fine = s_c_dual(form, fine_cfg, c, kernel=fine_kernel, n_cut=n_cut, r_cut=r_cut)
        stability["refine_grids"] = abs(dual - dual_fine) / scale
    return DualCheckResult(
        s_c_direct=direct,
        s_c_dual=dual,
        residual=float(residual),
        n_cut=n_cut,
        r_cut=r_cut,
        tau_cut=kernel.tau_cut,
        stability=stability,
    )
