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

  S_c = (pi eta N^(2-it) / (P* sqrt(M))) sum_p 1/(p c) sum_(rows) 2i front
        sum_m conj(lambda(m)) sum_{(r,c)=1} w_sign(m; r) I_kernel(m, r, c),

over the rows (sign, front, kernel) of :func:`weyldelta.voronoi.dual_terms`, with
I_kernel the I_delta of the row's kernel (2i front = i^k for weight k), the dual
form's coefficients conj(lambda(m)) (:meth:`CuspForm.dual_lam_slice`) and the
form's weight w_sign(m; r) = chi(-sign c) eps_g^[sign = -1] e(-sign m conj(rM)/c),
which lives in :func:`weyldelta.voronoi.term_weight` alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .forms import CuspForm
from .numerics import PanelGrid, chebyshev_interpolant, chebyshev_size, unit_phases
from .oscillate import integrate_1d
from .specialfn import GammaFactorKind, gamma_factor
from .statphase import sharp_weight
from .testfn import WINDOW_U, WINDOW_V
from .voronoi import dual_terms, term_weight

EPS_RANGE = 0.1  # every t^eps / N^eps range condition is instantiated at 0.1

TWO_PI = 2.0 * math.pi

X_RANGE = WINDOW_V.support  # the x-integral's interval


def _window_fourier(theta: float, budget: Optional[int] = None) -> complex:
    """int e(theta x) V(x) dx over supp V, in at most `budget` cells.

    An unconverged value raises (see OscillatoryResult.converged), so no
    caller (or cache) keeps it.
    """
    res = integrate_1d(WINDOW_V, lambda x: theta * x, *X_RANGE, tol=1e-13, budget=budget)
    return complex(res.converged(f"window Fourier integral at theta = {theta:.6g}"))


@functools.lru_cache(maxsize=4096)
def _fourier_v(theta: float, budget: Optional[int] = None) -> complex:
    """int e(theta x) V(x) dx over the V support (the budget is part of the cache key).
    V is real, so a negative theta reads its positive twin's conjugate, bit for bit."""
    if theta < 0:
        return _fourier_v(-theta, budget).conjugate()
    return _window_fourier(theta, budget)


@dataclass
class PipelineConfig:
    """Parameter bundle for the identity checks.

    Range conventions (with eps = 0.1): min(prime_set) > N^(1+eps)/K for
    the averaged delta, and the primes are coprime to the form's level.
    Truncations default to sizes with an explicit x8-style safety margin
    and are meant to be swept (doubled) to demonstrate stability, not
    trusted blindly.
    """

    N: float = 20.0
    t: float = 5.0
    K: float = 3.0
    prime_set: Tuple[int, ...] = ()
    c: int = 1
    tau_cut: Optional[float] = None
    r_cut: Optional[int] = None
    n_cut: Optional[int] = None
    grid_scale: float = 1.0
    eval_budget: float = 2e9

    def resolved_tau_cut(self) -> float:
        # Vdag(Kx, 1 - s/2) has a stationary point inside supp V for
        # |tau| up to 8 pi K x <= 16 pi K; the bump window's derivative
        # constants delay the superpolynomial decay, so the cut sits
        # several band-widths past the edge (verified by doubling sweeps)
        return self.tau_cut if self.tau_cut is not None else 96 * math.pi * abs(self.K) + 100.0

    def resolved_r_cut(self) -> int:
        if self.r_cut is not None:
            return self.r_cut
        return int(math.ceil(self.c * (2 * self.K + self.t) / self.N)) + 8

    def resolved_n_cut(self, level: int = 1) -> int:
        if self.n_cut is not None:
            return self.n_cut
        # the dual mass peaks at m ~ (2K)^2 M c^2 / N where the transform
        # kernel is stationary; the tail past the band decays only like
        # m^(-3.5) at desk scale, so the cut sits far beyond the peak
        return int(math.ceil(160 * level * self.c * self.c * self.K * self.K / self.N)) + 200

    def validate(self, level: int = 1):
        if self.t <= 2:
            raise PreconditionError("need t > 2")
        if not (0 < self.K < self.N):
            raise PreconditionError("need 0 < K < N")
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


def trivial_delta(n: int, q: int, X: float, budget: Optional[int] = None) -> complex:
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
    return _window_fourier(n / X, budget)


@functools.lru_cache(maxsize=16)
def _gate_table(moduli: Tuple[int, ...]):
    """The residues alpha of every q in `moduli` end to end, each with its q, modulus
    index and block start, and the roots e(alpha / q) alongside; all read-only."""
    q_each = np.asarray(moduli)
    starts, owner = np.cumsum(q_each) - q_each, np.repeat(np.arange(q_each.size), q_each)
    base, q = starts[owner], q_each[owner]
    alpha = np.arange(q.size) - base
    table = (q_each, starts, owner, base, q, alpha, np.exp(2j * np.pi * alpha / q))
    for array in table:
        array.setflags(write=False)
    return table


def _character_gates(d: int, moduli) -> np.ndarray:
    """(1/q) sum_{alpha mod q} e(d alpha / q) for each q in `moduli`, summed
    numerically in one pass over all their residues: the oracle of [q | d].
    d is reduced mod each q in exact integers first, so no product wraps."""
    q_each, starts, owner, base, q, alpha, roots = _gate_table(tuple(moduli))
    d_mod = np.array([d % int(p) for p in q_each])
    return np.add.reduceat(roots[base + (d_mod[owner] * alpha) % q], starts) / q_each


def trivial_delta_alpha_sum(n: int, q: int, X: float, budget: Optional[int] = None) -> complex:
    """Same quantity with the character sum evaluated numerically (oracle)."""
    return complex(_character_gates(n, (q,))[0] * _window_fourier(n / X, budget))


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
    gate = np.sum(_character_gates(d, cfg.prime_set)) / len(cfg.prime_set)
    integral = 1.0 + 0.0j if d == 0 else _fourier_v(cfg.K * d / cfg.N, budget)
    return gate * integral


# ---------------------------------------------------------------------------
# the smoothed sum and its averaged-delta decomposition
# ---------------------------------------------------------------------------


def s_direct(form: CuspForm, N: float, t: float) -> complex:
    """S(N) = sum_r lambda(r) r^(-it) V(r/N); finite by support."""
    rs = WINDOW_V.indices(N)
    vals = form.lam_slice(rs[-1])[rs[0] - 1 :] * np.exp(-1j * t * np.log(rs)) * WINDOW_V(rs / N)
    return complex(np.sum(vals))


@dataclass
class SplitResult:
    s_star: complex
    s_flat: complex
    double_sum: complex  # delta-expanded reference, closed-form gates
    residual: float  # |double_sum - (s_star + s_flat)| (bookkeeping + quadrature)
    diagonal_gap: float  # |S(N) - double_sum|: finite-size delta-method error


def _x_rule(cfg: PipelineConfig) -> PanelGrid:
    panels = max(12, int(math.ceil(6 * abs(cfg.K) * cfg.grid_scale)) + 4)
    return PanelGrid(*X_RANGE, panels)


def _v_rule(cfg: PipelineConfig, tau_max: float) -> PanelGrid:
    """The u rule over supp V of Vdag(K x, 1 - s/2), |Im s| <= tau_max: 1.6 panels
    per cycle of e(-K x u) u^(-i tau/2)."""
    va, vb = WINDOW_V.support
    cycles = 2 * abs(cfg.K) * (vb - va) + tau_max * math.log(vb / va) / (4 * math.pi)
    return PanelGrid(va, vb, max(12, int(math.ceil(1.6 * cycles * cfg.grid_scale))))


U_PANELS_MIN = 80  # the u rule's floor, which U's ramps need at small |rho| (see _u_rule)


def _u_rule(cfg: PipelineConfig, rho_max: float):
    """The u rule over supp U of Udag(rho, 1 - it), |rho| <= rho_max, and its
    amplitudes weight * U(u) u^(-it): 1.6 panels per cycle of e(-rho u) u^(-it),
    and at least U_PANELS_MIN.

    U's ramps are bumps squeezed onto half a unit each, so a rule that counts
    oscillation only is short at small |rho|: at (N, t, K, c) = (20, 5, 3, 11),
    with a floor of 16 panels, it gave the rows r = 1 ... 7 16 to 34 panels,
    and r = 5 (22 panels) sat 6.7e-8 of its own maximum (2.8e-10 of the
    largest row's) off a 1280-panel rule. A floor of 60 panels or more puts
    every one of them at rounding, 1.9e-15 of the largest row's maximum.
    """
    ua, ub = WINDOW_U.support
    cycles = rho_max * (ub - ua) + abs(cfg.t) * math.log(ub / ua) / TWO_PI
    panels = max(U_PANELS_MIN, int(math.ceil(1.6 * cycles * cfg.grid_scale)))
    grid = PanelGrid(ua, ub, panels, 16)
    return grid, grid.weights * WINDOW_U(grid.nodes) * np.exp(-1j * cfg.t * np.log(grid.nodes))


def _amplitudes(form: CuspForm, cfg: PipelineConfig):
    """(ns, lambda(n) V(n/N), rs, r^(-it) U(r/N)) over the windows' index ranges."""
    ns, rs = WINDOW_V.indices(cfg.N), WINDOW_U.indices(cfg.N)
    lam_n = form.lam_slice(ns[-1])[ns[0] - 1 :] * WINDOW_V(ns / cfg.N)
    amp_r = np.exp(-1j * cfg.t * np.log(rs.astype(float))) * WINDOW_U(rs / cfg.N)
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
        x_grid = _x_rule(cfg)
        xs = x_grid.nodes
        self.ns, self.rs = ns, rs
        # x-dependent oscillation factors with the amplitudes folded in: (r, x) and (n, x)
        self.ar = amp_r[:, None] * np.exp(2j * np.pi * cfg.K / cfg.N * np.outer(rs, xs))
        self.bn = lam_n[:, None] * np.exp(-2j * np.pi * cfg.K / cfg.N * np.outer(ns, xs))
        self.vx = WINDOW_V(xs) * x_grid.weights

    def __call__(self, alphas, modulus: int) -> complex:
        # alpha r is reduced mod the modulus in integers, so no angle passes 2 pi
        er = unit_phases(np.outer(alphas, self.rs), modulus)  # (alpha, r)
        en = unit_phases(-np.outer(alphas, self.ns), modulus)  # (alpha, n)
        return complex(np.sum(self.vx[None, :] * (er @ self.ar) * (en @ self.bn)))


def s_split(form: CuspForm, cfg: PipelineConfig, budget: Optional[int] = None) -> SplitResult:
    """Evaluate S_star + S_flat and compare against the delta-expanded sum.

    S_star runs the nonzero residues alpha mod p with the x-integral kept
    inside, S_flat is the alpha = 0 stratum (see :class:`_Strata`). The
    reference double sum applies the closed-form averaged delta termwise,
    its window Fourier integrals in at most `budget` cells each.
    """
    cfg.validate(level=form.level)
    ns, lam_n, rs, amp_r = _amplitudes(form, cfg)
    (n_lo, n_hi), (r_lo, r_hi) = (ns[0], ns[-1]), (rs[0], rs[-1])
    pstar = len(cfg.prime_set)
    evaluations = len(_x_rule(cfg).nodes) * (len(ns) + len(rs)) * sum(cfg.prime_set)
    if evaluations > cfg.eval_budget:
        raise BudgetExceededError(f"stratum sums need ~{evaluations:.2e} evaluations")

    strata = _Strata(cfg, ns, lam_n, rs, amp_r)
    s_flat = strata([0], 1) / pstar * sum(1.0 / p for p in cfg.prime_set)
    s_star = sum(strata(np.arange(1, p), p) / p for p in cfg.prime_set) / pstar

    # closed-form reference: group by difference d = r - n
    double = 0.0 + 0.0j
    for d in range(r_lo - n_hi, r_hi - n_lo + 1):
        delta = averaged_delta(d, 0, cfg, budget)
        if delta == 0:
            continue
        idx = np.arange(max(n_lo, r_lo - d), min(n_hi, r_hi - d) + 1)
        double += delta * np.sum(lam_n[idx - n_lo] * amp_r[idx + d - r_lo])

    diagonal = s_direct(form, cfg.N, cfg.t)
    total = s_star + s_flat
    return SplitResult(
        s_star=complex(s_star),
        s_flat=complex(s_flat),
        double_sum=complex(double),
        residual=abs(double - total) / (1.0 + abs(double)),
        diagonal_gap=abs(diagonal - double),
    )


# ---------------------------------------------------------------------------
# dagger kernels on fixed grids
# ---------------------------------------------------------------------------


class DualKernel:
    """Precomputed quadrature tables for Istar at fixed cfg, whose c is the modulus.

    Istar(r, c, 1 + i tau) = a_r @ vdag_cheb: Vdag depends on (x, tau) but
    not on r, and is kept as m Chebyshev rows over tau (m = 35 at K = 3; see
    :meth:`_build_tau_tables`); Udag depends on (r, x) but not on tau, and
    the x-integral of V Udag against the Chebyshev basis is the m-long row
    a_r of :meth:`x_rows`, all r from one u rule. So :func:`s_c_dual` never
    forms an Istar row over tau: it contracts tau once per dual term into
    an (m x c) matrix and r once into the (R x m) rows. The Vdag table
    costs about m * (n_u * R' * m_tau + m_tau * n_tau) multiply-adds, with
    R' runs of m_tau <= 60 points. Grid densities scale with the oscillation
    rates (~K cycles across supp V for the x-integral, O(1) cycles per unit tau).
    :meth:`istar_row` and :meth:`istar_value` (per-row u rules, Istar over
    tau or at one tau) are the oracles.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.c = int(cfg.c)
        self.tau_cut = cfg.resolved_tau_cut()
        x_grid = _x_rule(cfg)
        self.x_nodes = x_grid.nodes
        tau_panels = max(24, int(math.ceil(self.tau_cut * cfg.grid_scale)))
        self.tau_grid = PanelGrid(-self.tau_cut, self.tau_cut, tau_panels, 16)
        self.tau_nodes, self.tau_weights = self.tau_grid.nodes, self.tau_grid.weights
        self._vdag_cheb = None
        self._interp = None
        self._gamma_cache: Dict[GammaFactorKind, np.ndarray] = {}
        self.vx = WINDOW_V(self.x_nodes) * x_grid.weights

    def _build_tau_tables(self):
        """The Vdag(K x, 1 - s/2) tables, as Chebyshev rows; built on first use.

        The x-dependence of Vdag is sum_u amp(u) e^(-2 pi i K x u) u^(-i tau/2)
        with u in supp V = [va, vb]. Without the carrier e^(-2 pi i K uc x),
        uc = (va + vb)/2, what is left has bandwidth
        omega = pi |K| (xb - xa)(vb - va)/2 on [xa, xb] = X_RANGE, so it is
        tabulated on m = chebyshev_size(omega) Chebyshev points (35 at
        K = 3) and carried to the Gauss x nodes by one barycentric matrix
        that also puts the carrier back. Over tau, u^(-i tau/2) keeps the
        rows band-limited to frequencies log(u)/2 in [0, log(vb/va)/2], far
        narrower than the tau grid, which is sized for the class sums, so
        :meth:`PanelGrid.band_sums_at_nodes` reads them from Chebyshev
        points on runs of tau panels: one (m x n_u) x (n_u x R m_tau) GEMM
        for the samples and one shared barycentric block to the nodes,
        about (n_u R + n_tau) m_tau multiply-adds a row (R = 7 runs of
        m_tau = 60 points on the 1200-panel grid of a tau_cut of 1200).
        Paths that never integrate over tau (istar_value, udag_row) skip the
        table. (No conjugate shortcut in tau here: the e(-Kxu) twist keeps its
        sign, so Vdag at -tau is not the mirror of Vdag at +tau.)
        """
        cfg = self.cfg
        v_grid = _v_rule(cfg, self.tau_cut)
        uv = v_grid.nodes
        amp_v = v_grid.weights * WINDOW_V(uv) * uv ** (-0.5)
        va, vb = WINDOW_V.support
        xa, xb = X_RANGE
        uc = 0.5 * (va + vb)
        omega = math.pi * abs(cfg.K) * (xb - xa) * (vb - va) / 2
        xi, interp = chebyshev_interpolant(xa, xb, chebyshev_size(omega), self.x_nodes)
        demod = np.exp(-2j * np.pi * cfg.K * np.outer(xi, uv - uc)) * amp_v[None, :]
        # u^(-i tau/2) = exp(-i (log u / 2) tau)
        self._vdag_cheb = self.tau_grid.band_sums_at_nodes(demod, 0.5 * np.log(uv))
        self._interp = np.exp(-2j * np.pi * cfg.K * uc * self.x_nodes)[:, None] * interp

    def _tau_tables(self):
        """(interp, vdag_cheb): Vdag over (x, tau) is interp @ vdag_cheb."""
        if self._vdag_cheb is None:
            self._build_tau_tables()
        return self._interp, self._vdag_cheb

    def udag_row(self, r: int) -> np.ndarray:
        """Udag(N r / c - K x_i, 1 - it) over the x grid, for :meth:`istar_value`
        and the oracles of :meth:`x_rows`.

        The row carries its own u rule (:func:`_u_rule`), sized by its
        maximal twist frequency, so large t or large |r| only inflate the
        rows that need it; the rule's floor keeps the small-|r| rows of
        (N, t, K, c) = (20, 5, 3, 11) within 1.9e-15 of the largest row's
        maximum off a converged rule (2.8e-10 with a 16-panel floor). A row
        is one `PanelGrid.sums_at_freqs` at the frequencies 2 pi rho, about
        2 sqrt(panels) + 16 complex exponentials per x node.
        """
        cfg = self.cfg
        rho = cfg.N * r / self.c - cfg.K * self.x_nodes
        grid, amp = _u_rule(cfg, float(np.max(np.abs(rho))))
        return grid.sums_at_freqs(TWO_PI * rho, amp)

    def x_rows(self, rs) -> np.ndarray:
        """The rows a_r = (vx * Udag_r) @ interp for every r in `rs`, shape (len(rs), m):
        Istar(r, c, 1 + i tau) = a_r @ vdag_cheb.

        Udag_r(x) = sum_u amp(u) e(-N r u / c) e(K x u), so a_r is
        sum_u amp(u) e(-N r u / c) B[u], with B[u] = sum_x e(K x u) vx(x)
        interp[x] the same for every r, on one u rule (:func:`_u_rule`)
        sized at max |rho| over rs and the x nodes. B's band in u is
        2 pi K X_RANGE, narrow next to the rule's panels, so B is one
        :meth:`PanelGrid.band_sums_at_nodes` (n_x frequencies, m rows, one
        run of about 40 Chebyshev points at K = 3), and the rows are one
        `sums_at_freqs` at the frequencies 2 pi N r / c over m columns:
        R (2 sqrt(panels) + 16) exponentials and R n_u m multiply-adds. The
        small-|r| rows ride on the large-|r| rule: the dual side sits within
        4.2e-13 of a 4x finer rule on the dual workload's grid and 1.9e-13
        on criterion 7's base grid.
        """
        cfg = self.cfg
        interp, _ = self._tau_tables()
        rs = np.asarray(rs, dtype=float)
        rho = cfg.N * rs[:, None] / self.c - cfg.K * self.x_nodes[None, :]
        grid, amp = _u_rule(cfg, float(np.max(np.abs(rho), initial=0.0)))
        # B[u] as m rows over the u nodes; e(K x u) = exp(-i (-2 pi K x) u)
        weighted = (self.vx[:, None] * interp).T
        band = grid.band_sums_at_nodes(weighted, -TWO_PI * cfg.K * self.x_nodes)
        return grid.sums_at_freqs(TWO_PI * cfg.N * rs / self.c, amp[:, None] * band.T)

    def gamma_on_grid(self, kind: GammaFactorKind) -> np.ndarray:
        """gamma_factor(kind, 1 + i tau) over the tau grid, cached by kind."""
        if kind not in self._gamma_cache:
            half = len(self.tau_nodes) // 2
            upper = gamma_factor(kind, 1.0 + 1j * self.tau_nodes[half:])
            # real or imaginary spectral data: the factor at 1 - i tau is the conjugate
            lower = upper[len(upper) - half :][::-1].conj()
            self._gamma_cache[kind] = np.concatenate((lower, upper))
        return self._gamma_cache[kind]

    def istar_row(self, r: int) -> np.ndarray:
        """Istar(r, c, 1 + i tau) over the tau grid, from the row's own u rule
        (:meth:`udag_row`): the per-row oracle of :func:`s_c_dual`'s contraction.

        The x-integral runs on the Gauss nodes and is then mapped to the
        Chebyshev rows: (n_x) @ (n_x x m), then (m) @ (m x n_tau). Not cached.
        """
        interp, vdag_cheb = self._tau_tables()
        return ((self.vx * self.udag_row(r)) @ interp) @ vdag_cheb

    def istar_value(self, r: int, tau: float) -> complex:
        """Istar(r, c, 1 + i tau) at a single tau, by direct nested quadrature.

        The Vdag column is a fresh u-sum at every x node: one
        `PanelGrid.sums_at_freqs` at the frequencies 2 pi K x, so no
        (n_x x n_u) table of exponentials is formed.
        """
        v_grid = _v_rule(self.cfg, abs(tau))
        uv = v_grid.nodes
        amp = v_grid.weights * WINDOW_V(uv) * uv ** (-0.5) * np.exp(-0.5j * tau * np.log(uv))
        vdag_col = v_grid.sums_at_freqs(TWO_PI * self.cfg.K * self.x_nodes, amp)
        return complex(np.sum(self.vx * vdag_col * self.udag_row(r)))


# ---------------------------------------------------------------------------
# stationary-phase main term for Istar
# ---------------------------------------------------------------------------


@dataclass
class StarMainTerm:
    value: complex
    x0: float
    stationary: bool


def i_star_main(r: int, tau: float, cfg: PipelineConfig) -> StarMainTerm:
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
    t, big_k, big_n, c = cfg.t, cfg.K, cfg.N, cfg.c
    if big_k >= t ** (1 - EPS_RANGE):
        raise PreconditionError("stationary analysis requires K < t^(1-eps)")
    # stationary band (K^(1-eps), 16 pi K): the upper edge is where the
    # second transform loses its own stationary point (u = -tau/(4 pi K x)
    # leaves supp V for every x); the nominal K t^eps edge is replaced by
    # this explicit geometric cap
    band_lo = big_k ** (1 - EPS_RANGE)
    band_hi = 16.0 * math.pi * big_k
    if not band_lo < abs(tau) < band_hi:
        raise PreconditionError(
            f"|tau| = {abs(tau):.3g} outside the stationary band ({band_lo:.3g}, {band_hi:.3g})"
        )
    v, u = WINDOW_V, WINDOW_U
    x0 = big_n * r * tau / ((tau + 2 * t) * big_k * c)
    va, vb = v.support
    if not (va < x0 < vb):
        return StarMainTerm(value=0.0 + 0.0j, x0=float(x0), stationary=False)

    rho0 = big_n * r / c - big_k * x0
    bu = -t
    bv = -tau / 2.0
    y0 = bu / (TWO_PI * rho0)  # equals bv/(2 pi K x0) at the stationary point
    ua, ub = u.support
    if not (ua / 2 <= y0 <= 2 * ub):
        return StarMainTerm(value=0.0 + 0.0j, x0=float(x0), stationary=False)

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
    return StarMainTerm(value=complex(main), x0=float(x0), stationary=True)


# ---------------------------------------------------------------------------
# the dual identity
# ---------------------------------------------------------------------------


@dataclass
class DualCheckResult:
    s_c_direct: complex
    s_c_dual: complex
    residual: float
    stability: Dict[str, float] = field(default_factory=dict)
    doubled_n_cut: Optional[int] = None  # the n_cut of the double_n_cut entry
    n_cut_capped: bool = False  # that doubling stopped at the stored coefficients


def s_c_direct(form: CuspForm, cfg: PipelineConfig) -> complex:
    """S_c(N) from its definition at the prime c = cfg.c of the prime set: the
    nonzero residues alpha mod c, both sums and the coupling x-integral directly."""
    strata = _Strata(cfg, *_amplitudes(form, cfg))
    return strata(np.arange(1, cfg.c), cfg.c) / (len(cfg.prime_set) * cfg.c)


def _dirichlet_class_sums(form: CuspForm, c: int, n_cut: int, grid: PanelGrid):
    """T_b(tau) = sum_{m <= n_cut, m = b mod c} conj(lambda(m)) m^(-(1+i tau)/2)
    at the nodes of the tau grid: the dual form's coefficients.

    Splitting the dual m-sum by residue class lets the additive twists
    e(-m conj(rM)/c) come out of the tau-integral, so the sums are built
    once for all r. All c classes are one `PanelGrid.class_sums_at_nodes`:
    a type-1 NUFFT of the n_cut terms onto uniform tau points, four a
    panel, and one shared sinc block from those points to the Gauss nodes.
    On criterion 7's base grid (n_cut 30000, 1500 panels, c = 11) the sums
    read within 5e-13 of max|T| of a `sums_at_nodes` per class (1.5e-12 on
    the refined grid).
    """
    logm = np.log(np.arange(1, n_cut + 1, dtype=float))
    coeffs = form.dual_lam_slice(n_cut) * np.exp(-0.5 * logm)
    return grid.class_sums_at_nodes(coeffs, 0.5 * logm, np.arange(1, n_cut + 1) % c, c)


def s_c_dual(form: CuspForm, cfg: PipelineConfig, kernel: DualKernel, n_cut: int, r_cut: int) -> complex:
    """S_c(N) through the dual (Voronoi + Poisson) representation, at c = cfg.c.

    One pass sums every row of :func:`weyldelta.voronoi.dual_terms`, each
    with the outer factor 2i front and the form's weight,
    :func:`weyldelta.voronoi.term_weight` at the twist r/c on the residues
    b mod c. The m-sum is folded into the tau-integral through residue-class
    Dirichlet partial sums T (:func:`_dirichlet_class_sums`), and neither r
    nor tau is iterated over the other's long axis: with Istar(r, 1 + i tau)
    = a_r @ vdag_cheb (:meth:`DualKernel.x_rows`), a term's tau-integral
    sum_tau pref gamma Istar(r) (w_r @ T) is a_r @ M @ w_r, where the
    (m x c) matrix M = vdag_cheb @ (T pref gamma)^t is one GEMM per term.
    The cost is the class sums (about 28 n_cut spread products, c FFTs of
    about n_tau / 2 points and 2 c n_tau (4 + 2n) real multiply-adds, n
    about 30), m c n_tau complex multiply-adds a term for M and one u rule
    for all R rows a_r. The class sums read within 1.5e-12 of max|T| of a
    `sums_at_nodes` per class, and the dual side within 1e-12 of per-row
    :meth:`DualKernel.istar_row` tau-sums.
    """
    if form.eta is None:
        raise PreconditionError("form needs a calibrated eta (see voronoi.calibrate_eta)")
    pstar, c = max(len(cfg.prime_set), 1), cfg.c

    # N^(2-it) = N^2 e^{-it log N}
    front = math.pi * form.eta * cfg.N**2 * np.exp(-1j * cfg.t * math.log(cfg.N)) / (
        pstar * math.sqrt(form.level)
    )

    rs = [r for r in range(-r_cut, r_cut + 1) if r != 0 and math.gcd(r, c) == 1]

    taus = kernel.tau_nodes
    t_class = _dirichlet_class_sums(form, c, n_cut, kernel.tau_grid)
    # m-independent part of (sqrt(mN)/(c sqrt(M)))^(-s) on Re s = 1
    base = math.sqrt(cfg.N) / (c * math.sqrt(form.level))
    pref = kernel.tau_weights * np.exp(-(1.0 + 1j * taus) * math.log(base)) / TWO_PI

    rows = kernel.x_rows(rs)  # (R, m)
    _, vdag_cheb = kernel._tau_tables()
    # a row's front and ds = i dtau give 2i front, times the pi above (i^k pi for weight k)
    terms = dual_terms(form.kind, kernel.gamma_on_grid)
    bs = np.arange(c)

    total = 0.0 + 0.0j
    for sign, term_front, gam in terms:
        tau_matrix = vdag_cheb @ (t_class * (pref * gam)).T  # (m, c)
        weights = np.reshape([term_weight(form, sign, r, c, bs) for r in rs], (len(rs), c))
        total += 2j * term_front * np.sum((rows @ tau_matrix) * weights)
    # S_star stratum weight: the single prime contributes 1/(p c) = 1/c^2
    total /= c * c
    return complex(front * total)


def dual_identity_check(form: CuspForm, cfg: PipelineConfig, sweep: bool = True) -> DualCheckResult:
    """Compare S_c computed both ways for c = the configured prime.

    The stability entries record how much the dual side moves when each
    truncation is doubled (n_cut, r_cut, tau_cut) or when the grids are
    refined; a trustworthy residual must dominate those movements. The
    n_cut doubling cannot read past the form's stored coefficients: the
    result reports the n_cut it used and whether it was capped.
    """
    if cfg.c <= 1:
        raise PreconditionError("dual_identity_check needs c = a prime from the prime set")
    if cfg.prime_set and cfg.c not in cfg.prime_set:
        raise PreconditionError("c must belong to the prime set")
    cfg.validate(level=form.level)
    kernel = DualKernel(cfg)
    direct = s_c_direct(form, cfg)
    n_cut = cfg.resolved_n_cut(form.level)
    r_cut = cfg.resolved_r_cut()
    dual = s_c_dual(form, cfg, kernel, n_cut=n_cut, r_cut=r_cut)
    scale = max(abs(direct), 1e-30)
    residual = abs(direct - dual) / scale
    stability = {}
    n_double = None
    if sweep:
        n_double = min(2 * n_cut, form.n_max)
        tau_cfg = replace(cfg, tau_cut=2 * cfg.resolved_tau_cut())
        fine_cfg = replace(cfg, grid_scale=cfg.grid_scale * 1.5)
        variants = {  # key: (config, kernel, n_cut, r_cut) of the dual side it compares
            "double_n_cut": (cfg, kernel, n_double, r_cut),
            "double_r_cut": (cfg, kernel, n_cut, 2 * r_cut),
            "double_tau_cut": (tau_cfg, DualKernel(tau_cfg), n_cut, r_cut),
            "refine_grids": (fine_cfg, DualKernel(fine_cfg), n_cut, r_cut),
        }
        for key, (v_cfg, v_kernel, v_n_cut, v_r_cut) in variants.items():
            moved = s_c_dual(form, v_cfg, v_kernel, n_cut=v_n_cut, r_cut=v_r_cut)
            stability[key] = abs(dual - moved) / scale
    return DualCheckResult(
        s_c_direct=direct,
        s_c_dual=dual,
        residual=float(residual),
        stability=stability,
        doubled_n_cut=n_double,
        n_cut_capped=n_double is not None and n_double < 2 * n_cut,
    )
