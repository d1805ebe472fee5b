"""The checks that `weyl-delta verify` and the acceptance gate share.

Each :class:`Check` names one claim of the chain (its ``anchor``), the CLI
suite that runs it, the acceptance criterion it belongs to and the number
of coefficients of the discriminant form it reads, and computes
``(residual, tolerance, values)`` from a :class:`CheckContext`. A
check passes when residual <= tolerance (residual < tolerance for a strict
one; its result names the comparison applied); slope checks carry the fitted slope as the residual against a
negative bound. `weyl-delta verify <suite>` runs the entries of one suite
and tests/test_acceptance.py asserts the entries of each criterion, so a
report shows exactly what the gate enforces. A context builds the form
once, with as many coefficients as the most demanding of its checks reads,
and fits eta on it once.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .deltapipe import (
    DualKernel,
    PipelineConfig,
    averaged_delta,
    averaged_delta_alpha_sum,
    dual_identity_check,
    i_star_main,
    s_split,
    trivial_delta,
    trivial_delta_alpha_sum,
)
from .errors import CalibrationError, PreconditionError, ToolkitError
from .forms import CuspForm, constant_form, delta_form, hecke_verify, load_form, rankin_average
from .lfunc import AfeConfig, afe_value, growth_scan, nominal_length, scan_length, weight_quartic
from .numerics import PanelGrid, loglog_fit, loglog_slope, primes_in
from .specialfn import (
    gamma_factor,
    holomorphic_kind,
    maass_kind,
    residual_derivative,
    stirling_profile,
)
from .statphase import u_dagger_asymptotic, u_dagger_direct
from .testfn import WINDOW_U, WINDOW_V
from .voronoi import (
    VoronoiInstance,
    WhatTransform,
    calibrate_eta,
    dual_sum_length,
    voronoi_check,
)

SUITES = ("delta", "statphase", "voronoi", "pipeline", "afe", "scan")  # `verify all` order
ETA_PROBES = ((1, 1, 20.0), (1, 3, 50.0))  # (a, c, N) of the two calibration instances
# the growth scan's t grid, linspace(t_min, t_max, samples), unless the caller gives one
DEFAULT_SCAN = {"t_min": 10.0, "t_max": 500.0, "samples": 200}
DUAL_N_CUT = 30000  # criterion 7's n_cut; its sweep doubles it, so it reads 2 DUAL_N_CUT
N_HECKE = 10000  # criterion 9 reads lambda(n), n <= N_HECKE: Hecke relations, Rankin averages


def fmt_complex(z: complex) -> List[float]:
    z = complex(z)
    return [z.real, z.imag]


class CheckContext:
    """The fixtures of one run, each built on first use and then shared.

    `checks` are the entries the context will run (default: all of them);
    the discriminant form is built once, with the most coefficients any of
    them reads. `seed` drives the random draws, `budget` caps every adaptive
    quadrature and the stratum-sum evaluation count (None: the library
    defaults), and `scan_grid` is the t grid of the growth scan. `cache`
    holds the intermediates several checks share; `calibration` the fitted
    eta.
    """

    def __init__(
        self,
        seed: int = 0,
        budget: Optional[int] = None,
        form_path: Optional[str] = None,
        scan_grid: Sequence[float] = tuple(np.linspace(*DEFAULT_SCAN.values())),
        checks: Optional[Sequence["Check"]] = None,
    ):
        self.seed = seed
        self.budget = budget
        self.form_path = form_path
        self.scan_grid = scan_grid
        self.n_max = max(
            (check.reads(self) for check in (CHECKS if checks is None else checks)), default=1
        )
        self.cache: Dict[str, object] = {}
        self.calibration: Dict[str, object] = {}
        self._form: Optional[CuspForm] = None

    def form(self) -> CuspForm:
        if self._form is None:
            # external forms run at their stored depth; checks that need
            # more coefficients raise a range error against them
            self._form = load_form(self.form_path) if self.form_path else delta_form(self.n_max)
        return self._form

    def shared(self, key: str, build: Callable[[], object]):
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def transform(self, form: CuspForm) -> WhatTransform:
        return self.shared("transform", lambda: WhatTransform(form.kind, WINDOW_V))

    def calibrate(self, form: CuspForm) -> complex:
        """eta for `form`, fitted once on the two ETA_PROBES instances."""
        if self.cache.get("calibrated") is not form:
            form.eta = form.eta_modulus_raw = form.eta_probe_spread = None
            calibrate_eta(form, _eta_probes(form), transform=self.transform(form))
            self.cache["calibrated"] = form
        return form.eta


def _eta_probes(form: CuspForm) -> List[VoronoiInstance]:
    return [
        VoronoiInstance(form, a=a, c=c, window=WINDOW_V, scale=scale) for a, c, scale in ETA_PROBES
    ]


@dataclass
class CheckResult:
    name: str
    anchor: str  # stable identifier of the mathematical claim being checked
    residual: Optional[float]  # None (and tolerance None) when the check raised
    tolerance: Optional[float]
    passed: bool
    values: Dict[str, object] = field(default_factory=dict)
    runtime: float = 0.0
    comparison: str = "<="  # residual against tolerance: "<" for a strict check

    def line(self) -> str:
        if self.residual is None:
            return f"[FAIL] {self.name}: {self.values['error']}: {self.values['message']}"
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: residual {self.residual:.3e} vs tol {self.tolerance:.3e}"


Outcome = Tuple[float, float, Dict[str, object]]


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    suite: str
    criterion: Optional[int]
    compute: Callable[[CheckContext], Outcome]
    strict: bool = False
    # of the discriminant form, the most the check reads; a callable sizes
    # it from the context
    coefficients: Union[int, Callable[[CheckContext], int]] = 1

    def reads(self, ctx: CheckContext) -> int:
        """The coefficients this check reads in `ctx`."""
        return self.coefficients(ctx) if callable(self.coefficients) else self.coefficients

    def run(self, ctx: CheckContext) -> CheckResult:
        """The result; a CalibrationError or PreconditionError inside fails it, named in values."""
        start = time.perf_counter()
        try:
            residual, tolerance, values = self.compute(ctx)
            residual, tolerance = float(residual), float(tolerance)
            passed = residual < tolerance if self.strict else residual <= tolerance
        except (CalibrationError, PreconditionError) as exc:
            residual = tolerance = None
            passed, values = False, {"error": type(exc).__name__, "message": str(exc)}
        runtime = time.perf_counter() - start
        return CheckResult(self.name, self.anchor, residual, tolerance, passed, values, runtime,
                           "<" if self.strict else "<=")


CHECKS: List[Check] = []


def _check(
    name: str,
    anchor: str,
    suite: str,
    criterion: int,
    strict: bool = False,
    coefficients: Union[int, Callable[[CheckContext], int]] = 1,
):
    def register(compute):
        CHECKS.append(Check(name, anchor, suite, criterion, compute, strict, coefficients))
        return compute

    return register


def checks_for(suite: str) -> List[Check]:
    """The entries `verify <suite>` runs, in report order; `all` runs every suite."""
    suites = SUITES if suite == "all" else (suite,)
    if not set(suites) <= set(SUITES):
        raise ToolkitError(f"unknown suite {suite!r}")
    return [check for name in suites for check in CHECKS if check.suite == name]


# -- delta: the two delta detectors (criteria 2 and 3) ------------------------


def _delta13(ctx: CheckContext, n: int) -> complex:
    """The single-modulus detector at q = 13, X = 10."""
    return trivial_delta(n, 13, 10.0, budget=ctx.budget)


def _split_config(ctx: CheckContext) -> PipelineConfig:
    """(N, t, K) = (50, 10, 5) with the primes in [60, 120]."""
    cfg = PipelineConfig(N=50.0, t=10.0, K=5.0, prime_set=tuple(primes_in(60, 120)))
    if ctx.budget is not None:
        # an explicit ceiling also caps the stratum-sum evaluation count
        cfg.eval_budget = float(ctx.budget)
    return cfg


@_check("trivial-delta-diagonal", "delta-detector-normalization", "delta", 2)
def _trivial_diagonal(ctx):
    return abs(_delta13(ctx, 0) - 1.0), 1e-12, {}


@_check("trivial-delta-offdiagonal", "delta-detector-exact-zero", "delta", 2)
def _trivial_offdiagonal(ctx):
    return max(abs(_delta13(ctx, n)) for n in range(1, 13)), 0.0, {}


@_check("trivial-delta-quadrature", "delta-detector-quadrature-oracle", "delta", 2)
def _trivial_quadrature(ctx):
    # the oracle, independent of the adaptive quadrature: 32 GL16 panels on supp V
    grid = PanelGrid(1.0, 2.0, 32)
    oracle = np.sum(grid.weights * WINDOW_V(grid.nodes) * np.exp(2j * np.pi * 1.3 * grid.nodes))
    return abs(_delta13(ctx, 13) - oracle), 1e-8, {}


@_check("trivial-delta-character-sum", "character-sum-equals-gate", "delta", 2)
def _trivial_character_sum(ctx):
    agree = max(
        abs(_delta13(ctx, n) - trivial_delta_alpha_sum(n, 13, 10.0, budget=ctx.budget))
        for n in (0, 1, 5, 13, 14, 26, 27, 39)  # gates of 1 and of 0
    )
    return agree, 1e-10, {}


@_check("trivial-delta-decay", "oscillatory-integral-ibp-decay", "delta", 2)
def _trivial_decay(ctx):
    ns = [13 * 2**k for k in range(6)]
    vals = [abs(_delta13(ctx, n)) for n in ns]
    slope = loglog_slope([n / 10.0 for n in ns], vals)
    return slope, -2.8, {"slope": slope, "points": vals}


@_check("averaged-delta-exactness", "averaged-delta-closed-form", "delta", 3)
def _averaged_exactness(ctx):
    cfg, rng, worst = _split_config(ctx), ctx.rng(), 0.0
    for _ in range(1000):
        r = int(rng.integers(1, 160))
        n = int(rng.integers(1, 160))
        dev = averaged_delta(r, n, cfg, ctx.budget) - averaged_delta_alpha_sum(r, n, cfg, ctx.budget)
        worst = max(worst, abs(dev))
    return worst, 1e-8, {}


# -- statphase: twisted Mellin transform and phase profiles (criteria 4, 5) ----


@_check("fourier-mellin-two-method", "twisted-mellin-stationary-expansion", "statphase", 4)
def _fourier_mellin_two_method(ctx):
    rng, betas, rel_errors = ctx.rng(), [], []
    for _ in range(40):
        beta = float(rng.uniform(50.0, 800.0))
        x0 = float(rng.uniform(1.0, 2.0))
        r = beta / (2 * math.pi * x0)
        s = complex(1.0, beta)
        direct = u_dagger_direct(WINDOW_U, r, s, tol=1e-12, budget=ctx.budget)
        asym = u_dagger_asymptotic(WINDOW_U, r, s)
        rel_errors.append(abs(direct.value - asym.value) / abs(direct.value))
        betas.append(beta)
    slope = loglog_fit(betas, rel_errors)[0]
    return slope, -1.8, {"slope": slope, "max_rel_err": max(rel_errors)}


@_check("fourier-mellin-no-stationary", "twisted-mellin-rapid-decay", "statphase", 4)
def _fourier_mellin_no_stationary(ctx):
    r, s = -1000.0 / (2 * math.pi * 1.5), complex(1.0, 1000.0)
    direct = u_dagger_direct(WINDOW_U, r, s, tol=1e-12, budget=ctx.budget)
    return abs(direct.value), 1e-6, {}


@_check("istar-main-term", "istar-stationary-phase-main-term", "statphase", 4)
def _istar_main_term(ctx):
    # (N, t, K, c) = (100, 2000, 20, 101): K < t^(1-eps), and each r puts the
    # x-stationary point at 1.5 with both dagger arguments inside their supports
    cfg = PipelineConfig(N=100.0, t=2000.0, K=20.0, prime_set=(101,), c=101)
    kernel = DualKernel(cfg, cfg.c, holomorphic_kind(12))
    taus, rel_errors = (-430.0, -500.0, -600.0), []
    for tau in taus:
        r = round(1.5 * (tau + 2 * cfg.t) * cfg.K * cfg.c / (cfg.N * tau))
        direct = kernel.istar_value(r, tau)
        rel_errors.append(abs(i_star_main(r, cfg.c, tau, cfg).value - direct) / abs(direct))
    slope = loglog_slope([abs(tau) for tau in taus], rel_errors)
    return slope, -0.4, {"slope": slope, "rel_errors": rel_errors}


def _profile_kinds(ctx: CheckContext):
    """The form's own factor and a Maass one (spectral parameter 9.5, even)."""
    return (ctx.form().kind, maass_kind(9.5, 0))


@_check("stirling-profile-identity", "leading-phase-factorization", "statphase", 5)
def _stirling_identity(ctx):
    worst = 0.0
    for kind in _profile_kinds(ctx):
        for tau in (1e2, 1e3, 1e4):
            prof = stirling_profile(kind, tau)
            exact = gamma_factor(kind, 1 + 1j * tau)
            worst = max(worst, abs(prof.leading_phase * prof.residual - exact) / abs(exact))
    return worst, 1e-10, {}


@_check("stirling-residual-derivative", "residual-derivative-decay", "statphase", 5)
def _stirling_derivative(ctx):
    taus = np.geomspace(1e2, 1e4, 9)
    slopes = [
        loglog_slope(taus, [abs(residual_derivative(kind, float(tau))) for tau in taus])
        for kind in _profile_kinds(ctx)
    ]
    return max(slopes), -0.9, {"slope": max(slopes), "slopes": slopes}


@_check("gamma-factor-growth-bound", "factor-polynomial-growth", "statphase", 5, strict=True)
def _gamma_growth(ctx):
    ratio_worst = max(
        abs(gamma_factor(kind, complex(sigma, tau))) / (1.0 + tau ** (sigma - 1.0))
        for kind in _profile_kinds(ctx)
        for sigma in (0.25, 0.5, 1.0)
        for tau in np.geomspace(10, 1e4, 13)
    )
    return ratio_worst, 10.0, {"max_ratio": ratio_worst}


# -- voronoi: the dual summation formula (criterion 1) ------------------------


@_check(
    "eta-calibration", "dual-sum-constant-modulus-one", "voronoi", 1,
    coefficients=max(dual_sum_length(scale, c) for _, c, scale in ETA_PROBES),
)
def _eta_calibration(ctx):
    form = ctx.form()
    eta = ctx.calibrate(form)
    ctx.calibration.update(eta=fmt_complex(eta), eta_modulus_raw=form.eta_modulus_raw)
    values = {
        "eta": fmt_complex(eta),
        "probe_spread": form.eta_probe_spread,
        "n_cut_capped": any(p.resolved_n_cut() < p.wanted_n_cut() for p in _eta_probes(form)),
    }
    return abs(form.eta_modulus_raw - 1.0), 1e-6, values


def _voronoi_cell(ctx, scale, a, c):
    form = ctx.form()
    inst = VoronoiInstance(form, a=a, c=c, window=WINDOW_V, scale=scale)
    chk = voronoi_check(inst, transform=ctx.transform(form))
    values = {
        "lhs": fmt_complex(chk.lhs),
        "rhs": fmt_complex(chk.rhs),
        "rhs_terms": chk.rhs_terms,
        "n_cut_wanted": chk.n_cut_wanted,
        "n_cut_capped": chk.rhs_terms < chk.n_cut_wanted,
        "tail_estimate": chk.tail_estimate,
    }
    return chk.residual, 1e-6, values


CHECKS.extend(
    Check(
        f"voronoi-N{scale:g}-a{a}-c{c}",
        "dual-summation-identity",
        "voronoi",
        1,
        functools.partial(_voronoi_cell, scale=scale, a=a, c=c),
        coefficients=dual_sum_length(scale, c),
    )
    for scale in (5.0, 20.0, 50.0)
    for a, c in ((1, 1), (1, 2), (1, 3), (2, 3), (1, 5))
)


# -- pipeline: stratification and the dual identity (criteria 6 and 7) -------


@_check(
    "smoothed-sum-decomposition", "averaged-delta-stratification", "pipeline", 6, coefficients=100
)
def _smoothed_sum(ctx):
    # n runs over supp V(n / N) = [N, 2N] at N = 50
    split = s_split(ctx.form(), _split_config(ctx), budget=ctx.budget)
    values = {
        "s_star": fmt_complex(split.s_star),
        "s_flat": fmt_complex(split.s_flat),
        "diagonal_gap": split.diagonal_gap,
    }
    return split.residual, 1e-6, values


def _dual_identity(ctx: CheckContext):
    """S_c both ways at (N, t, K, p) = (20, 5, 3, 11) with the doubling sweep."""

    def build():
        form = ctx.form()
        ctx.calibrate(form)
        cfg = PipelineConfig(
            N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, n_cut=DUAL_N_CUT, tau_cut=1500.0, r_cut=24
        )
        return dual_identity_check(form, cfg, sweep=True)

    return ctx.shared("dual", build)


@_check(
    "dual-summation-identity", "voronoi-poisson-dual-representation", "pipeline", 7,
    coefficients=2 * DUAL_N_CUT,
)
def _dual_summation(ctx):
    res = _dual_identity(ctx)
    values = {
        "direct": fmt_complex(res.s_c_direct),
        "dual": fmt_complex(res.s_c_dual),
        "stability": res.stability,
    }
    return res.residual, 1e-3, values


@_check(
    "dual-summation-stability", "truncation-doubling-stability", "pipeline", 7, strict=True,
    coefficients=2 * DUAL_N_CUT,
)
def _dual_stability(ctx):
    # every doubling must move the dual side by less than 1/20 of the claimed
    # tolerance (the measured residual sits far below it, so a bound tied to
    # the measured residual would punish extra accuracy)
    res = _dual_identity(ctx)
    # a form shorter than 2 n_cut caps the n_cut doubling; the values say so,
    # and as a capped step shows nothing about n_cut, the (strict) bound is 0
    values = {"doubled_n_cut": res.doubled_n_cut, "n_cut_capped": res.n_cut_capped}
    bound = 0.0 if res.n_cut_capped else 1e-3 / 20
    return max(res.stability.values()) if res.stability else 0.0, bound, values


# -- afe: central values, then the coefficient-side checks (criteria 8, 9) ---
#
# N_AFE: the AFE's sum length at each t the checks read on the discriminant
# form (5920 at t = 0, 6001 at t = 1, 7691 at t = +-5); as in
# _scan_coefficients, an empty stream of weight 12 and level 1 sizes it.
N_AFE = {t: AfeConfig().resolved_n_afe(constant_form(0), t) for t in (0.0, 1.0, 5.0, -5.0)}


def _afe(ctx: CheckContext, key: str, t: float):
    return ctx.shared(key, lambda: afe_value(ctx.form(), t))


@_check(
    "afe-two-weight-agreement", "weight-independence-of-central-value", "afe", 8,
    coefficients=N_AFE[0.0],
)
def _afe_two_weight(ctx):
    base = _afe(ctx, "afe-base", 0.0)
    other = afe_value(ctx.form(), 0.0, AfeConfig(weight=weight_quartic))
    values = {"central_value": fmt_complex(base.value), "n_used": base.n_used}
    return abs(base.value - other.value), 1e-6, values


@_check(
    "afe-two-weight-off-center", "weight-independence-off-center", "afe", 8, coefficients=N_AFE[1.0]
)
def _afe_two_weight_off_center(ctx):
    # at t = 0 a self-dual form gives L = (1 + eps) x (first sum) under every
    # weight, so only t != 0 sees the root number: on the discriminant form a
    # wrong eps (-1 or i) moves this residual from ~1e-11 to ~0.1
    weights = (AfeConfig(), AfeConfig(weight=weight_quartic))
    base, other = (afe_value(ctx.form(), 1.0, cfg) for cfg in weights)
    return abs(base.value - other.value), 1e-6, {"value": fmt_complex(base.value)}


@_check("afe-central-reality", "self-dual-central-reality", "afe", 8, coefficients=N_AFE[0.0])
def _afe_reality(ctx):
    return abs(_afe(ctx, "afe-base", 0.0).value.imag), 1e-8, {}


@_check(
    "afe-conjugate-symmetry", "reflection-symmetry-on-critical-line", "afe", 8,
    coefficients=max(N_AFE[5.0], N_AFE[-5.0]),
)
def _afe_conjugate(ctx):
    plus = _afe(ctx, "afe-plus", 5.0)
    minus = afe_value(ctx.form(), -5.0)
    return abs(minus.value - np.conj(plus.value)), 1e-8, {}


@_check(
    "afe-truncation-past-nominal", "truncation-past-nominal-length", "afe", 8, strict=True,
    coefficients=N_AFE[5.0],
)
def _afe_past_nominal(ctx):
    n_used = _afe(ctx, "afe-plus", 5.0).n_used
    nominal = int(nominal_length(ctx.form(), 5.0))
    return nominal / n_used, 1.0, {"n_used": n_used, "nominal": nominal}


@_check(  # the t = 5 sum at twice its length
    "afe-truncation-stability", "weight-decay-past-effective-length", "afe", 8,
    coefficients=2 * N_AFE[5.0],
)
def _afe_truncation(ctx):
    plus = _afe(ctx, "afe-plus", 5.0)
    doubled = afe_value(ctx.form(), 5.0, AfeConfig(n_afe=2 * plus.n_used))
    return abs(plus.value - doubled.value), 1e-8, {}


@_check(
    "hecke-multiplicativity", "eigenvalue-multiplicative-relations", "afe", 9, coefficients=N_HECKE
)
def _hecke(ctx):
    report = hecke_verify(ctx.form(), N_HECKE)
    values = {"pairs": report.pairs_checked, "prime_powers": report.prime_power_checked}
    return report.max_violation, 1e-12, values


@_check("rankin-average-growth", "second-moment-linear-growth", "afe", 9, coefficients=N_HECKE)
def _rankin(ctx):
    avgs = rankin_average(ctx.form(), [100, 1000, N_HECKE])
    slope = loglog_slope([x for x, _ in avgs], [x * a for x, a in avgs])
    return abs(slope - 1.0), 0.15, {"slope": slope, "averages": [[x, a] for x, a in avgs]}


# -- scan: growth along the critical line (criterion 10) ----------------------


def _scan_coefficients(ctx: CheckContext) -> int:
    """The longest AFE sum over the context's scan grid (27300 on the default grid).

    The AFE length reads only the gamma factor and the level, so an empty
    stream with the discriminant form's (weight 12, level 1) sizes it.
    """
    return scan_length(constant_form(0), ctx.scan_grid)


@_check(
    "growth-scan-exponent", "critical-line-growth-envelope", "scan", 10, strict=True,
    coefficients=_scan_coefficients,
)
def _growth_scan(ctx):
    scan = ctx.shared("scan", lambda: growth_scan(ctx.form(), np.asarray(ctx.scan_grid)))
    values = {
        "exponent": scan.exponent,
        "stderr": scan.exponent_stderr,
        "samples": len(scan.records),
        "flagged_records": sum(r.flagged for r in scan.records),
        "disclaimer": scan.disclaimer,
    }
    return scan.exponent, 0.5, values
