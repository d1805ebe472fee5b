"""The checks that `weyl-delta verify` and the acceptance gate share.

Each :class:`Check` names one claim of the chain (its ``anchor``), the CLI
suite that runs it, the acceptance criterion it belongs to and the number
of coefficients of the discriminant form it reads, and computes
``(residual, tolerance, values)`` from a :class:`CheckContext`. A
check passes when residual <= tolerance (residual < tolerance for a strict
one); slope checks carry the fitted slope as the residual against a
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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .deltapipe import (
    PipelineConfig,
    averaged_delta,
    averaged_delta_alpha_sum,
    dual_identity_check,
    s_split,
    trivial_delta,
    trivial_delta_alpha_sum,
)
from .errors import BudgetExceededError, ToolkitError
from .forms import CuspForm, delta_form, hecke_verify, load_form, rankin_average
from .lfunc import AfeConfig, afe_value, growth_scan, weight_quartic
from .numerics import loglog_fit, loglog_slope, primes_in
from .oscillate import integrate_1d
from .specialfn import gamma_factor, maass_kind, residual_derivative, stirling_profile
from .statphase import u_dagger_asymptotic, u_dagger_direct
from .testfn import make_window_u, make_window_v
from .voronoi import (
    VoronoiInstance,
    WhatTransform,
    calibrate_eta,
    dual_sum_length,
    voronoi_check,
)

SUITES = ("delta", "statphase", "voronoi", "pipeline", "afe", "scan")  # `verify all` order
ETA_PROBES = ((1, 1, 20.0), (1, 3, 50.0))  # (a, c, N) of the two calibration instances


def fmt_complex(z: complex) -> List[float]:
    z = complex(z)
    return [z.real, z.imag]


def calibrate(form: CuspForm, transform: Optional[WhatTransform] = None) -> complex:
    """eta for `form` from the two standard probes (ETA_PROBES)."""
    window = make_window_v()
    probes = [
        VoronoiInstance(form, a=a, c=c, window=window, scale=scale) for a, c, scale in ETA_PROBES
    ]
    return calibrate_eta(form, probes, transform=transform)


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
        scan_grid: Sequence[float] = tuple(np.linspace(10.0, 500.0, 200)),
        checks: Optional[Sequence["Check"]] = None,
    ):
        self.seed = seed
        self.budget = budget
        self.form_path = form_path
        self.scan_grid = scan_grid
        self.n_max = max(
            (check.coefficients for check in (CHECKS if checks is None else checks)), default=1
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

    @property
    def window_v(self):
        return self.shared("window_v", make_window_v)

    @property
    def window_u(self):
        return self.shared("window_u", make_window_u)

    def transform(self, form: CuspForm) -> WhatTransform:
        return self.shared("transform", lambda: WhatTransform(form.kind, self.window_v))

    def calibrate(self, form: CuspForm) -> complex:
        """eta for `form`, fitted once (see :func:`calibrate`)."""
        if self.cache.get("calibrated") is not form:
            form.eta = None
            calibrate(form, transform=self.transform(form))
            self.cache["calibrated"] = form
        return form.eta


@dataclass
class CheckResult:
    name: str
    anchor: str  # stable identifier of the mathematical claim being checked
    residual: float
    tolerance: float
    passed: bool
    values: Dict[str, object] = field(default_factory=dict)
    runtime: float = 0.0

    def line(self) -> str:
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
    coefficients: int = 1  # of the discriminant form, the most the check reads

    def run(self, ctx: CheckContext) -> CheckResult:
        start = time.perf_counter()
        residual, tolerance, values = self.compute(ctx)
        runtime = time.perf_counter() - start
        passed = residual < tolerance if self.strict else residual <= tolerance
        return CheckResult(
            self.name, self.anchor, float(residual), float(tolerance), bool(passed), values, runtime
        )


CHECKS: List[Check] = []


def _check(
    name: str, anchor: str, suite: str, criterion: int, strict: bool = False, coefficients: int = 1
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
    value = _delta13(ctx, 13)
    oracle = integrate_1d(ctx.window_v, lambda x: 1.3 * x, 1.0, 2.0, tol=1e-13, budget=ctx.budget)
    if oracle.budget_exhausted:
        raise BudgetExceededError(f"quadrature oracle exhausted {oracle.cells} cells")
    return abs(value - oracle.value), 1e-8, {}


@_check("trivial-delta-character-sum", "character-sum-equals-gate", "delta", 2)
def _trivial_character_sum(ctx):
    agree = max(
        abs(_delta13(ctx, n) - trivial_delta_alpha_sum(n, 13, 10.0, budget=ctx.budget))
        for n in (0, 13, 26, 39)
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
        direct = u_dagger_direct(ctx.window_u, r, s, tol=1e-12, budget=ctx.budget)
        asym = u_dagger_asymptotic(ctx.window_u, r, s)
        rel_errors.append(abs(direct.value - asym.value) / abs(direct.value))
        betas.append(beta)
    slope = loglog_fit(betas, rel_errors)[0]
    return slope, -1.8, {"slope": slope, "max_rel_err": max(rel_errors)}


@_check("fourier-mellin-no-stationary", "twisted-mellin-rapid-decay", "statphase", 4)
def _fourier_mellin_no_stationary(ctx):
    r, s = -1000.0 / (2 * math.pi * 1.5), complex(1.0, 1000.0)
    value = u_dagger_direct(ctx.window_u, r, s, tol=1e-12, budget=ctx.budget).value
    return abs(value), 1e-6, {}


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
    values = {"eta": fmt_complex(eta), "probe_spread": form.eta_probe_spread}
    return abs(form.eta_modulus_raw - 1.0), 1e-6, values


def _voronoi_cell(ctx, scale, a, c):
    form = ctx.form()
    inst = VoronoiInstance(form, a=a, c=c, window=ctx.window_v, scale=scale)
    chk = voronoi_check(inst, transform=ctx.transform(form))
    values = {
        "lhs": fmt_complex(chk.lhs),
        "rhs": fmt_complex(chk.rhs),
        "rhs_terms": chk.rhs_terms,
        "n_cut_wanted": chk.n_cut_wanted,
        "n_cut_capped": chk.rhs_terms < chk.n_cut_wanted,
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
            N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, n_cut=30000, tau_cut=1500.0, r_cut=24
        )
        return dual_identity_check(form, cfg, sweep=True)

    return ctx.shared("dual", build)


# n_cut = 30000, doubled by the sweep
@_check(
    "dual-summation-identity", "voronoi-poisson-dual-representation", "pipeline", 7,
    coefficients=60000,
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
    "dual-summation-stability", "truncation-doubling-stability", "pipeline", 7, coefficients=60000
)
def _dual_stability(ctx):
    # every doubling must move the dual side by less than 1/20 of the claimed
    # tolerance (the measured residual sits far below it, so a bound tied to
    # the measured residual would punish extra accuracy)
    stability = _dual_identity(ctx).stability
    return max(stability.values()) if stability else 0.0, 1e-3 / 20, {}


# -- afe: central values, then the coefficient-side checks (criteria 8, 9) ---
#
# For the discriminant form the AFE reads 5920 coefficients at t = 0 and
# 7691 at t = +-5 (AfeConfig.resolved_n_afe); the declared counts round up.


def _afe(ctx: CheckContext, key: str, t: float):
    return ctx.shared(key, lambda: afe_value(ctx.form(), t))


@_check(
    "afe-two-weight-agreement", "weight-independence-of-central-value", "afe", 8,
    coefficients=6000,
)
def _afe_two_weight(ctx):
    base = _afe(ctx, "afe-base", 0.0)
    other = afe_value(ctx.form(), 0.0, AfeConfig(weight=weight_quartic))
    values = {"central_value": fmt_complex(base.value), "n_used": base.n_used}
    return abs(base.value - other.value), 1e-6, values


@_check("afe-central-reality", "self-dual-central-reality", "afe", 8, coefficients=6000)
def _afe_reality(ctx):
    return abs(_afe(ctx, "afe-base", 0.0).value.imag), 1e-8, {}


@_check(
    "afe-conjugate-symmetry", "reflection-symmetry-on-critical-line", "afe", 8, coefficients=8000
)
def _afe_conjugate(ctx):
    plus = _afe(ctx, "afe-plus", 5.0)
    minus = afe_value(ctx.form(), -5.0)
    return abs(minus.value - np.conj(plus.value)), 1e-8, {}


@_check(
    "afe-truncation-past-nominal", "truncation-past-nominal-length", "afe", 8, strict=True,
    coefficients=8000,
)
def _afe_past_nominal(ctx):
    n_used = _afe(ctx, "afe-plus", 5.0).n_used
    nominal = int(3 * 6 * math.sqrt(ctx.form().level))
    return nominal / n_used, 1.0, {"n_used": n_used, "nominal": nominal}


@_check(  # the t = 5 sum at twice its length
    "afe-truncation-stability", "weight-decay-past-effective-length", "afe", 8, coefficients=16000
)
def _afe_truncation(ctx):
    plus = _afe(ctx, "afe-plus", 5.0)
    doubled = afe_value(ctx.form(), 5.0, AfeConfig(n_afe=2 * plus.n_used))
    return abs(plus.value - doubled.value), 1e-8, {}


@_check(
    "hecke-multiplicativity", "eigenvalue-multiplicative-relations", "afe", 9, coefficients=10000
)
def _hecke(ctx):
    report = hecke_verify(ctx.form(), 10000)
    values = {"pairs": report.pairs_checked, "prime_powers": report.prime_power_checked}
    return report.max_violation, 1e-12, values


@_check("rankin-average-growth", "second-moment-linear-growth", "afe", 9, coefficients=10000)
def _rankin(ctx):
    avgs = rankin_average(ctx.form(), [100, 1000, 10000])
    slope = loglog_slope([x for x, _ in avgs], [x * a for x, a in avgs])
    return abs(slope - 1.0), 0.15, {"slope": slope, "averages": [[x, a] for x, a in avgs]}


# -- scan: growth along the critical line (criterion 10) ----------------------


# the default grid ends at t = 500, where the relaxed weight floor reads 27300
@_check(
    "growth-scan-exponent", "critical-line-growth-envelope", "scan", 10, strict=True,
    coefficients=30000,
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
