"""The four benchmark workloads: one strand of the verification chain each.

Every workload has a set-up step (coefficients, transform tables) and a
verify step that runs its checks through a :class:`CheckLog`. Library
functions are always looked up through their module (``voronoi.voronoi_check``
rather than an imported name), so that the traced run can wrap them in
place. Tolerances are those of the tests each check mirrors.
"""

from __future__ import annotations

import math
import traceback

import numpy as np

from weyldelta import deltapipe, forms, lfunc, specialfn, statphase, testfn, voronoi
from weyldelta.numerics import loglog_fit, loglog_slope, primes_in


class CheckLog:
    """Checks of one verify pass, in the order they ran.

    kinds: ``residual`` passes when value <= tol and enters min_margin_dec;
    ``upper`` passes when value <= tol (slopes, ratios); ``exact`` passes
    when value == tol. A check whose computation raises has failed; it is
    recorded with the error and never retried.
    """

    def __init__(self):
        self.records = []
        self.notes = {}

    def check(self, name, kind, tol, compute):
        try:
            value = float(compute())
        except Exception:  # a raising check is a failed check, reported with its traceback
            self.records.append(
                {"name": name, "kind": kind, "tol": tol, "value": None, "passed": False,
                 "error": traceback.format_exc(limit=4)}
            )
            return
        passed = value == tol if kind == "exact" else value <= tol
        self.records.append(
            {"name": name, "kind": kind, "tol": tol, "value": value, "passed": bool(passed)}
        )


# -- voronoi: the `verify voronoi` suite --------------------------------------

VORONOI_SCALES = (5.0, 20.0, 50.0)
VORONOI_MODULI = (1, 2, 3, 3, 5)  # the (a, c) columns of criterion 1, a drawn per cell


def voronoi_setup(seed):
    form = forms.delta_form(30000)
    window = testfn.make_window_v()
    transform = voronoi.WhatTransform(form.kind, window)
    return {"form": form, "window": window, "transform": transform}


def voronoi_verify(ctx, seed, log):
    form, window, transform = ctx["form"], ctx["window"], ctx["transform"]
    rng = np.random.default_rng(seed)
    probes = [
        voronoi.VoronoiInstance(form, a=1, c=1, window=window, scale=20.0),
        voronoi.VoronoiInstance(form, a=1, c=3, window=window, scale=50.0),
    ]

    def eta_modulus():
        voronoi.calibrate_eta(form, probes, transform=transform)
        return abs(form.eta_modulus_raw - 1.0)

    log.check("eta-calibration", "residual", 1e-6, eta_modulus)
    for scale in VORONOI_SCALES:
        for c in VORONOI_MODULI:
            units = [a for a in range(1, c + 1) if math.gcd(a, c) == 1]
            a = int(rng.choice(units))
            inst = voronoi.VoronoiInstance(form, a=a, c=c, window=window, scale=scale)
            log.check(
                f"voronoi-N{scale:g}-a{a}-c{c}",
                "residual",
                1e-6,
                lambda inst=inst: voronoi.voronoi_check(inst, transform=transform).residual,
            )


# -- dual: the criterion-7 hot path at desk scale, plus criterion 6 -----------

DUAL_CONFIG = dict(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, n_cut=12000, tau_cut=1200.0, r_cut=20)


def dual_setup(seed):
    form = forms.delta_form(DUAL_CONFIG["n_cut"])
    form.eta = 1.0 + 0.0j  # the calibrated value for the built-in form
    return {"form": form}


def dual_verify(ctx, seed, log):
    form = ctx["form"]
    cfg = deltapipe.PipelineConfig(**DUAL_CONFIG)
    log.check(
        "dual-summation-identity",
        "residual",
        1e-3,
        lambda: deltapipe.dual_identity_check(form, cfg, sweep=False).residual,
    )
    split_cfg = deltapipe.PipelineConfig(N=50.0, t=10.0, K=5.0, prime_set=tuple(primes_in(60, 120)))
    log.check(
        "smoothed-sum-decomposition",
        "residual",
        1e-6,
        lambda: deltapipe.s_split(form, split_cfg).residual,
    )


# -- afe-scan: the `verify afe` and `verify scan` suites ----------------------

# Fixed on purpose: the scan flags a record whose truncation tail exceeds
# 1e-3 |L|, which happens by design within ~0.02 of a zero of L(1/2 + it).
# Zeros lie about one unit apart here, so a seeded grid would fail a check
# on some seeds; this grid is clear of them.
SCAN_GRID = np.linspace(10.0, 250.0, 20)


AFE_COEFFICIENTS = 20000  # the doubled truncation at t = 5 needs ~15400


def afe_setup(seed):
    return {"form": forms.delta_form(AFE_COEFFICIENTS)}


def afe_verify(ctx, seed, log):
    form = ctx["form"]
    vals = {}

    def two_weight():
        base = lfunc.afe_value(form, 0.0)
        other = lfunc.afe_value(form, 0.0, lfunc.AfeConfig(weight=lfunc.weight_quartic))
        return abs(base.value - other.value)

    def conjugate():
        vals["plus"] = lfunc.afe_value(form, 5.0)
        minus = lfunc.afe_value(form, -5.0)
        return abs(minus.value - np.conj(vals["plus"].value))

    def past_nominal():
        return float(vals["plus"].n_used <= int(3 * 6 * math.sqrt(form.level)))

    def truncation():
        plus = vals["plus"]
        doubled = lfunc.afe_value(form, 5.0, lfunc.AfeConfig(n_afe=2 * plus.n_used))
        return abs(plus.value - doubled.value)

    log.check("afe-two-weight-agreement", "residual", 1e-6, two_weight)
    log.check("afe-conjugate-symmetry", "residual", 1e-8, conjugate)
    log.check("afe-truncation-past-nominal", "exact", 0.0, past_nominal)
    log.check("afe-truncation-stability", "residual", 1e-8, truncation)

    def scan():
        vals["scan"] = lfunc.growth_scan(form, SCAN_GRID)
        return len(vals["scan"].records)

    def unflagged(i):
        return float(vals["scan"].records[i].flagged)

    log.check("growth-scan-points", "exact", float(len(SCAN_GRID)), scan)
    for i in range(len(SCAN_GRID)):
        log.check(f"growth-scan-unflagged-{i:02d}", "exact", 0.0, lambda i=i: unflagged(i))
    if "scan" in vals:
        # reported, not gated: ~20 points undersample the envelope fit
        log.notes["scan_exponent"] = vals["scan"].exponent
        log.notes["scan_exponent_stderr"] = vals["scan"].exponent_stderr


# -- quadrature: the `verify delta` and `verify statphase` suites -------------

FM_DRAWS = 240
FM_X0_STRIDE = 97  # coprime to FM_DRAWS, so each x0 slice is used once
DELTA_PAIRS = 3000


def quadrature_setup(seed):
    return {"window_u": testfn.make_window_u()}


def quadrature_verify(ctx, seed, log):
    window_u = ctx["window_u"]
    rng = np.random.default_rng(seed)

    def fourier_mellin_slope():
        # stratified draws: beta in each equal slice of [50, 800] and x0 in
        # each equal slice of [1, 2], paired by a fixed stride. The quadrature
        # work depends on both, so pinning each draw to its cell keeps the
        # work the same for every seed.
        beta_strata = np.linspace(50.0, 800.0, FM_DRAWS + 1)
        x0_strata = np.linspace(1.0, 2.0, FM_DRAWS + 1)
        cells = np.arange(FM_DRAWS) * FM_X0_STRIDE % FM_DRAWS
        betas = rng.uniform(beta_strata[:-1], beta_strata[1:])
        x0s = rng.uniform(x0_strata[cells], x0_strata[cells + 1])
        rels = []
        for beta, x0 in zip(betas, x0s):
            r = beta / (2 * math.pi * x0)
            s = complex(1.0, float(beta))
            direct = statphase.u_dagger_direct(window_u, r, s, tol=1e-12)
            asym = statphase.u_dagger_asymptotic(window_u, r, s)
            rels.append(abs(direct.value - asym.value) / abs(direct.value))
        return loglog_fit(betas, rels)[0]

    def no_stationary():
        return abs(
            statphase.u_dagger_direct(
                window_u, -1000.0 / (2 * math.pi * 1.5), complex(1.0, 1000.0), tol=1e-12
            ).value
        )

    log.check("fourier-mellin-two-method", "upper", -1.8, fourier_mellin_slope)
    log.check("fourier-mellin-no-stationary", "residual", 1e-6, no_stationary)

    cfg = deltapipe.PipelineConfig(N=50.0, t=10.0, K=5.0, prime_set=tuple(primes_in(60, 120)))
    pairs = rng.integers(1, 160, size=(DELTA_PAIRS, 2))

    def averaged_exactness():
        return max(
            abs(deltapipe.averaged_delta(int(r), int(n), cfg)
                - deltapipe.averaged_delta_alpha_sum(int(r), int(n), cfg))
            for r, n in pairs
        )

    log.check("averaged-delta-exactness", "residual", 1e-8, averaged_exactness)

    log.check(
        "trivial-delta-diagonal", "residual", 1e-12,
        lambda: abs(deltapipe.trivial_delta(0, 13, 10.0) - 1.0),
    )
    log.check(
        "trivial-delta-offdiagonal", "exact", 0.0,
        lambda: max(abs(deltapipe.trivial_delta(n, 13, 10.0)) for n in range(1, 13)),
    )
    log.check(
        "trivial-delta-character-sum", "residual", 1e-8,
        lambda: max(
            abs(deltapipe.trivial_delta(n, 13, 10.0) - deltapipe.trivial_delta_alpha_sum(n, 13, 10.0))
            for n in (0, 13, 26, 39)
        ),
    )
    ns = [13 * 2**k for k in range(6)]
    log.check(
        "trivial-delta-decay", "upper", -2.8,
        lambda: loglog_slope([n / 10.0 for n in ns], [abs(deltapipe.trivial_delta(n, 13, 10.0)) for n in ns]),
    )

    kinds = (specialfn.holomorphic_kind(12), specialfn.maass_kind(9.5, 0))

    def stirling_identity():
        worst = 0.0
        for kind in kinds:
            for tau in (1e2, 1e3, 1e4):
                prof = specialfn.stirling_profile(kind, tau)
                exact = specialfn.gamma_factor(kind, 1 + 1j * tau)
                worst = max(worst, abs(prof.leading_phase * prof.residual - exact) / abs(exact))
        return worst

    def derivative_slope():
        taus = np.geomspace(1e2, 1e4, 9)
        return max(
            loglog_slope(taus, [abs(specialfn.residual_derivative(kind, float(t))) for t in taus])
            for kind in kinds
        )

    def growth_ratio():
        return max(
            abs(specialfn.gamma_factor(kind, complex(sigma, tau))) / (1 + tau ** (sigma - 1))
            for sigma in (0.25, 0.5, 1.0)
            for tau in np.geomspace(10, 1e4, 13)
            for kind in kinds
        )

    log.check("stirling-profile-identity", "residual", 1e-10, stirling_identity)
    log.check("stirling-residual-derivative", "upper", -0.9, derivative_slope)
    log.check("gamma-factor-growth-bound", "upper", 10.0, growth_ratio)


# name -> (set-up, verify, what the seed perturbs)
WORKLOADS = {
    "voronoi": (
        voronoi_setup,
        voronoi_verify,
        "the twist numerator a of each of the 15 cells, drawn among the residues coprime to c;"
        " the (N, c) grid, the probes and every n_cut are fixed",
    ),
    "dual": (dual_setup, dual_verify, "nothing: the desk-scale instance is fixed"),
    "afe-scan": (
        afe_setup,
        afe_verify,
        "nothing: the criterion-8 points and the scan grid are fixed (see SCAN_GRID)",
    ),
    "quadrature": (
        quadrature_setup,
        quadrature_verify,
        f"the {FM_DRAWS} Fourier-Mellin (beta, x0) draws, each within its fixed cell of [50, 800] x [1, 2],"
        f" and the {DELTA_PAIRS} averaged-delta (r, n) pairs; the trivial-delta and Stirling checks are fixed",
    ),
}
