import cmath
import math

import numpy as np
import pytest

from weyldelta.errors import CoefficientRangeError, PreconditionError
from weyldelta.forms import delta_form
from weyldelta.lfunc import (
    AfeConfig,
    afe_value,
    afe_weight,
    growth_scan,
    log_gamma_quotient_factor,
    tail_check,
    weight_quartic,
)
from weyldelta.numerics import panel_rule


@pytest.fixture(scope="module")
def form():
    return delta_form(20000)


def test_central_value_real(form):
    res = afe_value(form, 0.0)
    assert abs(res.value.imag) <= 1e-8
    assert res.value.real > 0


def test_two_weight_agreement_central(form):
    base = afe_value(form, 0.0)
    other = afe_value(form, 0.0, AfeConfig(weight=weight_quartic))
    assert abs(base.value - other.value) <= 1e-6


@pytest.mark.parametrize("t", [1.0, 5.0, 10.0])
def test_two_weight_agreement_off_center(form, t):
    base = afe_value(form, t)
    other = afe_value(form, t, AfeConfig(weight=weight_quartic))
    assert abs(base.value - other.value) <= 1e-6


def test_conjugate_symmetry(form):
    plus = afe_value(form, 5.0)
    minus = afe_value(form, -5.0)
    assert abs(minus.value - np.conj(plus.value)) <= 1e-8


def test_truncation_stability(form):
    base = afe_value(form, 5.0)
    assert base.n_used >= 3 * 6 * math.isqrt(1)  # past the nominal length
    doubled = afe_value(form, 5.0, AfeConfig(n_afe=2 * base.n_used))
    assert abs(base.value - doubled.value) <= 1e-8


def test_requires_root_number(form):
    stripped = delta_form(200)
    stripped.epsilon_f = None
    with pytest.raises(PreconditionError):
        afe_value(stripped, 0.0)


def test_coefficient_shortfall_detected():
    short = delta_form(100)
    with pytest.raises(CoefficientRangeError):
        afe_value(short, 0.0)


def _afe_weight_contour(form, s, ys, cfg):
    """V_s(y) by one complex exponential per (y, contour node) pair (oracle)."""
    vs, ws = panel_rule(-cfg.v_cut, cfg.v_cut, cfg.v_panels, 16)
    u = cfg.abscissa + 1j * vs
    lg_s = log_gamma_quotient_factor(form, s)
    ratio = np.array([cmath.exp(log_gamma_quotient_factor(form, s + uu) - lg_s) for uu in u])
    core = ws * np.asarray(cfg.weight(u)) * ratio / u
    log_y = np.log(ys)
    out = np.empty(len(ys), dtype=complex)
    for i in range(0, len(ys), 2000):
        out[i : i + 2000] = np.exp(-np.outer(log_y[i : i + 2000], u)) @ core / (2 * math.pi)
    return out


@pytest.mark.parametrize("t", [0.0, 5.0])
@pytest.mark.parametrize("weight_cfg", [AfeConfig(), AfeConfig(weight=weight_quartic)])
def test_weight_matches_contour_loop(form, t, weight_cfg):
    ys = np.arange(1, weight_cfg.resolved_n_afe(form, t) + 1, dtype=float)
    for s in {0.5 + 1j * t, 0.5 - 1j * t}:
        ref = _afe_weight_contour(form, s, ys, weight_cfg)
        got = afe_weight(form, s, ys, weight_cfg)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_weight_matches_contour_loop_high_t(form):
    # both routes carry rounding of order eps * sum|core|, which grows like
    # t^3 e^9 on Re u = 3, so the comparison is absolute
    cfg = AfeConfig(weight_floor=3e-4)  # the scan configuration
    ys = np.arange(1, cfg.resolved_n_afe(form, 250.0) + 1, dtype=float)
    for s in (0.5 + 250j, 0.5 - 250j):
        ref = _afe_weight_contour(form, s, ys, cfg)
        assert np.max(np.abs(afe_weight(form, s, ys, cfg) - ref)) <= 1e-7


def test_weight_approaches_one_at_origin(form):
    # V_s(y) -> G(0) = 1 as y -> 0; evaluated on a low abscissa where the
    # y^(-u) factor stays tame
    cfg = AfeConfig(abscissa=0.25)
    vals = afe_weight(form, 0.5 + 0j, np.array([1e-3, 1e-4]), cfg)
    assert vals[1].real == pytest.approx(1.0, abs=2e-3)
    assert abs(vals[1] - 1.0) < abs(vals[0] - 1.0) + 1e-3


def test_weight_abscissa_independence(form):
    # the contour abscissa is free in (0, 4]: values agree across choices
    ys = np.array([0.5, 2.0, 10.0])
    a = afe_weight(form, 0.5 + 5j, ys, AfeConfig(abscissa=3.0))
    b = afe_weight(form, 0.5 + 5j, ys, AfeConfig(abscissa=1.5))
    assert np.max(np.abs(a - b)) < 1e-9


def test_tail_decay_steepens(form):
    lams, vals, slope = tail_check(form, 10.0)
    mags = np.abs(vals)
    assert np.all(np.diff(mags) < 0)  # monotone decay
    assert mags[-1] < 0.1 * mags[0]
    assert slope <= -1.0
    # superpolynomial onset: local slope steepens with lambda
    s01 = math.log(mags[1] / mags[0]) / math.log(2.0)
    s23 = math.log(mags[3] / mags[2]) / math.log(2.0)
    assert s23 < s01


def test_tail_crossover_scales_with_t(form):
    # the weight at fixed y is much smaller for small t than for large t
    # once y sits past the small-t effective length
    y_probe = np.array([40.0])
    w_small_t = abs(afe_weight(form, 0.5 + 0j, y_probe, AfeConfig())[0])
    w_large_t = abs(afe_weight(form, 0.5 + 10j, y_probe, AfeConfig())[0])
    assert w_small_t < w_large_t


def test_growth_scan_smoke(form):
    grid = np.linspace(10.0, 60.0, 12)
    scan = growth_scan(form, grid)
    assert scan.exponent < 0.5
    assert len(scan.records) == 12
    assert all(not r.flagged for r in scan.records)
    assert "not a certification" in scan.disclaimer


def test_growth_scan_constant_injection(form):
    grid = np.linspace(10.0, 500.0, 40)
    scan = growth_scan(form, grid, values=np.ones(40))
    assert scan.exponent == pytest.approx(0.0, abs=1e-12)


def test_growth_scan_density_stability(form):
    # stability requires grids dense enough to resolve the |L| oscillation
    # (spacing well under 1 in t); undersampled envelopes are noisy
    coarse = growth_scan(form, np.linspace(10.0, 40.0, 60), windows=6)
    fine = growth_scan(form, np.linspace(10.0, 40.0, 120), windows=6)
    assert abs(coarse.exponent - fine.exponent) <= 0.05


def test_growth_scan_guards_low_t(form):
    with pytest.raises(PreconditionError):
        growth_scan(form, [1.0, 10.0])
