import cmath
import math
import tracemalloc
import types

import numpy as np
import pytest

from weyldelta import lfunc
from weyldelta.errors import CoefficientRangeError, PreconditionError
from weyldelta.forms import constant_form, delta_form
from weyldelta.lfunc import (
    AfeConfig,
    afe_value,
    afe_values,
    afe_weight,
    growth_scan,
    log_gamma_quotient_factor,
    scan_length,
    weight_quartic,
)
from weyldelta.numerics import PanelGrid, chebyshev_size, tail_norm
from weyldelta.specialfn import maass_kind


@pytest.fixture(scope="module")
def form():
    return delta_form(20000)


@pytest.fixture(scope="module")
def form30k():
    """Long enough for the scan's sums to t = 500."""
    return delta_form(30000)


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
    grid = PanelGrid(-lfunc.V_CUT, lfunc.V_CUT, lfunc.V_PANELS)
    ws = grid.weights
    u = lfunc.ABSCISSA + 1j * grid.nodes
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
    # t e on the Re u = 1 line, so the comparison is absolute; the routes
    # agree to ~4e-15 at t = 250
    cfg = lfunc.SCAN_CONFIG
    ys = np.arange(1, cfg.resolved_n_afe(form, 250.0) + 1, dtype=float)
    for s in (0.5 + 250j, 0.5 - 250j):
        ref = _afe_weight_contour(form, s, ys, cfg)
        assert np.max(np.abs(afe_weight(form, s, ys, cfg) - ref)) <= 1e-13


def test_weight_is_refinement_stable_at_high_t(form, monkeypatch):
    # a longer and six times finer contour moves V_s by ~3e-12 at t = 500;
    # on the Re u = 3 line, which cancels ~t^3 e^9, it moved by 1.3e-5
    cfg = lfunc.SCAN_CONFIG
    ys = np.arange(1, cfg.resolved_n_afe(form, 500.0) + 1, dtype=float)
    s_both = (0.5 + 500j, 0.5 - 500j)
    base = [afe_weight(form, s, ys, cfg) for s in s_both]
    monkeypatch.setattr(lfunc, "V_CUT", 20.0)
    monkeypatch.setattr(lfunc, "V_PANELS", 430)
    for s, coarse in zip(s_both, base):
        assert np.max(np.abs(afe_weight(form, s, ys, cfg) - coarse)) <= 1e-10


def direct_afe(form, t, cfg):
    """L(1/2 + it) by the per-t formula with :func:`afe_weight` at every n and
    both gamma quotients evaluated (oracle of `afe_values`)."""
    n_afe = cfg.resolved_n_afe(form, t)
    s = 0.5 + 1j * t
    ns = np.arange(1, n_afe + 1, dtype=float)
    ys = ns / math.sqrt(form.level)
    lam = form.lam_slice(n_afe)
    terms_1 = lam * np.exp(-s * np.log(ns)) * afe_weight(form, s, ys, cfg)
    terms_2 = np.conj(lam) * np.exp(-(1 - s) * np.log(ns)) * afe_weight(form, 1 - s, ys, cfg)
    reflect = form.epsilon_f * cmath.exp(
        (0.5 - s) * math.log(form.level)
        + log_gamma_quotient_factor(form, 1 - s)
        - log_gamma_quotient_factor(form, s)
    )
    value = complex(np.sum(terms_1) + reflect * np.sum(terms_2))
    return lfunc.AfeValue(value, n_afe, tail_norm(terms_1) + tail_norm(terms_2))


def assert_matches_direct(got, ref):
    assert got.n_used == ref.n_used
    assert abs(got.value - ref.value) <= 1e-12 * abs(ref.value)
    # a tail under 1e-10 |L| is made of weights at rounding level (the
    # quartic weight's at t = 0 reads 6.7e-15, and any two routes to it
    # differ by ~2e-7 of it), so its own size is not the scale there
    scale = max(ref.tail_estimate, 1e-10 * abs(ref.value))
    assert abs(got.tail_estimate - ref.tail_estimate) <= 1e-10 * scale


INTERPOLATION_CASES = [
    pytest.param(cfg, t, id=f"{name}-t{t:g}")
    for name, cfg in (("gaussian", AfeConfig()), ("quartic", AfeConfig(weight=weight_quartic)))
    for t in (0.0, 5.0, -5.0, 10.0)
] + [pytest.param(lfunc.SCAN_CONFIG, t, id=f"scan-t{t:g}") for t in (250.0, 500.0)]


@pytest.mark.parametrize("cfg, t", INTERPOLATION_CASES)
def test_interpolated_weights_match_the_direct_route(form30k, cfg, t):
    # the shared Chebyshev interpolant against afe_weight at every y = n / sqrt(M)
    ys = np.arange(1, cfg.resolved_n_afe(form30k, t) + 1, dtype=float)
    assert chebyshev_size(lfunc.V_CUT * math.log(ys[-1]) / 2) < len(ys)
    (got,) = afe_values(form30k, [t], cfg)
    assert_matches_direct(got, direct_afe(form30k, t, cfg))


def test_short_sums_interpolate_to_the_direct_weights(form):
    # 40 terms span log 40 in log y, which asks for chebyshev_size(24) = 54
    # points: more than the terms, and the interpolant still meets the
    # direct weights
    cfg = AfeConfig(n_afe=40)
    assert_matches_direct(afe_value(form, 5.0, cfg), direct_afe(form, 5.0, cfg))


@pytest.mark.parametrize("cfg, t", [(AfeConfig(), 5.0), (lfunc.SCAN_CONFIG, 250.0)])
def test_afe_value_matches_the_direct_weights(form30k, cfg, t):
    # inside an unsorted batch whose longest sum (at 2t) sets the Chebyshev
    # interval, and beside a sum of the same length at -t, t keeps its own
    # truncation and value
    batch = afe_values(form30k, [-t, 2 * t, t], cfg)
    assert [v.n_used for v in batch] == [cfg.resolved_n_afe(form30k, x) for x in (-t, 2 * t, t)]
    assert_matches_direct(batch[2], direct_afe(form30k, t, cfg))
    assert abs(batch[0].value - np.conj(batch[2].value)) <= 1e-12 * abs(batch[2].value)


@pytest.mark.parametrize(
    "kind", [None, maass_kind(9.5, 0), maass_kind(4.2, 1), maass_kind(0.2j, 0)],
    ids=["delta", "maass-even", "maass-odd", "maass-exceptional"],
)
def test_reflected_ratio_is_the_conjugated_contour(form, kind):
    # V_(1-s) from V_s's gamma ratio conjugated and reversed in v, against
    # the contour taken at 1 - s itself. At t = 250 |log gamma| is ~800, and
    # its last-bit rounding alone moves V at small y by up to 6e-13 between
    # the two, so the bound there is 1e-12.
    shape = form if kind is None else types.SimpleNamespace(kind=kind)
    cfg = AfeConfig()
    ts = np.array([0.0, 5.0, -12.0, 60.0, 250.0])
    log_nodes = np.linspace(-1.0, math.log(30000.0), 40)
    nodal = lfunc._nodal_weights(shape, ts, log_nodes, cfg).view(complex)
    ys = np.exp(log_nodes)
    for j, t in enumerate(ts):
        for column, s in enumerate((0.5 + 1j * t, 0.5 - 1j * t)):
            ref = afe_weight(shape, s, ys, cfg)
            bound = 1e-12 if t == 250.0 else 1e-13
            assert np.max(np.abs(nodal[:, j, column] / ys - ref)) <= bound


def test_a_scan_grid_gives_the_records_of_single_t_calls(form):
    grid = np.linspace(10.0, 250.0, 20)
    scan = growth_scan(form, grid)
    for record, t in zip(scan.records, grid):
        single = afe_value(form, t, lfunc.SCAN_CONFIG)
        assert record.t == t and record.n_used == single.n_used
        assert record.l_abs == pytest.approx(abs(single.value), rel=1e-12)
        assert record.tail_estimate == pytest.approx(single.tail_estimate, rel=1e-10)
        assert record.flagged == (single.tail_estimate >= lfunc.TAIL_FRACTION * abs(single.value))


def test_growth_scan_memory_stays_flat(form30k):
    # the per-t route peaked at 7.9 MiB; the t axis held whole, at 57 MiB
    tracemalloc.start()
    try:
        growth_scan(form30k, np.linspace(10.0, 500.0, 200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_weight_approaches_one_at_origin(form, monkeypatch):
    # V_s(y) -> G(0) = 1 as y -> 0; evaluated on a low abscissa where the
    # y^(-u) factor stays tame
    monkeypatch.setattr(lfunc, "ABSCISSA", 0.25)
    vals = afe_weight(form, 0.5 + 0j, np.array([1e-3, 1e-4]), AfeConfig())
    assert vals[1].real == pytest.approx(1.0, abs=2e-3)
    assert abs(vals[1] - 1.0) < abs(vals[0] - 1.0) + 1e-3


def test_weight_abscissa_independence(form, monkeypatch):
    # the contour abscissa is free in (0, 4]: values agree across choices
    ys = np.array([0.5, 2.0, 10.0])
    monkeypatch.setattr(lfunc, "ABSCISSA", 3.0)
    a = afe_weight(form, 0.5 + 5j, ys, AfeConfig())
    monkeypatch.setattr(lfunc, "ABSCISSA", 1.5)
    b = afe_weight(form, 0.5 + 5j, ys, AfeConfig())
    assert np.max(np.abs(a - b)) < 1e-9


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


def inject_values(monkeypatch, value_at):
    """The scan reads |L(1/2 + it)| = value_at(t) instead of evaluating the AFE."""
    monkeypatch.setattr(
        lfunc, "afe_values", lambda form, ts, cfg: [lfunc.AfeValue(value_at(t), 0, 0.0) for t in ts]
    )


def test_growth_scan_constant_injection(form, monkeypatch):
    inject_values(monkeypatch, lambda t: 1.0)
    scan = growth_scan(form, np.linspace(10.0, 500.0, 40))
    assert scan.exponent == pytest.approx(0.0, abs=1e-12)


def test_growth_scan_density_stability(form, monkeypatch):
    # stability requires grids dense enough to resolve the |L| oscillation
    # (spacing well under 1 in t); undersampled envelopes are noisy
    monkeypatch.setattr(lfunc, "SCAN_WINDOWS", 6)
    coarse = growth_scan(form, np.linspace(10.0, 40.0, 60))
    fine = growth_scan(form, np.linspace(10.0, 40.0, 120))
    assert abs(coarse.exponent - fine.exponent) <= 0.05


def test_growth_scan_guards_low_t(form):
    with pytest.raises(PreconditionError):
        growth_scan(form, [1.0, 10.0])


def test_growth_scan_guards_a_grid_too_sparse_to_fit(form, monkeypatch):
    inject_values(monkeypatch, lambda t: 1.0)
    monkeypatch.setattr(lfunc, "SCAN_WINDOWS", 1)
    with pytest.raises(PreconditionError, match="fit needs 2"):
        growth_scan(form, [20.0, 21.0])


def test_scan_length_is_the_longest_afe_sum(form):
    grid = np.linspace(10.0, 500.0, 200)
    n = scan_length(form, grid)
    assert n == lfunc.SCAN_CONFIG.resolved_n_afe(form, 500.0) <= 30000
    # it reads the gamma factor and level only, so a coefficient-free stand-in agrees
    assert scan_length(constant_form(0), grid) == n
    assert scan_length(form, [20.0, 700.0]) > 30000


def test_growth_scan_window_edges_keep_the_grid_ends(form, monkeypatch):
    # exp(log 700) rounds to 700 - 2.3e-13: the last window must still hold t = 700
    inject_values(monkeypatch, {600.0: 1.0, 700.0: 2.0}.get)
    scan = growth_scan(form, [600.0, 700.0])
    assert [best for _, best in scan.window_maxima] == [1.0, 2.0]


def test_growth_scan_guards_a_single_point_grid(form, monkeypatch):
    # one t lies in every window at once; it is no interval to fit over
    inject_values(monkeypatch, lambda t: 1.0)
    with pytest.raises(PreconditionError, match="spans no interval"):
        growth_scan(form, [600.0, 600.0])
