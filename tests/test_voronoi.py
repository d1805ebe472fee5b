import dataclasses
import math

import numpy as np
import pytest

from weyldelta import checks
from weyldelta.errors import PreconditionError
from weyldelta.forms import CuspForm, constant_form, delta_form
from weyldelta.numerics import PanelGrid, edges_rule, loglog_slope, modular_inverse, unit_phases
from weyldelta.specialfn import gamma_factor, holomorphic_kind, maass_kind
from weyldelta.testfn import make_window_v
from weyldelta.voronoi import (
    VoronoiInstance,
    WhatTransform,
    calibrate_eta,
    direct_side,
    dual_side,
    term_weight,
    voronoi_check,
)


@pytest.fixture(scope="module")
def form():
    f = delta_form(20000)
    return f


@pytest.fixture(scope="module")
def window():
    return make_window_v()


@pytest.fixture(scope="module")
def transform(form, window):
    return WhatTransform(form.kind, window)


@pytest.fixture(scope="module")
def calibrated(form, window, transform):
    if form.eta is None:
        calibrate_eta(
            form,
            [
                VoronoiInstance(form, a=1, c=1, window=window, scale=20.0),
                VoronoiInstance(form, a=1, c=3, window=window, scale=50.0),
            ],
            transform=transform,
        )
    return form


def test_holomorphic_minus_transform_vanishes(transform):
    value = transform.eval(3.7, sign=-1)
    assert type(value) is complex and value == 0
    assert np.array_equal(transform.eval(np.array([3.7]), sign=-1), np.zeros(1, dtype=complex))


def test_transform_linear_in_window(form, window, transform):
    # zero window maps to zero
    zero = type(window)(
        support=window.support,
        evaluator=lambda x, order: 0.0 * np.asarray(x),
    )
    tr0 = WhatTransform(form.kind, zero)
    assert tr0.eval(5.0) == 0.0


def test_transform_decay(form, transform):
    # the superpolynomial regime needs room: over [1, 100] the envelope
    # still decays like y^(-1.2) (pre-asymptotic bump structure); by
    # y ~ 2e4 the local slope passes -4 and the global fit crosses -2
    ys = np.geomspace(1.0, 2e4, 15)
    vals = np.abs(transform.eval(ys))
    assert loglog_slope(ys, vals) <= -2.0
    assert vals[-1] < 1e-9
    # A = 2 instance of the rapid-decay statement
    ys_band = np.geomspace(1.0, 1000.0, 31)
    scaled = ys_band**2 * np.abs(transform.eval(ys_band))
    assert np.max(scaled) < 50.0


def test_transform_routes_agree_at_seam(form, transform):
    for y in (430.0, 449.0, 451.0, 480.0, 700.0):
        front, kernel = transform.kernels[+1]
        contour = transform._eval_contour(np.array([y]), kernel, front)[0]
        bessel = transform._eval_bessel(np.array([y]))[0]
        assert abs(contour - bessel) < 1e-9


def _hankel_j(nu, v):
    """J_nu(v) by three cosine and three sine terms of the Hankel series (oracle)."""
    mu = 4.0 * nu * nu
    inv8v = 1.0 / (8.0 * v)
    p_ser = (
        1.0
        - (mu - 1) * (mu - 9) / 2.0 * inv8v**2
        + (mu - 1) * (mu - 9) * (mu - 25) * (mu - 49) / 24.0 * inv8v**4
    )
    q_ser = (
        (mu - 1) * inv8v
        - (mu - 1) * (mu - 9) * (mu - 25) / 6.0 * inv8v**3
        + (mu - 1) * (mu - 9) * (mu - 25) * (mu - 49) * (mu - 81) / 120.0 * inv8v**5
    )
    omega = v - (nu * 0.5 + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * v)) * (np.cos(omega) * p_ser - np.sin(omega) * q_ser)


def _contour_per_y(tau_nodes, tau_weights, kernel, sigma, front, ys):
    """The contour route by one complex exponential per (y, tau) node (oracle)."""
    weighted = tau_weights * kernel
    return np.array(
        [front * 2j * (np.exp(-0.5 * math.log(y) * (sigma + 1j * tau_nodes)) @ weighted).real
         for y in ys]
    )


def _adaptive_what_plus(window, ys, k=12, sigma=0.5, tau_max=4000.0, u_panels=160):
    """What_plus of weight k by the adaptive-edge contour and x-space Bessel routes.

    The tau panels shrink with the local phase rate, the Mellin table is one
    exponential per (tau, u) pair, and the far regime sums W(x) J_{k-1}(4 pi
    sqrt(x y)) over an x rule with 1.2 panels per cycle at the largest y.
    """
    a, b = window.support
    edges, t = [0.0], 0.0
    log_y = math.log(WhatTransform.Y_SPLIT) / 2.0
    while t < tau_max:
        rate = max(math.log(max(t, 8.0) / (4 * math.pi)), 0.2) + log_y + 0.5
        t = min(t + min(2 * math.pi * 1.5 / rate, 8.0), tau_max)
        edges.append(t)
    tau, w_tau = edges_rule(np.array(edges), 16)
    u_grid = PanelGrid(math.log(a), math.log(b), u_panels)
    u = u_grid.nodes
    wt = window(np.exp(u)) * np.exp(u * (1 - sigma / 2)) * u_grid.weights
    mellin = np.concatenate(
        [np.exp(-0.5j * np.outer(tau[i : i + 2000], u)) @ wt for i in range(0, len(tau), 2000)]
    )
    kernel = mellin * np.array([gamma_factor(holomorphic_kind(k), sigma + 1j * t) for t in tau])
    near = ys < WhatTransform.Y_SPLIT
    out = np.empty(len(ys), dtype=complex)
    out[near] = _contour_per_y(tau, w_tau, kernel, sigma, 1j ** (k - 1) / 2.0, ys[near])
    far = ys[~near]
    cycles = 2 * math.sqrt(far.max()) * (math.sqrt(b) - math.sqrt(a))
    x_grid = PanelGrid(a, b, max(8, math.ceil(1.2 * cycles)))
    bessel = _hankel_j(k - 1, 4 * math.pi * np.sqrt(np.outer(far, x_grid.nodes)))
    out[~near] = 2 * math.pi * 1j**k * (bessel @ (x_grid.weights * window(x_grid.nodes)))
    return out


def test_transform_matches_adaptive_edge_routes(window, transform):
    # the omega table against the adaptive-edge contour and the x-space Bessel
    # sum it replaced; the reference contour runs to tau = 4000, since a cut at
    # 2000 leaves it 6e-12 to 2.8e-11 off the converged transform
    ys = np.geomspace(0.05, 2e4, 400)
    ref = _adaptive_what_plus(window, ys)
    got = transform.eval(ys)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_contour_route_matches_per_y_loop(transform):
    ys = np.geomspace(0.05, 449.0, 300)
    tr = transform
    front, kernel = tr.kernels[+1]
    ref = _contour_per_y(tr.tau_nodes, tr.tau_weights, kernel, tr.sigma, front, ys)
    got = tr._eval_contour(ys, kernel, front)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("sign", [+1, -1])
def test_maass_contour_route_matches_per_y_loop(window, sign):
    tr = WhatTransform(maass_kind(9.5, 0), window)
    ys = np.geomspace(0.05, 4000.0, 300)
    front, kernel = tr.kernels[sign]
    eps = 1.0 if sign == +1 else -1.0  # eps_g = -1 on the minus term, applied outside eval
    ref = _contour_per_y(tr.tau_nodes, tr.tau_weights, kernel, tr.sigma, eps * front, ys)
    got = eps * tr.eval(ys, sign=sign)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _two_branch_what(tr, ys, sign, eps_g):
    """Maass What_pm from the kernels m_W (g0 -/+ g1) and the fronts 1/2i and
    eps_g/2i, written out branch by branch (oracle)."""
    a, b = tr.window.support
    u_grid = PanelGrid(math.log(a), math.log(b), WhatTransform.U_PANELS)
    u = u_grid.nodes
    wt = tr.window(np.exp(u)) * np.exp(u * (1 - tr.sigma / 2)) * u_grid.weights
    m_vals = tr.tau_grid.sums_at_nodes(wt, 0.5 * u)
    s_nodes = tr.sigma + 1j * tr.tau_nodes
    g0, g1 = (gamma_factor(maass_kind(tr.kind.ell, d), s_nodes) for d in (0, 1))
    kernel = m_vals * (g0 - g1) if sign == +1 else m_vals * (g0 + g1)
    front = 1.0 / 2j if sign == +1 else eps_g / 2j
    sums = tr.tau_grid.sums_at_freqs(0.5 * np.log(ys), tr.tau_weights * kernel)
    return front * 2j * ys ** (-0.5 * tr.sigma) * sums.real


@pytest.mark.parametrize("ell", [9.5, 0.2j])
@pytest.mark.parametrize("sign", [+1, -1])
def test_maass_transform_matches_two_branch_formula(window, ell, sign):
    # absolute: the exceptional minus term peaks near 7.6e-3, so a bound
    # relative to max|What| would sit below the rounding of the kernel product
    tr = WhatTransform(maass_kind(ell, 0), window)
    ys = np.geomspace(0.05, 4000.0, 300)
    got = (1.0 if sign == +1 else -1.0) * tr.eval(ys, sign=sign)  # eps_g = -1, outside eval
    assert np.max(np.abs(got - _two_branch_what(tr, ys, sign, -1.0))) <= 1e-14


def _what_max(transform):
    # What is ~1e-5 beyond Y_SPLIT, so the scale is its maximum near y = 1
    return np.max(np.abs(transform.eval(np.geomspace(0.05, 449.0, 200))))


def test_bessel_route_matches_per_y_loop(window, transform):
    ys = np.geomspace(450.0, 2e4, 300)
    grid = transform._bessel_grid(float(ys.max()))
    u = grid.nodes
    du = 2 * u * window(u * u) * grid.weights
    k = transform.kind.weight
    ref = np.array([2 * math.pi * 1j**k * (_hankel_j(k - 1, 4 * math.pi * math.sqrt(y) * u) @ du)
                    for y in ys])
    got = transform._eval_bessel(ys)
    assert np.max(np.abs(got - ref)) <= 1e-12 * _what_max(transform)


def test_far_table_matches_bessel_route(form, window, transform):
    ys = np.geomspace(450.0, 2e4, 3000)
    tol = 1e-12 * _what_max(transform)
    assert np.max(np.abs(transform.eval(ys) - transform._eval_bessel(ys))) <= tol
    # a lone deep y builds the one group of omega panels it falls in
    tr = WhatTransform(form.kind, window)
    assert abs(tr.eval(1e6) - tr._eval_bessel(np.array([1e6]))[0]) <= tol
    g = tr.PANEL_GROUP
    first = int((4 * math.pi * 1e3 - tr._omega_seam) // tr.PANEL_WIDTH) // g * g
    assert sorted(tr._panels) == list(range(first, first + g))


def _bessel_integral_j(n, z):
    """J_n(z), integer n, by the trapezoid rule on Bessel's integral
    (1/pi) int_0^pi cos(n theta - z sin theta) d theta (DLMF 10.9.2): by symmetry
    the periodic rule on 2m points, exact to rounding once 2m - n outruns z."""
    m = int(z.max() + n) // 2 + 100
    theta = np.pi * np.arange(m + 1) / m
    w = np.full(m + 1, 1.0 / m)
    w[[0, -1]] /= 2
    return np.concatenate(
        [np.cos(n * theta - zs[:, None] * np.sin(theta)) @ w for zs in np.array_split(z, len(z) // 256 + 1)]
    )


def _bessel_integral_what(window, k, ys):
    """What_plus of weight k by Bessel's integral in u = sqrt(x), on a u rule of
    1.5 panels per cycle and at least 40 panels (oracle)."""
    a, b = (math.sqrt(e) for e in window.support)
    out = []
    for y in ys:
        omega = 4 * math.pi * math.sqrt(y)
        grid = PanelGrid(a, b, max(40, math.ceil(1.5 * omega * (b - a) / (2 * math.pi))))
        u = grid.nodes
        du = 2 * u * window(u * u) * grid.weights
        out.append(2 * math.pi * 1j**k * (_bessel_integral_j(k - 1, omega * u) @ du))
    return np.array(out)


@pytest.mark.parametrize("k, seam", [(12, 450.0), (18, 2116.0), (24, 7088.0), (36, 38011.0)])
def test_far_regime_starts_at_the_weights_seam(window, k, seam):
    # the Hankel series' dropped terms need omega >= 2 (k-1)^2: a seam fixed at
    # y = 450 was 2.6e-10, 1.3e-8 and 2.6e-6 of max|What| off at y = 460 for
    # k = 18, 24 and 36
    tr = WhatTransform(holomorphic_kind(k), window)
    assert tr.y_seam == pytest.approx(seam, abs=0.5)
    ys = np.r_[460.0, tr.y_seam * np.geomspace(0.5, 2.0, 4)]
    ref = _bessel_integral_what(window, k, ys)
    assert np.max(np.abs(tr.eval(ys) - ref)) <= 1e-10 * _what_max(tr)


@pytest.mark.parametrize("k", [12, 18, 24])
def test_near_table_matches_bessel_integral(window, k):
    # the near panels, seeded by Bessel's integral over the S table; the
    # contour route, cut at TAU_MAX, is up to 8.6e-11 of max|What| off here
    tr = WhatTransform(holomorphic_kind(k), window)
    ys = np.geomspace(1e-6, tr.y_seam, 40, endpoint=False)
    ref = _bessel_integral_what(window, k, ys)
    assert np.max(np.abs(tr.eval(ys) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_contour_route_and_table_agree_at_near_y(transform):
    # the two routes write their fronts independently, i^(k-1)/2 * 2i on the
    # contour and 2 pi i^k on the table, so a phase or sign slip shows here
    ys = np.array([0.05, 0.3, 1.0, 2.5, 7.0, 40.0, 200.0, 449.0])
    front, kernel = transform.kernels[+1]
    contour = transform._eval_contour(ys, kernel, front)
    assert np.max(np.abs(transform.eval(ys) - contour)) <= 1e-10 * _what_max(transform)


def test_holomorphic_eval_builds_no_mellin_table(form, window):
    tr = WhatTransform(form.kind, window)
    tr.eval(np.geomspace(0.05, 3e4, 200))
    assert "kernels" not in vars(tr)
    front, kernel = tr.kernels[+1]  # the contour route's first use builds and keeps it
    assert "kernels" in vars(tr) and kernel.shape == tr.tau_nodes.shape


def test_table_value_does_not_depend_on_its_batch(form, window, transform):
    # near and far: a lone y on a fresh transform, whose panels are built in
    # another order, reads the value the batch read
    ys = np.geomspace(0.05, 3e4, 500)
    batch = transform.eval(ys)
    fresh = WhatTransform(form.kind, window)
    for i in range(len(ys) - 1, -1, -37):
        assert transform.eval(float(ys[i])) == batch[i]
        assert fresh.eval(float(ys[i])) == batch[i]


def test_panel_coefficients_do_not_depend_on_touch_order(form, window):
    # one batch against single far and near y in descending order: every panel
    # both transforms hold, of either table, has the same bytes
    ys = np.geomspace(1e-3, 3e4, 400)
    batch, single = WhatTransform(form.kind, window), WhatTransform(form.kind, window)
    batch.eval(ys)
    for y in ys[::-41]:
        single.eval(float(y))
    for table in ("_panels", "_seeds"):
        one, two = getattr(batch, table), getattr(single, table)
        shared = one.keys() & two.keys()
        assert min(shared) < 0 and (table == "_seeds" or max(shared) > 0)
        assert all(one[p].tobytes() == two[p].tobytes() for p in shared)
    # a far y and a near y read alone what they read as a pair
    pair = WhatTransform(form.kind, window).eval(np.array([7.0, 9000.0]))
    alone = WhatTransform(form.kind, window)
    assert alone.eval(9000.0) == pair[1] and alone.eval(7.0) == pair[0]


def test_table_builds_one_sum_per_panel_group(form, window, monkeypatch):
    # far groups take one Hankel sum each, near groups one S-table sum per
    # seed group; a build per panel would make 112 sums here, not 15
    calls = []
    sums_at_freqs = PanelGrid.sums_at_freqs

    def counted(grid, freqs, values):
        calls.append(len(freqs))
        return sums_at_freqs(grid, freqs, values)

    monkeypatch.setattr(PanelGrid, "sums_at_freqs", counted)
    tr = WhatTransform(form.kind, window)
    tr.eval(np.geomspace(1e-3, 2e4, 2000))
    g = tr.PANEL_GROUP
    far_top = int((4 * math.pi * math.sqrt(2e4) - tr._omega_seam) // tr.PANEL_WIDTH)
    near_groups = len({p // g for p in range(-tr._near_panels, 0)})
    assert len(calls) == far_top // g + 1 + near_groups == 15
    assert sorted(tr._panels) == list(range(-tr._near_panels, (far_top // g + 1) * g))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_panel_positions_match_np_unique(seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(-17, 120, size=rng.integers(1, 3000)).astype(np.intp)
    for got, want in zip(WhatTransform._unique_inverse(keys), np.unique(keys, return_inverse=True)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_far_table_converged_in_panel_width(form, window, transform):
    class HalfWidth(WhatTransform):
        PANEL_WIDTH = WhatTransform.PANEL_WIDTH / 2

    ys = np.geomspace(450.0, 2e4, 1000)
    moved = np.max(np.abs(HalfWidth(form.kind, window).eval(ys) - transform.eval(ys)))
    assert moved < 1e-13 * _what_max(transform)


@pytest.mark.parametrize("n_max, capped", [(30000, True), (60000, False)])
def test_voronoi_cell_reports_n_cut_cap(n_max, capped, monkeypatch):
    # the (N, c) = (5, 5) cell asks for 8000 c^2 / N = 40000 dual terms; the
    # flag is about lengths only, so a unit coefficient stream of n_max terms
    # stands in for a stored form (its residual is not checked)
    def unit_stream(n):
        form = constant_form(n_max)
        form.eta = 1.0 + 0.0j
        return form

    monkeypatch.setattr(checks, "delta_form", unit_stream)
    cell = next(c for c in checks.CHECKS if c.name == "voronoi-N5-a1-c5")
    assert cell.coefficients == 40000
    ctx = checks.CheckContext(checks=[cell])
    values = cell.run(ctx).values
    assert values["n_cut_wanted"] == 40000
    assert values["rhs_terms"] == min(n_max, 40000)
    assert values["n_cut_capped"] is capped


def test_transform_rejects_bad_arguments(form, transform):
    for bad in (-1.0, math.nan, math.inf, np.array([2.0, math.nan]), np.array([500.0, math.inf])):
        with pytest.raises(PreconditionError):
            transform.eval(bad)
    with pytest.raises(PreconditionError):
        transform.eval(2.0, sign=0)


def test_maass_transform_structural(window):
    # structural checks only: symmetric in the spectral sign, and the term
    # weight carries the reflection eigenvalue linearly on the minus term alone
    kind_p = maass_kind(9.5, 0)
    kind_m = maass_kind(-9.5, 0)
    tr_p = WhatTransform(kind_p, window)
    tr_m = WhatTransform(kind_m, window)
    y = 3.0
    assert tr_p.eval(y, +1) == pytest.approx(tr_m.eval(y, +1), rel=1e-12)
    even = dataclasses.replace(constant_form(10), kind=kind_p, epsilon_g=1.0)
    odd = dataclasses.replace(even, epsilon_g=-1.0)
    ns = np.arange(1, 40)
    assert np.array_equal(term_weight(odd, -1, 2, 7, ns), -term_weight(even, -1, 2, 7, ns))
    assert np.array_equal(term_weight(odd, +1, 2, 7, ns), term_weight(even, +1, 2, 7, ns))


def test_instance_validation(form, window):
    with pytest.raises(PreconditionError):
        VoronoiInstance(form, a=2, c=4, window=window, scale=20.0)
    with pytest.raises(PreconditionError):
        VoronoiInstance(form, a=1, c=0, window=window, scale=20.0)


def test_identity_basic_cells(calibrated, window, transform):
    for a, c in ((1, 1), (1, 3)):
        chk = voronoi_check(
            VoronoiInstance(calibrated, a=a, c=c, window=window, scale=20.0), transform=transform
        )
        assert chk.residual <= 1e-6


def test_identity_held_out_cell(calibrated, window, transform):
    chk = voronoi_check(
        VoronoiInstance(calibrated, a=1, c=5, window=window, scale=20.0), transform=transform
    )
    assert chk.residual <= 1e-6


def test_twist_periodicity(calibrated, window, transform):
    # a and a + c give identical sides bit for bit (integer phase reduction)
    base = voronoi_check(
        VoronoiInstance(calibrated, a=1, c=3, window=window, scale=20.0), transform=transform
    )
    shifted = voronoi_check(
        VoronoiInstance(calibrated, a=4, c=3, window=window, scale=20.0), transform=transform
    )
    assert base.lhs == shifted.lhs
    assert base.rhs == shifted.rhs


def test_linearity_in_window(calibrated, window, transform):
    # both sides are linear in W: doubling the window doubles them
    doubled = type(window)(
        support=window.support,
        evaluator=lambda x, order: 2.0 * window.evaluator(x, order),
    )
    inst_1 = VoronoiInstance(calibrated, a=1, c=3, window=window, scale=20.0)
    inst_2 = VoronoiInstance(calibrated, a=1, c=3, window=doubled, scale=20.0)
    tr2 = WhatTransform(calibrated.kind, doubled)
    lhs_1 = direct_side(inst_1)
    lhs_2 = direct_side(inst_2)
    assert lhs_2 == pytest.approx(2 * lhs_1, rel=1e-12)
    rhs_1, _, _ = dual_side(inst_1, transform=transform)
    rhs_2, _, _ = dual_side(inst_2, transform=tr2)
    assert rhs_2 == pytest.approx(2 * rhs_1, rel=1e-9)


def test_tail_estimate_is_on_the_residual_scale(calibrated, window, transform):
    # the l2 size of the last tenth of the raw dual terms, times the rhs
    # prefactor (N/c)/sqrt(M), over the residual's 1 + |lhs| + |rhs|
    scale, a, c = 20.0, 1, 5
    chk = voronoi_check(
        VoronoiInstance(calibrated, a=a, c=c, window=window, scale=scale), transform=transform
    )
    ns = np.arange(1, chk.rhs_terms + 1)
    terms = (
        calibrated.lam[: chk.rhs_terms]
        * unit_phases(-modular_inverse(a, c) * ns, c)
        * transform.eval(ns * scale / c**2)
    )
    raw = math.sqrt(np.sum(np.abs(terms[int(0.9 * chk.rhs_terms) :]) ** 2))
    expected = (scale / c) * raw / (1.0 + abs(chk.lhs) + abs(chk.rhs))
    assert chk.tail_estimate == pytest.approx(expected, rel=1e-12)


def test_calibration_modulus_and_consistency(calibrated):
    assert abs(calibrated.eta) == pytest.approx(1.0, abs=1e-12)  # normalized
    assert abs(calibrated.eta_modulus_raw - 1.0) <= 1e-6
    assert calibrated.eta_probe_spread <= 1e-4


def test_calibration_needs_two_probes(form, window, transform):
    with pytest.raises(PreconditionError):
        calibrate_eta(
            form, [VoronoiInstance(form, a=1, c=1, window=window, scale=20.0)], transform=transform
        )


def test_gcd_guard(form, window, transform):
    inst = VoronoiInstance(form, a=1, c=3, window=window, scale=20.0)
    inst.a = 3  # force a degenerate twist past the constructor validation
    with pytest.raises(ValueError):
        dual_side(inst, transform=transform)


def test_voronoi_check_needs_a_calibrated_eta(window, transform):
    inst = VoronoiInstance(constant_form(400), a=1, c=1, window=window, scale=20.0)
    with pytest.raises(PreconditionError, match="eta"):
        voronoi_check(inst, transform=transform)


def test_dual_side_is_eta_free(calibrated, window, transform):
    inst = VoronoiInstance(calibrated, a=1, c=3, window=window, scale=20.0)
    rhs0, _, _ = dual_side(inst, transform=transform)
    assert voronoi_check(inst, transform=transform).rhs == calibrated.eta * rhs0


PSI_MOD_5 = np.array([0, 1, 1j, -1j, -1])  # the quartic character mod 5 with psi(2) = i


def test_complex_coefficient_form_calibrates_and_passes_its_cells(window, transform):
    # Delta twisted by psi: lambda(n) psi(n), level 25, nebentypus psi^2, complex
    # coefficients; its dual side carries conj lambda, and eta = tau(psi)^2 / 5
    base = delta_form(40000)
    ns = np.arange(1, base.n_max + 1)
    chi = PSI_MOD_5[np.arange(25) % 5] ** 2
    twist = CuspForm(kind=base.kind, level=25, chi=chi, lam=base.lam * PSI_MOD_5[ns % 5])
    probes = [
        VoronoiInstance(twist, a=a, c=c, window=window, scale=scale)
        for a, c, scale in checks.ETA_PROBES
    ]
    eta = calibrate_eta(twist, probes, transform=transform)
    gauss = np.sum(PSI_MOD_5 * np.exp(2j * np.pi * np.arange(5) / 5))
    assert abs(twist.eta_modulus_raw - 1.0) <= 1e-6
    assert abs(eta - gauss**2 / 5) <= 1e-6
    for scale, a, c in ((20.0, 1, 1), (50.0, 1, 2), (50.0, 2, 3)):
        inst = VoronoiInstance(twist, a=a, c=c, window=window, scale=scale)
        assert voronoi_check(inst, transform=transform).residual <= 1e-6
