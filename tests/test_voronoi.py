import math

import numpy as np
import pytest

from weyldelta import checks
from weyldelta.errors import PreconditionError
from weyldelta.forms import constant_form, delta_form
from weyldelta.numerics import edges_rule, loglog_slope, panel_rule
from weyldelta.specialfn import gamma_factor, holomorphic_kind, maass_kind
from weyldelta.testfn import make_window_v
from weyldelta.voronoi import (
    VoronoiInstance,
    WhatTransform,
    calibrate_eta,
    direct_side,
    dual_side,
    voronoi_check,
    what_transform,
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


def test_holomorphic_minus_transform_vanishes(window):
    assert what_transform(holomorphic_kind(12), window, 3.7, -1) == 0.0


def test_transform_linear_in_window(form, window, transform):
    # zero window maps to zero
    zero = type(window)(
        support=window.support,
        normalization="unit-integral",
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
        contour = transform._eval_contour(
            np.array([y]), transform.kernel_plus, transform.front_plus
        )[0]
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


def _adaptive_what_plus(window, ys, k=12, sigma=0.5, tau_max=2000.0, u_panels=160):
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
    u, w_u = panel_rule(math.log(a), math.log(b), u_panels, 16)
    wt = window(np.exp(u)) * np.exp(u * (1 - sigma / 2)) * w_u
    mellin = np.concatenate(
        [np.exp(-0.5j * np.outer(tau[i : i + 2000], u)) @ wt for i in range(0, len(tau), 2000)]
    )
    kernel = mellin * np.array([gamma_factor(holomorphic_kind(k), sigma + 1j * t) for t in tau])
    near = ys < WhatTransform.Y_SPLIT
    out = np.empty(len(ys), dtype=complex)
    out[near] = _contour_per_y(tau, w_tau, kernel, sigma, 1j ** (k - 1) / 2.0, ys[near])
    far = ys[~near]
    cycles = 2 * math.sqrt(far.max()) * (math.sqrt(b) - math.sqrt(a))
    xs, ws = panel_rule(a, b, max(8, math.ceil(1.2 * cycles)), 16)
    bessel = _hankel_j(k - 1, 4 * math.pi * np.sqrt(np.outer(far, xs)))
    out[~near] = 2 * math.pi * 1j**k * (bessel @ (ws * window(xs)))
    return out


def test_transform_matches_adaptive_edge_routes(window, transform):
    # equal tau panels and the u = sqrt(x) Hankel sums against the
    # adaptive-edge contour and the x-space Bessel sum they replaced
    ys = np.geomspace(0.05, 2e4, 400)
    ref = _adaptive_what_plus(window, ys)
    got = transform.eval(ys)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_contour_route_matches_per_y_loop(transform):
    ys = np.geomspace(0.05, 449.0, 300)
    tr = transform
    ref = _contour_per_y(tr.tau_nodes, tr.tau_weights, tr.kernel_plus, tr.sigma, tr.front_plus, ys)
    got = tr._eval_contour(ys, tr.kernel_plus, tr.front_plus)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("sign", [+1, -1])
def test_maass_contour_route_matches_per_y_loop(window, sign):
    tr = WhatTransform(maass_kind(9.5, 0), window, tau_max=400.0)
    ys = np.geomspace(0.05, 4000.0, 300)
    kernel, front = (
        (tr.kernel_plus, tr.front_plus) if sign == +1 else (tr.kernel_minus, -tr.front_minus)
    )
    ref = _contour_per_y(tr.tau_nodes, tr.tau_weights, kernel, tr.sigma, front, ys)
    got = tr.eval(ys, sign=sign, eps_g=-1.0)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_bessel_route_matches_per_y_loop(window, transform):
    ys = np.geomspace(450.0, 2e4, 300)
    grid = transform._bessel_grid(float(ys.max()))
    u = grid.nodes
    du = 2 * u * window(u * u) * grid.weights
    k = transform.kind.weight
    ref = np.array([2 * math.pi * 1j**k * (_hankel_j(k - 1, 4 * math.pi * math.sqrt(y) * u) @ du)
                    for y in ys])
    got = transform._eval_bessel(ys)
    # What is ~1e-5 out here, so the scale is its maximum near y = 1
    what_max = np.max(np.abs(transform.eval(np.geomspace(0.05, 449.0, 200))))
    assert np.max(np.abs(got - ref)) <= 1e-12 * what_max


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
    with pytest.raises(PreconditionError):
        transform.eval(-1.0)
    with pytest.raises(PreconditionError):
        transform.eval(2.0, sign=0)


def test_maass_transform_structural(window):
    # structural checks only: symmetric in the spectral sign, minus branch
    # carries the reflection eigenvalue linearly
    kind_p = maass_kind(9.5, 0)
    kind_m = maass_kind(-9.5, 0)
    tr_p = WhatTransform(kind_p, window, tau_max=400.0)
    tr_m = WhatTransform(kind_m, window, tau_max=400.0)
    y = 3.0
    assert tr_p.eval(y, +1) == pytest.approx(tr_m.eval(y, +1), rel=1e-12)
    minus_1 = tr_p.eval(y, -1, eps_g=1.0)
    minus_2 = tr_p.eval(y, -1, eps_g=-1.0)
    assert minus_1 == pytest.approx(-minus_2, rel=1e-12)


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
        normalization="unit-integral",
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


def test_calibration_modulus_and_consistency(calibrated):
    assert abs(calibrated.eta) == pytest.approx(1.0, abs=1e-12)  # normalized
    assert abs(calibrated.eta_modulus_raw - 1.0) <= 1e-6
    assert calibrated.eta_probe_spread <= 1e-4


def test_calibration_needs_two_probes(form, window):
    with pytest.raises(PreconditionError):
        calibrate_eta(form, [VoronoiInstance(form, a=1, c=1, window=window, scale=20.0)])


def test_gcd_guard(form, window):
    inst = VoronoiInstance(form, a=1, c=3, window=window, scale=20.0)
    inst.a = 3  # force a degenerate twist past the constructor validation
    with pytest.raises(ValueError):
        dual_side(inst, strip_eta=True)
