import math

import numpy as np
import pytest

from weyldelta import oscillate
from weyldelta.errors import BudgetExceededError, PreconditionError
from weyldelta.numerics import gauss_legendre
from weyldelta.oscillate import OscillatoryResult, integrate_1d
from weyldelta.testfn import make_window_u, make_window_v

# int_0^1 e(x^2) dx at 40 digits
FRESNEL_REF = complex(0.2441267030376703772501117516786, 0.1717078391818491210976504079790)

V = make_window_v()
U = make_window_u()


def integrate_1d_per_cell(g, f, a, b, tol=1e-10, budget=None):
    """The depth-first per-cell loop that integrate_1d replaces: the oracle.

    One cell per step, right child first: a cell spanning more than one
    oscillation of f is bisected (below depth 60); otherwise a GL16/GL8 pair
    decides. Every cell past the budget is accepted as it stands.
    """
    if budget is None:
        budget = oscillate.DEFAULT_CELL_BUDGET
    x16, w16 = gauss_legendre(16)
    x8, w8 = gauss_legendre(8)
    span = float(b) - float(a)

    def cell_value(lo, hi):
        h = (hi - lo) / 2.0
        mid = (hi + lo) / 2.0
        xs_f = mid + h * x16
        vals_f = np.asarray(g(xs_f)) * np.exp(2j * np.pi * np.asarray(f(xs_f)))
        fine = h * np.sum(w16 * vals_f)
        mass = h * np.sum(np.abs(w16 * vals_f))
        xs_c = mid + h * x8
        vals_c = np.asarray(g(xs_c)) * np.exp(2j * np.pi * np.asarray(f(xs_c)))
        coarse = h * np.sum(w8 * vals_c)
        return fine, abs(fine - coarse), mass

    total = 0.0 + 0.0j
    err_total = 0.0
    cells = 0
    exhausted = False
    stack = [(float(a), float(b), 0)]
    while stack:
        lo, hi, depth = stack.pop()
        cells += 1
        if cells > budget:
            exhausted = True
            fine, err, _ = cell_value(lo, hi)
            total += fine
            err_total += err
            continue
        mid = (lo + hi) / 2.0
        flo, fmid, fhi = f(lo), f(mid), f(hi)
        osc = abs(fhi - fmid) + abs(fmid - flo)
        if osc > 1.0 and depth < 60:
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
            continue
        fine, err, mass = cell_value(lo, hi)
        floor = 4e-16 * (1.0 + 2.0 * math.pi * abs(float(fmid))) * mass
        if err <= max(tol * (hi - lo) / span, floor) or depth >= 60:
            total += fine
            err_total += err
        else:
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    return oscillate.OscillatoryResult(total, err_total, cells, budget_exhausted=exhausted)


def _fourier_mellin(beta, x0, sigma=1.0):
    """g, f of statphase.u_dagger_direct on the window U at r = beta / (2 pi x0)."""
    r = beta / (2 * math.pi * x0)
    return (
        lambda x: U(x) * np.power(x, sigma - 1.0),
        lambda x: -r * x + beta * np.log(x) / (2 * math.pi),
    )


def _oracle_cases():
    """(label, g, f, a, b, tol): Fourier-Mellin draws on U, window-Fourier theta on V,
    the Fresnel integral and a flat phase."""
    rng = np.random.default_rng(8)
    cases = []
    strata = np.linspace(50.0, 800.0, 25)
    for k, beta in enumerate(rng.uniform(strata[:-1], strata[1:])):
        x0 = rng.uniform(1.0 + (k % 6) / 6, 1.0 + (k % 6 + 1) / 6)
        cases.append((f"fm-{beta:.1f}-{x0:.3f}", *_fourier_mellin(beta, x0), *U.support, 1e-12))
    strata = np.linspace(-60.0, 60.0, 41)
    for theta in rng.uniform(strata[:-1], strata[1:]):
        cases.append(
            (f"theta-{theta:.3f}", lambda x: V(x), lambda x, t=theta: t * x, *V.support, 1e-13)
        )
    cases.append(("fresnel", lambda x: np.ones_like(x), lambda x: x * x, 0.0, 1.0, 1e-13))
    cases.append(("flat", lambda x: V(x), lambda x: 0.0 * x, 1.0, 2.0, 1e-12))
    return cases


def test_level_passes_match_the_per_cell_oracle():
    for label, g, f, a, b, tol in _oracle_cases():
        new = integrate_1d(g, f, a, b, tol=tol)
        old = integrate_1d_per_cell(g, f, a, b, tol=tol)
        assert new.value == old.value, label
        assert new.abs_error_estimate == old.abs_error_estimate, label
        assert new.cells == old.cells, label
        assert not new.budget_exhausted and new.depth_capped == 0, label


def test_budget_flag_matches_the_per_cell_oracle():
    cases = [case for case in _oracle_cases() if case[0] in ("fresnel", "flat")]
    cases.append(("fm", *_fourier_mellin(300.0, 1.4), *U.support, 1e-12))
    cases.append(("theta", lambda x: V(x), lambda x: 17.3 * x, *V.support, 1e-13))
    for label, g, f, a, b, tol in cases:
        full = integrate_1d(g, f, a, b, tol=tol).cells
        for budget in [*range(40), full - 1, full, full + 1]:
            new = integrate_1d(g, f, a, b, tol=tol, budget=budget)
            old = integrate_1d_per_cell(g, f, a, b, tol=tol, budget=budget)
            assert new.budget_exhausted == old.budget_exhausted == (full > budget), (label, budget)
            assert new.cells >= min(full, budget)


def test_integrand_sees_flat_capped_node_arrays():
    shapes = []

    def g(x):
        shapes.append(x.shape)
        return V(x)

    res = integrate_1d(g, lambda x: 160.0 * x, 1.0, 2.0, tol=1e-13)
    assert res.cells > oscillate.EVAL_CELLS  # some pass evaluates more than one chunk
    assert all(len(shape) == 1 for shape in shapes)
    assert max(size for (size,) in shapes) == 24 * oscillate.EVAL_CELLS
    assert all(size % 24 == 0 for (size,) in shapes)


def test_depth_cap_is_counted():
    # x^(-1/2) is not integrable by any polynomial rule near 0: the cells
    # next to it bisect down to width 2^-60 and are accepted there
    res = integrate_1d(lambda x: x**-0.5, lambda x: 0.0 * x, 0.0, 1.0, tol=1e-13)
    assert res.depth_capped >= 1
    assert res.value == pytest.approx(2.0, abs=1e-8)
    old = integrate_1d_per_cell(lambda x: x**-0.5, lambda x: 0.0 * x, 0.0, 1.0, tol=1e-13)
    assert (res.value, res.abs_error_estimate, res.cells) == (old.value, old.abs_error_estimate, old.cells)
    smooth = integrate_1d(lambda x: np.ones_like(x), lambda x: x * x, 0.0, 1.0, tol=1e-13)
    assert smooth.depth_capped == 0


def test_phase_error_propagates():
    def f(x):
        raise ValueError("phase undefined")

    with pytest.raises(ValueError, match="phase undefined"):
        integrate_1d(lambda x: np.ones_like(x), f, 0.0, 1.0)


def test_flat_phase_reduces_to_plain_integral():
    res = integrate_1d(lambda x: V(x), lambda x: 0.0 * x, 1.0, 2.0, tol=1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-11)
    assert res.abs_error_estimate < 1e-10


def test_integer_frequency_full_periods_cancel():
    for m in (1, 3, 7):
        res = integrate_1d(lambda x: np.ones_like(x), lambda x: m * x, 0.0, 1.0, tol=1e-13)
        assert abs(res.value) < 1e-12


def test_fresnel_value_against_oracle():
    res = integrate_1d(lambda x: np.ones_like(x), lambda x: x * x, 0.0, 1.0, tol=1e-13)
    assert res.value == pytest.approx(FRESNEL_REF, abs=1e-12)


def test_linearity():
    f = lambda x: 3.0 * x + 0.2 * x * x
    g1 = lambda x: V(x)
    g2 = lambda x: V(x) * np.cos(x)
    a, b = 1.0, 2.0
    lhs = integrate_1d(lambda x: 2.0 * g1(x) + 0.5 * g2(x), f, a, b, tol=1e-12).value
    rhs = 2.0 * integrate_1d(g1, f, a, b, tol=1e-12).value + 0.5 * integrate_1d(
        g2, f, a, b, tol=1e-12
    ).value
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_conjugation():
    f = lambda x: 2.0 * x + x * x / 3
    plus = integrate_1d(lambda x: V(x), f, 1.0, 2.0, tol=1e-12).value
    minus = integrate_1d(lambda x: V(x), lambda x: -f(x), 1.0, 2.0, tol=1e-12).value
    assert minus == pytest.approx(np.conj(plus), abs=1e-11)


def test_refinement_consistency():
    f = lambda x: 15.0 * x + np.sin(3 * x)
    coarse = integrate_1d(lambda x: V(x), f, 1.0, 2.0, tol=1e-6)
    fine = integrate_1d(lambda x: V(x), f, 1.0, 2.0, tol=3e-7)
    assert abs(coarse.value - fine.value) <= max(coarse.abs_error_estimate, 1e-9)


def test_budget_flag_returns_partial():
    res = integrate_1d(
        lambda x: np.ones_like(x), lambda x: 5000.0 * x * x, 0.0, 1.0, tol=1e-14, budget=10
    )
    assert res.budget_exhausted
    assert res.cells >= 10


def test_converged_returns_the_value_or_names_the_failure():
    assert OscillatoryResult(1.5 + 2j, 1e-14, 7).converged("x") == 1.5 + 2j
    exhausted = OscillatoryResult(0.1j, 1e-3, 11, budget_exhausted=True, depth_capped=2)
    with pytest.raises(BudgetExceededError, match=r"^the probe exhausted 11 cells$"):
        exhausted.converged("the probe")
    capped = OscillatoryResult(2.0, 1e-3, 90, depth_capped=3)
    with pytest.raises(BudgetExceededError, match=r"^the probe accepted 3 cells at the depth cap$"):
        capped.converged("the probe")


def test_tolerance_must_be_positive():
    with pytest.raises(PreconditionError):
        integrate_1d(lambda x: x, lambda x: x, 0.0, 1.0, tol=0.0)
