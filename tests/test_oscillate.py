import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weyldelta
from weyldelta import oscillate
from weyldelta.errors import BudgetExceededError, PreconditionError
from weyldelta.numerics import gauss_legendre
from weyldelta.oscillate import OscillatoryResult, integrate_1d
from weyldelta.testfn import SmoothWindow, make_window_u, make_window_v

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


def _table_cases(window_u, window_v):
    """(label, window, f, tol): U at sigma = 1 on perfbench's 240 stratified
    Fourier-Mellin draws (seed 1) and at its no-stationary point, and V at
    +-theta, as statphase.u_dagger_direct and deltapipe._window_fourier pose them."""
    rng = np.random.default_rng(1)
    draws = 240
    cell = np.arange(draws) * 97 % draws
    beta_edges, x0_edges = np.linspace(50.0, 800.0, draws + 1), np.linspace(1.0, 2.0, draws + 1)
    betas = rng.uniform(beta_edges[:-1], beta_edges[1:])
    x0s = rng.uniform(x0_edges[cell], x0_edges[cell + 1])
    points = [(beta, beta / (2 * math.pi * x0)) for beta, x0 in zip(betas, x0s)]
    points.append((1000.0, -1000.0 / (2 * math.pi * 1.5)))
    cases = []
    for beta, r in points:
        f = lambda x, b=beta, r=r: -r * x + b * np.log(x) / (2 * math.pi)
        cases.append((f"fm-{beta:.1f}-{r:.2f}", window_u, f, 1e-12))
    for theta in (0.0, 1.3, 6.1, 17.3, 59.7):
        for sign in (1.0, -1.0):
            cases.append((f"theta-{sign * theta}", window_v, lambda x, t=sign * theta: t * x, 1e-13))
    return cases


def _same_result(new, old, label):
    assert new.value == old.value, label
    assert new.abs_error_estimate == old.abs_error_estimate, label
    assert new.cells == old.cells, label
    assert new.depth_capped == old.depth_capped, label
    assert new.budget_exhausted == old.budget_exhausted, label


def _table_bytes(window):
    return {depth: (rows.tobytes(), filled.tobytes()) for depth, (rows, filled) in window.node_table.items()}


def test_window_table_matches_the_callable_route():
    window_u, window_v = make_window_u(), make_window_v()
    for label, w, f, tol in _table_cases(window_u, window_v):
        table = integrate_1d(w, f, *w.support, tol=tol)
        called = integrate_1d(lambda x, w=w: w(x), f, *w.support, tol=tol)
        _same_result(table, called, label)
    assert max(window_u.node_table) == oscillate.TABLE_DEPTH  # the draws reach the deepest row
    # a table row holds what the window returns at that cell's nodes
    depth, (rows, filled) = max(window_u.node_table.items())
    key = np.flatnonzero(filled)
    lo, hi = np.array([0.5]), np.array([2.5])
    for _ in range(depth):
        mid = (lo + hi) / 2.0
        lo, hi = np.stack((lo, mid), axis=1).ravel(), np.stack((mid, hi), axis=1).ravel()
    xs, _ = oscillate._cell_nodes(lo[key], hi[key])
    assert rows[key].tobytes() == window_u(xs.ravel()).tobytes()
    assert not rows[~filled].any()


def test_window_table_matches_under_budget_depth_cap_and_a_shallow_table(monkeypatch):
    beta, x0 = 300.0, 1.4
    r = beta / (2 * math.pi * x0)
    cases = [
        ("fm", make_window_u(), lambda x: -r * x + beta * np.log(x) / (2 * math.pi), 1e-12),
        ("theta", make_window_v(), lambda x: 17.3 * x, 1e-13),
    ]
    for label, w, f, tol in cases:
        full = integrate_1d(w, f, *w.support, tol=tol).cells
        for budget in [*range(40), full - 1, full, full + 1]:
            table = integrate_1d(w, f, *w.support, tol=tol, budget=budget)
            called = integrate_1d(lambda x: w(x), f, *w.support, tol=tol, budget=budget)
            _same_result(table, called, (label, budget))
    for attr, value in (("MAX_DEPTH", 3), ("TABLE_DEPTH", 3)):
        with monkeypatch.context() as patch:
            patch.setattr(oscillate, attr, value)
            for label, w, f, tol in cases:
                table = integrate_1d(w, f, *w.support, tol=tol)
                called = integrate_1d(lambda x: w(x), f, *w.support, tol=tol)
                _same_result(table, called, (label, attr))
                assert (table.depth_capped > 0) == (attr == "MAX_DEPTH")


def test_window_table_is_the_same_in_any_fill_order():
    forward = _table_cases(make_window_u(), make_window_v())
    backward = _table_cases(make_window_u(), make_window_v())[::-1]
    results = {label: integrate_1d(w, f, *w.support, tol=tol) for label, w, f, tol in forward}
    for label, w, f, tol in backward:
        _same_result(integrate_1d(w, f, *w.support, tol=tol), results[label], label)
    for index in (0, -1):  # the U and V windows of each order
        assert _table_bytes(forward[index][1]) == _table_bytes(backward[-1 - index][1])
    # a window used only once fills only what its one integral reached
    fresh = make_window_u()
    label, _, f, tol = forward[7]
    _same_result(integrate_1d(fresh, f, *fresh.support, tol=tol), results[label], label)
    for depth, (rows, filled) in fresh.node_table.items():
        full_rows, full_filled = forward[0][1].node_table[depth]
        assert not (filled & ~full_filled).any()
        assert rows[filled].tobytes() == full_rows[filled].tobytes()


def test_repeated_window_integral_makes_no_window_call():
    base = make_window_u()
    calls = []

    def evaluate(x, order):
        calls.append(x.size)
        return base.evaluator(x, order)

    w = SmoothWindow(support=base.support, evaluator=evaluate)
    f = lambda x: -60.0 * x + 500.0 * np.log(x) / (2 * math.pi)
    first = integrate_1d(w, f, *w.support, tol=1e-12)
    filled = sum(int(filled.sum()) for _, filled in w.node_table.values())
    assert calls and sum(calls) == 24 * filled
    assert max(calls) <= 24 * oscillate.EVAL_CELLS
    calls.clear()
    again = integrate_1d(w, f, *w.support, tol=1e-12)
    assert calls == []
    _same_result(again, first, "repeat")
    # off its support the window is an ordinary integrand
    integrate_1d(w, f, 0.75, 2.5, tol=1e-12)
    assert calls


def test_window_table_fill_leaves_numpy_ma_unimported():
    code = (
        "import math, sys\n"
        "from weyldelta import deltapipe, statphase, testfn\n"
        "statphase.u_dagger_direct(testfn.WINDOW_U, 300 / (2 * math.pi * 1.4), complex(1, 300), tol=1e-12)\n"
        "deltapipe._fourier_v(1.3)\n"
        "assert testfn.WINDOW_U.node_table and testfn.WINDOW_V.node_table\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(weyldelta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
