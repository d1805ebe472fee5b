import numpy as np
import pytest

from weyldelta import oscillate
from weyldelta.errors import BudgetExceededError, PreconditionError
from weyldelta.oscillate import (
    PhaseProfile,
    decay_probe,
    integrate_1d,
    integrate_2d,
    total_variation_2d,
)
from weyldelta.testfn import make_window_v

# int_0^1 e(x^2) dx at 40 digits
FRESNEL_REF = complex(0.2441267030376703772501117516786, 0.1717078391818491210976504079790)

V = make_window_v()


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


def test_tolerance_must_be_positive():
    with pytest.raises(PreconditionError):
        integrate_1d(lambda x: x, lambda x: x, 0.0, 1.0, tol=0.0)


# --- decay probes ------------------------------------------------------------


def _linear_phase_profile(b):
    return PhaseProfile(
        f=lambda x, order=0: [b * x, b, 0.0, 0.0, 0.0][order],
        g=lambda x, order=0: V(x) if order == 0 else V.derivative(x, order),
        a=1.0,
        b=2.0,
        theta_f=b,
        omega_f=1.0,
        omega_g=1.0,
        lam=b,
    )


def test_decay_probe_linear_phase():
    slope, values = decay_probe(_linear_phase_profile, [16.0, 32.0, 64.0, 128.0], j=2)
    assert slope <= -1.8
    assert all(abs(v) > 0 for v in values)


def test_decay_probe_perturbed_phase():
    def make(b):
        return PhaseProfile(
            f=lambda x, order=0: [b * x + x * x / 100.0, b + x / 50.0, 1 / 50.0, 0.0, 0.0][order],
            g=lambda x, order=0: V(x) if order == 0 else V.derivative(x, order),
            a=1.0,
            b=2.0,
            theta_f=b,
            omega_f=1.0,
            omega_g=1.0,
            lam=b,
        )

    slope, _ = decay_probe(make, [16.0, 32.0, 64.0, 128.0], j=2)
    assert slope <= -1.8


def test_decay_probe_degenerate_j_zero():
    # probing with j = 0 asserts nothing about decay; the fitted slope is
    # still steep for these integrals but must satisfy the trivial bound
    slope, _ = decay_probe(_linear_phase_profile, [16.0, 32.0], j=0)
    assert slope <= 0.2


def test_decay_probe_raises_on_exhausted_budget(monkeypatch):
    monkeypatch.setattr(oscillate, "DEFAULT_CELL_BUDGET", 3)
    with pytest.raises(BudgetExceededError):
        decay_probe(_linear_phase_profile, [16.0, 32.0], j=2)


def test_decay_probe_detects_precondition_violation():
    def bad(b):
        prof = _linear_phase_profile(b)
        prof.f = lambda x, order=0: [0.1 * x, 0.1, 0.0, 0.0, 0.0][order]
        return prof

    with pytest.raises(PreconditionError):
        decay_probe(bad, [16.0], j=1)


def test_phase_profile_scale_check():
    # the recorded constant is dominated by the window's second derivative
    prof = _linear_phase_profile(32.0)
    c = prof.check_scales()
    assert np.isfinite(c)
    assert c < 1e3


# --- 2d --------------------------------------------------------------------


def test_2d_zero_amplitude():
    res = integrate_2d(
        lambda x, y: 0.0 * x * y, lambda x, y: x * x + y * y, ((0, 1), (0, 1)), tol=1e-10
    )
    assert res.value == 0.0


def test_2d_separable_matches_product_of_1d():
    gx = lambda x: V(x)
    fy = lambda y: 3.0 * y * y
    res2 = integrate_2d(
        lambda x, y: gx(x) * gx(y),
        lambda x, y: fy(x) + fy(y),
        ((1.0, 2.0), (1.0, 2.0)),
        tol=1e-10,
    )
    res1 = integrate_1d(gx, fy, 1.0, 2.0, tol=1e-12).value
    assert res2.value == pytest.approx(res1 * res1, abs=1e-8)


def test_2d_curvature_bound():
    # |I| * r1 r2 / var(g) stays bounded for quadratic phases
    def g2(x, y):
        return V(x + 1.0) * V(y + 1.0)  # bump supported in (0,1)^2

    def g2_dxdy(x, y):
        return V.derivative(x + 1.0, 1) * V.derivative(y + 1.0, 1)

    var_g = total_variation_2d(g2_dxdy, ((0, 1), (0, 1)))
    worst = 0.0
    for r1 in (4.0, 8.0, 16.0):
        for r2 in (4.0, 8.0, 16.0):
            res = integrate_2d(
                g2,
                lambda x, y: (r1 * x) ** 2 / 2 + (r2 * y) ** 2 / 2,
                ((0, 1), (0, 1)),
                tol=1e-9,
            )
            worst = max(worst, abs(res.value) * r1 * r2 / var_g)
    assert worst < 5.0
