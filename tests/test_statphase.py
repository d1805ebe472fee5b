import json
import math

import numpy as np
import pytest

from weyldelta import oscillate
from weyldelta.checks import CHECKS, CheckContext
from weyldelta.cli import main
from weyldelta.errors import BudgetExceededError, PreconditionError
from weyldelta.numerics import loglog_fit
from weyldelta.statphase import (
    sharp_weight,
    sharp_weight_0,
    sharp_weight_1,
    u_dagger_asymptotic,
    u_dagger_direct,
)
from weyldelta.testfn import make_window_u, make_window_v

V = make_window_v()
U = make_window_u()

# int x V(x) dx: V is symmetric about 3/2, so this is exactly 3/2
X_MOMENT_REF = 1.5


# --- the twisted Mellin transform -------------------------------------------


def test_dagger_at_zero_frequency_is_mellin():
    val = u_dagger_direct(V, 0.0, complex(1.0, 0.0), tol=1e-13)
    assert val.value == pytest.approx(1.0, abs=1e-11)  # unit-mass window
    moment = u_dagger_direct(V, 0.0, complex(2.0, 0.0), tol=1e-13)
    assert moment.value.real == pytest.approx(X_MOMENT_REF, abs=1e-10)
    assert 1.0 < moment.value.real < 2.0


def test_dagger_two_method_agreement_and_slope():
    betas = [50.0, 100.0, 200.0, 400.0]
    rels = []
    for beta in betas:
        r = beta / (2 * math.pi * 1.5)
        s = complex(1.0, beta)
        direct = u_dagger_direct(U, r, s, tol=1e-12)
        asym = u_dagger_asymptotic(U, r, s)
        assert asym.value != 0  # x0 = 1.5 lies in the support
        rels.append(abs(direct.value - asym.value) / abs(direct.value))
    slope, _, _ = loglog_fit(betas, rels)
    assert slope <= -1.8
    assert rels[-1] < 1e-3


def test_dagger_two_method_negative_beta_branch():
    beta = -300.0
    r = beta / (2 * math.pi * 1.2)  # negative r, stationary point at 1.2
    s = complex(0.5, beta)
    direct = u_dagger_direct(U, r, s, tol=1e-12)
    asym = u_dagger_asymptotic(U, r, s)
    # min(|beta|, |r|) = |r| ~ 40 governs the error here
    assert abs(direct.value - asym.value) / abs(direct.value) < 3e-3


def test_dagger_no_stationary_point():
    beta = 1000.0
    r = -beta / (2 * math.pi * 1.5)  # opposite signs: x0 < 0
    direct = u_dagger_direct(U, r, complex(1.0, beta), tol=1e-12)
    asym = u_dagger_asymptotic(U, r, complex(1.0, beta))
    assert asym.value == 0
    assert abs(direct.value) < 1e-6
    # the recorded j = 3 integration-by-parts bound dominates the true value
    assert abs(direct.value) <= asym.abs_error_estimate


def test_depth_cap_reaches_the_dagger_value_and_the_checks(monkeypatch, tmp_path):
    # a value accepted at the depth cap has not converged: like an exhausted
    # budget it raises, so the checks cannot pass on it and the run exits 2
    names = ("fourier-mellin-two-method", "fourier-mellin-no-stationary")
    mellin = [check for check in CHECKS if check.name in names]
    ctx = CheckContext(seed=1, checks=mellin)
    r, s = 400.0 / (2 * math.pi * 1.5), complex(1.0, 400.0)
    u_dagger_direct(U, r, s, tol=1e-12)
    assert all(check.run(ctx).passed for check in mellin)
    monkeypatch.setattr(oscillate, "MAX_DEPTH", 2)
    with pytest.raises(BudgetExceededError, match="depth cap"):
        u_dagger_direct(U, r, s, tol=1e-12)
    for check in mellin:
        with pytest.raises(BudgetExceededError, match="depth cap"):
            check.run(ctx)
    report_path = tmp_path / "statphase.json"
    assert main(["verify", "statphase", "--output", str(report_path)]) == 2
    assert json.loads(report_path.read_text())["budget_exhausted"] is True


def test_dagger_regime_guard():
    with pytest.raises(PreconditionError):
        u_dagger_asymptotic(U, 1.0, complex(1.0, 5.0))


def test_dagger_scaling_covariance():
    # W(x/lambda) has dagger transform lambda^s W_dagger(lambda r, s)
    s = complex(0.7, 40.0)
    r = 3.0
    base = u_dagger_direct(V, r, s, tol=1e-13).value
    for lam in (0.5, 2.0):
        scaled_window = type(V)(
            support=(V.support[0] * lam, V.support[1] * lam),
            evaluator=lambda x, order, lam=lam: V.evaluator(x / lam, order) / lam**order,
        )
        lhs = u_dagger_direct(scaled_window, r, s, tol=1e-13).value
        rhs = lam**s * u_dagger_direct(V, lam * r, s, tol=1e-13).value
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_sharp_weight_structure():
    # W1 = W0/12 + (x^2/4)(W0/x)' + (x^3/2)(W0/x)'' checked numerically
    sigma, x = 1.0, 1.5
    h = 1e-5

    def w0_over_x(u):
        return u ** (sigma - 1) * V(u)

    d1 = (w0_over_x(x + h) - w0_over_x(x - h)) / (2 * h)
    d2 = (w0_over_x(x + h) - 2 * w0_over_x(x) + w0_over_x(x - h)) / h**2
    expected = sharp_weight_0(V, sigma, x) / 12 + x**2 / 4 * d1 + x**3 / 2 * d2
    assert sharp_weight_1(V, sigma, x) == pytest.approx(expected, rel=1e-6)
    combined = sharp_weight(V, sigma, x, beta=-200.0)
    assert combined == pytest.approx(
        sharp_weight_0(V, sigma, x) - 1j / (-200.0) * sharp_weight_1(V, sigma, x)
    )


def test_two_method_error_within_calibrated_envelope():
    # |direct - asymptotic| <= 25 |beta|^(-5/2) * C with C measured once on
    # this grid (seed-fixed); the recorded constant guards against drift
    recorded_c = 40.0
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(25):
        beta = float(rng.uniform(50, 1000))
        x0 = float(rng.uniform(1.1, 1.9))
        r = beta / (2 * math.pi * x0)
        direct = u_dagger_direct(U, r, complex(1.0, beta), tol=1e-12)
        asym = u_dagger_asymptotic(U, r, complex(1.0, beta))
        bound = 25 * min(abs(beta), abs(r)) ** (-2.5) * recorded_c
        err = abs(direct.value - asym.value)
        worst = max(worst, err / bound)
    assert worst <= 1.0
