"""The twisted Mellin transform and its stationary-phase expansion

    W_dagger(r, s) = int W(x) e(-r x) x^(s-1) dx,   s = sigma + i beta.

The transform has two routes: a direct oscillatory quadrature, and the
high-frequency asymptotic

    sqrt(2 pi) e(1/8) / sqrt(-beta) * (beta/(2 pi e r))^(i beta)
        * [W0(sigma, x0) - (i/beta) W1(sigma, x0)],   x0 = beta/(2 pi r),

whose two-method agreement is one of the toolkit's primary cross-checks.
The principal branch of sqrt(-beta) automatically selects the conjugate
e(-1/8) convention for beta > 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .oscillate import integrate_1d
from .testfn import SmoothWindow


@dataclass
class DaggerValue:
    value: complex
    abs_error_estimate: float


def u_dagger_direct(
    window: SmoothWindow, r: float, s: complex, tol: float = 1e-11, budget=None
) -> DaggerValue:
    """W_dagger(r, s) by adaptive oscillatory quadrature over supp W.

    Raises BudgetExceededError when the quadrature needs more than `budget`
    cells, or accepts a cell only because it reached the depth cap, rather
    than returning the unconverged value.
    """
    a, b = window.support
    if a <= 0:
        raise PreconditionError("window must be supported in (0, infinity)")
    sigma, beta = s.real, s.imag

    def g(x):
        return window(x) * np.power(x, sigma - 1.0)

    def f(x):
        return -r * x + beta * np.log(x) / (2 * math.pi)

    res = integrate_1d(g, f, a, b, tol=tol, budget=budget)
    return DaggerValue(res.converged(f"W_dagger at r = {r:.6g}, s = {s}"), res.abs_error_estimate)


def sharp_weight_0(window: SmoothWindow, sigma: float, x):
    """W0(sigma, x) = x^sigma W(x)."""
    x = np.asarray(x, dtype=float)
    return np.power(x, sigma) * window(x)


def sharp_weight_1(window: SmoothWindow, sigma: float, x):
    """W1(sigma, x) = W0/12 + (x^2/4)(W0/x)' + (x^3/2)(W0/x)''.

    Expanded in terms of the window and its first two derivatives:
    x^sigma [ c0 W + c1 x W' + x^2 W''/2 ] with
    c0 = 1/12 + (sigma-1)/4 + (sigma-1)(sigma-2)/2 and c1 = sigma - 3/4.
    """
    x = np.asarray(x, dtype=float)
    c0 = 1.0 / 12.0 + (sigma - 1.0) / 4.0 + (sigma - 1.0) * (sigma - 2.0) / 2.0
    c1 = 0.25 + (sigma - 1.0)
    w0 = window(x)
    w1 = window.derivative(x, 1)
    w2 = window.derivative(x, 2)
    return np.power(x, sigma) * (c0 * w0 + c1 * x * w1 + 0.5 * x * x * w2)


def sharp_weight(window: SmoothWindow, sigma: float, x, beta: float):
    """W_sharp = W0 - (i/beta) W1, the two-term asymptotic weight."""
    return sharp_weight_0(window, sigma, x) - 1j / beta * sharp_weight_1(window, sigma, x)


MIN_ASYMPTOTIC_BETA = 20.0


def u_dagger_asymptotic(window: SmoothWindow, r: float, s: complex) -> DaggerValue:
    """High-frequency expansion of W_dagger(r, s) at the stationary point.

    Valid for |Im s| >= 20. When x0 = beta/(2 pi r) falls outside the
    enlarged support [a/2, 2b] the transform is rapidly decaying; the value
    0 is returned with the j = 3 integration-by-parts bound as the error
    estimate.
    """
    sigma, beta = s.real, s.imag
    if abs(beta) < MIN_ASYMPTOTIC_BETA:
        raise PreconditionError(
            f"asymptotic route requires |Im s| >= {MIN_ASYMPTOTIC_BETA}; got {beta}"
        )
    a, b = window.support
    x0 = beta / (2 * math.pi * r) if r != 0 else math.inf
    if not (a / 2 <= x0 <= 2 * b):
        j = 3
        if r != 0:
            bound = min((1 + abs(beta)) / abs(r), (1 + abs(r)) / abs(beta)) ** j
        else:
            bound = (1 / abs(beta)) ** j
        return DaggerValue(value=0.0 + 0.0j, abs_error_estimate=float(bound))
    # x0 in support implies beta/r > 0, so the phase base is a positive real
    base = beta / (2 * math.pi * math.e * r)
    phase = cmath.exp(1j * beta * math.log(base))
    root = cmath.sqrt(complex(-beta, 0.0))
    weight = complex(sharp_weight(window, sigma, x0, beta))
    value = math.sqrt(2 * math.pi) * cmath.exp(2j * math.pi / 8) / root * phase * weight
    err = min(abs(beta), abs(r)) ** (-2.5)
    return DaggerValue(value=value, abs_error_estimate=float(err))
