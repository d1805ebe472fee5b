"""Stationary-phase expansions and the twisted Mellin transform

    W_dagger(r, s) = int W(x) e(-r x) x^(s-1) dx,   s = sigma + i beta.

The generic expansion handles int g e(f) with a single interior stationary
point and returns explicit main/second terms plus the predicted error
assembled from declared scale parameters. The transform has two routes: a
direct oscillatory quadrature, and the high-frequency asymptotic

    sqrt(2 pi) e(1/8) / sqrt(-beta) * (beta/(2 pi e r))^(i beta)
        * [W0(sigma, x0) - (i/beta) W1(sigma, x0)],   x0 = beta/(2 pi r),

whose two-method agreement is one of the toolkit's primary cross-checks.
The principal branch of sqrt(-beta) automatically selects the conjugate
e(-1/8) convention for beta > 0 (the phase convention for f'' of either
sign is fixed the same way in the generic expansion).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .oscillate import OscillatoryResult, PhaseProfile, integrate_1d
from .testfn import SmoothWindow


class Regime(enum.Enum):
    NO_STATIONARY_POINT = "no-stationary-point"
    INTERIOR = "interior"
    NEAR_EDGE = "near-edge"


@dataclass
class StationaryExpansion:
    x0: Optional[float]
    main_term: complex
    second_term: complex
    predicted_error: float
    regime: Regime


@dataclass
class DaggerValue:
    r: float
    s: complex
    value: complex
    method: str  # "direct" | "asymptotic"
    abs_error_estimate: float
    regime: Regime = Regime.INTERIOR
    depth_capped: int = 0  # quadrature cells accepted only at the depth cap (direct method)


def _bisect_root(fp, lo, hi, iters: int = 200):
    flo = fp(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fp(mid)
        if fm == 0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def expand_stationary(profile: PhaseProfile, order: int = 1) -> StationaryExpansion:
    """Stationary-phase expansion of int_a^b g(x) e(f(x)) dx.

    order = 1 returns the main term g(x0) e(f(x0) +/- 1/8)/sqrt(|f''(x0)|);
    order = 2 adds the explicit second-term correction built from g''(x0),
    f'''(x0) and f''''(x0). Requires g(a) = g(b) = 0. Without a sign change
    of f' the result is the part-one bound with a zero main term.
    """
    if order not in (1, 2):
        raise PreconditionError("order must be 1 or 2")
    f, g, a, b = profile.f, profile.g, profile.a, profile.b
    ga, gb = abs(g(a, 0)), abs(g(b, 0))
    gscale = max(abs(g(0.5 * (a + b), 0)), 1e-30)
    if ga > 1e-8 * gscale or gb > 1e-8 * gscale:
        raise PreconditionError("g must vanish at both endpoints")

    xs = np.linspace(a, b, 513)
    fp = np.array([f(x, 1) for x in xs])
    sign_change = None
    for i in range(len(xs) - 1):
        if fp[i] == 0 or (fp[i] < 0) != (fp[i + 1] < 0):
            sign_change = i
            break

    theta, om_f, om_g = profile.theta_f, profile.omega_f, profile.omega_g

    if sign_change is None:
        lam = profile.lam if profile.lam is not None else float(np.min(np.abs(fp)))
        lam = max(lam, 1e-300)
        bound = (
            theta
            / (om_f**2 * lam**3)
            * (1 + om_f / om_g + (om_f / om_g) ** 2 * lam * om_f / theta)
        )
        return StationaryExpansion(
            x0=None,
            main_term=0.0 + 0.0j,
            second_term=0.0 + 0.0j,
            predicted_error=float(bound),
            regime=Regime.NO_STATIONARY_POINT,
        )

    x0 = _bisect_root(lambda x: f(x, 1), xs[sign_change], xs[sign_change + 1])
    f1 = f(x0, 1)
    f2 = f(x0, 2)
    # a sign change that refuses to converge (f' touching zero without
    # crossing) or a vanishing curvature both break the expansion
    if abs(f1) > 1e-6 * theta / max(om_f, 1e-300):
        raise PreconditionError(f"degenerate stationary point: f'({x0}) ~ {f1} does not cross")
    if abs(f2) < 1e-6 * theta / max(om_f, 1e-300) ** 2:
        raise PreconditionError(f"degenerate stationary point: f''({x0}) ~ {f2}")

    phase0 = f(x0, 0)
    g0 = g(x0, 0)
    if f2 > 0:
        prefactor = cmath.exp(2j * math.pi * (phase0 + 0.125)) / math.sqrt(f2)
    else:
        prefactor = cmath.exp(2j * math.pi * (phase0 - 0.125)) / math.sqrt(-f2)
    main = g0 * prefactor

    second = 0.0 + 0.0j
    if order == 2:
        g1 = g(x0, 1)
        g2v = g(x0, 2)
        f3 = f(x0, 3)
        f4 = f(x0, 4)
        # same algebraic form for either sign of f''; only the prefactor branch flips
        corr = (
            1j * g2v / (4 * math.pi * f2)
            - 1j * (g0 * f4 + g1 * f3) / (16 * math.pi * f2**2)
            + 5j * g0 * f3**2 / (48 * math.pi * f2**3)
        )
        second = corr * prefactor

    kappa = min(b - x0, x0 - a)
    if order == 1:
        err = (
            om_f**4 / (theta**2 * max(kappa, 1e-300) ** 3)
            + om_f / theta**1.5
            + om_f**3 / (theta**1.5 * om_g**2)
        )
    else:
        ratio = om_f / om_g
        err = (
            om_f**5 / (om_g**4 * theta**2.5)
            + om_f / theta**2.5 * sum(ratio**j for j in range(4))
            + om_f**7 / (theta**3.5 * om_g**6)
            + om_f / theta**3.5 * sum(ratio**j for j in range(6))
        )
    regime = Regime.INTERIOR if kappa > 0.05 * (b - a) else Regime.NEAR_EDGE
    return StationaryExpansion(
        x0=float(x0),
        main_term=main,
        second_term=second,
        predicted_error=float(err),
        regime=regime,
    )


# ---------------------------------------------------------------------------
# the twisted Mellin transform W_dagger(r, s)
# ---------------------------------------------------------------------------


def u_dagger_direct(
    window: SmoothWindow, r: float, s: complex, tol: float = 1e-11, budget=None
) -> DaggerValue:
    """W_dagger(r, s) by adaptive oscillatory quadrature over supp W.

    Raises BudgetExceededError when the quadrature needs more than `budget`
    cells, rather than returning the truncated value. Cells accepted only
    because they reached the depth cap are counted in `depth_capped`.
    """
    a, b = window.support
    if a <= 0:
        raise PreconditionError("window must be supported in (0, infinity)")
    sigma, beta = s.real, s.imag

    def g(x):
        return window(x) * np.power(x, sigma - 1.0)

    def f(x):
        return -r * x + beta * np.log(x) / (2 * math.pi)

    res: OscillatoryResult = integrate_1d(g, f, a, b, tol=tol, budget=budget)
    if res.budget_exhausted:
        raise BudgetExceededError(f"W_dagger at r = {r:.6g}, s = {s} exhausted {res.cells} cells")
    return DaggerValue(
        r=float(r),
        s=complex(s),
        value=res.value,
        method="direct",
        abs_error_estimate=res.abs_error_estimate,
        depth_capped=res.depth_capped,
    )


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
    0 is returned with the no-stationary regime flag and the j = 3
    integration-by-parts bound as the error estimate.
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
        return DaggerValue(
            r=float(r),
            s=complex(s),
            value=0.0 + 0.0j,
            method="asymptotic",
            abs_error_estimate=float(bound),
            regime=Regime.NO_STATIONARY_POINT,
        )
    # x0 in support implies beta/r > 0, so the phase base is a positive real
    base = beta / (2 * math.pi * math.e * r)
    phase = cmath.exp(1j * beta * math.log(base))
    root = cmath.sqrt(complex(-beta, 0.0))
    weight = complex(sharp_weight(window, sigma, x0, beta))
    value = math.sqrt(2 * math.pi) * cmath.exp(2j * math.pi / 8) / root * phase * weight
    err = min(abs(beta), abs(r)) ** (-2.5)
    return DaggerValue(
        r=float(r),
        s=complex(s),
        value=value,
        method="asymptotic",
        abs_error_estimate=float(err),
        regime=Regime.INTERIOR,
    )
