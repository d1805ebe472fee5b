"""Adaptive quadrature for oscillatory integrals int g(x) e(f(x)) dx.

Here e(y) = exp(2 pi i y), f is real valued and g may be complex. Cells are
split until they span at most about one oscillation of f (estimated from
phase differences), then a 16-point Gauss rule with an embedded 8-point
error indicator decides acceptance. The indicator is heuristic - downstream
checks always cross-validate against independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .numerics import gauss_legendre, loglog_slope

DEFAULT_CELL_BUDGET = 10**6

TWO_PI = 2.0 * math.pi


def e(x):
    """e(x) = exp(2 pi i x)."""
    return np.exp(2j * np.pi * np.asarray(x))


@dataclass
class OscillatoryResult:
    """Value + heuristic error indicator + subdivision diagnostics."""

    value: complex
    abs_error_estimate: float
    cells: int
    budget_exhausted: bool = False

    def __complex__(self):
        return complex(self.value)


@dataclass
class PhaseProfile:
    """An integrand g*e(f) on [a, b] with declared scale parameters.

    f, g are callables (x, order=0) -> value supporting orders up to 4 and 2
    respectively. The scales assert |f^(i)| <= c * theta_f / omega_f^i and
    |g^(j)| <= c / omega_g^j on [a, b]; `lam` is a lower bound for |f'| when
    one is claimed.
    """

    f: Callable
    g: Callable
    a: float
    b: float
    theta_f: float
    omega_f: float = 1.0
    omega_g: float = 1.0
    lam: Optional[float] = None

    def check_scales(self, samples: int = 257, orders=(1, 2), g_orders=(0, 1, 2)):
        """Sample the declared derivative bounds; returns the observed constant."""
        xs = np.linspace(self.a, self.b, samples)
        c = 0.0
        for i in orders:
            bound = self.theta_f / self.omega_f**i
            c = max(c, float(np.max(np.abs([self.f(x, i) for x in xs]))) / bound)
        for j in g_orders:
            bound = 1.0 / self.omega_g**j
            c = max(c, float(np.max(np.abs([self.g(x, j) for x in xs]))) / bound)
        return c


def _phase_span(f, lo, mid, hi):
    try:
        flo, fmid, fhi = f(lo), f(mid), f(hi)
    except Exception:
        return math.inf
    return abs(fhi - fmid) + abs(fmid - flo)


def integrate_1d(
    g,
    f,
    a: float,
    b: float,
    tol: float = 1e-10,
    budget: Optional[int] = None,
) -> OscillatoryResult:
    """Adaptive evaluation of int_a^b g(x) e(f(x)) dx.

    g, f must accept numpy arrays. Cells spanning more than one oscillation
    of f are bisected outright; otherwise a GL16/GL8 pair decides. On budget
    exhaustion the partial result is returned with the flag set (no raise),
    so callers can inspect how far the subdivision got.
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    if budget is None:
        budget = DEFAULT_CELL_BUDGET
    x16, w16 = gauss_legendre(16)
    x8, w8 = gauss_legendre(8)
    span = float(b) - float(a)
    if span == 0:
        return OscillatoryResult(0.0 + 0.0j, 0.0, 0)

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
        osc = _phase_span(f, lo, mid, hi)
        if osc > 1.0 and depth < 60:
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
            continue
        fine, err, mass = cell_value(lo, hi)
        # stop subdividing once the indicator reaches the roundoff level of
        # the cell: evaluating e(f) costs ~ 2 pi |f| eps in amplitude
        try:
            phase_mag = abs(float(f(mid)))
        except TypeError:
            phase_mag = 0.0
        floor = 4e-16 * (1.0 + TWO_PI * phase_mag) * mass
        if err <= max(tol * (hi - lo) / span, floor) or depth >= 60:
            total += fine
            err_total += err
        else:
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    return OscillatoryResult(total, err_total, cells, budget_exhausted=exhausted)


def decay_probe(
    make_profile: Callable[[float], PhaseProfile],
    b_values: Sequence[float],
    j: int,
    tol: float = 1e-12,
):
    """Fit the decay exponent of |I(B)| against B.

    make_profile(B) must return a PhaseProfile whose phase satisfies
    |f'| >= B on its interval (verified by sampling; violation raises).
    Realizing the integration-by-parts gain means the fitted log-log slope
    is <= -j + 0.2 for j differentiations; j = 0 probes the trivial bound.
    Raises BudgetExceededError when a quadrature exhausts its cell budget.
    """
    if j < 0 or j > 4:
        raise PreconditionError("decay probe implemented for 0 <= j <= 4")
    values = []
    for b_val in b_values:
        prof = make_profile(b_val)
        xs = np.linspace(prof.a, prof.b, 257)
        fp = np.abs([prof.f(x, 1) for x in xs])
        if fp.min() < b_val * (1 - 1e-9):
            raise PreconditionError(
                f"|f'| dips to {fp.min():.3g} below declared B = {b_val}"
            )
        res = integrate_1d(lambda x: prof.g(x, 0), lambda x: prof.f(x, 0), prof.a, prof.b, tol=tol)
        if res.budget_exhausted:
            raise BudgetExceededError(f"decay probe at B = {b_val} exhausted {res.cells} cells")
        values.append(res.value)
    slope = loglog_slope(b_values, values)
    return slope, values


def integrate_2d(
    g2,
    f2,
    rect,
    tol: float = 1e-8,
    budget: Optional[int] = None,
) -> OscillatoryResult:
    """Adaptive tensor quadrature of int int g2(x,y) e(f2(x,y)) dx dy.

    Rectangles are split along the direction with the larger phase span.
    g2, f2 must broadcast over numpy meshgrids.
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    if budget is None:
        budget = DEFAULT_CELL_BUDGET
    x16, w16 = gauss_legendre(16)
    x8, w8 = gauss_legendre(8)
    (ax, bx), (ay, by) = rect
    area = (bx - ax) * (by - ay)
    if area == 0:
        return OscillatoryResult(0.0 + 0.0j, 0.0, 0)

    def cell_value(lox, hix, loy, hiy, nodes, weights):
        hx = (hix - lox) / 2.0
        hy = (hiy - loy) / 2.0
        xs = (lox + hix) / 2.0 + hx * nodes
        ys = (loy + hiy) / 2.0 + hy * nodes
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        vals = np.asarray(g2(gx, gy)) * np.exp(2j * np.pi * np.asarray(f2(gx, gy)))
        return hx * hy * np.einsum("i,j,ij->", weights, weights, vals)

    total = 0.0 + 0.0j
    err_total = 0.0
    cells = 0
    exhausted = False
    stack = [(float(ax), float(bx), float(ay), float(by), 0)]
    while stack:
        lox, hix, loy, hiy, depth = stack.pop()
        cells += 1
        fine = cell_value(lox, hix, loy, hiy, x16, w16)
        if cells > budget:
            exhausted = True
            total += fine
            continue
        midx = (lox + hix) / 2.0
        midy = (loy + hiy) / 2.0
        span_x = _phase_span(lambda x: f2(x, midy), lox, midx, hix)
        span_y = _phase_span(lambda y: f2(midx, y), loy, midy, hiy)
        if (span_x > 1.0 or span_y > 1.0) and depth < 50:
            if span_x >= span_y:
                stack.append((lox, midx, loy, hiy, depth + 1))
                stack.append((midx, hix, loy, hiy, depth + 1))
            else:
                stack.append((lox, hix, loy, midy, depth + 1))
                stack.append((lox, hix, midy, hiy, depth + 1))
            continue
        coarse = cell_value(lox, hix, loy, hiy, x8, w8)
        err = abs(fine - coarse)
        local = (hix - lox) * (hiy - loy) / area
        if err <= tol * max(local, 1e-12) or depth >= 50:
            total += fine
            err_total += err
        elif span_x >= span_y:
            stack.append((lox, midx, loy, hiy, depth + 1))
            stack.append((midx, hix, loy, hiy, depth + 1))
        else:
            stack.append((lox, hix, loy, midy, depth + 1))
            stack.append((lox, hix, midy, hiy, depth + 1))
    return OscillatoryResult(total, err_total, cells, budget_exhausted=exhausted)


def total_variation_2d(g2_dxdy, rect, n: int = 128) -> float:
    """var(g) = int int |d^2 g / dx dy| over the rectangle (midpoint rule)."""
    (ax, bx), (ay, by) = rect
    xs = ax + (bx - ax) * (np.arange(n) + 0.5) / n
    ys = ay + (by - ay) * (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    vals = np.abs(np.asarray(g2_dxdy(gx, gy)))
    return float(vals.mean() * (bx - ax) * (by - ay))
