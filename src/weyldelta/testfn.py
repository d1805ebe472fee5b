"""Smooth compactly supported test windows.

Two constructions, both based on the bump phi(x) = exp(-1/(1-x^2)) on (-1,1):

* :func:`make_window_v` - unit-integral window on [1, 2],
* :func:`make_window_u` - plateau window, 1 on [1, 2], supported [1/2, 5/2],

built once each as :data:`WINDOW_V` and :data:`WINDOW_U`, the V and U of
the delta-method chain.

Derivatives are evaluated through the exact rational recurrence

    phi^(j)(x) = phi(x) * P_j(x) / (1 - x^2)^(2j),
    P_{j+1} = P_j' (1-x^2)^2 + 4 j x P_j (1-x^2) - 2 x P_j,

built once in exact (small-integer) arithmetic, so they stay accurate
arbitrarily close to the support edges where finite differences would
collapse. U's ramps read the bump's antiderivative from a table of
degree-16 Chebyshev series on 64 panels, built at import by GL20 partial-panel
quadrature, which stays as the table's test oracle. U's value maps both
ramps onto the step's (-1, 1) and reads them in one table lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import PreconditionError
from .numerics import PanelGrid, gauss_legendre

_J_MAX = 6

# underflow guard: exp(-1/w) for w below this is < 1e-304 and the rational
# prefactors cannot push it back into visible range
_W_FLOOR = 1.0 / 700.0


def _bump_prefactor_polys(j_max: int) -> List[np.ndarray]:
    """P_0 .. P_{j_max} of the bump-derivative recurrence, ascending coefficients
    (small integers, so float arithmetic on them is exact)."""
    one_minus_x2 = np.array([1.0, 0.0, -1.0])
    polys = [np.array([1.0])]
    for j in range(j_max):
        p = polys[-1]
        term1 = P.polymul(P.polyder(p), P.polymul(one_minus_x2, one_minus_x2))
        term2 = P.polymul([0.0, 4.0 * j], P.polymul(p, one_minus_x2))
        polys.append(P.polysub(P.polyadd(term1, term2), P.polymul([0.0, 2.0], p)))
    return polys


_BUMP_POLYS = _bump_prefactor_polys(_J_MAX)


def bump(u, order: int = 0):
    """phi^(order)(u) for the base bump phi(u) = exp(-1/(1-u^2)) on (-1,1)."""
    if order > _J_MAX:
        raise PreconditionError(f"bump derivatives available up to order {_J_MAX}")
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    w = 1.0 - u * u
    inside = w > _W_FLOOR
    if np.any(inside):
        ui = u[inside]
        wi = w[inside]
        val = np.exp(-1.0 / wi)
        if order == 0:
            out[inside] = val
        else:
            poly = np.polyval(_BUMP_POLYS[order][::-1], ui)
            out[inside] = val * poly / wi ** (2 * order)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# normalization and ramp machinery
# ---------------------------------------------------------------------------

# integral of the bump over (-1, 1); fixed panels of GL-20 reach ~1e-15
_RAMP_PANELS = 64
_RAMP_ORDER = 20
_ramp = PanelGrid(-1.0, 1.0, _RAMP_PANELS, _RAMP_ORDER)
_ramp_edges = np.linspace(-1.0, 1.0, _RAMP_PANELS + 1)
_panel_sums = (_ramp.weights * bump(_ramp.nodes)).reshape(_RAMP_PANELS, _RAMP_ORDER).sum(axis=1)
_panel_cumsum = np.concatenate([[0.0], np.cumsum(_panel_sums)])

BUMP_MASS = float(_panel_cumsum[-1])  # integral of phi over (-1, 1)

_gl20_x, _gl20_w = gauss_legendre(_RAMP_ORDER)


def _ramp_panel(s):
    """Index of the ramp panel holding each s in (-1, 1)."""
    return np.minimum(((s + 1.0) * (_RAMP_PANELS / 2)).astype(int), _RAMP_PANELS - 1)


def _bump_cdf_gl20(s):
    """int_{-1}^{s} phi(u) du for s in (-1, 1): the panels left of s, then a
    fresh GL20 rule over the part of its own panel up to s, ~1e-15 absolute.
    It builds the Chebyshev table below and is its test oracle."""
    idx = _ramp_panel(s)
    lo = _ramp_edges[idx]
    half = (s - lo) / 2.0
    nodes = lo[:, None] + half[:, None] * (_gl20_x[None, :] + 1.0)
    return _panel_cumsum[idx] + (half[:, None] * _gl20_w[None, :] * bump(nodes)).sum(axis=1)


# each panel's share of the bump integral as a degree-16 Chebyshev series in the
# panel's coordinate (1.1e-16 off the GL20 route; 1.7e-15 at degree 12), summed
# by the discrete orthogonality of cos(k theta_j) at its 17 interpolation points:
# chebfit's least squares, or a BLAS product, would cost more at import than this
_CDF_DEGREE = 16
_cheb_theta = np.pi * (np.arange(_CDF_DEGREE + 1) + 0.5) / (_CDF_DEGREE + 1)
_cheb_s = (_ramp_edges[:-1, None] + (np.cos(_cheb_theta) + 1.0) / _RAMP_PANELS).ravel()
_partials = _bump_cdf_gl20(_cheb_s).reshape(_RAMP_PANELS, -1) - _panel_cumsum[:-1, None]
_cos_k = np.cos(np.outer(np.arange(_CDF_DEGREE + 1), _cheb_theta)) * (2.0 / (_CDF_DEGREE + 1))
_cos_k[0] /= 2.0
_cdf_coef = np.einsum("kj,pj->kp", _cos_k, _partials)  # (degree + 1, panels)


def _bump_cdf(s):
    """int_{-1}^{s} phi(u) du, vectorized: the panels left of s plus s's own
    panel's Chebyshev series by Clenshaw (within 3e-16 of the GL20 route),
    clipped to [0, BUMP_MASS] (the table dips to -1e-17 next to s = -1),
    and exactly 0 for s <= -1 and BUMP_MASS for s >= 1."""
    s = np.clip(np.atleast_1d(np.asarray(s, dtype=float)), -1.0, 1.0)
    idx = _ramp_panel(s)
    t = (s - _ramp_edges[idx]) * _RAMP_PANELS - 1.0  # s's panel mapped to [-1, 1]
    b1 = b2 = 0.0  # Clenshaw's recurrence, one gathered coefficient row per degree
    for coef in _cdf_coef[:0:-1]:
        b1, b2 = coef[idx] + 2.0 * t * b1 - b2, b1
    out = np.clip(_panel_cumsum[idx] + _cdf_coef[0][idx] + t * b1 - b2, 0.0, BUMP_MASS)
    out[s == -1.0] = 0.0
    out[s == 1.0] = BUMP_MASS
    return out


def smooth_step(s, order: int = 0):
    """C-infinity step: 0 for s <= -1, 1 for s >= 1, monotone in between.

    order >= 1 returns d^order/ds^order of the step, which is
    phi^(order-1)(s) / BUMP_MASS.
    """
    if order == 0:
        res = _bump_cdf(s) / BUMP_MASS
        return res if np.ndim(s) else float(res[0])
    return bump(s, order - 1) / BUMP_MASS


@dataclass
class SmoothWindow:
    """A smooth compactly supported window with exact-recurrence derivatives.

    support    : closed interval [a, b] outside which the window vanishes
    evaluator  : (x, order) -> the order-th derivative at x, for order <= _J_MAX
    node_table : depth -> (rows, filled), the window at the 24 quadrature
                 nodes of each cell of that depth of the dyadic tree over its
                 support, kept by oscillate.integrate_1d; filled[k] marks the
                 rows filled so far. A row depends only on the window, the
                 depth and the cell, never on which integral filled it or when.
    """

    support: Tuple[float, float]
    evaluator: Callable[[np.ndarray, int], np.ndarray]
    node_table: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __call__(self, x):
        out = self.evaluator(np.asarray(x, dtype=float), 0)
        return float(np.asarray(out).reshape(-1)[0]) if np.ndim(x) == 0 else out

    def derivative(self, x, order: int):
        if order < 0 or order > _J_MAX:
            raise PreconditionError(f"derivative order must be in [0, {_J_MAX}]")
        out = self.evaluator(np.asarray(x, dtype=float), order)
        return float(np.asarray(out).reshape(-1)[0]) if np.ndim(x) == 0 else out

    def indices(self, scale: float) -> np.ndarray:
        """n = max(1, floor(a * scale)), ..., ceil(b * scale): every n >= 1 with
        n / scale in the support [a, b], the range of a sum of window(n / scale)."""
        a, b = self.support
        return np.arange(max(1, math.floor(a * scale)), math.ceil(b * scale) + 1)


def make_window_v() -> SmoothWindow:
    """Unit-integral window V supported on [1, 2].

    V(x) = (2 / BUMP_MASS) * phi(2x - 3); the rescaling makes the integral
    exactly 1 up to the accuracy of BUMP_MASS (~1e-15).
    """
    c = 2.0 / BUMP_MASS

    def evaluate(x, order):
        return c * 2.0**order * bump(2.0 * x - 3.0, order)

    return SmoothWindow(support=(1.0, 2.0), evaluator=evaluate)


def make_window_u() -> SmoothWindow:
    """Plateau window U: supported on [1/2, 5/2], exactly 1 on [1, 2].

    The ramps are the normalized bump integral: U(x) = S(4x - 3) going up,
    U(x) = S(9 - 4x) going down, with S the smooth step above. U itself
    reads both ramps in one smooth_step call over the ramp nodes.
    """

    def evaluate(x, order):
        x = np.atleast_1d(x)
        out = np.zeros(x.shape)
        up = (x > 0.5) & (x < 1.0)
        down = (x > 2.0) & (x < 2.5)
        if order == 0:
            out[(x >= 1.0) & (x <= 2.0)] = 1.0
            ramp = up | down
            xr = x[ramp]
            out[ramp] = smooth_step(np.where(xr < 1.5, 4.0 * xr - 3.0, 9.0 - 4.0 * xr))
        else:
            out[up] = 4.0**order * smooth_step(4.0 * x[up] - 3.0, order)
            out[down] = (-4.0) ** order * smooth_step(9.0 - 4.0 * x[down], order)
        return out if out.shape else float(out)

    return SmoothWindow(support=(0.5, 2.5), evaluator=evaluate)


WINDOW_V = make_window_v()
WINDOW_U = make_window_u()
