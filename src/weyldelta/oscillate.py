"""Adaptive quadrature for oscillatory integrals int g(x) e(f(x)) dx.

Here e(y) = exp(2 pi i y), f is real valued and g may be complex. Cells are
split until they span at most about one oscillation of f (estimated from
phase differences), then a 16-point Gauss rule with an embedded 8-point
error indicator decides acceptance. The indicator is heuristic - downstream
checks always cross-validate against independent oracles.

`integrate_1d` works on one depth of the cell tree per pass, so g and f
are called on flat arrays of many cells' nodes (at most EVAL_CELLS = 128
cells, 24 nodes each, per call) instead of once per cell. The phase span
that decides which cells of a depth split is one f call on all their ends
and midpoints. Its value, error estimate and cell count equal those of a
depth-first loop over single cells bit for bit (tests/test_oscillate.py
keeps that loop as the oracle).
A cell reaching MAX_DEPTH is accepted and counted in `depth_capped`; an
exhausted cell budget sets `budget_exhausted` and returns the partial sum.
`OscillatoryResult.converged` turns either into a BudgetExceededError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .numerics import gauss_legendre

DEFAULT_CELL_BUDGET = 10**6
MAX_DEPTH = 60  # a cell this deep is accepted whatever its error indicator
# cells per g call in integrate_1d: 128 x 24 nodes spreads a window's per-call
# cost (its ramps are a table lookup); 512 gains nothing and grows peak memory
EVAL_CELLS = 128

TWO_PI = 2.0 * math.pi

_X16, _W16 = gauss_legendre(16)
_X8, _W8 = gauss_legendre(8)
_NODES = np.concatenate((_X16, _X8))  # GL16 then the embedded GL8


@dataclass
class OscillatoryResult:
    """Value + heuristic error indicator + subdivision diagnostics."""

    value: complex
    abs_error_estimate: float
    cells: int
    budget_exhausted: bool = False
    depth_capped: int = 0  # cells accepted only because they reached the depth cap

    def converged(self, what: str) -> complex:
        """The value, or BudgetExceededError naming `what` when the cell budget
        ran out or a cell was accepted only at the depth cap."""
        if self.budget_exhausted:
            raise BudgetExceededError(f"{what} exhausted {self.cells} cells")
        if self.depth_capped:
            raise BudgetExceededError(f"{what} accepted {self.depth_capped} cells at the depth cap")
        return self.value


def _phase_span(f, lo, mid, hi):
    """|f(hi) - f(mid)| + |f(mid) - f(lo)|, and f(mid), over arrays of cells,
    from one f call on all ends and midpoints.

    An error that f raises propagates.
    """
    x = np.concatenate((lo, mid, hi))
    fx = np.asarray(f(x))
    flo, fmid, fhi = (fx if fx.shape == x.shape else np.broadcast_to(fx, x.shape)).reshape(3, -1)
    return abs(fhi - fmid) + abs(fmid - flo), fmid


def _cell_rules(g, f, lo, hi):
    """GL16 value, |GL16 - GL8| and GL16 mass of sum |w g e(f)| for each cell.

    g and f see the 24 nodes of at most EVAL_CELLS cells per call, as one
    flat array.
    """
    fine, err, mass = (np.empty(lo.size, dtype) for dtype in (complex, float, float))
    for start in range(0, lo.size, EVAL_CELLS):
        part = slice(start, start + EVAL_CELLS)
        h = (hi[part] - lo[part]) / 2.0
        mid = (hi[part] + lo[part]) / 2.0
        xs = (mid[:, None] + h[:, None] * _NODES).ravel()
        vals = np.asarray(g(xs)) * np.exp(2j * np.pi * np.asarray(f(xs)))
        if vals.shape != xs.shape:
            vals = np.broadcast_to(vals, xs.shape)
        vals = vals.reshape(h.size, _NODES.size)
        w_vals = _W16 * vals[:, :16]
        fine[part] = h * np.sum(w_vals, axis=1)
        mass[part] = h * np.sum(np.abs(w_vals), axis=1)
        coarse = h * np.sum(_W8 * vals[:, 16:], axis=1)
        diff = fine[part] - coarse
        # hypot, as abs() of one complex scalar computes it (np.abs of a
        # complex array may differ in the last bit)
        err[part] = np.hypot(diff.real, diff.imag)
    return fine, err, mass


def integrate_1d(
    g,
    f,
    a: float,
    b: float,
    tol: float = 1e-10,
    budget: Optional[int] = None,
) -> OscillatoryResult:
    """Adaptive evaluation of int_a^b g(x) e(f(x)) dx.

    The cell tree is built one depth at a time. Each pass takes every cell
    of the current depth (the frontier) and
      - bisects each cell whose phase changes by more than one period
        between its ends and midpoint (below MAX_DEPTH), from one f call
        on all ends and midpoints;
      - evaluates every other cell with a GL16/GL8 pair: one g call and one
        f call per EVAL_CELLS cells (24 nodes each), always on flat 1-d
        node arrays, so g and f need only accept numpy arrays;
      - accepts a cell whose error indicator meets its share of `tol` or the
        roundoff floor of evaluating e(f), and bisects the rest.
    A cell at depth MAX_DEPTH is accepted whatever its indicator; the result
    counts these in `depth_capped`. Accepted cells are summed one at a time
    from the right end of [a, b] to the left, the order of a depth-first
    walk, so the value does not depend on how the passes are grouped.

    `cells` counts every cell visited. Only the first `budget` cells may be
    bisected; each cell past them is evaluated and accepted as it stands,
    and `budget_exhausted` is set. That happens exactly when the full cell
    tree has more than `budget` cells. The partial result is returned (no
    raise), so callers can inspect how far the subdivision got.
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    if budget is None:
        budget = DEFAULT_CELL_BUDGET
    span = float(b) - float(a)
    if span == 0:
        return OscillatoryResult(0.0 + 0.0j, 0.0, 0)

    # a cell's key is its index among the cells of its depth, left to right;
    # scaled to depth MAX_DEPTH, descending keys give the depth-first (right
    # child first) order of the per-cell loop
    lo, hi = np.array([float(a)]), np.array([float(b)])
    key = np.zeros(1, dtype=np.int64)
    done_key, done_fine, done_err = [], [], []
    cells = capped = 0
    for depth in range(MAX_DEPTH + 1):
        if not lo.size:
            break
        free = min(lo.size, max(budget - cells, 0))  # cells that may still split
        cells += lo.size
        mid = (lo + hi) / 2.0
        split = np.zeros(lo.size, dtype=bool)
        phase_mag = np.zeros(lo.size)
        if free:
            osc, fmid = _phase_span(f, lo[:free], mid[:free], hi[:free])
            split[:free] = (osc > 1.0) & (depth < MAX_DEPTH)
            phase_mag[:free] = np.abs(fmid)
        rest = np.flatnonzero(~split)
        fine, err, mass = _cell_rules(g, f, lo[rest], hi[rest])
        # stop subdividing once the indicator reaches the roundoff level of
        # the cell: evaluating e(f) costs ~ 2 pi |f| eps in amplitude
        floor = 4e-16 * (1.0 + TWO_PI * phase_mag[rest]) * mass
        met = err <= np.maximum(tol * (hi[rest] - lo[rest]) / span, floor)
        if depth == MAX_DEPTH:
            capped = int(np.count_nonzero(~met & (rest < free)))
        keep = met | (depth == MAX_DEPTH) | (rest >= free)
        split[rest[~keep]] = True
        done_key.append(key[rest[keep]] << (MAX_DEPTH - depth))
        done_fine.append(fine[keep])
        done_err.append(err[keep])
        # the children of each split cell, left then right
        lo_s, mid_s, hi_s, key_s = lo[split], mid[split], hi[split], 2 * key[split]
        n = 2 * key_s.size
        lo, hi, key = np.empty(n), np.empty(n), np.empty(n, np.int64)
        lo[0::2], lo[1::2], hi[0::2], hi[1::2] = lo_s, mid_s, mid_s, hi_s
        key[0::2], key[1::2] = key_s, key_s + 1
    order = np.argsort(-np.concatenate(done_key))
    # cumsum adds in sequence (no pairwise blocks), as the depth-first loop did
    total = np.cumsum(np.concatenate(([0.0 + 0.0j], np.concatenate(done_fine)[order])))[-1]
    err_total = np.cumsum(np.concatenate(([0.0], np.concatenate(done_err)[order])))[-1]
    return OscillatoryResult(
        total, err_total, cells, budget_exhausted=cells > budget, depth_capped=capped
    )
