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

Where the amplitudes come from: when g is a `SmoothWindow` and [a, b] is
its support, g is not called at the nodes. Its values there are read from
the window's node table (`SmoothWindow.node_table`): the window at the 24
nodes of each cell (depth, key) of the dyadic tree over its support, down to
TABLE_DEPTH, filled the first time any integral reaches the cell, by one
window call per EVAL_CELLS new cells. Every integral over the support bisects
it the same way, so a row depends only on the window, the depth and the key,
whatever integrals filled the table and in whatever order: the table memoises
a fixed function and no result depends on what ran before. Values, error
estimates and cell counts are those of the callable route bit for bit
(tests/test_oscillate.py). Any other g, and every cell deeper than
TABLE_DEPTH, calls g.

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
from .testfn import SmoothWindow

DEFAULT_CELL_BUDGET = 10**6
MAX_DEPTH = 60  # a cell this deep is accepted whatever its error indicator
# cells per g call in integrate_1d: 128 x 24 nodes spreads a window's per-call
# cost (its ramps are a table lookup); 512 gains nothing and grows peak memory
EVAL_CELLS = 128
# the deepest level of a window's node table, at most 2^11 - 1 rows of 24
# values (0.37 MiB): the Fourier-Mellin checks' integrals of U, |Im s| <= 1000,
# reach depth 10, the window Fourier integrals of V depth 7
TABLE_DEPTH = 10

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


def _cell_nodes(lo, hi):
    """The 24 nodes of each cell, (cells, 24), and each cell's half width."""
    h = (hi - lo) / 2.0
    mid = (hi + lo) / 2.0
    return mid[:, None] + h[:, None] * _NODES, h


def _window_rows(window, depth, key, lo, hi):
    """The window at the 24 nodes of each cell of `depth` with index `key` and
    ends lo, hi, read from its node table. The cells the table lacks are filled
    first, by one window call per EVAL_CELLS cells (keys of one depth are
    distinct, so no cell is filled twice)."""
    table = window.node_table.get(depth)
    if table is None:
        table = window.node_table[depth] = (
            np.zeros((1 << depth, _NODES.size)), np.zeros(1 << depth, dtype=bool)
        )
    rows, filled = table
    new = np.flatnonzero(~filled[key])
    for start in range(0, new.size, EVAL_CELLS):
        part = new[start:start + EVAL_CELLS]
        xs, _ = _cell_nodes(lo[part], hi[part])
        rows[key[part]] = np.asarray(window(xs.ravel())).reshape(xs.shape)
    filled[key[new]] = True
    return rows[key]


def _cell_rules(g, f, lo, hi, cell):
    """GL16 value, |GL16 - GL8| and GL16 mass of sum |w g e(f)| for each cell.

    g and f see the 24 nodes of at most EVAL_CELLS cells per call, as one
    flat array. With `cell` = (depth, key) of the cells (None: call g), g is
    a window integrated over its support and is read from its node table.
    """
    rows = None if cell is None else _window_rows(g, *cell, lo, hi)
    fine, err, mass = (np.empty(lo.size, dtype) for dtype in (complex, float, float))
    for start in range(0, lo.size, EVAL_CELLS):
        part = slice(start, start + EVAL_CELLS)
        xs, h = _cell_nodes(lo[part], hi[part])
        xs = xs.ravel()
        amp = np.asarray(g(xs)) if rows is None else rows[part].ravel()
        vals = amp * np.exp(2j * np.pi * np.asarray(f(xs)))
        if vals.shape != xs.shape:
            vals = np.broadcast_to(vals, xs.shape)
        vals = vals.reshape(h.size, _NODES.size)
        w_vals = _W16 * vals[:, :16]
        fine[part] = h * w_vals.sum(axis=1)
        mass[part] = h * np.abs(w_vals).sum(axis=1)
        coarse = h * (_W8 * vals[:, 16:]).sum(axis=1)
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
        node arrays, so g and f need only accept numpy arrays (a window
        over its support, g is read from its node table instead);
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
    tabled = isinstance(g, SmoothWindow) and (float(a), float(b)) == tuple(g.support)
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
        if rest.size:
            cell = (depth, key[rest]) if tabled and depth <= TABLE_DEPTH else None
            fine, err, mass = _cell_rules(g, f, lo[rest], hi[rest], cell)
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
