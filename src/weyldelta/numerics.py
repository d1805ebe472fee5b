"""Shared quadrature rules and small fitting helpers.

Everything here is deliberately plain: cached Gauss-Legendre nodes, composite
panels (with a factored equal-panel grid for exponential sums over its
nodes), and a least-squares log-log slope. The oscillatory machinery
lives in :mod:`weyldelta.oscillate` and builds on these pieces.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss


@functools.lru_cache(maxsize=None)
def gauss_legendre(order: int):
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [-1, 1]."""
    x, w = leggauss(order)
    return x.copy(), w.copy()


def panel_rule(a: float, b: float, panels: int, order: int = 16):
    """Composite Gauss-Legendre nodes/weights on [a, b] with equal panels."""
    if panels < 1:
        raise ValueError("panels must be >= 1")
    return edges_rule(np.linspace(a, b, panels + 1), order)


def edges_rule(edges, order: int = 16):
    """Composite Gauss-Legendre rule over explicit panel edges."""
    edges = np.asarray(edges, dtype=float)
    x0, w0 = gauss_legendre(order)
    half = np.diff(edges) / 2.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mids[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights


class PanelGrid:
    """The equal-panel Gauss-Legendre rule on [a, b], kept in factored form.

    Node (p, k) is mids[p] + offsets[k], stored panel-major like
    :func:`panel_rule` (the two agree to rounding: here every panel has the
    same half-width). Because every node splits the same way,

        exp(-i f tau_(p,k)) = exp(-i f mids[p]) * exp(-i f offsets[k]),

    the phase table E[j, n] = exp(-i freqs[j] nodes[n]) needs P + order
    complex exponentials per frequency instead of P * order, and a product
    with it is one GEMM per block of frequencies.
    """

    # complex elements per temporary (64 MB)
    CHUNK = 4_000_000

    def __init__(self, a: float, b: float, panels: int, order: int = 16):
        if panels < 1:
            raise ValueError("panels must be >= 1")
        x0, w0 = gauss_legendre(order)
        edges = np.linspace(a, b, panels + 1)
        half = (float(b) - float(a)) / (2.0 * panels)
        self.mids = (edges[:-1] + edges[1:]) / 2.0
        self.offsets = half * x0
        self.nodes = (self.mids[:, None] + self.offsets[None, :]).ravel()
        self.weights = np.tile(half * w0, panels)

    def _phase_blocks(self, freqs):
        """(slice, exp(-i f mids), exp(-i f offsets)) over blocks of freqs."""
        step = max(1, int(self.CHUNK // len(self.mids)))
        for i in range(0, len(freqs), step):
            f = freqs[i : i + step]
            mid = np.exp(-1j * np.outer(f, self.mids))
            off = np.exp(-1j * np.outer(f, self.offsets))
            yield slice(i, i + len(f)), mid, off

    def sums_at_nodes(self, coeffs, freqs) -> np.ndarray:
        """coeffs @ E: sum_j coeffs[..., j] exp(-i freqs[j] tau) at every node.

        `coeffs` is (J,) or (R, J); the result is (n_nodes,) or (R, n_nodes).
        Per block of frequencies, a single row is one (order x J) @
        (J x panels) product; R >= order rows take one (R x J) @ (J x panels)
        product per Gauss offset.
        """
        coeffs = np.asarray(coeffs)
        freqs = np.asarray(freqs, dtype=float)
        rows = np.atleast_2d(coeffs)
        n_mid, n_off = len(self.mids), len(self.offsets)
        out = np.zeros((len(rows), n_mid, n_off), dtype=complex)
        for sl, mid, off in self._phase_blocks(freqs):
            if len(rows) < n_off:
                for r, row in enumerate(rows):
                    out[r] += ((row[sl, None] * off).T @ mid).T
            else:
                for k in range(n_off):
                    out[:, :, k] += (rows[:, sl] * off[:, k]) @ mid
        return out.reshape(coeffs.shape[:-1] + (n_mid * n_off,))

    def sums_at_freqs(self, freqs, values) -> np.ndarray:
        """E @ values: sum over nodes of values(tau) exp(-i f tau), for each f.

        Per block of frequencies it is one (J, order) @ (order, panels)
        product followed by a row-wise product with exp(-i f mids).
        """
        freqs = np.asarray(freqs, dtype=float)
        table = np.asarray(values).reshape(len(self.mids), len(self.offsets)).T
        out = np.empty(len(freqs), dtype=complex)
        for sl, mid, off in self._phase_blocks(freqs):
            out[sl] = np.sum((off @ table) * mid, axis=1)
        return out


def loglog_slope(xs, ys):
    """Least-squares slope of log|y| against log x.

    Points with |y| = 0 are dropped (they would be -inf in log space).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.abs(np.asarray(ys))
    keep = ys > 0
    if keep.sum() < 2:
        raise ValueError("need at least two nonzero points for a slope fit")
    lx = np.log(xs[keep])
    ly = np.log(ys[keep])
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


def loglog_fit(xs, ys):
    """Slope, intercept and standard error of the slope for log-log data."""
    xs = np.asarray(xs, dtype=float)
    ys = np.abs(np.asarray(ys))
    keep = ys > 0
    lx = np.log(xs[keep])
    ly = np.log(ys[keep])
    n = len(lx)
    if n < 2:
        raise ValueError("need at least two nonzero points for a slope fit")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    if n > 2:
        sxx = np.sum((lx - lx.mean()) ** 2)
        se = math.sqrt(np.sum(resid**2) / (n - 2) / sxx)
    else:
        se = 0.0
    return float(slope), float(intercept), float(se)


def modular_inverse(a: int, c: int) -> int:
    """Inverse of a mod c; c = 1 returns 0 (empty residue system)."""
    if c == 1:
        return 0
    if math.gcd(a % c, c) != 1:
        raise ValueError(f"{a} is not invertible mod {c}")
    return pow(a % c, -1, c)


def unit_phases(numerators, c: int):
    """e(m/c) for integer numerators m, reduced mod c before exponentiation.

    Reducing in integer arithmetic keeps e((a+c)n/c) == e(an/c) bit-exact.
    """
    numerators = np.asarray(numerators)
    if c == 1:
        return np.ones(numerators.shape, dtype=complex)
    red = np.mod(numerators, c)
    return np.exp(2j * np.pi * red / c)


def primes_in(lo: int, hi: int):
    """Primes p with lo <= p <= hi (simple sieve)."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(hi**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]
