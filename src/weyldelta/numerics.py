"""Shared quadrature rules and small fitting helpers.

Everything here is deliberately plain: cached Gauss-Legendre nodes, composite
panels over explicit edges, the equal-panel rule (kept in factored form for
exponential sums over its nodes), barycentric Chebyshev interpolation, and a
least-squares log-log fit. The oscillatory machinery lives in
:mod:`weyldelta.oscillate` and builds on these pieces.
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


def edges_rule(edges, order: int = 16):
    """Composite Gauss-Legendre rule over explicit panel edges."""
    edges = np.asarray(edges, dtype=float)
    x0, w0 = gauss_legendre(order)
    half = np.diff(edges) / 2.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mids[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights


CHEB_EXTRA = 30  # Chebyshev points beyond a band limit (see chebyshev_size)


def chebyshev_size(omega: float) -> int:
    """Chebyshev points for a function band-limited to omega on its interval.

    A sum of e^(i w x) with |w| <= omega on [-1, 1] (an interval mapped
    there, its frequencies scaled by the half-width) has Chebyshev
    coefficients 2 i^k J_k(w), which fall off faster than geometrically
    once k passes omega. ceil(omega) + CHEB_EXTRA points leave a tail that
    grows with omega: the worst interpolation error of e^(i w x), |w| <=
    omega, is at most 2.2e-15 up to omega = 15, 4.2e-13 at omega = 30
    (= CHEB_EXTRA, where :meth:`PanelGrid.band_sums_at_nodes` stays),
    1.0e-9 at 62 and 3.2e-8 at 94. A caller past omega = CHEB_EXTRA owes
    its accuracy to something else, such as the decay of its integrand.
    """
    return math.ceil(omega) + CHEB_EXTRA


def chebyshev_interpolant(a: float, b: float, m: int, targets):
    """Chebyshev points of the second kind on [a, b] and the barycentric matrix.

    Returns (nodes, L) with L of shape (len(targets), m): for values f at
    the m >= 2 nodes, L @ f is the degree-(m - 1) interpolant at the
    targets (the barycentric formula of Berrut & Trefethen, SIAM Rev. 46
    (2004), sec. 5). A target that falls on a node takes that node's value.
    """
    j = np.arange(m)
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * j / (m - 1))
    w = np.where(j % 2 == 0, 1.0, -1.0)
    w[[0, -1]] *= 0.5
    diff = np.asarray(targets, dtype=float)[:, None] - nodes[None, :]
    hit = diff == 0
    diff[hit] = 1.0
    c = w / diff
    on_node = hit.any(axis=1)
    c[on_node] = hit[on_node]
    return nodes, c / c.sum(axis=1, keepdims=True)


class PanelGrid:
    """The equal-panel Gauss-Legendre rule on [a, b], kept in factored form.

    Node (p, k) is mids[p] + offsets[k], stored panel-major like
    :func:`edges_rule` over equally spaced edges (the two agree to rounding:
    here every panel has the same half-width). Because every node splits the
    same way,

        exp(-i f tau_(p,k)) = exp(-i f mids[p]) * exp(-i f offsets[k]),

    the phase table E[j, n] = exp(-i freqs[j] nodes[n]) is one GEMM per
    block of frequencies. The mids are equally spaced too, so with
    B = isqrt(P) the mid phases split once more,

        exp(-i f mids[qB + s]) = exp(-i f mids[qB]) * exp(-i f (mids[s] - mids[0])),

    and a frequency needs about 2 sqrt(P) + order complex exponentials
    instead of P * order (P + order with the first split alone); its sum at
    the nodes still costs P * order multiply-adds a row. A narrow band
    takes :meth:`band_sums_at_nodes` instead: it samples the sum at
    m <= 60 Chebyshev points on each of R runs of panels, for about m
    multiply-adds a node and row plus R + m exponentials a frequency.
    """

    # complex elements per temporary (64 MB)
    CHUNK = 4_000_000

    def __init__(self, a: float, b: float, panels: int, order: int = 16):
        if panels < 1:
            raise ValueError("panels must be >= 1")
        x0, w0 = gauss_legendre(order)
        edges = np.linspace(a, b, panels + 1)
        self.half = half = (float(b) - float(a)) / (2.0 * panels)
        self.mids = (edges[:-1] + edges[1:]) / 2.0
        self.offsets = half * x0
        self.nodes = (self.mids[:, None] + self.offsets[None, :]).ravel()
        self.weights = np.tile(half * w0, panels)

    def _phase_blocks(self, freqs, width: int = 1):
        """(slice, exp(-i f mids), exp(-i f offsets)) over blocks of freqs.

        The mid table is the (freqs, ceil(P/B), B) product of the coarse
        phases at mids[::B] and the fine ones at mids[:B] - mids[0], trimmed
        to P columns. A block's (freqs x panels x width) temporaries stay
        under CHUNK.
        """
        n_mid = len(self.mids)
        step = max(1, int(self.CHUNK // (n_mid * width)))
        b = math.isqrt(n_mid)
        coarse_mids = self.mids[::b]
        fine_steps = self.mids[:b] - self.mids[0]
        for i in range(0, len(freqs), step):
            f = freqs[i : i + step]
            coarse = np.exp(-1j * np.outer(f, coarse_mids))
            fine = np.exp(-1j * np.outer(f, fine_steps))
            mid = (coarse[:, :, None] * fine[:, None, :]).reshape(len(f), -1)[:, :n_mid]
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

    def band_sums_at_nodes(self, coeffs, freqs) -> np.ndarray:
        """:meth:`sums_at_nodes` by Chebyshev interpolation on runs of panels.

        The same sum in the same shape, for any band; it pays when the band
        is narrow. Without the carrier exp(-i fc tau), fc the band's centre,
        the sum has half-band hf. On a run of Q = min(P, floor(CHEB_EXTRA /
        (hf h))) panels of half-width h it is then band-limited to omega =
        hf h Q <= CHEB_EXTRA, so m = chebyshev_size(omega) <= 60 points carry
        it to within 4.2e-13 of its size (see :func:`chebyshev_size`). The
        grid is uniform, so the R = ceil(P / Q) runs are congruent: their
        samples are one GEMM against the phases exp(-i g c_s) exp(-i g z_l),
        g = f - fc, at the run centres c_s and the points z_l about them, and
        one shared (order Q x m) barycentric block carries every run to its
        nodes. Per frequency that is R + m exponentials and R m multiply-adds
        a row, plus m a node and row for the block, where sums_at_nodes does
        order * P multiply-adds a frequency and row. A band too wide for
        one panel (hf h > CHEB_EXTRA) is summed by sums_at_nodes.
        """
        coeffs = np.asarray(coeffs)
        freqs = np.asarray(freqs, dtype=float)
        lo, hi = (freqs.min(), freqs.max()) if freqs.size else (0.0, 0.0)
        fc, hf = 0.5 * (lo + hi), 0.5 * (hi - lo)
        if hf * self.half > CHEB_EXTRA:
            return self.sums_at_nodes(coeffs, freqs)
        n_mid, n_off = len(self.mids), len(self.offsets)
        q = n_mid if hf == 0 else min(n_mid, int(CHEB_EXTRA // (hf * self.half)))
        span = q * self.half  # a run's half-width
        start = self.mids[0] - self.half
        # the first run's nodes about its centre, as every run's
        local = self.nodes[: q * n_off] - (start + span)
        z, block = chebyshev_interpolant(-span, span, chebyshev_size(hf * span), local)
        centres = start + span * (2 * np.arange(-(-n_mid // q)) + 1)
        rows = np.atleast_2d(coeffs)
        g = freqs - fc
        samples = np.zeros((len(rows), len(centres) * len(z)), dtype=complex)
        step = max(1, self.CHUNK // samples.shape[1])
        for i in range(0, len(g), step):
            gi = g[i : i + step]
            run, point = np.exp(-1j * np.outer(gi, centres)), np.exp(-1j * np.outer(gi, z))
            phases = run[:, :, None] * point[:, None, :]
            samples += rows[:, i : i + step] @ phases.reshape(len(gi), -1)
        # the block is real: two real products cost half of one complex one
        samples = samples.reshape(-1, len(z))
        out = np.empty((len(samples), len(local)), dtype=complex)
        out.real, out.imag = samples.real @ block.T, samples.imag @ block.T
        out = out.reshape(len(rows), -1)[:, : len(self.nodes)] * np.exp(-1j * fc * self.nodes)
        return out.reshape(coeffs.shape[:-1] + (len(self.nodes),))

    def sums_at_freqs(self, freqs, values) -> np.ndarray:
        """E @ values: sum over nodes of values(tau) exp(-i f tau), for each f.

        `values` is (n_nodes,) or (n_nodes, C); the result is (J,) or (J, C),
        a 1-d `values` taken as one column. Per block of frequencies it is
        one (J, order) @ (order, panels * C) product followed by a row-wise
        product with exp(-i f mids), so all C columns share one phase table.
        """
        freqs = np.asarray(freqs, dtype=float)
        values = np.asarray(values)
        n_mid, n_off = len(self.mids), len(self.offsets)
        width = values.size // len(self.nodes)
        table = values.reshape(n_mid, n_off, width).transpose(1, 0, 2).reshape(n_off, -1)
        out = np.empty((len(freqs), width), dtype=complex)
        for sl, mid, off in self._phase_blocks(freqs, width):
            inner = (off @ table).reshape(len(mid), n_mid, width)
            out[sl] = np.matmul(mid[:, None, :], inner)[:, 0, :]
        return out.reshape(freqs.shape + values.shape[1:])


def tail_norm(terms) -> float:
    """The l2 norm of the last tenth of `terms`, a sum's truncation-tail proxy."""
    return float(np.sqrt(np.sum(np.abs(terms[int(0.9 * len(terms)) :]) ** 2)))


def loglog_slope(xs, ys):
    """Least-squares slope of log|y| against log x (see :func:`loglog_fit`)."""
    return loglog_fit(xs, ys)[0]


def loglog_fit(xs, ys):
    """Slope, intercept and standard error of the slope for log-log data.

    Points with |y| = 0 are dropped (they would be -inf in log space).
    """
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
