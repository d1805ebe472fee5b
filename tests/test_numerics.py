import numpy as np
import pytest

from weyldelta import numerics
from weyldelta.numerics import PanelGrid, chebyshev_interpolant, chebyshev_size, edges_rule


def _phase_table(freqs, nodes):
    # the per-node route the factored grid replaces
    return np.exp(-1j * np.outer(freqs, nodes))


@pytest.mark.parametrize("a, b, panels", [(-300.0, 300.0, 300), (-13.0, 13.0, 70), (0.5, 2.5, 7)])
def test_panel_grid_is_the_panel_rule(a, b, panels):
    grid = PanelGrid(a, b, panels, 16)
    nodes, weights = edges_rule(np.linspace(a, b, panels + 1), 16)
    scale = max(abs(a), abs(b))
    assert np.max(np.abs(grid.nodes - nodes)) <= 1e-14 * scale
    assert np.max(np.abs(grid.weights - weights)) <= 1e-15 * scale
    assert np.array_equal(grid.nodes, (grid.mids[:, None] + grid.offsets[None, :]).ravel())


@pytest.mark.parametrize("rows", [None, 1, 3, 40])
@pytest.mark.parametrize("chunk", [PanelGrid.CHUNK, 5000])
def test_sums_at_nodes_matches_phase_table(rows, chunk, monkeypatch):
    monkeypatch.setattr(PanelGrid, "CHUNK", chunk)
    rng = np.random.default_rng(7)
    grid = PanelGrid(-300.0, 300.0, 300, 16)
    freqs = 0.5 * np.log(rng.uniform(1.0, 3e4, 700))
    shape = (700,) if rows is None else (rows, 700)
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ref = coeffs @ _phase_table(freqs, grid.nodes)
    got = grid.sums_at_nodes(coeffs, freqs)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("chunk", [PanelGrid.CHUNK, 5000])
def test_sums_at_freqs_matches_phase_table(chunk, monkeypatch):
    monkeypatch.setattr(PanelGrid, "CHUNK", chunk)
    rng = np.random.default_rng(8)
    grid = PanelGrid(-13.0, 13.0, 70, 16)
    freqs = np.log(rng.uniform(0.01, 2e4, 900))
    values = rng.normal(size=grid.nodes.size) + 1j * rng.normal(size=grid.nodes.size)
    ref = _phase_table(freqs, grid.nodes) @ values
    got = grid.sums_at_freqs(freqs, values)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("chunk", [PanelGrid.CHUNK, 5000])
def test_sums_at_freqs_columns_match_phase_table(chunk, monkeypatch):
    monkeypatch.setattr(PanelGrid, "CHUNK", chunk)
    rng = np.random.default_rng(9)
    grid = PanelGrid(1.0, 1.5, 40, 16)
    freqs = -4 * np.pi * np.sqrt(rng.uniform(450.0, 8000.0, 900))
    values = rng.normal(size=(grid.nodes.size, 6)) + 1j * rng.normal(size=(grid.nodes.size, 6))
    ref = _phase_table(freqs, grid.nodes) @ values
    got = grid.sums_at_freqs(freqs, values)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# one panel, no full coarse row, a prime count, the dual workload's tau
# grid and the WhatTransform tau grid: the two-level mid phases trim a
# ragged last row whenever P is not a square. Frequencies stay in [0, 3],
# so the phases |f tau| stay under 6000, where the reference table's own
# rounding (|f tau| times the machine epsilon) stays well under 1e-12.
RAGGED = [
    (-300.0, 300.0, 1),
    (-300.0, 300.0, 2),
    (-300.0, 300.0, 37),
    (-1200.0, 1200.0, 1200),
    (0.0, 2000.0, 1831),
]


@pytest.mark.parametrize("a, b, panels", RAGGED)
@pytest.mark.parametrize("rows", [1, 40])
def test_sums_at_nodes_ragged_panel_counts(a, b, panels, rows):
    rng = np.random.default_rng(panels)
    grid = PanelGrid(a, b, panels, 16)
    freqs = rng.uniform(0.0, 3.0, 120)
    coeffs = rng.normal(size=(rows, 120)) + 1j * rng.normal(size=(rows, 120))
    ref = coeffs @ _phase_table(freqs, grid.nodes)
    got = grid.sums_at_nodes(coeffs, freqs)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("a, b, panels", RAGGED)
@pytest.mark.parametrize("width", [None, 6])
def test_sums_at_freqs_ragged_panel_counts(a, b, panels, width):
    rng = np.random.default_rng(panels)
    grid = PanelGrid(a, b, panels, 16)
    freqs = rng.uniform(0.0, 3.0, 120)
    shape = (grid.nodes.size,) if width is None else (grid.nodes.size, width)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ref = _phase_table(freqs, grid.nodes) @ values
    got = grid.sums_at_freqs(freqs, values)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_sums_at_nodes_empty_frequency_set():
    grid = PanelGrid(-1.0, 1.0, 4, 16)
    out = grid.sums_at_nodes(np.zeros(0, dtype=complex), np.zeros(0))
    assert out.shape == (64,)
    assert not np.any(out)


def test_chebyshev_interpolant_reproduces_polynomials():
    # 1, 1.5 and 2 are nodes of the 9-point rule on [1, 2]
    targets = np.r_[1.0, 1.5, 2.0, np.random.default_rng(3).uniform(1.0, 2.0, 40)]
    nodes, interp = chebyshev_interpolant(1.0, 2.0, 9, targets)
    assert interp.shape == (43, 9)
    assert np.array_equal(interp[:3] != 0, nodes[None, :] == targets[:3, None])

    def poly(x):
        return (x - 1.2) ** 8 - 3 * x

    assert np.max(np.abs(interp @ poly(nodes) - poly(targets))) <= 1e-13


@pytest.mark.parametrize("omega", [0.0, 1.0, 4.7, 10.0, 15.0, 20.0, 25.0, 30.0])
def test_chebyshev_size_holds_1e12_up_to_cheb_extra(omega):
    # the regime band_sums_at_nodes stays in: omega <= CHEB_EXTRA
    assert omega <= numerics.CHEB_EXTRA
    x = np.linspace(-1.0, 1.0, 1001)
    nodes, interp = chebyshev_interpolant(-1.0, 1.0, chebyshev_size(omega), x)
    w = np.linspace(-omega, omega, 201)
    err = interp @ np.exp(1j * np.outer(nodes, w)) - np.exp(1j * np.outer(x, w))
    assert np.max(np.abs(err)) <= 1e-12


BANDS = {
    "narrow": lambda rng, n: 0.5 * np.log(rng.uniform(1.0, 2.0, n)),
    "wide": lambda rng, n: rng.uniform(0.0, 3.0, n),
}


@pytest.mark.parametrize("a, b, panels", RAGGED)
@pytest.mark.parametrize("rows", [None, 1, 40])
@pytest.mark.parametrize("band", sorted(BANDS))
def test_band_sums_at_nodes_matches_phase_table(a, b, panels, rows, band):
    rng = np.random.default_rng(panels)
    grid = PanelGrid(a, b, panels, 16)
    freqs = BANDS[band](rng, 120)
    shape = (120,) if rows is None else (rows, 120)
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ref = coeffs @ _phase_table(freqs, grid.nodes)
    got = grid.band_sums_at_nodes(coeffs, freqs)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_band_sums_at_nodes_in_frequency_blocks(monkeypatch):
    # the samples' phase table split into blocks of a few frequencies
    monkeypatch.setattr(PanelGrid, "CHUNK", 5000)
    rng = np.random.default_rng(11)
    grid = PanelGrid(-1200.0, 1200.0, 1200, 16)
    freqs = 0.5 * np.log(rng.uniform(1.0, 2.0, 700))
    coeffs = rng.normal(size=(3, 700)) + 1j * rng.normal(size=(3, 700))
    ref = coeffs @ _phase_table(freqs, grid.nodes)
    got = grid.band_sums_at_nodes(coeffs, freqs)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_band_sums_at_nodes_zero_width_band_is_one_run(monkeypatch):
    targets = []

    def spy(a, b, m, points):
        targets.append(len(points))
        return chebyshev_interpolant(a, b, m, points)

    monkeypatch.setattr(numerics, "chebyshev_interpolant", spy)
    rng = np.random.default_rng(12)
    grid = PanelGrid(-300.0, 300.0, 37, 16)
    freqs = np.full(50, 0.7)
    coeffs = rng.normal(size=(2, 50)) + 1j * rng.normal(size=(2, 50))
    ref = coeffs @ _phase_table(freqs, grid.nodes)
    got = grid.band_sums_at_nodes(coeffs, freqs)
    assert targets == [grid.nodes.size]
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [(0,), (3, 0)])
def test_band_sums_at_nodes_empty_frequency_set(shape):
    grid = PanelGrid(-1.0, 1.0, 4, 16)
    out = grid.band_sums_at_nodes(np.zeros(shape, dtype=complex), np.zeros(0))
    assert out.shape == shape[:-1] + (64,)
    assert not np.any(out)
