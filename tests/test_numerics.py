import numpy as np
import pytest

from weyldelta.numerics import PanelGrid, panel_rule


def _phase_table(freqs, nodes):
    # the per-node route the factored grid replaces
    return np.exp(-1j * np.outer(freqs, nodes))


@pytest.mark.parametrize("a, b, panels", [(-300.0, 300.0, 300), (-13.0, 13.0, 70), (0.5, 2.5, 7)])
def test_panel_grid_is_the_panel_rule(a, b, panels):
    grid = PanelGrid(a, b, panels, 16)
    nodes, weights = panel_rule(a, b, panels, 16)
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


def test_sums_at_nodes_empty_frequency_set():
    grid = PanelGrid(-1.0, 1.0, 4, 16)
    out = grid.sums_at_nodes(np.zeros(0, dtype=complex), np.zeros(0))
    assert out.shape == (64,)
    assert not np.any(out)
