import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyldelta import testfn
from weyldelta.numerics import PanelGrid
from weyldelta.testfn import (
    BUMP_MASS,
    bump,
    make_window_u,
    make_window_v,
    smooth_step,
)

# the bump integral, 40-digit quadrature
BUMP_MASS_REF = 0.4439938161680794378230489211705526637612


@pytest.fixture(scope="module")
def v_window():
    return make_window_v()


@pytest.fixture(scope="module")
def u_window():
    return make_window_u()


def test_bump_mass_against_oracle():
    assert BUMP_MASS == pytest.approx(BUMP_MASS_REF, rel=1e-13)


def test_bump_derivative_recurrence_matches_finite_difference():
    # symbolic prefactor recurrence vs centered differences, interior points
    xs = np.linspace(-0.8, 0.8, 17)
    h = 1e-5
    for j in (1, 2, 3):
        numeric = (bump(xs + h, j - 1) - bump(xs - h, j - 1)) / (2 * h)
        exact = bump(xs, j)
        assert np.max(np.abs(numeric - exact)) < 1e-5 * max(1.0, np.max(np.abs(exact)))


def test_v_outside_support(v_window):
    assert v_window(0.5) == 0.0
    assert v_window(2.5) == 0.0
    assert v_window(-1.0) == 0.0


def test_v_unit_integral(v_window):
    grid = PanelGrid(1.0, 2.0, 24)
    assert np.sum(grid.weights * v_window(grid.nodes)) == pytest.approx(1.0, abs=1e-10)


def test_v_unit_integral_stable_under_refinement(v_window):
    vals = []
    for panels in (8, 16, 32):
        grid = PanelGrid(1.0, 2.0, panels)
        vals.append(np.sum(grid.weights * v_window(grid.nodes)))
    # refinement converges: successive differences shrink and the finest
    # rule reproduces the unit integral
    assert abs(vals[1] - vals[2]) <= max(abs(vals[0] - vals[1]), 1e-14)
    assert vals[2] == pytest.approx(1.0, abs=1e-10)


def test_v_derivatives_vanish_at_edges(v_window):
    for j in range(0, 7):
        assert v_window.derivative(1.0, j) == 0.0
        assert v_window.derivative(2.0, j) == 0.0


def test_u_plateau_and_support(u_window):
    assert u_window(1.5) == 1.0
    assert u_window(1.0) == pytest.approx(1.0, abs=1e-14)
    assert u_window(2.0) == pytest.approx(1.0, abs=1e-14)
    assert u_window(0.4) == 0.0
    assert u_window(2.6) == 0.0


def test_u_ramp_monotone(u_window):
    vals = [u_window(x) for x in (0.6, 0.75, 0.9)]
    assert 0 < vals[0] < vals[1] < vals[2] < 1
    assert u_window(0.75) == pytest.approx(0.5, abs=1e-12)  # ramp midpoint


def test_u_derivatives(u_window):
    assert u_window.derivative(1.5, 1) == 0.0
    assert u_window.derivative(0.75, 1) > 0
    assert u_window.derivative(2.25, 1) < 0
    # chain rule factor 4 against the step derivative
    assert u_window.derivative(0.75, 1) == pytest.approx(4 * smooth_step(0.0, 1), rel=1e-12)


def test_smooth_step_limits():
    assert smooth_step(-1.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(0.0) == pytest.approx(0.5, abs=1e-13)
    assert smooth_step(np.array([-1.0, 1.0])).tolist() == [0.0, 1.0]


def test_ramp_table_matches_the_gl20_route():
    # every panel edge, both neighbours of each, a fine grid and points just
    # inside +-1; degree 12 would miss this bound by ten times
    edges = testfn._ramp_edges[1:-1]
    ends = np.array([1.1e-16, 2.2e-16, 1e-15, 1e-12, 1e-8])
    s = np.concatenate(
        (
            np.linspace(-1.0, 1.0, 200_001)[1:-1],
            edges,
            np.nextafter(edges, -2.0),
            np.nextafter(edges, 2.0),
            -1.0 + ends,
            1.0 - ends,
        )
    )
    table = testfn._bump_cdf(s)
    assert np.max(np.abs(table - testfn._bump_cdf_gl20(s))) <= 3e-16
    # unclipped, the series dips to about -1e-17 next to s = -1
    assert 0.0 <= table.min() and table.max() <= BUMP_MASS


def u_three_masks(x):
    """U from one smooth_step call per ramp, each over its own mask: the oracle
    of the one-call evaluator."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(x.shape)
    up = (x > 0.5) & (x < 1.0)
    flat = (x >= 1.0) & (x <= 2.0)
    down = (x > 2.0) & (x < 2.5)
    out[up] = smooth_step(4.0 * x[up] - 3.0)
    out[flat] = 1.0
    out[down] = smooth_step(9.0 - 4.0 * x[down])
    return out


def test_one_call_ramps_match_the_three_mask_oracle(u_window):
    knots = np.array([0.5, 1.0, 2.0, 2.5])
    x = np.concatenate(
        (np.linspace(0.3, 2.7, 240_001), knots, np.nextafter(knots, 0.0), np.nextafter(knots, 3.0))
    )
    assert u_window(x).tobytes() == u_three_masks(x).tobytes()
    for point in x[-12:]:
        value = u_window(float(point))
        assert isinstance(value, float) and value == u_three_masks(point)[0], point


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0))
def test_smooth_step_monotone(s):
    assert 0.0 <= smooth_step(s) <= 1.0
