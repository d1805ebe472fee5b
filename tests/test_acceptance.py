"""Acceptance suite: every exit criterion at its stated tolerance.

The checks are the entries of ``weyldelta.checks.CHECKS``, the list that
`weyl-delta verify` reports from. Each criterion runs its entries on the
shared 60000-coefficient discriminant form, prints one PASS/FAIL line per
check (run with `pytest -s tests/test_acceptance.py` to see them) and
asserts them all; criteria with an elapsed bound are held to it, summed
over their checks. The random draws of criteria 3 and 4 use seeds 2024
and 99.
"""

import pytest

from weyldelta.checks import CHECKS, CheckContext

ELAPSED_BOUNDS = {1: 600.0, 6: 300.0, 7: 1800.0, 10: 3600.0}  # seconds


@pytest.fixture(scope="module")
def ctx():
    ctx = CheckContext(checks=CHECKS)
    ctx.form()
    return ctx


def gate(criterion, ctx):
    results = [check.run(ctx) for check in CHECKS if check.criterion == criterion]
    assert results, f"criterion {criterion} has no checks"
    for res in results:
        print(res.line())
    elapsed = sum(res.runtime for res in results)
    bound = ELAPSED_BOUNDS.get(criterion, float("inf"))
    print(f"criterion {criterion}: {len(results)} checks in {elapsed:.0f}s (< {bound:.0f}s)")
    assert all(res.passed for res in results), [res.line() for res in results if not res.passed]
    assert elapsed < bound


def test_criterion_01_voronoi_identity_matrix(ctx):
    """eta calibration, then the dual-summation identity over the (N, a, c) matrix."""
    gate(1, ctx)


def test_criterion_02_trivial_delta(ctx):
    """Single-modulus delta: normalization, exact zeros, quadrature match, decay."""
    gate(2, ctx)


def test_criterion_03_averaged_delta():
    """Exact-identity suite over 1000 random (r, n) pairs at (50, 5, 60)."""
    gate(3, CheckContext(seed=2024))


def test_criterion_04_fourier_mellin():
    """Two-method agreement slope over a 40-point grid; no-stationary decay."""
    gate(4, CheckContext(seed=99))


def test_criterion_05_stirling_profiles(ctx):
    """Phase-profile identity, residual-derivative decay, growth bounds on two kinds."""
    gate(5, ctx)


def test_criterion_06_smoothed_sum_decomposition(ctx):
    """S(N) stratification at (N, t, K) = (50, 10, 5), primes in [60, 120]."""
    gate(6, ctx)


def test_criterion_07_dual_summation_identity(ctx):
    """S_c both ways at (N, t, K, p) = (20, 5, 3, 11) with doubling stability."""
    gate(7, ctx)


def test_criterion_08_afe(ctx):
    """Central value two-weight agreement, reality, conjugate symmetry, truncation."""
    gate(8, ctx)


def test_criterion_09_hecke_rankin(ctx):
    """Multiplicativity to n = 10^4 and the second-moment growth slope."""
    gate(9, ctx)


def test_criterion_10_growth_scan(ctx):
    """200-sample scan of |L(1/2+it)| over [10, 500]."""
    gate(10, ctx)
