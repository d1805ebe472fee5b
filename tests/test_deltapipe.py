
import math

import numpy as np
import pytest

from weyldelta import deltapipe, oscillate
from weyldelta.errors import BudgetExceededError, PreconditionError
from weyldelta.forms import constant_form, delta_form
from weyldelta.numerics import loglog_slope, panel_rule, primes_in
from weyldelta.deltapipe import (
    DualKernel,
    PipelineConfig,
    averaged_delta,
    averaged_delta_alpha_sum,
    dual_identity_check,
    i_delta_direct,
    i_star_direct,
    i_star_main,
    s_c_direct,
    s_direct,
    s_split,
    trivial_delta,
    trivial_delta_alpha_sum,
)
from weyldelta.statphase import u_dagger_direct
from weyldelta.testfn import make_window_u, make_window_v


@pytest.fixture(scope="module")
def form():
    return delta_form(4000)


@pytest.fixture(scope="module")
def cfg_split():
    return PipelineConfig(N=50.0, t=10.0, K=5.0, prime_set=tuple(primes_in(60, 120)))


# --- the two delta detectors -------------------------------------------------


def test_trivial_delta_diagonal():
    assert trivial_delta(0, 13, 10.0) == pytest.approx(1.0, abs=1e-12)


def test_trivial_delta_exact_zero_off_diagonal():
    for n in range(1, 13):
        assert trivial_delta(n, 13, 10.0) == 0.0
        assert trivial_delta(-n, 13, 10.0) == 0.0


def test_trivial_delta_multiple_of_modulus_matches_quadrature():
    from weyldelta.oscillate import integrate_1d

    v = make_window_v()
    val = trivial_delta(13, 13, 10.0)
    oracle = integrate_1d(lambda x: v(x), lambda x: 1.3 * x, 1.0, 2.0, tol=1e-13).value
    assert val == pytest.approx(oracle, abs=1e-10)
    # the character-sum form agrees with the divisibility gate
    assert abs(val - trivial_delta_alpha_sum(13, 13, 10.0)) < 1e-12


def test_trivial_delta_decay_probe():
    ns = [13 * 2**k for k in range(6)]
    vals = [abs(trivial_delta(n, 13, 10.0)) for n in ns]
    assert loglog_slope([n / 10.0 for n in ns], vals) <= -2.8


def test_trivial_delta_requires_large_modulus():
    with pytest.raises(PreconditionError):
        trivial_delta(0, 5, 10.0)


def test_exhausted_budget_raises_and_caches_nothing(monkeypatch):
    deltapipe._fourier_v.cache_clear()
    monkeypatch.setattr(oscillate, "DEFAULT_CELL_BUDGET", 3)
    with pytest.raises(BudgetExceededError):
        deltapipe._fourier_v(6.1)
    assert deltapipe._fourier_v.cache_info().currsize == 0
    with pytest.raises(BudgetExceededError):
        trivial_delta(104, 13, 10.0)


def test_averaged_delta_exact_cases(cfg_split):
    assert averaged_delta(7, 7, cfg_split) == 1.0
    assert averaged_delta(8, 7, cfg_split) == 0.0  # no prime divides 1
    # difference equal to one prime of the family
    val = averaged_delta(64, 3, cfg_split)  # 64 - 3 = 61 in the prime set
    from weyldelta.oscillate import integrate_1d

    v = make_window_v()
    oracle = integrate_1d(
        lambda x: v(x), lambda x: cfg_split.K * 61 / cfg_split.N * x, 1.0, 2.0, tol=1e-13
    ).value
    assert val == pytest.approx(oracle / len(cfg_split.prime_set), abs=1e-12)


def test_averaged_delta_matches_character_sums(cfg_split):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(300):
        r = int(rng.integers(1, 160))
        n = int(rng.integers(1, 160))
        worst = max(
            worst, abs(averaged_delta(r, n, cfg_split) - averaged_delta_alpha_sum(r, n, cfg_split))
        )
    assert worst <= 1e-8


def test_averaged_delta_needs_primes():
    with pytest.raises(PreconditionError):
        averaged_delta(1, 1, PipelineConfig(prime_set=()))


def test_config_validation():
    with pytest.raises(PreconditionError):
        PipelineConfig(N=50.0, t=10.0, K=5.0, prime_set=(7,)).validate(need_primes=True)
    with pytest.raises(PreconditionError):
        PipelineConfig(N=50.0, t=1.0, K=5.0).validate()
    with pytest.raises(PreconditionError):
        PipelineConfig(q=9, X=10.0).validate()
    PipelineConfig(N=50.0, t=10.0, K=5.0, prime_set=tuple(primes_in(60, 120))).validate(
        need_primes=True
    )


# --- smoothed sum and its decomposition --------------------------------------


def test_s_direct_empty_support(form):
    assert s_direct(form, 0.4, 5.0) == 0.0  # no integer in [0.4, 0.8]


def test_s_direct_synthetic_riemann_sum():
    v = make_window_v()
    form1 = constant_form(400)
    val = s_direct(form1, 100.0, 0.0)
    expected = sum(v(r / 100.0) for r in range(100, 201))
    assert val == pytest.approx(expected, rel=1e-14)


def test_s_direct_high_precision_resum(form):
    # same formula re-summed at 30 significant digits
    import mpmath as mp

    mp.mp.dps = 30
    N, t = 50.0, 10.0
    val = s_direct(form, N, t)
    c_norm = 2 / mp.quad(lambda u: mp.e ** (-1 / (1 - u**2)), [-1, 1])
    total = mp.mpc(0)
    for r in range(50, 101):
        u = 2 * (r / mp.mpf(N)) - 3
        if abs(u) >= 1:
            continue
        v_val = c_norm * mp.e ** (-1 / (1 - u**2))
        lam = mp.mpf(form.tau_at(r)) / mp.mpf(r) ** mp.mpf("5.5")
        total += lam * mp.e ** (-1j * t * mp.log(r)) * v_val
    assert abs(val - complex(total)) < 1e-12


def test_s_split_identity(form, cfg_split):
    res = s_split(form, cfg_split)
    assert res.residual <= 1e-6
    # the diagonal gap is the finite-size delta-method error: nonzero but small
    assert 0 < res.diagonal_gap < 1e-2
    assert res.s_flat != 0


def test_s_split_zero_form(cfg_split):
    res = s_split(constant_form(400, 0.0), cfg_split)
    assert res.s_star == 0
    assert res.s_flat == 0
    assert res.double_sum == 0


def test_s_split_large_k_observation(form):
    # K comparable to N: the flat stratum grows; observation run only
    cfg = PipelineConfig(N=50.0, t=10.0, K=40.0, prime_set=tuple(primes_in(80, 160)))
    res = s_split(form, cfg)
    assert res.residual <= 1e-6


def test_s_split_budget_guard(form, cfg_split):
    import dataclasses

    tiny = dataclasses.replace(cfg_split, eval_budget=10.0)
    with pytest.raises(BudgetExceededError):
        s_split(form, tiny)


# --- dagger kernels ----------------------------------------------------------


def test_kernel_udag_row_matches_pointwise(form):
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11)
    kernel = DualKernel(cfg, 11, form.kind)
    u = make_window_u()
    r = -2
    row = kernel.udag_row(r)
    for idx in (0, len(kernel.x_nodes) // 2, len(kernel.x_nodes) - 1):
        x = kernel.x_nodes[idx]
        rho = cfg.N * r / 11 - cfg.K * x
        ref = u_dagger_direct(u, rho, complex(1.0, -cfg.t), tol=1e-12)
        assert row[idx] == pytest.approx(ref.value, abs=1e-9)


def _vdag_per_node(kernel):
    """The Vdag table by one complex exponential per (u, tau) node (oracle)."""
    cfg = kernel.cfg
    v = make_window_v()
    va, vb = v.support
    v_cycles = 2 * abs(cfg.K) * (vb - va) + kernel.tau_cut * math.log(vb / va) / (4 * math.pi)
    uv, wv = panel_rule(va, vb, max(12, int(math.ceil(1.6 * v_cycles * cfg.grid_scale))), 16)
    t1 = np.exp(-2j * np.pi * cfg.K * np.outer(kernel.x_nodes, uv)) * (wv * v(uv) * uv ** (-0.5))
    return t1 @ np.exp(-0.5j * np.outer(np.log(uv), kernel.tau_nodes))


def test_kernel_vdag_matches_per_node_table(form):
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, tau_cut=300.0)
    kernel = DualKernel(cfg, 11, form.kind)
    ref = _vdag_per_node(kernel)
    assert np.max(np.abs(kernel.vdag - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_kernel_istar_consistency(form):
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, tau_cut=200.0)
    kernel = DualKernel(cfg, 11, form.kind)
    # istar_value (fresh column) against the tabulated row at a grid point
    row = kernel.istar_row(-1)
    j = len(kernel.tau_nodes) // 3
    tau = float(kernel.tau_nodes[j])
    direct = kernel.istar_value(-1, tau)
    assert direct == pytest.approx(row[j], abs=1e-10)


def test_i_delta_self_consistency_under_tau_doubling(form):
    base = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, tau_cut=600.0)
    fine = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, tau_cut=1200.0)
    # n chosen so sqrt(nN)/(c sqrt(M)) = 1: the power factor drops out
    n = round(11**2 / 20.0)
    v1, _ = i_delta_direct(n, -1, 11, form.kind, base)
    v2, _ = i_delta_direct(n, -1, 11, form.kind, fine)
    assert abs(v1 - v2) <= 1e-4 * max(abs(v1), 1e-12)


def test_i_delta_suppressed_without_r(form):
    # the r = 0 kernel has no x-stationarity once the transform band
    # 16 pi K sits well below 2t (at K = 4 that needs t >> 200; smaller t
    # puts tau = -2t inside the band and the suppression disappears)
    cfg = PipelineConfig(N=210.0, t=400.0, K=4.0, prime_set=(3,), c=3, tau_cut=350.0)
    live, _ = i_delta_direct(1, -1, 3, form.kind, cfg)
    dead, _ = i_delta_direct(1, 0, 3, form.kind, cfg)
    assert abs(dead) <= 1e-3 * abs(live)


def test_istar_main_against_direct():
    # fully live configuration: the x-stationary point sits mid-window AND
    # both transform arguments stay inside their supports, which requires
    # |tau| ~ 4 pi K x0 and 16 pi K << 2t (the hierarchy the asymptotic
    # analysis assumes)
    t, K = 2000.0, 20.0
    tau = -500.0
    cfg = PipelineConfig(N=100.0, t=t, K=K, prime_set=(101,), c=101)
    r = round(1.5 * (tau + 2 * t) * K * cfg.c / (cfg.N * tau))
    main = i_star_main(r, cfg.c, tau, cfg)
    assert main.stationary
    assert 1.0 < main.x0 < 2.0
    direct = i_star_direct(r, cfg.c, tau, cfg)
    rel = abs(main.value - direct) / abs(direct)
    assert rel <= 0.1


def test_istar_main_no_stationary_point():
    t, K = 2000.0, 20.0
    tau = -500.0
    cfg = PipelineConfig(N=100.0, t=t, K=K, prime_set=(101,), c=101)
    r_live = round(1.5 * (tau + 2 * t) * K * cfg.c / (cfg.N * tau))
    r_dead = round(0.3 * (tau + 2 * t) * K * cfg.c / (cfg.N * tau))
    main = i_star_main(r_dead, cfg.c, tau, cfg)
    assert not main.stationary
    assert main.value == 0
    dead = abs(i_star_direct(r_dead, cfg.c, tau, cfg))
    live = abs(i_star_direct(r_live, cfg.c, tau, cfg))
    assert dead <= 1e-3 * live


def test_istar_conjugate_symmetry():
    # conjugating the integrand flips every phase at once: r, tau, t and K
    # all change sign together (at fixed t the (r, tau) flip alone is not
    # a symmetry of the integral)
    import dataclasses

    t, K = 2000.0, 20.0
    tau = -500.0
    cfg = PipelineConfig(N=100.0, t=t, K=K, prime_set=(101,), c=101)
    cfg_neg = dataclasses.replace(cfg, t=-t, K=-K)
    r = round(1.5 * (tau + 2 * t) * K * cfg.c / (cfg.N * tau))
    plus = i_star_direct(r, cfg.c, tau, cfg)
    minus = i_star_direct(-r, cfg.c, -tau, cfg_neg)
    assert minus == pytest.approx(np.conj(plus), rel=1e-12)


def test_istar_main_band_guard():
    cfg = PipelineConfig(N=100.0, t=2000.0, K=20.0, prime_set=(101,), c=101)
    with pytest.raises(PreconditionError):
        i_star_main(-10, 101, -1.0, cfg)  # |tau| below K^(1-eps)
    with pytest.raises(PreconditionError):
        i_star_main(-10, 101, -1e5, cfg)  # above the 16 pi K cap
    slow = PipelineConfig(N=100.0, t=5.0, K=4.9, prime_set=(101,), c=101)
    with pytest.raises(PreconditionError):
        i_star_main(-10, 101, -4.0, slow)  # K >= t^(1-eps)


def test_istar_main_accuracy_improves_with_tau():
    t, K = 2000.0, 20.0
    cfg = PipelineConfig(N=100.0, t=t, K=K, prime_set=(101,), c=101)
    taus = [-430.0, -500.0, -600.0]
    rels = []
    for tau in taus:
        r = round(1.5 * (tau + 2 * t) * K * cfg.c / (cfg.N * tau))
        main = i_star_main(r, cfg.c, tau, cfg)
        if not main.stationary:
            continue
        direct = i_star_direct(r, cfg.c, tau, cfg)
        rels.append(abs(main.value - direct) / abs(direct))
    assert len(rels) >= 2
    slope = loglog_slope([abs(t) for t in taus[: len(rels)]], rels)
    assert slope <= -0.4


# --- the dual identity --------------------------------------------------------


def test_s_c_direct_zero_form():
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11)
    val = s_c_direct(constant_form(400, 0.0), cfg, 11)
    assert val == 0


def _class_sums_blocked(form, c, n_cut, tau_nodes):
    """T_b(tau) by one complex exponential per (m, tau) pair (oracle)."""
    lam = form.lam_slice(n_cut)
    ms = np.arange(1, n_cut + 1)
    logm = np.log(ms.astype(float))
    t_class = np.zeros((c, len(tau_nodes)), dtype=complex)
    chunk = max(1, int(4e6 // max(len(tau_nodes), 1)))
    for i in range(0, n_cut, chunk):
        sl = slice(i, min(i + chunk, n_cut))
        block = np.exp(np.outer(-0.5 * logm[sl], 1.0 + 1j * tau_nodes)) * lam[sl, None]
        classes = ms[sl] % c
        for b in np.unique(classes):
            t_class[b] += block[classes == b].sum(axis=0)
    return t_class


@pytest.mark.parametrize("c", [11, 1])
def test_dirichlet_class_sums_match_blocked_loop(form, c):
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, tau_cut=300.0)
    kernel = DualKernel(cfg, c, form.kind)
    got = deltapipe._dirichlet_class_sums(form, c, 3000, kernel.tau_grid)
    ref = _class_sums_blocked(form, c, 3000, kernel.tau_nodes)
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_dual_identity_desk_scale():
    form = delta_form(24000)
    form.eta = 1.0 + 0.0j  # calibrated value for the built-in form
    cfg = PipelineConfig(
        N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, n_cut=12000, tau_cut=1200.0, r_cut=20
    )
    res = dual_identity_check(form, cfg, sweep=False)
    assert res.residual <= 1e-3


def test_dual_identity_requires_eta(form):
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, n_cut=100)
    form_no_eta = delta_form(400)
    with pytest.raises(PreconditionError):
        dual_identity_check(form_no_eta, cfg, sweep=False)


def test_dual_identity_validates_c(form):
    with pytest.raises(PreconditionError):
        dual_identity_check(form, PipelineConfig(prime_set=(11,), c=1), sweep=False)
    with pytest.raises(PreconditionError):
        dual_identity_check(form, PipelineConfig(prime_set=(11,), c=13), sweep=False)
