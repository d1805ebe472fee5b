
import math
from dataclasses import replace

import numpy as np
import pytest

from weyldelta import deltapipe, numerics, oscillate
from weyldelta.checks import CHECKS, CheckContext
from weyldelta.errors import BudgetExceededError, CoefficientRangeError, PreconditionError
from weyldelta.forms import (
    CuspForm,
    constant_form,
    delta_form,
    multiplicative_extension,
    ramanujan_tau,
    trivial_character,
)
from weyldelta.numerics import PanelGrid, loglog_slope, primes_in
from weyldelta.deltapipe import (
    DualKernel,
    PipelineConfig,
    averaged_delta,
    averaged_delta_alpha_sum,
    dual_identity_check,
    i_star_main,
    s_c_direct,
    s_direct,
    s_split,
    trivial_delta,
    trivial_delta_alpha_sum,
)
from weyldelta.specialfn import gamma_factor, holomorphic_kind, maass_kind
from weyldelta.statphase import u_dagger_direct
from weyldelta.testfn import make_window_u, make_window_v
from weyldelta.voronoi import dual_terms, term_weight


def i_star_direct(r, c, tau, cfg):
    """Istar(r, c, 1 + i tau) by direct nested quadrature."""
    return DualKernel(cfg, c, holomorphic_kind(12)).istar_value(r, tau)


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


def character_gates_per_call(d, moduli):
    """Every residue's root e(d alpha / q) formed afresh: the root table's oracle."""
    moduli = np.asarray(moduli)
    starts, q = np.cumsum(moduli) - moduli, np.repeat(moduli, moduli)
    alpha = np.arange(q.size) - np.repeat(starts, moduli)
    return np.add.reduceat(np.exp(2j * np.pi * ((d * alpha) % q) / q), starts) / moduli


def test_character_gates_match_the_divisibility_gate():
    # one pass over the residues of every modulus, against the integer gate [q | d]
    # and, bit for bit, against roots formed per call
    for moduli in (tuple(primes_in(60, 120)), (13,)):
        d = np.arange(-400, 401)
        gates = np.array([deltapipe._character_gates(int(k), moduli) for k in d])
        exact = (d[:, None] % np.array(moduli)[None, :] == 0).astype(float)
        assert np.max(np.abs(gates - exact)) < 1e-12
        per_call = np.array([character_gates_per_call(int(k), moduli) for k in d])
        assert gates.tobytes() == per_call.tobytes()


def test_character_gates_do_not_wrap_for_large_d():
    # d * alpha would pass 2^63 here; d is reduced mod each q first
    for moduli in ((13,), tuple(primes_in(60, 120))):
        for d in (13 * 10**17, 13 * 10**17 + 1):
            gates = deltapipe._character_gates(d, moduli)
            exact = np.array([float(d % q == 0) for q in moduli])
            assert np.max(np.abs(gates - exact)) < 1e-12, (moduli, d)


def test_gate_tables_are_read_only_and_keyed_by_the_moduli():
    a, b = tuple(primes_in(60, 120)), tuple(primes_in(80, 160))
    for array in deltapipe._gate_table(a):
        with pytest.raises(ValueError):
            array[0] = 0
    d = range(-300, 301, 7)
    mixed = [(deltapipe._character_gates(k, a), deltapipe._character_gates(k, list(b))) for k in d]
    deltapipe._gate_table.cache_clear()
    fresh_a = [deltapipe._character_gates(k, a) for k in d]
    deltapipe._gate_table.cache_clear()
    fresh_b = [deltapipe._character_gates(k, b) for k in d]
    for (ga, gb), fa, fb in zip(mixed, fresh_a, fresh_b):
        assert ga.tobytes() == fa.tobytes() and gb.tobytes() == fb.tobytes()


def test_negative_theta_reads_the_conjugate_of_its_twin():
    # V is real: the same cell tree as the direct integral at -theta, with sin odd
    deltapipe._fourier_v.cache_clear()
    for d in range(1, 159):
        direct = deltapipe._window_fourier(deltapipe.WINDOW_V, -0.1 * d)
        cached = deltapipe._fourier_v(-0.1 * d)
        assert (cached.real, cached.imag) == (direct.real, direct.imag), d
    assert deltapipe._fourier_v.cache_info().currsize == 2 * 158


def _run_check(name):
    (check,) = [c for c in CHECKS if c.name == name]
    return check.run(CheckContext(checks=[check]))


def test_quadrature_check_sees_an_off_quadrature(monkeypatch):
    # its oracle is a fixed rule, so every integrate_1d value 1e-6 off fails it
    assert _run_check("trivial-delta-quadrature").residual < 1e-14
    real = oscillate._cell_rules

    def off(g, f, lo, hi):
        fine, err, mass = real(g, f, lo, hi)
        return fine * (1 + 1e-6), err, mass

    monkeypatch.setattr(oscillate, "_cell_rules", off)
    assert not _run_check("trivial-delta-quadrature").passed


def test_character_sum_check_sees_a_gate_stuck_at_one(monkeypatch):
    # the check also evaluates n off the multiples of 13, where the gate is 0
    assert _run_check("trivial-delta-character-sum").residual < 1e-14
    monkeypatch.setattr(deltapipe, "_character_gates", lambda d, moduli: np.ones(len(moduli)))
    assert not _run_check("trivial-delta-character-sum").passed


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
    for theta in (6.1, -6.1):  # a negative theta raises from its positive twin
        with pytest.raises(BudgetExceededError):
            deltapipe._fourier_v(theta)
        assert deltapipe._fourier_v.cache_info().currsize == 0
    with pytest.raises(BudgetExceededError):
        trivial_delta(104, 13, 10.0)


def test_depth_capped_window_integral_raises_and_caches_nothing(monkeypatch):
    deltapipe._fourier_v.cache_clear()
    monkeypatch.setattr(oscillate, "MAX_DEPTH", 2)
    for theta in (-6.1, 6.1):
        with pytest.raises(BudgetExceededError, match="depth cap"):
            deltapipe._fourier_v(theta)
        assert deltapipe._fourier_v.cache_info().currsize == 0


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
        PipelineConfig(N=50.0, t=10.0, K=5.0, prime_set=(7,)).validate()
    with pytest.raises(PreconditionError):
        PipelineConfig(N=50.0, t=1.0, K=5.0).validate()
    PipelineConfig(N=50.0, t=10.0, K=5.0, prime_set=tuple(primes_in(60, 120))).validate()


def test_default_n_cut_follows_its_rule_and_a_short_form_raises():
    # 160 M c^2 K^2 / N + 200 at (N, t, K) = (20, 5, 3), level 11, c = 13,
    # with no silent cap below what the rule asks for
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(17,), c=17)
    assert cfg.resolved_n_cut(13, level=11) == 134048
    # at c = 17 the rule asks for 21008: a form of 20500 coefficients is too
    # short and raises from lam_slice, as every other coefficient sum does
    assert cfg.resolved_n_cut(17) == 21008
    short = replace(delta_form(20500), eta=1.0)
    with pytest.raises(CoefficientRangeError):
        dual_identity_check(short, cfg, sweep=False)


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
    tau = ramanujan_tau(100)
    c_norm = 2 / mp.quad(lambda u: mp.e ** (-1 / (1 - u**2)), [-1, 1])
    total = mp.mpc(0)
    for r in range(50, 101):
        u = 2 * (r / mp.mpf(N)) - 3
        if abs(u) >= 1:
            continue
        v_val = c_norm * mp.e ** (-1 / (1 - u**2))
        lam = mp.mpf(tau[r - 1]) / mp.mpf(r) ** mp.mpf("5.5")
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


def test_s_split_budget_guard(form, cfg_split, monkeypatch):
    import dataclasses

    def no_tables(*args, **kwargs):
        raise AssertionError("stratum tables built before the budget guard")

    # the guard must fire before the (r x x) and (n x x) phase tables exist
    monkeypatch.setattr(deltapipe, "_Strata", no_tables)
    tiny = dataclasses.replace(cfg_split, eval_budget=10.0)
    with pytest.raises(BudgetExceededError):
        s_split(form, tiny)


def _unit_phases_exact(numerators, p):
    """e(k / p) for integers k, the angle taken in extended precision and each
    factor rounded once."""
    two_pi = 8 * np.arctan(np.longdouble(1))
    phase = two_pi * (numerators % p).astype(np.longdouble) / p
    return np.cos(phase).astype(float) + 1j * np.sin(phase).astype(float)


def test_strata_phases_are_reduced_before_exponentiation(form, cfg_split):
    # alpha r reaches about p^2 at s_split's primes; exponentiating alpha (r mod p) / p
    # put every stratum 5.8e-14 to 5.6e-13 off one with exact roots, the reduced
    # angle 1.6e-15 to 1.1e-14
    strata = deltapipe._Strata(cfg_split, *deltapipe._amplitudes(form, cfg_split))
    worst = 0.0
    for p in cfg_split.prime_set:
        alphas = np.arange(1, p)
        er = _unit_phases_exact(np.outer(alphas, strata.rs), p)
        en = _unit_phases_exact(-np.outer(alphas, strata.ns), p)
        ref = np.sum(strata.vx[None, :] * (er @ strata.ar) * (en @ strata.bn))
        worst = max(worst, abs(strata(alphas, p) - ref) / abs(ref))
    assert worst <= 5e-14


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


def _udag_per_row(kernel, r):
    """One Udag row by a complex exponential per (x, u) node (oracle)."""
    cfg = kernel.cfg
    u = make_window_u()
    ua, ub = u.support
    rho = cfg.N * r / kernel.c - cfg.K * kernel.x_nodes
    cycles = np.max(np.abs(rho)) * (ub - ua) + abs(cfg.t) * math.log(ub / ua) / (2 * math.pi)
    panels = max(deltapipe.U_PANELS_MIN, int(math.ceil(1.6 * cycles * cfg.grid_scale)))
    grid = PanelGrid(ua, ub, panels)
    uu = grid.nodes
    amp = grid.weights * u(uu) * np.exp(-1j * cfg.t * np.log(uu))
    return np.exp(-2j * np.pi * np.outer(rho, uu)) @ amp


@pytest.mark.parametrize("r", [0, 2, 3])
def test_kernel_udag_row_matches_per_row_table(form, r):
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11)
    kernel = DualKernel(cfg, 11, form.kind)
    ref = _udag_per_row(kernel, r)
    assert np.max(np.abs(kernel.udag_row(r) - ref)) <= 1e-12 * np.max(np.abs(ref))


def _u_panels(cfg, panels):
    """A u rule of `panels` panels over supp U and its amplitudes weight * U(u) u^(-it)."""
    grid = PanelGrid(*deltapipe.WINDOW_U.support, panels, 16)
    uu = grid.nodes
    return grid, grid.weights * deltapipe.WINDOW_U(uu) * np.exp(-1j * cfg.t * np.log(uu))


def _udag_on_panels(kernel, r, panels):
    """One Udag row on a u rule of `panels` panels."""
    cfg = kernel.cfg
    grid, amp = _u_panels(cfg, panels)
    rho = cfg.N * r / kernel.c - cfg.K * kernel.x_nodes
    return grid.sums_at_freqs(2 * np.pi * rho, amp)


def test_kernel_udag_rows_at_small_r_are_converged(form):
    # U's ramps need the rule's floor: sized by oscillation over a floor of 16
    # panels (16 to 34 here), the rows r = 1 ... 7 sat up to 2.8e-10 of the
    # largest row off a 1280-panel rule; with 80 panels at least they read 1.9e-15
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11)
    kernel = DualKernel(cfg, 11, form.kind)
    refs = {r: _udag_on_panels(kernel, r, 1280) for r in range(1, 8)}
    scale = max(np.max(np.abs(ref)) for ref in refs.values())
    worst = max(np.max(np.abs(kernel.udag_row(r) - ref)) for r, ref in refs.items())
    assert worst <= 1e-13 * scale


def _vdag_per_node(kernel):
    """The Vdag table by one complex exponential per (x, u) and (u, tau) node (oracle).

    At large K both this table and the kernel's Chebyshev rows sit at the
    problem's own cancellation floor: at K = 40, N = 100, c = 101 and
    tau_cut 300, max |Vdag| is 8.3e-5 against O(1) summands, and the two
    differ there by 1.3e-10 of that maximum.
    """
    uv, amp = _vdag_u_rule(kernel)
    t1 = np.exp(-2j * np.pi * kernel.cfg.K * np.outer(kernel.x_nodes, uv)) * amp
    return t1 @ np.exp(-0.5j * np.outer(np.log(uv), kernel.tau_nodes))


def _vdag_u_rule(kernel):
    """The u nodes of supp V and their amplitudes, as the kernel sizes them."""
    cfg = kernel.cfg
    v = make_window_v()
    va, vb = v.support
    v_cycles = 2 * abs(cfg.K) * (vb - va) + kernel.tau_cut * math.log(vb / va) / (4 * math.pi)
    grid = PanelGrid(va, vb, max(12, int(math.ceil(1.6 * v_cycles * cfg.grid_scale))))
    uv = grid.nodes
    return uv, grid.weights * v(uv) * uv ** (-0.5)


def _unit_phases_extended(phase):
    """exp(-i phase) for an np.longdouble phase, rounded to complex128 at the end."""
    return np.cos(phase).astype(float) - 1j * np.sin(phase).astype(float)


def test_kernel_vdag_matches_extended_precision_phases(form):
    # criterion 7's default grid (tau_cut 96 pi K + 100): the phases of the
    # reference are taken in extended precision, each factor rounded once, on
    # every 97th tau node; a sum at every node (f tau up to 350) sits at 3e-14
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11)
    kernel = DualKernel(cfg, 11, form.kind)
    uv, amp = _vdag_u_rule(kernel)
    u = uv.astype(np.longdouble)
    two_pi = 8 * np.arctan(np.longdouble(1))
    x_phase = two_pi * np.longdouble(cfg.K) * np.outer(kernel.x_nodes.astype(np.longdouble), u)
    taus = kernel.tau_nodes[::97].astype(np.longdouble)
    tau_phase = np.outer(np.log(u) / 2, taus)
    ref = (_unit_phases_extended(x_phase) * amp) @ _unit_phases_extended(tau_phase)
    got = kernel.vdag[:, ::97]
    assert np.max(np.abs(got - ref)) <= 2e-14 * np.max(np.abs(ref))


def test_kernel_vdag_matches_per_node_table(form):
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, tau_cut=300.0)
    kernel = DualKernel(cfg, 11, form.kind)
    ref = _vdag_per_node(kernel)
    assert np.max(np.abs(kernel.vdag - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "settings, c, tol",
    [
        (dict(N=20.0, t=5.0, K=3.0, grid_scale=1.5), 11, 1e-12),
        (dict(N=100.0, t=2000.0, K=20.0), 101, 1e-11),
    ],
    ids=["K3-fine-grid", "K20"],
)
def test_kernel_chebyshev_vdag_matches_per_node_table(form, settings, c, tol):
    cfg = PipelineConfig(prime_set=(c,), c=c, tau_cut=300.0, **settings)
    kernel = DualKernel(cfg, c, form.kind)
    ref = _vdag_per_node(kernel)
    assert np.max(np.abs(kernel.vdag - ref)) <= tol * np.max(np.abs(ref))


def test_kernel_chebyshev_rows_are_converged(form, monkeypatch):
    # ten more Chebyshev x points than the kernel uses change nothing
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, tau_cut=300.0)
    base = DualKernel(cfg, 11, form.kind)
    assert base._tau_tables()[1].shape[0] == math.ceil(math.pi * cfg.K / 2) + 30 == 35
    monkeypatch.setattr(numerics, "CHEB_EXTRA", numerics.CHEB_EXTRA + 10)
    finer = DualKernel(cfg, 11, form.kind)
    assert finer._tau_tables()[1].shape[0] == 45
    assert np.max(np.abs(finer.vdag - base.vdag)) <= 1e-13 * np.max(np.abs(base.vdag))


def test_kernel_istar_row_matches_per_node_table(form):
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, tau_cut=300.0)
    kernel = DualKernel(cfg, 11, form.kind)
    for r in (-2, 1):
        ref = (kernel.vx * kernel.udag_row(r)) @ _vdag_per_node(kernel)
        assert np.max(np.abs(kernel.istar_row(r) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_kernel_istar_consistency(form):
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, tau_cut=200.0)
    kernel = DualKernel(cfg, 11, form.kind)
    # istar_value (fresh column) against the tabulated row at a grid point
    row = kernel.istar_row(-1)
    j = len(kernel.tau_nodes) // 3
    tau = float(kernel.tau_nodes[j])
    direct = kernel.istar_value(-1, tau)
    assert direct == pytest.approx(row[j], abs=1e-10)


def test_istar_value_matches_dense_vdag_column():
    # istar-main-term's configuration; the Vdag column from one dense
    # (n_x x n_u) table of exponentials, as istar_value built it before
    cfg = PipelineConfig(N=100.0, t=2000.0, K=20.0, prime_set=(101,), c=101)
    kernel = DualKernel(cfg, cfg.c, holomorphic_kind(12))
    for tau in (-430.0, -600.0):
        r = round(1.5 * (tau + 2 * cfg.t) * cfg.K * cfg.c / (cfg.N * tau))
        v_grid = deltapipe._v_rule(cfg, abs(tau))
        uv = v_grid.nodes
        amp = v_grid.weights * deltapipe.WINDOW_V(uv) * uv ** (-0.5)
        amp = amp * np.exp(-0.5j * tau * np.log(uv))
        vdag_col = np.exp(-2j * np.pi * cfg.K * np.outer(kernel.x_nodes, uv)) @ amp
        ref = np.sum(kernel.vx * vdag_col * kernel.udag_row(r))
        assert abs(kernel.istar_value(r, tau) - ref) <= 1e-13 * abs(ref)


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
    """T_b(tau) of the dual coefficients conj lambda(m), by one complex
    exponential per (m, tau) pair (oracle)."""
    lam = np.conj(form.lam[:n_cut])
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


@pytest.mark.parametrize(
    "c, complex_stream",
    [pytest.param(11, False, id="11"), pytest.param(1, False, id="1"),
     pytest.param(11, True, id="11-complex")],
)
def test_dirichlet_class_sums_match_blocked_loop(form, c, complex_stream):
    if complex_stream:  # Delta twisted by the quartic character mod 5 (psi(2) = i)
        psi = np.array([0, 1, 1j, -1j, -1])
        form = replace(form, lam=form.lam * psi[np.arange(1, form.n_max + 1) % 5])
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, tau_cut=300.0)
    kernel = DualKernel(cfg, c, form.kind)
    got = deltapipe._dirichlet_class_sums(form, c, 3000, kernel.tau_grid)
    ref = _class_sums_blocked(form, c, 3000, kernel.tau_nodes)
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


def _class_sums_by_class(form, c, n_cut, grid):
    """T_b at the tau nodes, one `PanelGrid.sums_at_nodes` per residue class
    (oracle of the gridded route)."""
    logm = np.log(np.arange(1, n_cut + 1, dtype=float))
    coeffs = form.dual_lam_slice(n_cut) * np.exp(-0.5 * logm)
    t_class = np.zeros((c, len(grid.nodes)), dtype=complex)
    for b in range(c):
        sel = slice((b - 1) % c, n_cut, c)  # index m - 1 of the m = b mod c
        t_class[b] = grid.sums_at_nodes(coeffs[sel], 0.5 * logm[sel])
    return t_class


@pytest.fixture(scope="module")
def form60k():
    return delta_form(60000)


# criterion 7's tau grids (base, double_tau_cut, refine_grids), the dual
# workload's, and the doubled n_cut on the base grid
@pytest.mark.parametrize(
    "n_cut, tau_cut, panels",
    [
        pytest.param(30000, 1500.0, 1500, id="base"),
        pytest.param(30000, 3000.0, 3000, id="double_tau_cut"),
        pytest.param(30000, 1500.0, 2250, id="refine_grids"),
        pytest.param(12000, 1200.0, 1200, id="dual"),
        pytest.param(60000, 1500.0, 1500, id="double_n_cut"),
    ],
)
def test_dirichlet_class_sums_match_sums_at_nodes(form60k, n_cut, tau_cut, panels):
    grid = PanelGrid(-tau_cut, tau_cut, panels, 16)
    got = deltapipe._dirichlet_class_sums(form60k, 11, n_cut, grid)
    ref = _class_sums_by_class(form60k, 11, n_cut, grid)
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "c, n_cut, complex_stream",
    [
        pytest.param(1, 3000, False, id="one-class"),
        pytest.param(11, 3000, True, id="complex"),
        pytest.param(11, 7, False, id="empty-classes"),
    ],
)
def test_dirichlet_class_sums_edge_cases_match_sums_at_nodes(form, c, n_cut, complex_stream):
    if complex_stream:  # Delta twisted by the quartic character mod 5 (psi(2) = i)
        psi = np.array([0, 1, 1j, -1j, -1])
        form = replace(form, lam=form.lam * psi[np.arange(1, form.n_max + 1) % 5])
    grid = PanelGrid(-300.0, 300.0, 300, 16)
    got = deltapipe._dirichlet_class_sums(form, c, n_cut, grid)
    ref = _class_sums_by_class(form, c, n_cut, grid)
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))
    assert np.array_equal(got == 0, ref == 0)  # n_cut < c: classes 8, 9, 10 and 0 hold no m


def test_dual_side_matches_per_class_sums(monkeypatch):
    # the dual workload's configuration; a slip in the carrier, the classes
    # or the node order of the gridded class sums fails here by name
    form = delta_form(12000)
    form.eta = 1.0 + 0.0j
    cfg = PipelineConfig(
        N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, n_cut=12000, tau_cut=1200.0, r_cut=20
    )
    kernel = DualKernel(cfg, 11, form.kind)
    gridded = deltapipe.s_c_dual(form, cfg, 11, kernel=kernel, n_cut=12000, r_cut=20)
    monkeypatch.setattr(deltapipe, "_dirichlet_class_sums", _class_sums_by_class)
    per_class = deltapipe.s_c_dual(form, cfg, 11, kernel=kernel, n_cut=12000, r_cut=20)
    rel = abs(gridded - per_class) / abs(per_class)
    assert rel <= 1e-12, f"dual side off the per-class sums_at_nodes route by {rel:.2e} (relative)"


def _coprime_rs(r_cut, c):
    return [r for r in range(-r_cut, r_cut + 1) if r != 0 and math.gcd(r, c) == 1]


def _x_rows_per_r(kernel, rs, rule):
    """The rows a_r of `DualKernel.x_rows`, one `sums_at_freqs` per r on the u
    rule (grid, amplitudes) `rule` (oracle)."""
    cfg = kernel.cfg
    grid, amp = rule
    interp, _ = kernel._tau_tables()
    rows = []
    for r in rs:
        rho = cfg.N * r / kernel.c - cfg.K * kernel.x_nodes
        rows.append((kernel.vx * grid.sums_at_freqs(2 * np.pi * rho, amp)) @ interp)
    return np.array(rows)


def _finer_u_rule(monkeypatch, factor):
    """Make every u rule `factor` times finer than `deltapipe._u_rule` sizes it."""
    sized = deltapipe._u_rule

    def finer(cfg, rho_max):
        grid, _ = sized(cfg, rho_max)
        return _u_panels(cfg, factor * len(grid.mids))

    monkeypatch.setattr(deltapipe, "_u_rule", finer)


# the dual workload's configuration and criterion 7's base and double_r_cut ones
@pytest.mark.parametrize(
    "settings, r_cut",
    [
        pytest.param(dict(tau_cut=1200.0), 20, id="dual"),
        pytest.param(dict(tau_cut=1500.0), 24, id="base"),
        pytest.param(dict(tau_cut=1500.0), 48, id="double_r_cut"),
    ],
)
def test_x_rows_match_per_r_sums_on_one_rule_and_a_finer_one(form, settings, r_cut, monkeypatch):
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, **settings)
    kernel = DualKernel(cfg, 11, form.kind)
    rs = _coprime_rs(r_cut, 11)
    rows = kernel.x_rows(rs)
    rho_max = max(np.max(np.abs(cfg.N * r / 11 - cfg.K * kernel.x_nodes)) for r in rs)
    ref = _x_rows_per_r(kernel, rs, deltapipe._u_rule(cfg, rho_max))
    assert np.max(np.abs(rows - ref)) <= 1e-13 * np.max(np.abs(ref))
    _finer_u_rule(monkeypatch, 4)
    fine = kernel.x_rows(rs)
    assert np.max(np.abs(rows - fine)) <= 1e-13 * np.max(np.abs(fine))


def s_c_dual_per_row(form, cfg, c, kernel, n_cut, r_cut):
    """The dual side with an Istar row over tau per r, each from its own u rule
    (`DualKernel.istar_row`), summed against pref gamma (w_r @ T) over the tau
    nodes: the route `s_c_dual`'s two contractions replace (oracle)."""
    front = math.pi * form.eta * cfg.N**2 * np.exp(-1j * cfg.t * math.log(cfg.N)) / (
        len(cfg.prime_set) * math.sqrt(form.level)
    )
    t_class = deltapipe._dirichlet_class_sums(form, c, n_cut, kernel.tau_grid)
    base = math.sqrt(cfg.N) / (c * math.sqrt(form.level))
    taus = kernel.tau_nodes
    pref = kernel.tau_weights * np.exp(-(1.0 + 1j * taus) * math.log(base)) / (2 * math.pi)
    terms = dual_terms(kernel.kind, kernel.gamma_on_grid)
    total = 0.0 + 0.0j
    for r in _coprime_rs(r_cut, c):
        istar = kernel.istar_row(r)
        for sign, term_front, gam in terms:
            d_r = term_weight(form, sign, r, c, np.arange(c)) @ t_class
            total += 2j * term_front * np.sum(pref * gam * istar * d_r)
    return complex(front * total / (c * c))


def _maass_form(ell, chi, n_max):
    """A synthetic Hecke stream of a Maass kind with eps_g = -1 and eta = 1."""
    rng = np.random.default_rng(18)
    level = len(chi)
    lam = multiplicative_extension(
        {p: float(rng.uniform(-1.5, 1.5)) for p in primes_in(2, n_max)}, chi, level, n_max
    )
    return CuspForm(
        kind=maass_kind(ell, 0), level=level, chi=chi.astype(complex), lam=lam, epsilon_g=-1.0,
        eta=1.0 + 0.0j,
    )


# the dual workload's grid and criterion 7's four (base, double_r_cut,
# double_tau_cut, refine_grids) on Delta, and a Maass kind
@pytest.mark.parametrize(
    "settings, n_cut, r_cut, maass",
    [
        pytest.param(dict(tau_cut=1200.0), 12000, 20, False, id="dual"),
        pytest.param(dict(tau_cut=1500.0), 30000, 24, False, id="base"),
        pytest.param(dict(tau_cut=1500.0), 30000, 48, False, id="double_r_cut"),
        pytest.param(dict(tau_cut=3000.0), 30000, 24, False, id="double_tau_cut"),
        pytest.param(dict(tau_cut=1500.0, grid_scale=1.5), 30000, 24, False, id="refine_grids"),
        pytest.param(dict(tau_cut=300.0), 3000, 6, True, id="maass"),
    ],
)
def test_s_c_dual_matches_per_row_istar_loop(form60k, settings, n_cut, r_cut, maass):
    if maass:
        form = _maass_form(9.5, trivial_character(1), 3000)
    else:
        form = replace(form60k, eta=1.0 + 0.0j)
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, **settings)
    kernel = DualKernel(cfg, 11, form.kind)
    got = deltapipe.s_c_dual(form, cfg, 11, kernel=kernel, n_cut=n_cut, r_cut=r_cut)
    ref = s_c_dual_per_row(form, cfg, 11, kernel, n_cut, r_cut)
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize(
    "settings, n_cut, r_cut",
    [
        pytest.param(dict(tau_cut=1200.0), 12000, 20, id="dual"),
        pytest.param(dict(tau_cut=1500.0), 30000, 24, id="base"),
    ],
)
def test_dual_side_is_converged_in_the_u_rule(form60k, settings, n_cut, r_cut, monkeypatch):
    # per-row u rules left this 3.8e-9 off a 4x finer rule; one rule for all r reads 4.2e-13
    form = replace(form60k, eta=1.0 + 0.0j)
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, **settings)
    kernel = DualKernel(cfg, 11, form.kind)
    got = deltapipe.s_c_dual(form, cfg, 11, kernel=kernel, n_cut=n_cut, r_cut=r_cut)
    _finer_u_rule(monkeypatch, 4)
    fine = deltapipe.s_c_dual(form, cfg, 11, kernel=kernel, n_cut=n_cut, r_cut=r_cut)
    assert abs(got - fine) <= 1e-12 * abs(fine)


def test_dual_identity_desk_scale():
    form = delta_form(24000)
    form.eta = 1.0 + 0.0j  # calibrated value for the built-in form
    cfg = PipelineConfig(
        N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, n_cut=12000, tau_cut=1200.0, r_cut=20
    )
    res = dual_identity_check(form, cfg, sweep=False)
    assert res.residual <= 1e-3


def _mirrored_gamma(kind, taus):
    """The factor on 1 + i tau: the upper half evaluated, the lower half its mirror."""
    n_tau, half = len(taus), len(taus) // 2
    vals = np.empty(n_tau, dtype=complex)
    vals[half:] = gamma_factor(kind, 1.0 + 1j * taus[half:])
    vals[:half] = np.conj(vals[n_tau - half :][::-1])
    return vals


def s_c_dual_two_branch(form, cfg, c, kernel, n_cut, r_cut):
    """The Maass dual side as its chi(-c) (I_0 - I_1) and chi(c) eps_g (I_0 + I_1)
    branches, written out term by term (oracle of `s_c_dual` on Maass forms).

    Each branch's tau-integral is contracted to sum_(r, b) (a_r @ M) e(-+ conj(rM) b / c),
    with the x-integrated rows a_r of `DualKernel.x_rows` and M = vdag_cheb @ (T pref
    gamma)^t, the same arithmetic as `s_c_dual`'s; the branches' characters,
    reflection sign and twists are this function's own."""
    pstar = max(len(cfg.prime_set), 1)
    front = math.pi * form.eta * cfg.N**2 * np.exp(-1j * cfg.t * math.log(cfg.N)) / (
        pstar * math.sqrt(form.level)
    )
    rs = _coprime_rs(r_cut, c)
    inv_rm = [numerics.modular_inverse(r * form.level, c) for r in rs]
    taus = kernel.tau_nodes
    t_class = deltapipe._dirichlet_class_sums(form, c, n_cut, kernel.tau_grid)
    base = math.sqrt(cfg.N) / (c * math.sqrt(form.level))
    pref = kernel.tau_weights * np.exp(-(1.0 + 1j * taus) * math.log(base)) / (2 * math.pi)
    ell = form.kind.ell
    gam0, gam1 = (_mirrored_gamma(maass_kind(ell, d), taus) for d in (0, 1))
    rows = kernel.x_rows(rs)
    _, vdag_cheb = kernel._tau_tables()
    bs = np.arange(c)
    m_minus = vdag_cheb @ (t_class * (pref * (gam0 - gam1))).T
    m_plus = vdag_cheb @ (t_class * (pref * (gam0 + gam1))).T
    twist_minus = np.array([numerics.unit_phases(-inv * bs, c) for inv in inv_rm])
    twist_plus = np.array([numerics.unit_phases(+inv * bs, c) for inv in inv_rm])
    total = form.chi_at(-c) * np.sum((rows @ m_minus) * twist_minus)
    total += form.chi_at(c) * form.epsilon_g * np.sum((rows @ m_plus) * twist_plus)
    total /= c * c
    return complex(front * total)


@pytest.mark.parametrize(
    "ell, chi",
    [(9.5, trivial_character(1)), (0.2j, trivial_character(1)), (9.5, np.array([0, 1, 0, -1.0]))],
    ids=["real", "exceptional", "odd-mod-4"],
)
def test_maass_dual_side_matches_two_branch_formula(ell, chi):
    # synthetic Hecke streams with a real and an exceptional spectral value;
    # eps_g = -1 so that a dropped or misplaced reflection sign shows, and an
    # odd character mod 4 (chi(-11) = 1, chi(11) = -1) so that a swapped chi does
    form = _maass_form(ell, chi, 3000)
    cfg = PipelineConfig(N=20.0, t=5.0, K=3.0, prime_set=(11,), c=11, tau_cut=300.0, r_cut=6)
    kernel = DualKernel(cfg, 11, form.kind)
    got = deltapipe.s_c_dual(form, cfg, 11, kernel=kernel, n_cut=3000, r_cut=6)
    assert got == s_c_dual_two_branch(form, cfg, 11, kernel, 3000, 6)


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
