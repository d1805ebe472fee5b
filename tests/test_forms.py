import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyldelta.errors import (
    CoefficientRangeError,
    FormFileError,
    HeckeViolationError,
    PreconditionError,
)
from weyldelta.forms import (
    TAU_PRIMES,
    CuspForm,
    _tau_by_residues,
    constant_form,
    delta_form,
    export_form,
    hecke_verify,
    load_form,
    multiplicative_extension,
    ramanujan_tau,
    ramanujan_tau_naive,
    rankin_average,
    trivial_character,
)
from weyldelta.numerics import loglog_slope, primes_in
from weyldelta.specialfn import maass_kind


@pytest.fixture(scope="module")
def delta10k():
    return delta_form(10000)


@pytest.fixture(scope="module")
def tau60k():
    return ramanujan_tau(60000)


def test_tau_against_naive_eta_product_expansion():
    # independent oracle: multiply out q prod (1-q^n)^24 coefficientwise
    fast = ramanujan_tau(300)
    slow = ramanujan_tau_naive(300)
    assert fast == slow


def test_tau_exact_hecke_relations_to_60000(tau60k):
    # an oracle that never forms the eta product: every n = p^k m with p its
    # smallest prime and gcd(p, m) = 1 factors as tau(p^k) tau(m), and every
    # prime power satisfies tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1))
    n_max = len(tau60k)
    tau = [0] + tau60k  # tau[n] = tau(n)
    spf = list(range(n_max + 1))
    for p in primes_in(2, math.isqrt(n_max)):
        for multiple in range(p * p, n_max + 1, p):
            if spf[multiple] == multiple:
                spf[multiple] = p
    coprime_splits = 0
    for n in range(2, n_max + 1):
        p, m, pk = spf[n], n, 1
        while m % p == 0:
            m //= p
            pk *= p
        if m > 1:
            assert tau[n] == tau[pk] * tau[m], n
            coprime_splits += 1
        elif pk > p:
            assert tau[pk] == tau[p] * tau[pk // p] - p**11 * tau[pk // p // p], n
    assert coprime_splits > 40000


def test_tau_symmetric_lift_signs_and_size(tau60k):
    # the lift is symmetric: tau(2) comes out as -24, not as M - 24 (a 124-bit
    # number for the product M of the four primes)
    assert tau60k[1] == -24
    assert all(type(v) is int for v in tau60k)
    assert max(abs(v) for v in tau60k).bit_length() == 89


def test_tau_residue_guard_rejects_too_few_or_too_large_primes():
    assert _tau_by_residues(10, TAU_PRIMES) == ramanujan_tau(10)
    # three primes cover |tau| < 2^92, Deligne's bound needs 2^121 at n = 10^6
    with pytest.raises(PreconditionError):
        _tau_by_residues(10, TAU_PRIMES[:3])
    # a prime above 2^31 overflows the int64 products
    with pytest.raises(PreconditionError):
        _tau_by_residues(10, (2**61 - 1, *TAU_PRIMES))


def test_tau_small_values():
    tau = ramanujan_tau(10)
    assert tau == [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


def test_normalization(delta10k):
    assert delta10k.lam_at(1) == 1.0
    assert delta10k.lam_at(2) == pytest.approx(-24 / 2**5.5, rel=1e-15)


def test_multiplicativity_at_coprime_arguments(delta10k):
    assert delta10k.lam_at(6) == pytest.approx(
        delta10k.lam_at(2) * delta10k.lam_at(3), rel=1e-13
    )


def test_prime_power_recursion(delta10k):
    # lambda(4) = lambda(2)^2 - chi(2) lambda(1), trivial character
    assert delta10k.lam_at(4) == pytest.approx(
        delta10k.lam_at(2) ** 2 - delta10k.lam_at(1), rel=1e-13
    )


def test_hecke_verify_delta(delta10k):
    report = hecke_verify(delta10k, 10000)
    assert report.ok
    assert report.max_violation <= 1e-12
    assert report.pairs_checked > 10000


def test_hecke_verify_flags_corruption(delta10k):
    lam = delta10k.lam.copy()
    lam[5] += 1e-3  # lambda(6)
    broken = CuspForm(
        kind=delta10k.kind,
        level=1,
        chi=trivial_character(1),
        lam=lam,
        epsilon_f=1.0,
    )
    report = hecke_verify(broken, 100)
    assert not report.ok
    m, n, viol = report.first_violation
    assert m * n == 6
    assert viol > 1e-4


def test_deligne_band(delta10k):
    for p in primes_in(2, 10000):
        assert abs(delta10k.lam_at(p)) <= 2.0


def test_rankin_average_band_and_slope(delta10k):
    avgs = rankin_average(delta10k, [100, 1000, 10000])
    for _, avg in avgs:
        assert 0.2 <= avg <= 5.0
    slope = loglog_slope([x for x, _ in avgs], [x * a for x, a in avgs])
    assert abs(slope - 1.0) <= 0.15


def test_rankin_constant_sequence():
    form = constant_form(500, 1.0)
    for _, avg in rankin_average(form, [10, 100, 500]):
        assert avg == pytest.approx(1.0, abs=1e-14)


def test_rankin_range_guard(delta10k):
    with pytest.raises(CoefficientRangeError):
        rankin_average(delta10k, [20000])


def test_tau_exact_access(delta10k):
    assert delta10k.tau_at(2) == -24
    assert delta10k.tau_at(100) == 37534859200


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=60))
def test_chi_table_multiplicative(level):
    chi = trivial_character(level)
    for a in range(level):
        for b in range(0, level, 7):
            assert chi[(a * b) % level] == pytest.approx(chi[a] * chi[b])
    for a in range(level):
        assert (abs(chi[a]) == 0) == (math.gcd(a, level) > 1)


# --- file round trips -------------------------------------------------------


def test_export_import_roundtrip_bitwise(tmp_path):
    form = delta_form(500)
    path = tmp_path / "delta500.coef"
    export_form(form, str(path))
    loaded = load_form(str(path))
    assert loaded.kind == form.kind
    assert loaded.level == form.level
    assert np.array_equal(loaded.lam, form.lam)
    assert np.array_equal(loaded.chi, form.chi)
    assert loaded.epsilon_f == form.epsilon_f
    # second round trip is byte-identical
    path2 = tmp_path / "again.coef"
    export_form(loaded, str(path2))
    assert path.read_text() == path2.read_text()


def test_export_header_content(tmp_path):
    path = tmp_path / "delta.coef"
    export_form(delta_form(10), str(path))
    text = path.read_text().splitlines()
    assert "#kind holomorphic" in text
    assert "#k 12" in text
    assert "#M 1" in text


def test_load_rejects_broken_hecke_relation(tmp_path):
    form = delta_form(100)
    lam = form.lam.copy()
    lam[5] += 1e-3
    broken = CuspForm(kind=form.kind, level=1, chi=form.chi, lam=lam, epsilon_f=1.0, tol=1e-9)
    path = tmp_path / "broken.coef"
    export_form(broken, str(path))
    with pytest.raises(HeckeViolationError) as err:
        load_form(str(path))
    assert err.value.n == 6


def test_load_rejects_bad_chi_length(tmp_path):
    form = delta_form(20)
    path = tmp_path / "badchi.coef"
    export_form(form, str(path))
    text = path.read_text().replace("#chi 1.0", "#chi 1.0,0.0")
    path.write_text(text)
    with pytest.raises(FormFileError):
        load_form(str(path))


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "garbled.coef"
    path.write_text("#kind holomorphic\n#k 12\n#M 1\n#chi 1.0\n#n_max 2\n#tol 1e-9\n1 1.0\nwat\n")
    with pytest.raises(FormFileError) as err:
        load_form(str(path))
    assert err.value.line == 8


def test_load_rejects_out_of_order_indices(tmp_path):
    path = tmp_path / "skipped.coef"
    path.write_text("#kind holomorphic\n#k 12\n#M 1\n#chi 1.0\n#n_max 2\n#tol 1e-9\n1 1.0\n3 0.5\n")
    with pytest.raises(FormFileError):
        load_form(str(path))


def test_maass_fixture_roundtrip(tmp_path):
    # synthetic Hecke-multiplicative stream with a Maass header; usable by
    # the transform machinery, but not a genuine eigenform
    level = 1
    chi = trivial_character(level)
    rng = np.random.default_rng(5)
    primes = primes_in(2, 200)
    lam = multiplicative_extension(
        {p: float(rng.uniform(-1.5, 1.5)) for p in primes}, chi, level, 200
    )
    fixture = CuspForm(
        kind=maass_kind(9.533, 0),
        level=level,
        chi=chi,
        lam=lam,
        epsilon_f=1.0,
        epsilon_g=1.0,
        tol=1e-8,
        label="synthetic",
    )
    path = tmp_path / "maass.coef"
    export_form(fixture, str(path))
    loaded = load_form(str(path))
    assert loaded.kind.family == "maass"
    assert loaded.kind.parity == 0
    assert loaded.epsilon_g == 1.0
    assert np.array_equal(loaded.lam, fixture.lam)
    report = hecke_verify(loaded)
    assert report.ok


def test_tau_range_guard():
    with pytest.raises(PreconditionError):
        ramanujan_tau(2 * 10**6)
