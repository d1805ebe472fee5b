import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyldelta import forms
from weyldelta.errors import (
    CoefficientRangeError,
    FormFileError,
    HeckeViolationError,
    PreconditionError,
)
from weyldelta.forms import (
    HEADER,
    TAU_PRIMES,
    CuspForm,
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
from weyldelta.specialfn import holomorphic_kind, maass_kind


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
    # the lift is symmetric: tau(2) comes out as -24, not as M - 24 (a 102-bit
    # number for the product M of the six primes that 60000 coefficients need)
    assert tau60k[1] == -24
    assert all(type(v) is int for v in tau60k)
    assert max(abs(v) for v in tau60k).bit_length() == 89


def test_tau_residue_guard_rejects_too_few_or_too_large_primes(monkeypatch):
    # the list does not depend on which valid primes carry it
    monkeypatch.setattr(forms, "TAU_PRIMES", TAU_PRIMES[::-1])
    assert ramanujan_tau(10) == ramanujan_tau_naive(10)
    # three primes cover |tau| < 2^49, Deligne's bound needs 2^121 at n = 10^6
    monkeypatch.setattr(forms, "TAU_PRIMES", TAU_PRIMES[:3])
    with pytest.raises(PreconditionError):
        ramanujan_tau(10)
    # squares of 10^6 residues modulo 2^61 - 1 are far past float64's exact integers
    monkeypatch.setattr(forms, "TAU_PRIMES", (2**61 - 1, *TAU_PRIMES))
    with pytest.raises(PreconditionError):
        ramanujan_tau(10)


def test_tau_residue_guard_rejects_a_prime_whose_squares_leave_float64(monkeypatch):
    # 2^31 - 1 keeps int64 products exact, but 10^6 (2^30)^2 is past 2^53; the
    # constants are checked whatever n_max is, so n = 10 raises too
    monkeypatch.setattr(forms, "TAU_PRIMES", (2**31 - 1, *TAU_PRIMES))
    with pytest.raises(PreconditionError, match="float64"):
        ramanujan_tau(10)


def test_tau_rounding_guard_trips_on_an_inexact_square(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
    with pytest.raises(PreconditionError, match="from an integer"):
        ramanujan_tau(10)


def test_tau_small_values():
    tau = ramanujan_tau(10)
    assert tau == [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


def test_normalization(delta10k):
    lam = delta10k.lam  # lam[n - 1] = lambda(n)
    assert lam[0] == 1.0
    assert lam[1] == pytest.approx(-24 / 2**5.5, rel=1e-15)


def test_multiplicativity_at_coprime_arguments(delta10k):
    lam = delta10k.lam
    assert lam[5] == pytest.approx(lam[1] * lam[2], rel=1e-13)


def test_prime_power_recursion(delta10k):
    # lambda(4) = lambda(2)^2 - chi(2) lambda(1), trivial character
    lam = delta10k.lam
    assert lam[3] == pytest.approx(lam[1] ** 2 - lam[0], rel=1e-13)


def test_hecke_verify_delta(delta10k):
    report = hecke_verify(delta10k, 10000)
    assert report.first_violation is None
    assert report.max_violation <= 1e-12
    assert report.pairs_checked > 10000


def test_hecke_verify_past_the_stored_coefficients_raises(delta10k):
    # it used to cap at the stored 5000 silently: 9918 pairs and 42 prime
    # powers instead of the 21935 and 51 that n_max = 10000 asks for
    with pytest.raises(CoefficientRangeError):
        hecke_verify(delta_form(5000), 10000)
    report = hecke_verify(delta10k, 10000)
    assert (report.pairs_checked, report.prime_power_checked) == (21935, 51)


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
    assert report.first_violation is not None
    m, n, viol = report.first_violation
    assert m * n == 6
    assert viol > 1e-4


def test_deligne_band(delta10k):
    for p in primes_in(2, 10000):
        assert abs(delta10k.lam[p - 1]) <= 2.0


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


def test_tau_exact_access():
    tau = ramanujan_tau(100)
    assert tau[1] == -24
    assert tau[99] == 37534859200


def test_uncalibrated_form_reads_no_eta_fit():
    form = delta_form(10)
    assert form.eta is None
    assert form.eta_modulus_raw is None
    assert form.eta_probe_spread is None


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
    with pytest.raises(HeckeViolationError, match=r"fails at \(2, 3\)"):
        load_form(str(path))


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
    )
    path = tmp_path / "maass.coef"
    export_form(fixture, str(path))
    loaded = load_form(str(path))
    assert loaded.kind.family == "maass"
    assert loaded.kind.parity == 0
    assert loaded.epsilon_g == 1.0
    assert np.array_equal(loaded.lam, fixture.lam)
    report = hecke_verify(loaded)
    assert report.first_violation is None


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name", ["delta24.coef", "maass_exceptional.coef", "maass_unset_eps.coef", "level7_cubic_chi.coef"]
)
def test_stored_files_load_and_reexport_byte_for_byte(tmp_path, name):
    # written by the two-branch exporter this format replaced: Delta(24); Maass forms
    # with ell = 0.2i and eps_g = -1, and with eps_g unset (written 1) and no eps_f;
    # and by this one: a level-7 form of weight 12 with the even cubic chi(3) = e(1/3)
    # and a complex root number
    form = load_form(str(DATA / name))
    path = tmp_path / name
    export_form(form, str(path))
    assert path.read_bytes() == (DATA / name).read_bytes()


def test_stored_files_load_to_their_forms():
    delta = load_form(str(DATA / "delta24.coef"))
    assert np.array_equal(delta.lam, delta_form(24).lam) and delta.kind == holomorphic_kind(12)
    exceptional = load_form(str(DATA / "maass_exceptional.coef"))
    assert exceptional.kind == maass_kind(0.2j, 0) and exceptional.epsilon_g == -1.0
    unset = load_form(str(DATA / "maass_unset_eps.coef"))
    assert unset.epsilon_g == 1 and unset.epsilon_f is None and unset.tol == 1e-9
    level7 = load_form(str(DATA / "level7_cubic_chi.coef"))
    w = complex(-0.5, math.sqrt(3) / 2)
    assert np.array_equal(level7.chi, [0, 1, w.conjugate(), w, w, w.conjugate(), 1])
    assert level7.epsilon_f == 0.6 - 0.8j and level7.kind == holomorphic_kind(12)
    assert all(form.eta is None for form in (delta, exceptional, unset, level7))


@pytest.mark.parametrize(
    "chi", [[0, 1, -1, 1, 1], [0, 1, 0.5, 0.5, 1], [0, 2, 1j, -1j, -1]], ids=["product", "modulus", "one"]
)
def test_a_chi_that_is_no_character_names_its_line(tmp_path, chi):
    # Hecke-consistent coefficients, so that only the character rules can object
    chi = np.array(chi, dtype=complex)
    lam = multiplicative_extension({2: 0.3 + 0.1j, 3: -0.2j, 5: 0.4, 7: 0.1, 11: -0.5}, chi, 5, 12)
    form = CuspForm(kind=maass_kind(9.5, 1), level=5, chi=chi, lam=lam, epsilon_g=1.0)
    assert hecke_verify(form).first_violation is None
    path = tmp_path / "chi.coef"
    export_form(form, str(path))
    with pytest.raises(FormFileError, match="chi breaks") as err:
        load_form(str(path))
    lines = path.read_text().splitlines()
    assert err.value.line == next(i for i, line in enumerate(lines, 1) if line.startswith("#chi "))


def test_an_odd_chi_of_a_holomorphic_form_names_its_line(tmp_path):
    # the odd quartic character mod 5 (chi(4) = -1) and Hecke-consistent coefficients,
    # so that only the parity rule chi(-1) = (-1)^k of weight 12 can object
    chi = np.array([0, 1, 1j, -1j, -1])
    lam = multiplicative_extension({2: 0.3 + 0.1j, 3: -0.2j, 5: 0.4, 7: 0.1, 11: -0.5}, chi, 5, 12)
    form = CuspForm(kind=holomorphic_kind(12), level=5, chi=chi, lam=lam)
    path = tmp_path / "parity.coef"
    export_form(form, str(path))
    with pytest.raises(FormFileError, match=r"needs chi\(-1\)") as err:
        load_form(str(path))
    lines = path.read_text().splitlines()
    assert err.value.line == next(i for i, line in enumerate(lines, 1) if line.startswith("#chi "))


def test_readme_lists_the_header_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Coefficient files", 1)[1].split("```")[1]
    assert re.findall(r"^#(\w+)", block, flags=re.M) == list(HEADER)


def test_tau_range_guard():
    with pytest.raises(PreconditionError):
        ramanujan_tau(2 * 10**6)
