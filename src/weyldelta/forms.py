"""Cusp-form coefficient providers.

The built-in generator produces the weight-12 level-1 discriminant form with
normalized eigenvalues lambda(n) = tau(n) / n^(11/2), where tau comes from
the eta-product q prod (1-q^n)^24 computed exactly (via the eighth power of
Jacobi's theta identity for the cube): in int64 modulo four primes below
2^31, lifted by CRT, so 60000 coefficients take about 0.7 s. Other forms
are ingested from text files and validated against the Hecke relations

    lambda(m n) = lambda(m) lambda(n)                        gcd(m, n) = 1,
    lambda(p) lambda(p^k) = lambda(p^(k+1)) + chi(p) lambda(p^(k-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CoefficientRangeError,
    FormFileError,
    HeckeViolationError,
    PreconditionError,
)
from .numerics import primes_in
from .specialfn import GammaFactorKind, holomorphic_kind, maass_kind

MAX_TAU_RANGE = 10**6
# the four largest primes below 2^31: residues and their products with a
# modular inverse stay inside int64
TAU_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)


def _tau_by_residues(n_max: int, primes: Sequence[int]) -> List[int]:
    """tau(1..n_max) from q J(q)^8 modulo each prime, lifted by CRT.

    Raises :class:`PreconditionError` unless the int64 accumulation cannot
    overflow and Deligne's bound |tau(n)| <= d(n) n^(11/2) < 2 n^6 keeps
    every tau(n), n <= MAX_TAU_RANGE, inside the symmetric range (-M/2, M/2)
    of M = prod(primes).
    """
    # J(q) = sum_j (-1)^j (2j+1) q^(j(j+1)/2), its exponents below n_max
    j = np.arange(math.isqrt(2 * n_max) + 1)
    j = j[j * (j + 1) // 2 < n_max]
    expo, coef = j * (j + 1) // 2, np.where(j % 2 == 0, 2 * j + 1, -(2 * j + 1))
    p_max = max(primes)
    if int(np.abs(coef).max()) * len(coef) * p_max >= 2**63 or p_max >= 2**31:
        raise PreconditionError(f"residue products leave int64 for primes up to {p_max}")
    modulus = math.prod(primes)
    if 2 * MAX_TAU_RANGE**6 >= modulus // 2:
        raise PreconditionError(
            f"{len(primes)} primes cover |tau| < 2^{(modulus // 2).bit_length() - 1}; "
            f"Deligne's bound needs 2^{(2 * MAX_TAU_RANGE**6).bit_length()}"
        )
    p = np.array(primes, dtype=np.int64)[:, None]
    acc = np.zeros((len(primes), n_max), dtype=np.int64)
    acc[:, expo] = coef % p  # J itself; seven more sparse products give J^8
    for _ in range(7):
        out = np.zeros_like(acc)
        for e, c in zip(expo.tolist(), coef.tolist()):
            out[:, e:] += c * acc[:, : n_max - e]
        acc = out % p
    # Garner: tau = v0 + p0 (v1 + p1 (v2 + p2 v3)) with 0 <= v_i < p_i
    digits = []
    for i, p_i in enumerate(primes):
        v = acc[i]
        for p_j, v_j in zip(primes[:i], digits):
            v = (v - v_j) % p_i * pow(p_j, -1, p_i) % p_i
        digits.append(v)
    lift = digits[-1].astype(object)
    for p_i, v in zip(primes[-2::-1], digits[-2::-1]):
        lift = lift * p_i + v.astype(object)
    lift[lift > modulus // 2] -= modulus
    return lift.tolist()


def ramanujan_tau(n_max: int) -> List[int]:
    """tau(1), ..., tau(n_max), exact.

    Computed as the coefficients of q prod (1-q^n)^24 = q * (J(q))^8 where
    J(q) = sum_{j>=0} (-1)^j (2j+1) q^(j(j+1)/2) has about sqrt(2 n_max)
    terms. The eight sparse products run in int64 modulo the four
    TAU_PRIMES at once, so the cost is 7 sqrt(2 n_max) vector passes of
    length 4 n_max (about 0.7 s at n_max = 60000 on one core); the residues
    are combined by CRT into the symmetric lift, which Deligne's bound makes
    exact up to MAX_TAU_RANGE. :func:`ramanujan_tau_naive` is the oracle.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    if n_max > MAX_TAU_RANGE:
        raise PreconditionError(f"exact tau generation capped at n_max = {MAX_TAU_RANGE}")
    return _tau_by_residues(n_max, TAU_PRIMES)


def ramanujan_tau_naive(n_max: int) -> List[int]:
    """Independent oracle: multiply out q prod_{n<=n_max} (1-q^n)^24 termwise."""
    length = n_max
    poly = [0] * length
    poly[0] = 1
    for n in range(1, length):
        for _ in range(24):
            for i in range(length - 1, n - 1, -1):
                poly[i] -= poly[i - n]
    return poly


@dataclass
class HeckeReport:
    max_violation: float
    pairs_checked: int
    prime_power_checked: int
    first_violation: Optional[Tuple[int, int, float]] = None  # (m, n, violation)

    @property
    def ok(self) -> bool:
        return self.first_violation is None


@dataclass
class CuspForm:
    """Hecke eigendata in the normalized (analytic) coefficient convention.

    lam[i] is lambda(i+1). The nebentypus is stored as the full value table
    chi(0), ..., chi(M-1) with chi(a) = 0 whenever gcd(a, M) > 1. eta is the
    modulus-one constant of the dual summation formula; it is measured by
    calibration, not assumed, so fresh forms carry None.
    """

    kind: GammaFactorKind
    level: int
    chi: np.ndarray
    lam: np.ndarray
    epsilon_f: Optional[complex] = None
    eta: Optional[complex] = None
    epsilon_g: Optional[float] = None
    tol: float = 1e-9
    label: str = ""
    _tau: Optional[List[int]] = field(default=None, repr=False)

    @property
    def n_max(self) -> int:
        return len(self.lam)

    def lam_at(self, n: int) -> complex:
        if n < 1 or n > self.n_max:
            raise CoefficientRangeError(f"lambda({n}) outside stored range 1..{self.n_max}")
        return self.lam[n - 1]

    def lam_slice(self, n_hi: int) -> np.ndarray:
        if n_hi > self.n_max:
            raise CoefficientRangeError(f"need coefficients to {n_hi}, have {self.n_max}")
        return self.lam[:n_hi]

    def chi_at(self, a: int) -> complex:
        return self.chi[a % self.level]

    def tau_at(self, n: int) -> int:
        if self._tau is None:
            raise PreconditionError("exact tau values only available on the generated form")
        return self._tau[n - 1]


def trivial_character(level: int) -> np.ndarray:
    chi = np.array(
        [1.0 + 0.0j if math.gcd(a, level) == 1 else 0.0j for a in range(level)]
    )
    return chi


def delta_form(n_max: int = 10000) -> CuspForm:
    """The discriminant cusp form: weight 12, level 1, trivial character.

    epsilon_f = +1 (the completed L-function of the discriminant form is
    invariant under s -> 1-s).
    """
    tau = ramanujan_tau(n_max)
    n = np.arange(1, n_max + 1, dtype=float)
    lam = np.array([float(t) for t in tau]) / (n**5 * np.sqrt(n))
    return CuspForm(
        kind=holomorphic_kind(12),
        level=1,
        chi=trivial_character(1),
        lam=lam.astype(complex),
        epsilon_f=1.0 + 0.0j,
        epsilon_g=None,
        label="delta",
        _tau=tau,
    )


def constant_form(n_max: int, value: complex = 1.0) -> CuspForm:
    """Synthetic coefficient stream lambda(n) = value; not a Hecke form.

    Used as an arithmetic control in identity tests (set value = 0 for the
    zero stream).
    """
    lam = np.full(n_max, complex(value))
    return CuspForm(
        kind=holomorphic_kind(12),
        level=1,
        chi=trivial_character(1),
        lam=lam,
        epsilon_f=1.0 + 0.0j,
        label=f"constant-{value}",
    )


def hecke_verify(form: CuspForm, n_max: Optional[int] = None) -> HeckeReport:
    """Check multiplicativity and the p-power recursion up to n_max.

    Report-only: the worst absolute violation is returned, never raised.
    """
    n_hi = min(n_max or form.n_max, form.n_max)
    lam = form.lam
    worst = 0.0
    first = None
    pairs = 0
    # coprime multiplicativity over all m <= n <= n_hi with m*n <= n_hi
    for m in range(2, int(math.isqrt(n_hi)) + 1):
        for n in range(m, n_hi // m + 1):
            if math.gcd(m, n) != 1:
                continue
            pairs += 1
            diff = abs(lam[m * n - 1] - lam[m - 1] * lam[n - 1])
            if diff > worst:
                worst = diff
                if diff > form.tol and first is None:
                    first = (m, n, diff)
    # p-power recursion
    ppow = 0
    for p in primes_in(2, n_hi):
        chi_p = form.chi_at(p)
        k = 1
        while p ** (k + 1) <= n_hi:
            ppow += 1
            lhs = lam[p - 1] * lam[p**k - 1]
            rhs = lam[p ** (k + 1) - 1] + chi_p * (lam[p ** (k - 1) - 1] if k >= 1 else 0)
            diff = abs(lhs - rhs)
            if diff > worst:
                worst = diff
                if diff > form.tol and first is None:
                    first = (p, p**k, diff)
            k += 1
    return HeckeReport(
        max_violation=float(worst),
        pairs_checked=pairs,
        prime_power_checked=ppow,
        first_violation=first,
    )


def rankin_average(form: CuspForm, x_values: Sequence[int]):
    """[(x, mean of |lambda(n)|^2 over n <= x)] for each requested x."""
    out = []
    sq = np.abs(form.lam) ** 2
    for x in x_values:
        x = int(x)
        if x > form.n_max:
            raise CoefficientRangeError(f"x = {x} beyond stored range {form.n_max}")
        out.append((x, float(np.sum(sq[:x]) / x)))
    return out


# ---------------------------------------------------------------------------
# coefficient files
# ---------------------------------------------------------------------------
#
# UTF-8 text; header lines  #key value  for kind, k or (ell, delta, eps_g),
# M, chi (M comma-separated values), eps_f, n_max, tol, optionally eta; then
# lines  n lambda_re [lambda_im]  with n strictly increasing from 1.


def _format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    return repr(z)  # parenthesized python literal, e.g. (1+2j)


def _parse_complex(text: str, line_no: int) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise FormFileError(f"bad complex literal {text!r}", line=line_no) from exc


def export_form(form: CuspForm, path: str) -> None:
    lines = []
    if form.kind.family == "holomorphic":
        lines.append("#kind holomorphic")
        lines.append(f"#k {form.kind.weight}")
    else:
        lines.append("#kind maass")
        ell = complex(form.kind.ell)
        lines.append(f"#ell {_format_complex(ell)}")
        lines.append(f"#delta {form.kind.parity}")
        lines.append(f"#eps_g {form.epsilon_g if form.epsilon_g is not None else 1}")
    lines.append(f"#M {form.level}")
    lines.append("#chi " + ",".join(_format_complex(v) for v in form.chi))
    if form.epsilon_f is not None:
        lines.append(f"#eps_f {_format_complex(form.epsilon_f)}")
    if form.eta is not None:
        lines.append(f"#eta {_format_complex(form.eta)}")
    lines.append(f"#n_max {form.n_max}")
    lines.append(f"#tol {form.tol!r}")
    for i, lam in enumerate(form.lam):
        lam = complex(lam)
        if lam.imag == 0:
            lines.append(f"{i + 1} {lam.real!r}")
        else:
            lines.append(f"{i + 1} {lam.real!r} {lam.imag!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_form(path: str) -> CuspForm:
    """Parse a coefficient file; Hecke relations are validated on load.

    Raises :class:`FormFileError` (with the line number) on malformed input
    and :class:`HeckeViolationError` naming the first offending index if the
    stored eigenvalues break multiplicativity beyond the header tolerance.
    """
    header = {}
    coeffs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                try:
                    key, value = line[1:].split(None, 1)
                except ValueError as exc:
                    raise FormFileError("header line needs a key and a value", line=line_no) from exc
                header[key] = (value.strip(), line_no)
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise FormFileError("coefficient lines are `n re [im]`", line=line_no)
            try:
                n = int(parts[0])
                re_v = float(parts[1])
                im_v = float(parts[2]) if len(parts) == 3 else 0.0
            except ValueError as exc:
                raise FormFileError(f"bad coefficient line {line!r}", line=line_no) from exc
            expected = len(coeffs) + 1
            if n != expected:
                raise FormFileError(
                    f"coefficient index {n} out of order (expected {expected})", line=line_no
                )
            coeffs.append(complex(re_v, im_v))

    def need(key):
        if key not in header:
            raise FormFileError(f"missing header #{key}")
        return header[key][0]

    kind_name = need("kind")
    level = int(need("M"))
    if kind_name == "holomorphic":
        kind = holomorphic_kind(int(need("k")))
        eps_g = None
    elif kind_name == "maass":
        ell_text, ell_line = header.get("ell", (None, 0))
        if ell_text is None:
            raise FormFileError("maass forms need #ell")
        kind = maass_kind(_parse_complex(ell_text, ell_line), int(need("delta")))
        eps_g = float(need("eps_g"))
    else:
        raise FormFileError(f"unknown kind {kind_name!r}", line=header["kind"][1])

    chi_text, chi_line = header["chi"] if "chi" in header else (None, 0)
    if chi_text is None:
        raise FormFileError("missing header #chi")
    chi_vals = [_parse_complex(v, chi_line) for v in chi_text.split(",")]
    if len(chi_vals) != level:
        raise FormFileError(
            f"chi table has {len(chi_vals)} entries, level M = {level}", line=chi_line
        )
    chi = np.array(chi_vals, dtype=complex)
    for a in range(level):
        if math.gcd(a, level) > 1 and abs(chi[a]) > 0:
            raise FormFileError(f"chi({a}) must vanish for gcd(a, M) > 1", line=chi_line)

    n_max = int(need("n_max"))
    if n_max != len(coeffs):
        raise FormFileError(f"n_max = {n_max} but {len(coeffs)} coefficients present")
    tol = float(need("tol"))
    eps_f = None
    if "eps_f" in header:
        eps_f = _parse_complex(*header["eps_f"])
    eta = None
    if "eta" in header:
        eta = _parse_complex(*header["eta"])

    form = CuspForm(
        kind=kind,
        level=level,
        chi=chi,
        lam=np.array(coeffs, dtype=complex),
        epsilon_f=eps_f,
        eta=eta,
        epsilon_g=eps_g,
        tol=tol,
        label=path,
    )
    report = hecke_verify(form)
    if report.first_violation is not None:
        m, n, viol = report.first_violation
        raise HeckeViolationError(
            f"Hecke relation fails at ({m}, {n}): violation {viol:.3e} > tol {tol:.1e}",
            n=m * n,
            violation=viol,
        )
    return form


def multiplicative_extension(prime_values: dict, chi: np.ndarray, level: int, n_max: int):
    """Extend lambda(p) data to all n <= n_max through the Hecke recursion.

    Produces a Hecke-multiplicative sequence (useful for synthetic
    fixtures); it does not certify that the values come from a cusp form.
    """
    lam = np.zeros(n_max, dtype=complex)
    lam[0] = 1.0
    spf = np.zeros(n_max + 1, dtype=int)
    for p in primes_in(2, n_max):
        spf[p::p][spf[p::p] == 0] = p
    for n in range(2, n_max + 1):
        p = int(spf[n])
        m, k = n, 0
        while m % p == 0:
            m //= p
            k += 1
        if m > 1:
            lam[n - 1] = lam[m - 1] * lam[p**k - 1]
            continue
        if k == 1:
            lam[n - 1] = prime_values.get(p, 0.0)
        else:
            chi_p = chi[p % level]
            lam[n - 1] = lam[p - 1] * lam[p ** (k - 1) - 1] - chi_p * lam[p ** (k - 2) - 1]
    return lam
