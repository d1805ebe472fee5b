"""Cusp-form coefficient providers.

The built-in generator produces the weight-12 level-1 discriminant form with
normalized eigenvalues lambda(n) = tau(n) / n^(11/2), where tau comes from
the eta-product q prod (1-q^n)^24 = q J(q)^8 computed exactly (J is
Jacobi's series for the cube of eta): three FFT squarings of J modulo up to
eight primes below 2^17, lifted by CRT, so 60000 coefficients take about
0.2 s. Other forms are read from coefficient files in the one header format
:data:`HEADER`; on load chi must be a character mod M and the eigenvalues
must satisfy the Hecke relations

    lambda(m n) = lambda(m) lambda(n)                        gcd(m, n) = 1,
    lambda(p) lambda(p^k) = lambda(p^(k+1)) + chi(p) lambda(p^(k-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

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
# the eight largest primes below 2^17: a square of MAX_TAU_RANGE symmetric
# residues stays below 2^53, so a float64 FFT rounds to its exact integers
TAU_PRIMES = (131071, 131063, 131059, 131041, 131023, 131011, 131009, 130987)


def ramanujan_tau(n_max: int) -> List[int]:
    """tau(1), ..., tau(n_max), exact, in O(n log n): about 0.2 s at 60000.

    q prod (1-q^n)^24 = q J(q)^8 with J(q) = sum_{j>=0} (-1)^j (2j+1) q^(j(j+1)/2),
    by three squarings J -> J^2 -> J^4 -> J^8 in float64 FFTs on symmetric
    residues modulo the fewest TAU_PRIMES whose product M exceeds Deligne's
    4 n_max^6 > 2 |tau(n)| (Pollard, Math. Comp. 25 (1971)). Each square is
    rounded to integers; Garner's CRT lifts the residues to (-M/2, M/2).
    Raises :class:`PreconditionError` unless TAU_PRIMES cover 4 MAX_TAU_RANGE^6
    and MAX_TAU_RANGE ((p-1)/2)^2 < 2^53 for each p, or when a square lands
    1/4 or more from an integer. :func:`ramanujan_tau_naive` is the oracle.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    if n_max > MAX_TAU_RANGE:
        raise PreconditionError(f"exact tau generation capped at n_max = {MAX_TAU_RANGE}")
    cover = math.prod(TAU_PRIMES) // 2
    if cover <= 2 * MAX_TAU_RANGE**6:
        raise PreconditionError(
            f"{len(TAU_PRIMES)} primes cover |tau| < 2^{cover.bit_length() - 1}; "
            f"Deligne's bound needs 2^{(2 * MAX_TAU_RANGE**6).bit_length()}"
        )
    if MAX_TAU_RANGE * (max(TAU_PRIMES) // 2) ** 2 >= 2**53:
        raise PreconditionError(f"squares modulo {max(TAU_PRIMES)} leave float64's exact integers")
    k = next(k for k in range(1, len(TAU_PRIMES) + 1) if math.prod(TAU_PRIMES[:k]) > 4 * n_max**6)
    primes = TAU_PRIMES[:k]
    j = np.arange(math.isqrt(2 * n_max) + 1)
    j = j[j * (j + 1) // 2 < n_max]
    jacobi = np.zeros(n_max, dtype=np.int64)
    jacobi[j * (j + 1) // 2] = np.where(j % 2 == 0, 2 * j + 1, -(2 * j + 1))
    size = 1 << (2 * n_max - 1).bit_length()  # no wrap-around below 2 n_max - 1
    digits = []  # Garner: tau = v0 + p0 (v1 + p1 (v2 + ...)) with 0 <= v_i < p_i
    for i, p_i in enumerate(primes):  # one prime at a time keeps the FFT buffers at one row
        series = jacobi
        for _ in range(3):
            series = (series + p_i // 2) % p_i - p_i // 2  # symmetric residues
            square = np.fft.irfft(np.fft.rfft(series, size) ** 2, size)[:n_max]
            series = np.rint(square)
            if (offset := float(np.abs(square - series).max())) >= 0.25:
                raise PreconditionError(f"an FFT square lands {offset:.3g} from an integer")
            series = series.astype(np.int64)
        v = series % p_i
        for p_j, v_j in zip(primes[:i], digits):
            v = (v - v_j) % p_i * pow(p_j, -1, p_i) % p_i
        digits.append(v)
    lift = digits[-1].astype(object)
    for p_i, v in zip(primes[-2::-1], digits[-2::-1]):
        lift = lift * p_i + v.astype(object)
    modulus = math.prod(primes)
    lift[lift > modulus // 2] -= modulus
    return lift.tolist()


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


@dataclass
class CuspForm:
    """Hecke eigendata in the normalized (analytic) coefficient convention.

    lam[i] is lambda(i+1); the dual form's are conj lambda (:meth:`dual_lam_slice`).
    The nebentypus is stored as the full value table chi(0), ..., chi(M-1)
    with chi(a) = 0 whenever gcd(a, M) > 1; it and eps_g reach the dual side
    only through :func:`weyldelta.voronoi.term_weight`. eta is the modulus-one
    constant of the dual summation formula; it is measured by calibration,
    not assumed, so fresh forms carry None. The fit also records its
    unnormalized modulus and its probe spread (None until
    :func:`weyldelta.voronoi.calibrate_eta` runs).
    """

    kind: GammaFactorKind
    level: int
    chi: np.ndarray
    lam: np.ndarray
    epsilon_f: Optional[complex] = None
    eta: Optional[complex] = None
    epsilon_g: Optional[float] = None
    tol: float = 1e-9
    eta_modulus_raw: Optional[float] = field(default=None, init=False)
    eta_probe_spread: Optional[float] = field(default=None, init=False)

    @property
    def n_max(self) -> int:
        return len(self.lam)

    @property
    def eps_g(self) -> float:
        """The epsilon_g of the dual formula's -1 term: the stored value, or 1
        when none is stored (holomorphic forms have no -1 term)."""
        return 1 if self.epsilon_g is None else self.epsilon_g

    def lam_slice(self, n_hi: int) -> np.ndarray:
        """lambda(1), ..., lambda(n_hi); the one guard of the coefficient sums:
        a form shorter than n_hi raises :class:`CoefficientRangeError`."""
        if n_hi > self.n_max:
            raise CoefficientRangeError(f"need coefficients to {n_hi}, have {self.n_max}")
        return self.lam[:n_hi]

    def dual_lam_slice(self, n_hi: int) -> np.ndarray:
        """The dual form's coefficients conj lambda(1..n_hi), range-guarded by lam_slice."""
        return self.lam_slice(n_hi).conj()

    def chi_at(self, a: int) -> complex:
        return self.chi[a % self.level]


def trivial_character(level: int) -> np.ndarray:
    chi = np.array(
        [1.0 + 0.0j if math.gcd(a, level) == 1 else 0.0j for a in range(level)]
    )
    return chi


def delta_form(n_max: int = 10000) -> CuspForm:
    """The discriminant cusp form: weight 12, level 1, trivial character.

    lambda(n) = tau(n) / n^(11/2) in float64, from the exact integers of
    :func:`ramanujan_tau`, whose FFT squarings make the build O(n log n)
    (about 0.2 s at n_max = 60000). epsilon_f = +1 (the completed
    L-function of the discriminant form is invariant under s -> 1-s).
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
    )


def hecke_verify(form: CuspForm, n_max: Optional[int] = None) -> HeckeReport:
    """Check multiplicativity and the p-power recursion up to n_max.

    Report-only: the worst violation is returned; only n_max > form.n_max raises.
    """
    n_hi = form.n_max if n_max is None else n_max
    lam = form.lam_slice(n_hi)
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
            rhs = lam[p ** (k + 1) - 1] + chi_p * lam[p ** (k - 1) - 1]
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
    return [(x, float(np.sum(np.abs(form.lam_slice(x)) ** 2) / x)) for x in map(int, x_values)]


# ---------------------------------------------------------------------------
# coefficient files
# ---------------------------------------------------------------------------


def _format_complex(z: complex) -> str:
    z = complex(z)
    return repr(z.real if z.imag == 0 else z)  # a complex repr is a literal such as (1+2j)


def _checked(parse: Callable[[str], Any], ok=lambda v: math.isfinite(abs(v))):
    """The parser ``parse``, raising ValueError on a value that fails ``ok`` (default: finite)."""

    def parser(text: str):
        if not ok(value := parse(text)):
            raise ValueError("out of range")
        return value

    return parser


class HeaderKey(NamedTuple):
    family: Optional[str]  # the kind of form whose files carry the key; None: every file
    parse: Callable[[str], Any]  # value text -> value; ValueError on a bad value
    write: Callable[[CuspForm], Optional[str]]  # form -> value text; None leaves the line out
    optional: bool = False


# A coefficient file: header lines  #key value  in this order, then lines
# n lambda_re [lambda_im]  with n increasing from 1. eta is measured, not stored.
HEADER = {
    "kind": HeaderKey(None, _checked(str, {"holomorphic", "maass"}.__contains__),
                      lambda f: f.kind.family),
    "k": HeaderKey("holomorphic", lambda t: holomorphic_kind(int(t)).weight,
                   lambda f: str(f.kind.weight)),
    "ell": HeaderKey("maass", _checked(lambda t: maass_kind(complex(t), 0).ell),
                     lambda f: _format_complex(f.kind.ell)),
    "delta": HeaderKey("maass", lambda t: maass_kind(0, int(t)).parity, lambda f: str(f.kind.parity)),
    "eps_g": HeaderKey(  # kept as written, 1 or 1.0, so that a file re-exports byte for byte
        "maass", _checked(lambda t: int(t) if t.lstrip("+-").isdigit() else float(t),
                          {1, -1}.__contains__), lambda f: str(f.eps_g)),
    "M": HeaderKey(None, _checked(int, lambda v: v >= 1), lambda f: str(f.level)),
    "chi": HeaderKey(None, lambda t: np.array([complex(v) for v in t.split(",")]),
                     lambda f: ",".join(map(_format_complex, f.chi))),
    "eps_f": HeaderKey(None, _checked(complex), lambda f: None if f.epsilon_f is None
                       else _format_complex(f.epsilon_f), optional=True),
    "n_max": HeaderKey(None, int, lambda f: str(f.n_max)),
    "tol": HeaderKey(None, _checked(float, lambda v: 0 < v < math.inf), lambda f: repr(f.tol)),
}


def _character_rules(chi: np.ndarray, tol: float):
    """(rule, the a where it fails within tol) for the rules of a character mod M = len(chi):
    chi(p a) = chi(p) chi(a) for primes p < M gives chi(a b) = chi(a) chi(b) for all a, b."""
    level, a = len(chi), np.arange(len(chi))
    units = np.gcd(a, level) == 1
    yield "|chi(a)| = 1 if gcd(a, M) = 1, else 0", ~(np.abs(np.abs(chi) - units) <= tol * units)
    yield "chi(1) = 1", (a == 1 % level) & ~(np.abs(chi - 1) <= tol)
    for p in primes_in(2, level - 1):
        yield f"chi({p} a) = chi({p}) chi(a)", ~(np.abs(chi[p * a % level] - chi[p] * chi) <= tol)


def export_form(form: CuspForm, path: str) -> None:
    lines = [
        f"#{key} {text}"
        for key, entry in HEADER.items()
        if entry.family in (None, form.kind.family) and (text := entry.write(form)) is not None
    ]
    for n, lam in enumerate(map(complex, form.lam), start=1):
        lines.append(f"{n} {lam.real!r}" + (f" {lam.imag!r}" if lam.imag else ""))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_form(path: str) -> CuspForm:
    """Parse a coefficient file (:data:`HEADER`), validating chi and the Hecke relations.

    :class:`FormFileError` names the line of a malformed line, an unknown (#eta too),
    repeated or other-kind key, a value its key's parser rejects, a chi that is no
    character mod M within tol or, for weight k, has chi(-1) != (-1)^k, or an n_max
    that miscounts (a missing key has no line);
    :class:`HeckeViolationError` the first index that breaks a Hecke relation past tol.
    """
    values, lines, coeffs = {}, {}, []  # header key -> its value, and its line number
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                try:
                    key, text = line[1:].split(None, 1)
                except ValueError as exc:
                    raise FormFileError("header line needs a key and a value", line=line_no) from exc
                if key not in HEADER:
                    raise FormFileError(f"#{key} is no header key", line=line_no)
                if key in lines:
                    raise FormFileError(f"#{key} repeats line {lines[key]}", line=line_no)
                try:
                    values[key], lines[key] = HEADER[key].parse(text), line_no
                except ValueError as exc:
                    raise FormFileError(f"bad #{key} {text!r}: {exc}", line=line_no) from exc
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise FormFileError("coefficient lines are `n re [im]`", line=line_no)
            try:
                n, lam = int(parts[0]), complex(*map(float, parts[1:]))
            except ValueError as exc:
                raise FormFileError(f"bad coefficient line {line!r}", line=line_no) from exc
            if n != len(coeffs) + 1:
                raise FormFileError(f"index {n}, expected {len(coeffs) + 1}", line=line_no)
            coeffs.append(lam)

    for key, entry in HEADER.items():  # #kind first: it decides which keys belong
        if key in values and entry.family not in (None, values["kind"]):
            raise FormFileError(f"#{key} is for {entry.family} forms only", line=lines[key])
        if key not in values and not entry.optional and entry.family in (None, values.get("kind")):
            raise FormFileError(f"missing header #{key}")
    level, chi, tol = values["M"], values["chi"], values["tol"]
    if len(chi) != level:
        raise FormFileError(f"chi has {len(chi)} entries, level M = {level}", line=lines["chi"])
    for rule, broken in _character_rules(chi, tol):
        if np.any(broken):
            raise FormFileError(f"chi breaks {rule} at a = {np.argmax(broken)}", line=lines["chi"])
    if "k" in values and not abs(chi[-1 % level] - (-1) ** values["k"]) <= tol:
        raise FormFileError(f"weight {values['k']} needs chi(-1) = {(-1) ** values['k']}, "
                            f"not {chi[-1 % level]}", line=lines["chi"])
    if (n_max := values["n_max"]) != len(coeffs):
        raise FormFileError(f"#n_max {n_max} but {len(coeffs)} coefficients", line=lines["n_max"])
    form = CuspForm(
        kind=holomorphic_kind(values["k"]) if "k" in values
        else maass_kind(values["ell"], values["delta"]),
        level=level,
        chi=chi,
        lam=np.array(coeffs, dtype=complex),
        epsilon_f=values.get("eps_f"),
        epsilon_g=values.get("eps_g"),
        tol=tol,
    )
    report = hecke_verify(form)
    if report.first_violation is not None:
        m, n, viol = report.first_violation
        raise HeckeViolationError(
            f"Hecke relation fails at ({m}, {n}): violation {viol:.3e} > tol {tol:.1e}"
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
