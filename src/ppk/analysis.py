"""Term-count bounds, coefficient asymptotics, and convergence analysis.

Everything numeric lives here.  The coefficient series of a variable X_w is
log r_w, a log of a rational function, so its coefficients are controlled by
the inverse roots xi_i of numerator and denominator:

    [x^n] log r = -(1/n) sum_i eps_i xi_i^n,

with eps_i = +multiplicity for numerator roots and - for denominator roots.
The series of X_w therefore converges absolutely at 1 when every |xi_i| < 1
and diverges when some |xi_i| > 1.  Verdicts here are three-state: roots too
close to the unit circle give "boundary", never a silent call either way;
such words are left for exact follow-up.

Also here: the exact generating-function bound B_j on the number of terms of
the level polynomials with its leading-order asymptotic form, and the closed
forms for the all-ones families 1^s0 and 1^r00.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .ratcore import PolyQ, RationalFunctionQ, SeriesQ, squarefree_decomposition
from .synth import Monomial, r_w_quotient
from .theta import Tbar
from .words import Word, enumerate_admissible

__all__ = [
    "AsymptoticConstants",
    "RootProfile",
    "ScanReport",
    "FamilyRootReport",
    "CoefficientSumReport",
    "ConvergenceError",
    "asymptotic_constants",
    "term_bound_series",
    "term_bound_asymptotic",
    "poly_roots",
    "classify_word",
    "log_rat_coeff_exact",
    "scan_convergent_words",
    "q_polynomial",
    "closed_form_family",
    "coefficient_sum",
]


@dataclass(frozen=True)
class AsymptoticConstants:
    """mu = (p-1)^2/p and the convergent sum sigma = sum_{k>=2} 1/(k(p^{k-1}-1))."""

    p: int
    mu: float
    sigma: float


def asymptotic_constants(p: int) -> AsymptoticConstants:
    mu = (p - 1) ** 2 / p
    sigma = 0.0
    k = 2
    while True:
        term = 1.0 / (k * (p ** (k - 1) - 1))
        if term < 1e-15:
            break
        sigma += term
        k += 1
    return AsymptoticConstants(p, mu, sigma)


def term_bound_series(p: int, j_max: int) -> list[int]:
    """Exact bounds B_0..B_{j_max} on the term counts of the level polynomials.

    B_j counts monomials of total weight <= j; the weight generating function
    is exp of sum_k (1/k) (p-1)^2 x^k / (1 - p x^k), expanded exactly.
    """
    coeffs = [Fraction(0)] * (j_max + 1)
    for k in range(1, j_max + 1):
        base = Fraction((p - 1) ** 2, k)
        for m in range(1, j_max // k + 1):
            coeffs[k * m] += base * p ** (m - 1)
    per_weight = SeriesQ(j_max, coeffs).exp()
    out: list[int] = []
    total = 0
    for c in per_weight.coeffs:
        if c.denominator != 1:
            raise ArithmeticError("weight series produced a non-integer count")
        total += c.numerator
        out.append(total)
    return out


def term_bound_asymptotic(p: int, j: int) -> float:
    """Leading-order growth of B_j for large j."""
    if j < 1:
        raise ValueError("asymptotic form needs j >= 1")
    c = asymptotic_constants(p)
    prefactor = math.exp(c.mu * (c.sigma - 0.5)) / (
        2 * p * c.mu**0.25 * math.sqrt(math.pi)
    )
    return prefactor * math.exp(2 * math.sqrt(c.mu * j)) * p**j / j**0.75


def _ceval(coeffs: list[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _aberth_roots(coeffs: list[complex]) -> list[complex]:
    """All roots of a squarefree polynomial by simultaneous iteration.

    Deterministic: fixed starting circle (Cauchy bound radius, asymmetric
    phase offset so symmetric polynomials cannot trap the iteration), fixed
    tolerances, then a few Newton steps per root to polish.
    """
    n = len(coeffs) - 1
    lead = coeffs[-1]
    a = [c / lead for c in coeffs]
    if n == 1:
        return [-a[0]]
    if n == 2:
        b, c = a[1], a[0]
        disc = cmath.sqrt(b * b - 4 * c)
        top = -(b + disc) if abs(b + disc) >= abs(b - disc) else -(b - disc)
        if top == 0:
            return [0j, -b]
        q = top / 2
        return [q, c / q]
    dp = [k * a[k] for k in range(1, n + 1)]
    radius = 1.0 + max(abs(c) for c in a[:-1])
    z = [radius * cmath.exp(2j * cmath.pi * (k + 0.35) / n) for k in range(n)]
    for _ in range(400):
        biggest = 0.0
        new = []
        for i, zi in enumerate(z):
            dv = _ceval(dp, zi)
            if dv == 0:
                # landed on a critical point; nudge and keep going
                new.append(zi + 1e-6)
                biggest = max(biggest, 1e-6)
                continue
            ratio = _ceval(a, zi) / dv
            s = sum(1.0 / (zi - zj) for j, zj in enumerate(z) if j != i)
            den = 1.0 - ratio * s
            delta = ratio if den == 0 else ratio / den
            new.append(zi - delta)
            biggest = max(biggest, abs(delta))
        z = new
        if biggest < 1e-12 * max(1.0, max(abs(v) for v in z)):
            break
    else:
        raise ArithmeticError(
            f"root iteration did not converge for degree {n}: {coeffs!r}"
        )
    for i, zi in enumerate(z):
        for _ in range(4):
            dv = _ceval(dp, zi)
            if dv == 0:
                break
            step = _ceval(a, zi) / dv
            zi -= step
            if abs(step) < 1e-15 * max(1.0, abs(zi)):
                break
        z[i] = zi
    return z


def poly_roots(poly: PolyQ) -> list[tuple[complex, int]]:
    """Approximate roots with exact multiplicities.

    The squarefree decomposition is computed exactly first, so the numeric
    iteration only ever sees simple roots.  Sorted by (modulus, phase).
    """
    out: list[tuple[complex, int]] = []
    for factor, mult in squarefree_decomposition(poly):
        if factor.degree < 1:
            continue
        roots = _aberth_roots([complex(float(c)) for c in factor.coeffs])
        out.extend((r, mult) for r in roots)
    out.sort(key=lambda rm: (abs(rm[0]), cmath.phase(rm[0]), rm[1]))
    return out


@dataclass(frozen=True)
class RootProfile:
    """Root data of the canonical r_w with the convergence verdict."""

    word: Word
    tol: float
    zeros: tuple[tuple[complex, int], ...]
    poles: tuple[tuple[complex, int], ...]
    max_xi_modulus: float
    radius: float
    dominant_singularity: complex | None
    band: tuple[complex, ...]
    classification: str
    r_at_one: Fraction
    coefficient_sum: float | None


def classify_word(w: Word, tol: float = 1e-6) -> RootProfile:
    """Convergence verdict for the coefficient series of X_w.

    divergent when max |xi| > 1 + tol, convergent when < 1 - tol, boundary in
    between; the band lists roots within tol of the unit circle.  Convergent
    words get coefficient_sum = log r_w(1) attached (valid up to the radius,
    and at 1 by continuity).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    if not w.is_admissible:
        raise ValueError(f"classification needs an admissible word: {w}")
    rf = r_w_quotient(w)
    zeros = tuple(poly_roots(rf.num))
    poles = tuple(poly_roots(rf.den))
    roots = zeros + poles
    if roots:
        min_mod = min(abs(r) for r, _ in roots)
        max_xi = 1.0 / min_mod
        dominant = min(roots, key=lambda rm: (abs(rm[0]), cmath.phase(rm[0])))[0]
        radius = min_mod
    else:
        max_xi = 0.0
        dominant = None
        radius = math.inf
    band = tuple(r for r, _ in roots if 1 - tol <= abs(r) <= 1 + tol)
    if max_xi > 1 + tol:
        verdict = "divergent"
    elif max_xi >= 1 - tol:
        verdict = "boundary"
    else:
        verdict = "convergent"
    r_at_one = rf.eval(1)
    total = math.log(r_at_one) if verdict == "convergent" else None
    return RootProfile(
        w, tol, zeros, poles, max_xi, radius, dominant, band, verdict, r_at_one, total
    )


def log_rat_coeff_exact(profile: RootProfile, n: int) -> complex:
    """[x^n] log r_w from the root factorization: -(1/n) sum eps_i xi_i^n."""
    if n < 1:
        raise ValueError("coefficient index must be >= 1")
    rf = r_w_quotient(profile.word)
    have = sum(m for _, m in profile.zeros), sum(m for _, m in profile.poles)
    if have != (rf.num.degree, rf.den.degree):
        raise ValueError(
            f"incomplete root profile for {profile.word}: {have} of "
            f"({rf.num.degree}, {rf.den.degree}) roots"
        )
    acc = 0j
    for root, mult in profile.zeros:
        acc += mult * (1 / root) ** n
    for root, mult in profile.poles:
        acc -= mult * (1 / root) ** n
    return -acc / n


@dataclass(frozen=True)
class ScanReport:
    """Outcome of classifying every admissible word up to a length."""

    p: int
    max_len: int
    tol: float
    checked: int
    convergent: tuple[Word, ...]
    families: dict[str, tuple[Word, ...]]
    exceptional: tuple[Word, ...]
    boundary: tuple[Word, ...]
    divergent_count: int
    profiles: tuple[RootProfile, ...]


def _family_name(w: Word) -> str | None:
    """Known convergence families over base 2: 1^s0 (s >= 1), 1^r00 with
    r = 1 mod 4, and 1^s01^t0 (s >= 1, t >= 2)."""
    if w.p != 2:
        return None
    d = w.digits
    if d[-1] != 0:
        return None
    if all(c == 1 for c in d[:-1]):
        return "ones_zero"
    if len(d) >= 3 and d[-2] == 0 and all(c == 1 for c in d[:-2]):
        r = len(d) - 2
        return "ones_zero_zero" if r % 4 == 1 else None
    body = d[:-1]
    if body.count(0) == 1 and body[0] == 1 and body[-1] == 1:
        z = body.index(0)
        if z >= 1 and len(body) - z - 1 >= 2:
            return "ones_zero_ones_zero"
    return None


def scan_convergent_words(p: int, max_len: int, tol: float = 1e-6) -> ScanReport:
    """Classify all admissible words of length <= max_len.

    Words whose series can converge (everything not divergent) are
    partitioned into the three known families and an exceptional remainder.
    Boundary words stay flagged in their own list as well: they enter the
    partition as convergence candidates but are never silently promoted, and
    need exact follow-up (the two known ones come from root pairs exactly on
    the unit circle).
    """
    words = enumerate_admissible(p, max_len - 1)
    profiles = tuple(classify_word(w, tol) for w in words)
    convergent = tuple(pr.word for pr in profiles if pr.classification == "convergent")
    boundary = tuple(pr.word for pr in profiles if pr.classification == "boundary")
    divergent_count = sum(pr.classification == "divergent" for pr in profiles)
    families: dict[str, list[Word]] = {
        "ones_zero": [],
        "ones_zero_zero": [],
        "ones_zero_ones_zero": [],
    }
    exceptional: list[Word] = []
    for pr in profiles:
        if pr.classification == "divergent":
            continue
        fam = _family_name(pr.word)
        if fam is None:
            exceptional.append(pr.word)
        else:
            families[fam].append(pr.word)
    return ScanReport(
        p,
        max_len,
        tol,
        len(words),
        convergent,
        {k: tuple(v) for k, v in families.items()},
        tuple(exceptional),
        boundary,
        divergent_count,
        profiles,
    )


def q_polynomial(r: int) -> PolyQ:
    """q_r(t) = 4t^{r+1} + t^r - 4t^2 - 1, the pole family for words 1^r00."""
    if r < 1:
        raise ValueError("q_r needs r >= 1")
    cs = [Fraction(0)] * (r + 2)
    cs[0] -= 1
    cs[2] -= 4
    cs[r] += 1
    cs[r + 1] += 4
    return PolyQ(cs)


def _half_substitute(poly: PolyQ) -> PolyQ:
    # q(t) -> q(x/2)
    return PolyQ(tuple(c / Fraction(2**i) for i, c in enumerate(poly.coeffs)))


def _one_minus_half_pow(k: int) -> PolyQ:
    # 1 - (x/2)^k
    return PolyQ((1,)) - PolyQ.monomial(Fraction(1, 2**k), k)


@dataclass(frozen=True)
class FamilyRootReport:
    variant: str
    s: int
    matches: bool
    roots: tuple[tuple[complex, int], ...]
    near_root: complex | None
    modulus_excess: float | None
    side_matches_rule: bool | None
    approx_error: float | None


def closed_form_family(s: int, variant: str) -> tuple[RationalFunctionQ, FamilyRootReport]:
    """Closed forms over base 2 for the all-ones families.

    ones_zero: the normalized row polynomial of 1^s0 is the geometric sum
    (1 - (x/2)^{s+1})/(1 - x/2); verified against the recurrence.

    ones_zero_zero: r for 1^s00 equals
    (q_{s+1}(x/2)/q_s(x/2)) * ((1-(x/2)^s)/(1-(x/2)^{s+1})); the report adds
    the q_s root nearest i/2, how far its modulus sits from 1/2, whether the
    side agrees with the rule (above 1/2 iff s = 1, 2 mod 4), and the error
    of the one-step approximation i/2 + (i/2)^s (1/2 - i/4).
    """
    if s < 1:
        raise ValueError("family parameter must be >= 1")
    if variant == "ones_zero":
        w = Word(2, (1,) * s + (0,))
        form = RationalFunctionQ(_one_minus_half_pow(s + 1), _one_minus_half_pow(1))
        matches = form == RationalFunctionQ.from_poly(Tbar(2, w))
        roots = tuple(poly_roots(form.num))
        return form, FamilyRootReport(variant, s, matches, roots, None, None, None, None)
    if variant == "ones_zero_zero":
        w = Word(2, (1,) * s + (0, 0))
        num = _half_substitute(q_polynomial(s + 1)) * _one_minus_half_pow(s)
        den = _half_substitute(q_polynomial(s)) * _one_minus_half_pow(s + 1)
        form = RationalFunctionQ(num, den)
        matches = form == r_w_quotient(w)
        qroots = tuple(poly_roots(q_polynomial(s)))
        near = min((r for r, _ in qroots), key=lambda r: abs(r - 0.5j))
        approx = 0.5j + (0.5j) ** s * (0.5 - 0.25j)
        excess = abs(near) - 0.5
        side = (excess > 0) == (s % 4 in (1, 2))
        return form, FamilyRootReport(
            variant, s, matches, qroots, near, excess, side, abs(near - approx)
        )
    raise ValueError(f"unknown family variant: {variant}")


class ConvergenceError(ValueError):
    """A coefficient sum was requested for a series that does not converge."""

    def __init__(self, message: str, profiles: tuple[RootProfile, ...]):
        super().__init__(message)
        self.profiles = profiles


@dataclass(frozen=True)
class CoefficientSumReport:
    monomial: Monomial
    r_at_one: dict[Word, Fraction]
    value: float
    error_bound: float


def coefficient_sum(mono: Monomial, tol: float = 1e-6) -> CoefficientSumReport:
    """Limit of the coefficient partial sums of a monomial, in closed form.

    Every factor word must classify strictly convergent (radius > 1); the
    column of the monomial then sums to prod (log r_w(1))^k / k! with r_w(1)
    exact rational.  Otherwise refuses, carrying the offending profiles.
    """
    bad: list[RootProfile] = []
    values: dict[Word, Fraction] = {}
    for w, _ in mono.factors:
        pr = classify_word(w, tol)
        if pr.classification != "convergent":
            bad.append(pr)
        else:
            values[w] = pr.r_at_one
    if bad:
        raise ConvergenceError(
            "no convergent sum: "
            + "; ".join(f"{pr.word} is {pr.classification}" for pr in bad),
            tuple(bad),
        )
    value = 1.0
    for w, k in mono.factors:
        value *= math.log(values[w]) ** k / math.factorial(k)
    error = 8 * math.ulp(1.0) * (abs(value) + 1.0)
    return CoefficientSumReport(mono, values, value, error)
