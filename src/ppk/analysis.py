"""Term-count bounds, coefficient asymptotics, and convergence analysis.

The coefficient series of a variable X_w is log r_w, a log of a rational
function, so its coefficients are controlled by the inverse roots xi_i of
numerator and denominator:

    [x^n] log r = -(1/n) sum_i eps_i xi_i^n,

with eps_i = +multiplicity for numerator roots and - for denominator roots.
The series of X_w therefore converges absolutely at 1 when every |xi_i| < 1
and diverges when some |xi_i| > 1.  Verdicts here are three-state, with a
"boundary" band of width tol around the unit circle that is never silently
called either way, and they are exact: each comes from counting the roots
of integer rows inside rational circles (``disk_root_count``), never from
a float.  numpy serves only the printed root floats.

Also here: the exact generating-function bound B_j on the number of terms of
the level polynomials with its leading-order asymptotic form, and the closed
forms for the all-ones families 1^s0 and 1^r00.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

from .ratcore import PolyQ, RationalFunctionQ, _int_row, _prem, _squarefree_rows
from .synth import Monomial, _rw_parts, r_w_quotient
from .theta import Tbar, _row_coeffs
from .words import Word, enumerate_admissible, truncations

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
    "disk_root_count",
    "classify_word",
    "log_rat_coeff_exact",
    "scan_convergent_words",
    "q_polynomial",
    "closed_form_family",
    "coefficient_sum",
]


class AsymptoticConstants(NamedTuple):
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
    b is exp of sum_k (1/k) (p-1)^2 x^k / (1 - p x^k), expanded in integers
    by its Euler transform (Bernstein and Sloane, "Some canonical sequences
    of integers", 1995): n b_n = sum_{k=1..n} c_k b_{n-k}, where c_k, k times
    the exponent's x^k coefficient, is (p-1)^2 sum_{d | k} d p^(d-1).
    """
    c = [0] * (j_max + 1)
    for d in range(1, j_max + 1):
        for k in range(d, j_max + 1, d):
            c[k] += (p - 1) ** 2 * d * p ** (d - 1)
    b = [1]
    for n in range(1, j_max + 1):
        count, rest = divmod(sum(c[k] * b[n - k] for k in range(1, n + 1)), n)
        if rest:
            raise ArithmeticError("weight series produced a non-integer count")
        b.append(count)
    return list(itertools.accumulate(b))


def term_bound_asymptotic(p: int, j: int) -> float:
    """Leading-order growth of B_j for large j."""
    if j < 1:
        raise ValueError("asymptotic form needs j >= 1")
    c = asymptotic_constants(p)
    prefactor = math.exp(c.mu * (c.sigma - 0.5)) / (
        2 * p * c.mu**0.25 * math.sqrt(math.pi)
    )
    return prefactor * math.exp(2 * math.sqrt(c.mu * j)) * p**j / j**0.75


def poly_roots(poly: PolyQ) -> list[tuple[complex, int]]:
    """Approximate roots with exact multiplicities.

    The squarefree decomposition is computed exactly first, so the numeric
    solver only ever sees simple roots.  Each factor's roots are the
    eigenvalues of its companion matrix (``numpy.roots``); their last digits
    come from numpy's LAPACK build.  Sorted by (modulus, phase).
    """
    return _row_roots(_int_row(poly))


def _row_roots(row: list[int]) -> list[tuple[complex, int]]:
    """``poly_roots`` of an integer coefficient row.

    Each squarefree factor is made monic as c / lead on its integer row:
    int true division rounds correctly, so these are the floats of the
    factor's exact monic coefficients.
    """
    import numpy  # here, so that importing ppk never loads numpy

    out: list[tuple[complex, int]] = []
    for factor, mult in _squarefree_rows(row):
        lead = factor[-1]
        lead_first = [c / lead for c in reversed(factor)]
        out.extend((complex(r), mult) for r in numpy.roots(lead_first))
    out.sort(key=lambda rm: (abs(rm[0]), cmath.phase(rm[0]), rm[1]))
    return out


def _shift(row: list[int]) -> None:
    """row(x) -> row(x + 1) in place, by Horner steps (Taylor shift)."""
    for i in range(len(row) - 1):
        for j in range(len(row) - 2, i - 1, -1):
            row[j] += row[j + 1]


def _sturm(p: list[int], q: list[int]) -> tuple[int, list[int]]:
    """The Cauchy index of q / p over the real line, and gcd(p, q).

    By Sturm's theorem the index is V(-inf) - V(+inf), the sign variations
    of the signed remainder sequence p, q, -rem(p, q), ... at either end;
    it holds whatever the degrees and common factors (Basu, Pollack and
    Roy, *Algorithms in Real Algebraic Geometry*, Thm. 2.58).  The last
    member of the sequence is the gcd.  p is nonzero.
    """
    seq = [p]
    while q:
        seq.append(q)
        rem = _prem(p, q)
        g = -math.gcd(*rem)
        p, q = q, [c // g for c in rem]
    plus = [f[-1] > 0 for f in seq]
    minus = [(f[-1] > 0) == (len(f) % 2 == 1) for f in seq]
    var = lambda signs: sum(u != v for u, v in zip(signs, signs[1:]))
    return var(minus) - var(plus), seq[-1]


def _real_root_count(f: list[int]) -> int:
    """The real roots of f with multiplicity: each pass of Sturm's theorem
    counts the distinct real roots of f, and a root of multiplicity k is
    one of gcd(f, f') with multiplicity k - 1."""
    total = 0
    while len(f) > 1:
        distinct, f = _sturm(f, [i * c for i, c in enumerate(f)][1:])
        total += distinct
    return total


def disk_root_count(row: Sequence[int], radius: Fraction | int = 1) -> tuple[int, int]:
    """Roots of a nonzero integer row in |x| < radius and on |x| = radius.

    Both counts are exact and with multiplicity.  The row is scaled to the
    unit circle, and the Moebius map x = (1 + s) / (1 - s) sends the disk
    to the half-plane Re s < 0 and its circle to the imaginary axis (and
    x = -1 to s = infinity, which drops the degree m of the image h).  With
    h(i w) = R(w) + i I(w), the roots of h on the axis are the real roots
    of gcd(R, I), and the others satisfy n_left - n_right = Ind(R / I) for
    odd m and -Ind(I / R) for even m (Routh-Hurwitz); pairs mirrored in the
    axis add to both sides alike.  A Sturm sequence gives the index, so no
    root is ever approximated.
    """
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    row = list(row)
    while row and not row[-1]:
        row.pop()
    if not row:
        raise ValueError("the zero row has no finite root count")
    zeros = 0
    while not row[zeros]:
        zeros += 1
    row = row[zeros:]
    n = len(row) - 1
    a, b = radius.numerator, radius.denominator
    if b != 1 or a != 1:
        row = [c * a**k * b ** (n - k) for k, c in enumerate(row)]
    # q(z) = row(2z - 1), then H(t) = rev q(t + 1), so h(s) = H(-s)
    row = [-c if k % 2 else c for k, c in enumerate(row)]
    _shift(row)
    row = [(-c if k % 2 else c) << k for k, c in enumerate(row)]
    row.reverse()
    _shift(row)
    while not row[-1]:
        row.pop()
    m = len(row) - 1
    # (i w)^k is w^k times 1, i, -1, -i, and h_k = (-1)^k H_k
    re = [(c, 0, -c, 0)[k % 4] for k, c in enumerate(row)]
    im = [(0, -c, 0, c)[k % 4] for k, c in enumerate(row)]
    for f in re, im:
        while f and not f[-1]:
            f.pop()
    if m % 2:
        diff, axis = _sturm(im, re)
    else:
        index, axis = _sturm(re, im)
        diff = -index
    on = _real_root_count(axis)
    return zeros + (m - on + diff) // 2, on + n - m


def _radii(tol: float) -> tuple[Fraction, Fraction]:
    """r1 = 1/fl(1 + tol) and r2 = 1/fl(1 - tol), the float sums exact."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    if tol >= 1:
        raise ValueError("tol must be below 1, or no word can classify convergent")
    return 1 / Fraction(1 + tol), 1 / Fraction(1 - tol)


# cheap dyadic radii, in bits, tried before the exact r1 or r2
_DYADIC_BITS = (3, 8, 24)

_CLASSES = ("convergent", "boundary", "divergent")


def _row_class(row: list[int], r1: Fraction, r2: Fraction) -> int:
    """The index in _CLASSES of a row whose least root modulus is m:
    divergent for m < r1, convergent for m > r2, boundary between.

    The unit circle decides which side matters; a dyadic radius below r1
    can only prove divergence, one above r2 only convergence, and r1 or
    r2 itself decides the rest.
    """
    inside, on = disk_root_count(row)
    if not inside and on:
        return 1
    if inside:
        for k in _DYADIC_BITS:
            below = Fraction((r1.numerator << k) // r1.denominator, 1 << k)
            if disk_root_count(row, below)[0]:
                return 2
        return 2 if disk_root_count(row, r1)[0] else 1
    for k in _DYADIC_BITS:
        above = Fraction(-(-(r2.numerator << k) // r2.denominator), 1 << k)
        if disk_root_count(row, above) == (0, 0):
            return 0
    return 0 if disk_root_count(row, r2) == (0, 0) else 1


def _verdict(w: Word, r1: Fraction, r2: Fraction, truncated: dict[int, int]) -> str:
    """The class of an admissible word: the worst of its rows.

    The roots of b D are those of T_{w_L} and T_{w_R}, whose classes are
    kept in ``truncated`` by value; N is classified only when neither
    makes the word divergent.
    """
    if not w.is_admissible:
        raise ValueError(f"classification needs an admissible word: {w}")
    worst = 0
    for u in truncations(w)[:2]:
        cls = truncated.get(u.value)
        if cls is None:
            cls = truncated[u.value] = _row_class(_row_coeffs(w.p, u.value), r1, r2)
        worst = max(worst, cls)
    if worst < 2:
        worst = max(worst, _row_class(_rw_parts(w)[0], r1, r2))
    return _CLASSES[worst]


class RootProfile(NamedTuple):
    """Root data of r_w in lowest terms with the convergence verdict.

    dominant_singularity is a root of least modulus (within a relative
    1e-9, which absorbs float noise): of those the one nearest the real
    axis, reported in the upper half-plane.  So a real root wins a modulus
    tie, and a conjugate pair always gives the same member.
    """

    word: Word
    zeros: tuple[tuple[complex, int], ...]
    poles: tuple[tuple[complex, int], ...]
    max_xi_modulus: float
    radius: float
    dominant_singularity: complex
    classification: str
    r_at_one: Fraction
    coefficient_sum: float | None


def _root_profile(w: Word, verdict: str) -> RootProfile:
    """The root floats of r_w, by ``numpy.roots``, around an exact verdict."""
    num, den = _rw_parts(w)
    zeros = tuple(_row_roots(num))
    poles = tuple(_row_roots(den))
    # N = b D + a c x^m with a, c > 0 has degree >= m >= 1: roots is never empty
    roots = zeros + poles
    radius = min(abs(r) for r, _ in roots)
    nearest = [r for r, _ in roots if abs(r) <= radius * (1 + 1e-9)]
    dominant = min(nearest, key=lambda r: abs(r.imag))
    dominant = complex(dominant.real, abs(dominant.imag))
    r_at_one = Fraction(sum(num), sum(den))
    total = math.log(r_at_one) if verdict == "convergent" else None
    return RootProfile(
        w, zeros, poles, 1.0 / radius, radius, dominant, verdict, r_at_one, total
    )


def classify_word(w: Word, tol: float = 1e-6) -> RootProfile:
    """Convergence verdict for the coefficient series of X_w.

    With r1 = 1/fl(1 + tol) and r2 = 1/fl(1 - tol) as exact fractions, w is
    divergent when some root of N, T_{w_L} or T_{w_R} has |x| < r1,
    boundary when otherwise some root has |x| <= r2, and convergent when
    none does: the float comparisons max |xi| > 1 + tol and >= 1 - tol,
    decided on exact root counts.  tol must lie in (0, 1), since at
    tol >= 1 no word could be convergent.  The root floats come from
    ``numpy.roots`` and decide nothing.  Convergent words get
    coefficient_sum = log r_w(1) attached (valid up to the radius, and at
    1 by continuity).
    """
    r1, r2 = _radii(tol)
    return _root_profile(w, _verdict(w, r1, r2, {}))


def log_rat_coeff_exact(profile: RootProfile, n: int) -> complex:
    """[x^n] log r_w from the root factorization: -(1/n) sum eps_i xi_i^n."""
    if n < 1:
        raise ValueError("coefficient index must be >= 1")
    num, den = _rw_parts(profile.word)
    have = sum(m for _, m in profile.zeros), sum(m for _, m in profile.poles)
    if have != (len(num) - 1, len(den) - 1):
        raise ValueError(
            f"incomplete root profile for {profile.word}: {have} of "
            f"({len(num) - 1}, {len(den) - 1}) roots"
        )
    acc = 0j
    for root, mult in profile.zeros:
        acc += mult * (1 / root) ** n
    for root, mult in profile.poles:
        acc -= mult * (1 / root) ** n
    return -acc / n


class ScanReport(NamedTuple):
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
    verdicts: tuple[tuple[Word, str], ...]

    @property
    def profiles(self) -> tuple[RootProfile, ...]:
        """Each word's root floats, found on demand by ``numpy.roots``."""
        return tuple(_root_profile(w, verdict) for w, verdict in self.verdicts)


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

    Each verdict is ``classify_word``'s exact rule, with the classes of the
    truncation rows shared between words; no root is approximated, and
    numpy is not loaded until ``profiles`` is read.  Words whose series can
    converge (everything not divergent) are partitioned into the three
    known families and an exceptional remainder.  Boundary words stay
    flagged in their own list as well: they enter the partition as
    convergence candidates but are never silently promoted.  The base-2
    scan to length 12 flags four: 100, 10011110, 10011111110 and
    100111111110; all four have roots exactly on the unit circle, and
    exact certificates in the tests.
    """
    r1, r2 = _radii(tol)
    words = enumerate_admissible(p, max_len - 1)
    truncated: dict[int, int] = {}
    verdicts = tuple((w, _verdict(w, r1, r2, truncated)) for w in words)
    families: dict[str, list[Word]] = {
        "ones_zero": [],
        "ones_zero_zero": [],
        "ones_zero_ones_zero": [],
    }
    exceptional: list[Word] = []
    for w, verdict in verdicts:
        if verdict == "divergent":
            continue
        fam = _family_name(w)
        if fam is None:
            exceptional.append(w)
        else:
            families[fam].append(w)
    return ScanReport(
        p,
        max_len,
        tol,
        len(words),
        tuple(w for w, verdict in verdicts if verdict == "convergent"),
        {k: tuple(v) for k, v in families.items()},
        tuple(exceptional),
        tuple(w for w, verdict in verdicts if verdict == "boundary"),
        sum(verdict == "divergent" for _, verdict in verdicts),
        verdicts,
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


class FamilyRootReport(NamedTuple):
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
        matches = form == RationalFunctionQ(Tbar(2, w))
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


class CoefficientSumReport(NamedTuple):
    monomial: Monomial
    r_at_one: dict[Word, Fraction]
    value: float
    error_bound: float


def coefficient_sum(mono: Monomial, tol: float = 1e-6) -> CoefficientSumReport:
    """Limit of the coefficient partial sums of a monomial, in closed form.

    Every factor word must classify strictly convergent by the exact rule
    of ``classify_word``; the column of the monomial then sums to
    prod (log r_w(1))^k / k! with r_w(1) exact rational.  Otherwise
    refuses, carrying the profiles of the offending words; only they load
    numpy.
    """
    r1, r2 = _radii(tol)
    bad: list[RootProfile] = []
    values: dict[Word, Fraction] = {}
    truncated: dict[int, int] = {}
    for w, _ in mono.factors:
        verdict = _verdict(w, r1, r2, truncated)
        if verdict != "convergent":
            bad.append(_root_profile(w, verdict))
        else:
            num, den = _rw_parts(w)
            values[w] = Fraction(sum(num), sum(den))
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
