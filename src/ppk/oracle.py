"""Independent brute-force ground truth.

Nothing here touches the row-polynomial recurrence: valuations of binomial
coefficients come from carry counting, digit sums, and factorial valuations,
three classical routes computed separately so they can vouch for each other.
Row histograms and column densities built on top give the reference data the
synthesized polynomials are checked against.

Scans are exhaustive over stated ranges; numpy carries the bulk loops, and
range partitioning across processes is available where a scan is wide.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

import numpy as np

from .synth import block_polynomial
from .words import Word, complement, digit_sum, factor_count

__all__ = [
    "ValuationTriple",
    "ColumnDensityEstimate",
    "ColumnCheckRow",
    "ColumnCheckReport",
    "VerifyReport",
    "valuation",
    "valuation_by_factorization",
    "row_counts_bruteforce",
    "triple_agreement_scan",
    "column_density_estimate",
    "column_check",
    "column_scan",
    "equivalence_report",
]


@dataclass(frozen=True)
class ValuationTriple:
    """One p-adic valuation of a binomial coefficient, three ways."""

    by_borrows: int
    by_digit_sums: int
    by_factorials: int

    @property
    def agreed(self) -> bool:
        return self.by_borrows == self.by_digit_sums == self.by_factorials

    def value(self) -> int:
        if not self.agreed:
            raise ArithmeticError(f"valuation routes disagree: {self}")
        return self.by_borrows


def _nu_factorial(n: int, p: int) -> int:
    # Legendre: nu_p(n!) = sum floor(n / p^i)
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def valuation(n: int, t: int, p: int) -> ValuationTriple:
    """nu_p of C(n, t) by borrow counting, digit sums, and factorials.

    Borrows: the number of k >= 1 with n mod p^k < t mod p^k (the borrows in
    the base-p subtraction n - t).  Digit sums: (s_p(t) + s_p(n-t) - s_p(n))
    divided by p - 1.  Factorials: nu_p(n!) - nu_p(t!) - nu_p((n-t)!).
    """
    if t < 0 or t > n:
        raise ValueError(f"need 0 <= t <= n, got t={t}, n={n}")
    borrows = 0
    q = p
    while q <= n:
        if n % q < t % q:
            borrows += 1
        q *= p
    digits = (digit_sum(t, p) + digit_sum(n - t, p) - digit_sum(n, p)) // (p - 1)
    factorials = _nu_factorial(n, p) - _nu_factorial(t, p) - _nu_factorial(n - t, p)
    return ValuationTriple(borrows, digits, factorials)


def valuation_by_factorization(n: int, t: int, p: int) -> int:
    """Spot-check route that really computes C(n, t) and strips factors p."""
    if t < 0 or t > n:
        raise ValueError(f"need 0 <= t <= n, got t={t}, n={n}")
    c = math.comb(n, t)
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def row_counts_bruteforce(p: int, n: int) -> list[int]:
    """Histogram of nu_p(C(n, t)) over t = 0..n, via digit sums only."""
    s = _digit_sum_table(n + 1, p)
    sn = int(s[n])
    vals = (s[: n + 1] + s[n::-1] - sn) // (p - 1)
    top = int(vals.max())
    counts = [0] * (top + 1)
    for v in vals.tolist():
        counts[v] += 1
    return counts


_DS_CACHE: dict[int, np.ndarray] = {}


def _digit_sum_table(limit: int, p: int) -> np.ndarray:
    """s_p(m) for m < limit; the largest table per base is kept and sliced."""
    have = _DS_CACHE.get(p)
    if have is None or len(have) < limit:
        x = np.arange(limit, dtype=np.int64)
        s = np.zeros(limit, dtype=np.int64)
        while x.max(initial=0) > 0:
            s += x % p
            x //= p
        _DS_CACHE[p] = s
        have = s
    return have[:limit]


def _valuation_sieve(limit: int, p: int) -> np.ndarray:
    v = np.zeros(limit, dtype=np.int64)
    q = p
    while q < limit:
        v[::q] += 1
        q *= p
    if limit:
        v[0] = 0
    return v


def _triple_chunk(p: int, n_lo: int, n_hi: int) -> tuple[int, int] | None:
    """First (n, t) in the half-open row range where the routes disagree."""
    s = _digit_sum_table(n_hi, p)
    # nu_p(n!) as a prefix sum of the valuation sieve
    nu_fact = np.cumsum(_valuation_sieve(n_hi, p))
    kmax = max(1, math.ceil(math.log(max(n_hi, 2), p)))
    mods = [np.arange(n_hi, dtype=np.int64) % p**k for k in range(1, kmax + 1)]
    for n in range(n_lo, n_hi):
        borrows = np.zeros(n + 1, dtype=np.int64)
        for m in mods:
            borrows += m[: n + 1] > m[n]
        digits = (s[: n + 1] + s[n::-1] - int(s[n])) // (p - 1)
        facts = int(nu_fact[n]) - nu_fact[: n + 1] - nu_fact[n::-1]
        bad = np.nonzero((borrows != digits) | (digits != facts))[0]
        if bad.size:
            return n, int(bad[0])
    return None


def triple_agreement_scan(
    p: int, n_max: int, jobs: int = 1
) -> tuple[bool, tuple[int, int] | None]:
    """Exhaustively compare the three valuation routes for all t <= n < n_max.

    Returns (True, None) on agreement, else (False, first bad (n, t)).
    """
    if jobs <= 1:
        bad = _triple_chunk(p, 0, n_max)
        return bad is None, bad
    bounds = [(n_max * i) // jobs for i in range(jobs + 1)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(
            pool.map(_triple_chunk, [p] * jobs, bounds[:-1], bounds[1:])
        )
    for bad in results:
        if bad is not None:
            return False, bad
    return True, None


@dataclass(frozen=True)
class ColumnDensityEstimate:
    """Sampled density of rows m < m_max with nu_2(C(m+t, m)) = j."""

    t: int
    j: int
    m_max: int
    count: int
    estimate: Fraction


def _column_histogram(t: int, m_max: int) -> np.ndarray:
    if t == 0:
        return np.bincount(np.zeros(m_max, dtype=np.int64))
    s = _digit_sum_table(m_max + t, 2)
    nu = s[:m_max] + digit_sum(t, 2) - s[t : t + m_max]
    return np.bincount(nu)


def column_density_estimate(t: int, j: int, m_max: int) -> ColumnDensityEstimate:
    hist = _column_histogram(t, m_max)
    count = int(hist[j]) if j < len(hist) else 0
    return ColumnDensityEstimate(t, j, m_max, count, Fraction(count, m_max))


@dataclass(frozen=True)
class ColumnCheckRow:
    j: int
    count: int
    estimate: float
    prediction: float
    deviation: float


@dataclass(frozen=True)
class ColumnCheckReport:
    t: int
    j_max: int
    m_max: int
    tol: float
    rows: tuple[ColumnCheckRow, ...]
    max_deviation: float
    ok: bool


def column_check(
    t: int, j_max: int, m_max: int, tol: float = 5e-3
) -> ColumnCheckReport:
    """Column densities of column t against the level-polynomial prediction.

    The prediction for level j is the level polynomial evaluated at the
    complemented factor counts of t, scaled by 2^{-s_2(t)}; the comparison is
    against the sampled density over m < m_max.
    """
    hist = _column_histogram(t, m_max)
    base = Fraction(1, 2 ** digit_sum(t, 2))
    rows = []
    for j in range(j_max + 1):
        poly = block_polynomial(2, j)
        counts = {w: factor_count(t, complement(w)) for w in poly.words()}
        pred = float(poly.evaluate_counts(counts) * base)
        count = int(hist[j]) if j < len(hist) else 0
        est = count / m_max
        rows.append(ColumnCheckRow(j, count, est, pred, abs(est - pred)))
    worst = max(r.deviation for r in rows)
    return ColumnCheckReport(t, j_max, m_max, tol, tuple(rows), worst, worst <= tol)


def column_scan(
    t_max: int, j_max: int, m_max: int, tol: float = 5e-3, jobs: int = 1
) -> tuple[ColumnCheckReport, ...]:
    """column_check for every t <= t_max."""
    ts = range(t_max + 1)
    # one digit-sum table for the widest column, sliced by every t
    _digit_sum_table(m_max + t_max, 2)
    if jobs <= 1:
        return tuple(column_check(t, j_max, m_max, tol) for t in ts)
    # prime the polynomial cache in the parent; forked workers inherit both
    block_polynomial(2, j_max)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        checks = pool.map(
            column_check, ts, repeat(j_max), repeat(m_max), repeat(tol)
        )
        return tuple(checks)


@dataclass(frozen=True)
class VerifyReport:
    """Cross-validation of recurrence, synthesis, and brute force for one p."""

    p: int
    n_max: int
    triple_ok: bool
    triple_counterexample: tuple[int, int] | None
    rows_ok: bool
    rows_counterexample: int | None
    poly_ok: bool
    poly_counterexample: tuple[int, int] | None

    @property
    def ok(self) -> bool:
        return self.triple_ok and self.rows_ok and self.poly_ok


def equivalence_report(p: int, n_max: int, jobs: int = 1) -> VerifyReport:
    """Root-of-trust check for all n < n_max.

    Three layers: the valuation routes agree pairwise, the brute-force row
    histogram equals the row polynomial coefficients, and the synthesized
    level polynomials reproduce the histogram through theta_0 scaling.
    """
    from .theta import T_poly, theta0
    from .synth import block_polynomials_up_to
    from .words import counting_factor_counts, expand

    # one digit-sum table for the widest row, before forked workers start
    _digit_sum_table(n_max, p)
    triple_ok, triple_bad = triple_agreement_scan(p, n_max, jobs)

    rows_bad = None
    brute = []
    for n in range(n_max):
        counts = row_counts_bruteforce(p, n)
        brute.append(counts)
        if [int(c) for c in T_poly(p, n).coeffs] != counts:
            rows_bad = n
            break

    poly_bad = None
    if rows_bad is None:
        j_top = max(len(c) - 1 for c in brute)
        polys = block_polynomials_up_to(p, j_top)
        for n in range(n_max):
            t0 = theta0(p, n)
            counts = counting_factor_counts(expand(n, p))
            for j in range(j_top + 1):
                want = brute[n][j] if j < len(brute[n]) else 0
                if polys[j].evaluate_counts(counts) * t0 != want:
                    poly_bad = (n, j)
                    break
            if poly_bad:
                break

    return VerifyReport(
        p,
        n_max,
        triple_ok,
        triple_bad,
        rows_bad is None,
        rows_bad,
        poly_bad is None,
        poly_bad,
    )
