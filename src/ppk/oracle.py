"""Independent brute-force ground truth.

No oracle touches the row-polynomial recurrence: valuations of binomial
coefficients come from carry counting, digit sums, and factorial valuations,
three classical routes computed separately so they can vouch for each other.
Row histograms and column densities built on top give the reference data the
recurrence and the synthesized polynomials are checked against.

Scans are exhaustive over stated ranges; numpy carries the bulk loops of the
``verify`` scans, and range partitioning across processes is available where
a scan is wide.  Column counts come from a carry-counting digit automaton,
exact for every m_max and with no numpy.  numpy and the process pool are
imported only by the functions that use them, so importing this module or
running ``columns`` never loads numpy, and serial runs never load
``concurrent.futures`` or ``multiprocessing``.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from typing import TYPE_CHECKING

from .synth import _level_index, _peel, _peeled, block_polynomials_up_to
from .theta import _row_coeffs, theta0
from .words import digit_sum

if TYPE_CHECKING:
    import numpy as np

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
    import numpy as np  # here, so that importing ppk.oracle never loads numpy

    s = _digit_sum_table(n + 1, p)
    sn = int(s[n])
    vals = (s[: n + 1] + s[n::-1] - sn) // (p - 1)
    return np.bincount(vals).tolist()


_DS_CACHE: dict[int, np.ndarray] = {}


def _digit_sum_table(limit: int, p: int) -> np.ndarray:
    """s_p(m) for m < limit; the largest table per base is kept and sliced.

    Filled in place block by block: with s[:block] done for block = p^k,
    s_p(d p^k + m) = d + s_p(m) for 0 < d < p and m < p^k fills the next
    p - 1 blocks, so the table costs one pass over its length.
    """
    import numpy as np

    have = _DS_CACHE.get(p)
    if have is None or len(have) < limit:
        s = np.zeros(limit, dtype=np.int64)
        block = 1
        while block < limit:
            for d in range(1, p):
                # empty past the limit; the slice clips the last block
                part = s[d * block : (d + 1) * block]
                np.add(s[: len(part)], d, out=part)
            block *= p
        _DS_CACHE[p] = s
        have = s
    return have[:limit]


def _valuation_sieve(limit: int, p: int) -> np.ndarray:
    import numpy as np

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
    import numpy as np

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


def _spread(fn, jobs: int, *iterables) -> list:
    """``list(map(fn, *iterables))``, on up to ``jobs`` forked workers.

    The pool starts all of its workers at once, so no more start than there
    are calls or CPUs this process may use; at one worker or fewer nothing
    is forked.  Workers inherit what the parent built before the call.
    """
    calls = list(zip(*iterables))
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    jobs = min(jobs, len(calls), cpus)
    if jobs <= 1:
        return [fn(*args) for args in calls]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *zip(*calls)))


def triple_agreement_scan(
    p: int, n_max: int, jobs: int = 1
) -> tuple[bool, tuple[int, int] | None]:
    """Exhaustively compare the three valuation routes for all t <= n < n_max.

    Returns (True, None) on agreement, else (False, first bad (n, t)).
    """
    # at least one chunk, so that n_max = 0 scans the empty range
    jobs = max(1, min(jobs, n_max))
    bounds = [(n_max * i) // jobs for i in range(jobs + 1)]
    for bad in _spread(_triple_chunk, jobs, repeat(p), bounds[:-1], bounds[1:]):
        if bad is not None:
            return False, bad
    return True, None


@dataclass(frozen=True)
class ColumnDensityEstimate:
    """Density of rows m < m_max with nu_2(C(m+t, m)) = j, counted exactly."""

    t: int
    j: int
    m_max: int
    count: int
    estimate: Fraction


def _carry_counts(t: int, j_max: int, m_max: int) -> list[int]:
    """For j = 0..j_max, the number of m < m_max whose sum m + t has exactly
    j carries in base 2, that is nu_2(C(m+t, m)) = j by Kummer's theorem.

    A digit automaton reads the bits of m, t and m_max from the lowest up.
    After bits 0..i-1 its state is (c, lt): c the carry out of bit i-1, lt
    whether m mod 2^i < m_max mod 2^i.  Bit i of m, a, moves it to

        c' = (a + t_i + c) // 2,  lt' = a < b_i or (a == b_i and lt),

    with b_i bit i of m_max: the carry into bit i + 1 depends only on bit i
    and the carry into it, and of two numbers the higher differing bit
    decides the order.  Each state holds, by total carries j, how many
    prefixes of m lead to it; a step with c' = 1 moves every count from j to
    j + 1.  Carries never decrease, so totals above j_max are dropped.  Since
    m < m_max, bits of m at and above bitlen(m_max) are 0; the automaton
    reads them until t's bits end too, and the carry out of the last bit
    read is the last carry.  The answer is the counts of the states with lt.
    So the counts are exact for every m_max, in O(bitlen(m_max) + bitlen(t))
    steps, and read nothing but t and m_max: no P_j, recurrence or r_w.

    A state's counts are the polynomial sum_j count_j z^j mod z^(j_max+1),
    held at z = 2^w (Kronecker substitution), so moving a carry is a shift.
    Lanes never overflow: at every step at most 2^bitlen(m_max) < 2^w
    prefixes are counted in all, as m's bits past bitlen(m_max) are 0.
    """
    top = m_max.bit_length()
    w = top + 1
    keep = (1 << w * (j_max + 1)) - 1
    states = {(0, False): 1}
    for i in range(max(top, t.bit_length())):
        b, ti = m_max >> i & 1, t >> i & 1
        nxt: dict[tuple[int, bool], int] = {}
        for (c, lt), x in states.items():
            for a in (0, 1) if i < top else (0,):
                c1 = (a + ti + c) >> 1
                key = c1, a < b or (a == b and lt)
                nxt[key] = nxt.get(key, 0) + ((x << w) & keep if c1 else x)
        states = nxt
    below = sum(x for (_, lt), x in states.items() if lt)
    return [below >> w * j & ((1 << w) - 1) for j in range(j_max + 1)]


def column_density_estimate(t: int, j: int, m_max: int) -> ColumnDensityEstimate:
    count = _carry_counts(t, j, m_max)[j]
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

    The prediction for level j is P_j at the complemented factor counts of
    t, X_w = |t|_{complement(w)}, times 2^{-s_2(t)}, against the density
    over m < m_max, counted exactly by ``_carry_counts``; the verdict is a
    float deviation within tol.  These X_w are the counts of
    t' = (2^(b + j_max) - 1) XOR t, b = bitlen(t), for every admissible w
    of length <= j_max + 1: below offset b a window of t' that long is the
    complement of t's window padded with zeros, since t' has ones at bits
    b .. b + j_max - 1, and from offset b up a window is all ones or leads
    with 0: not admissible.
    """
    counts = _carry_counts(t, j_max, m_max)
    shift = digit_sum(t, 2)
    complemented = ((1 << (t.bit_length() + j_max)) - 1) ^ t
    index = _level_index(2, j_max)
    rows = []
    for j, (a, d) in enumerate(zip(index.evaluate(complemented), index.dens)):
        # int true division is correctly rounded, as float(Fraction) is
        pred = a / (d << shift)
        est = counts[j] / m_max
        rows.append(ColumnCheckRow(j, counts[j], est, pred, abs(est - pred)))
    worst = max(r.deviation for r in rows)
    return ColumnCheckReport(t, j_max, m_max, tol, tuple(rows), worst, worst <= tol)


def column_scan(
    t_max: int, j_max: int, m_max: int, tol: float = 5e-3, jobs: int = 1
) -> tuple[ColumnCheckReport, ...]:
    """column_check for every t <= t_max."""
    ts = range(t_max + 1)
    # the log r_w table behind P_0..P_jmax, built here for forked workers to
    # inherit
    _level_index(2, j_max)
    return tuple(
        _spread(column_check, jobs, ts, repeat(j_max), repeat(m_max), repeat(tol))
    )


@dataclass(frozen=True)
class VerifyReport:
    """Cross-validation of recurrence, synthesis, and brute force for one p.

    ``poly_ok``: the generating function gives every brute row histogram
    below n_max, and the stored rows of P_0..P_J are its rebuilt ones.
    """

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
    The last compares the generating function with each histogram on
    integers, and the stored rows that ``poly`` prints with their rebuild
    (``_peel``), so that monomials whose words occur in no row below n_max
    count too.
    """
    # one digit-sum table for the widest row, before forked workers start;
    # the log r_w table and the build of P_0..P_J are made after them, here
    _digit_sum_table(n_max, p)
    triple_ok, triple_bad = triple_agreement_scan(p, n_max, jobs)

    # the identity is checked against the brute rows, which come from digit
    # sums alone, so it runs also when the recurrence's rows disagree
    brute = [row_counts_bruteforce(p, n) for n in range(n_max)]
    rows_bad = next(
        (n for n, counts in enumerate(brute) if _row_coeffs(p, n) != counts), None
    )

    poly_bad = None
    j_top = max((len(c) - 1 for c in brute), default=0)
    index = _level_index(p, j_top)
    for n, row in enumerate(brute):
        t0 = theta0(p, n)
        for j, (a, d) in enumerate(zip(index.evaluate(n), index.dens)):
            if a * t0 != (row[j] if j < len(row) else 0) * d:
                poly_bad = (n, j)
                break
        if poly_bad:
            break
    polys = block_polynomials_up_to(p, j_top)
    if poly_bad is None:
        # one rebuild, for the peel and, when it fails, for the search
        rebuilt = _peeled(p, j_top)
        if bad := _peel(polys, rebuilt):
            poly_bad = _first_difference(polys, bad, rebuilt)

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


def _first_difference(polys, bad, rebuilt) -> tuple[int, int]:
    """The least row n, then level j, where the stored levels leave their
    rebuild ``rebuilt`` (``_peeled``'s rows, as ``_peel`` compared them):
    stored minus rebuilt rows on the keys ``bad``, each key's ids sorted and
    merged, evaluated on ``_LevelIndex.counts(n)``.  By the uniqueness of P_j
    a nonzero difference shows at some row; a zero one (rows ordered or
    spelled otherwise) shows at none: ArithmeticError."""
    p, jmax, keys = polys[0].p, len(polys) - 1, set(bad)
    stored = [poly._rows for poly in polys]
    sums = [Counter() for _ in polys]
    for sign, levels in ((1, stored), (-1, rebuilt)):
        for terms, rows in zip(sums, levels):
            for key, c, d in (row for row in rows if row[0] in keys):
                mono = {i: sum(k for h, k in key if h == i) for i, _ in key}
                terms[tuple(sorted(mono.items()))] += sign * Fraction(c, d)
    diff = [[(m, q) for m, q in terms.items() if q] for terms in sums]
    if not any(diff):
        j = next(j for j, (xs, ys) in enumerate(zip(stored, rebuilt)) if xs != ys)
        raise ArithmeticError(f"P_{j} leaves its rebuild only in order or spelling")
    index = _level_index(p, jmax)
    for n in count():
        x = dict(index.counts(n))
        for j, terms in enumerate(diff):
            if sum(q * math.prod(x.get(i, 0) ** k for i, k in m) for m, q in terms):
                return n, j
