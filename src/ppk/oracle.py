"""Independent brute-force ground truth.

No oracle touches the row-polynomial recurrence: valuations of binomial
coefficients come from carry counting, digit sums, and factorial valuations,
three classical routes computed separately so they can vouch for each other.
Row histograms and column densities built on top give the reference data the
recurrence and the synthesized polynomials are checked against.  The level
polynomials are read only through their generating function; the check of
their stored rows against a rebuild lives in ``ppk.synth``, beside the build.

Scans are exhaustive over stated ranges, and range partitioning across
processes is available where a scan is wide.  The ``verify`` scans hold each
row's vectors over t as lanes of one Python int, and column counts come from
a carry-counting digit automaton, exact for every m_max; neither uses numpy,
which this module never imports.  A scan spread over processes forks its
workers with ``os.fork`` and scans the first share itself; results come back
pickled through one pipe per worker, so no scan loads ``concurrent.futures``
or ``multiprocessing``, and ``pickle`` is imported only when a worker starts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import accumulate, repeat

from .synth import _first_difference, _level_index
from .theta import _row_coeffs, theta0
from .words import digit_sum

__all__ = [
    "ValuationTriple",
    "ColumnCheckRow",
    "ColumnCheckReport",
    "VerifyReport",
    "valuation",
    "valuation_by_factorization",
    "row_counts_bruteforce",
    "triple_agreement_scan",
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
    return _triple_chunk(p, n, n + 1)[1][0]


def _digit_sum_table(limit: int, p: int) -> list[int]:
    """s_p(m) for m < limit.

    Grown block by block: with s the table for m < p^k, s_p(d p^k + m) =
    d + s_p(m) for 0 <= d < p gives the table for m < p^(k+1).  The last
    block may pass the limit up to p-fold, so a table costs fewer than
    2 p limit additions before it is cut to length.
    """
    s = [0]
    while len(s) < limit:
        s = [x + d for d in range(p) for x in s]
    return s[:limit]


def _valuation_sieve(limit: int, p: int) -> list[int]:
    """nu_p(m) for m < limit, with 0 at m = 0."""
    v = [0] * limit
    q = p
    while q < limit:
        v[q::q] = [x + 1 for x in v[q::q]]
        q *= p
    return v


def _pack(values, w: int) -> int:
    """sum_t values[t] 2^(w t); an entry outside 0..2^w - 1 raises
    OverflowError."""
    size = w // 8
    return int.from_bytes(
        b"".join(v.to_bytes(size, "little") for v in values), "little"
    )


def _borrow_lanes(p: int, n: int, w: int, periods: dict[int, int]) -> int:
    """Lane t holds the borrows of n - t in base p, #{q = p^k <= n :
    t mod q > n mod q}, for every t <= n; lanes past n hold junk.

    ``periods[q]`` has a 1 in each of lanes 0..q - 1.  Level by level: the
    levels below q repeat with period q in t, so p copies of the q-lane
    block, on disjoint lanes (OR adds them), give the levels below p q on
    p q lanes; level p q then adds 1 on lanes n mod p q + 1 .. p q - 1.
    """
    b, q = 0, 1
    while q <= n:
        block = b
        for i in range(1, p):
            b |= block << w * q * i
        q *= p
        if q <= n:
            cut = w * (n % q + 1)
            b += periods[q] >> cut << cut
    return b


def _triple_chunk(
    p: int, n_lo: int, n_hi: int
) -> tuple[tuple[int, int] | None, list[list[int]]]:
    """The first (n, t) in the half-open row range where the three routes
    disagree, or None, and the brute histogram of each row n_lo..n_hi - 1.

    A row's vectors over t = 0..n are held as one int, sum_t v_t 2^(w t)
    (Kronecker substitution): digits s(t) + s(n - t) - s(n) with s the
    digit-sum table, facts nu(n!) - nu(t!) - nu((n - t)!) with nu(m!) the
    prefix sums of the valuation sieve, and the borrows of
    ``_borrow_lanes``.  The tables are packed once, forwards and reversed,
    so a row's s(t) is the forward int masked to n + 1 lanes and its
    s(n - t) is the reversed int shifted down by top - n lanes.  Packing is
    additive over Z, so the routes agree on a row exactly when the packed
    ints (p - 1) borrows, digits and borrows, facts are equal, provided that
    packing is injective on the vectors compared.  It is, on vectors whose
    lanes all lie in (-2^(w-1), 2^(w-1)): two of them differ by less than
    2^w in each lane, and the lowest nonzero lane of a difference leaves its
    packing nonzero mod 2^(w (t + 1)).  Let A bound the top row and every
    table entry; ``_pack`` raises on a negative one.  Then (p - 1) borrows
    lies in [0, n) (p^k >= 1 + k (p - 1), Bernoulli), digits in [-A, 2A]
    and facts in [-2A, A], so every lane of all four lies in [-2A, 2A], and
    w, a multiple of 8 and at least 16, is chosen with 2A < 2^(w-1).  On
    correct tables A is the top row (nu(m!) < m and s(m) <= m), so w = 16
    up to n_hi = 2^14.  A row whose packed ints differ names t from their
    differences: their lanes lie in (-2^w, 2^w), so a difference whose
    lowest nonzero lane is t is that lane times 2^(w t), nonzero, mod
    2^(w (t + 1)), and its lowest set bit lies in lane t.  The least such t
    of the two differences is the first entry where the routes disagree.

    The histogram reads the low byte of each lane of digits, (p - 1) nu,
    and counts each multiple of p - 1; a lane left uncounted raises
    ArithmeticError.  The packed int is checked first to
    have every lane's high bytes 0, else ArithmeticError: it is then >= 0
    (a negative one has the top bit of lane n set, its lanes lying in
    (-2^(w-1), 2^(w-1))), its base-2^w digits lie in 0..255, and since
    they and the lanes both lie in (-2^(w-1), 2^(w-1)) they are the lanes.
    Digits are symmetric in t and n - t by their formula, so the lanes
    t < (n + 1) / 2 are counted twice and a middle lane once.  Rows are
    counted also after the routes disagree, so the row check runs on every
    row.
    """
    if n_lo >= n_hi:
        return None, []
    s = _digit_sum_table(n_hi, p)
    nu = list(accumulate(_valuation_sieve(n_hi, p)))
    top = n_hi - 1
    big = 2 * max(top, max(s), max(nu))
    w = 8 * max(2, (big.bit_length() + 8) // 8)
    size = w // 8
    ones = _pack(repeat(1, n_hi), w)
    high = ((1 << w) - 256) * ones
    periods = {}
    q = p
    while q <= top:
        periods[q] = ones & (1 << w * q) - 1
        q *= p
    digit_sums, digit_sums_rev = _pack(s, w), _pack(reversed(s), w)
    facts_of, facts_rev = _pack(nu, w), _pack(reversed(nu), w)
    bad, rows = None, []
    for n in range(n_lo, n_hi):
        lanes = n + 1
        mask = (1 << w * lanes) - 1
        down = w * (top - n)
        one = ones >> down
        digits = (digit_sums & mask) + (digit_sums_rev >> down) - s[n] * one
        if bad is None:
            facts = nu[n] * one - (facts_of & mask) - (facts_rev >> down)
            borrows = _borrow_lanes(p, n, w, periods) & mask
            if borrows * (p - 1) != digits or borrows != facts:
                diffs = borrows * (p - 1) - digits, borrows - facts
                bad = n, min(((d & -d).bit_length() - 1) // w for d in diffs if d)
        if digits & high:
            raise ArithmeticError(f"row {n}: a digit-sum lane leaves 0..255")
        half = lanes // 2
        # the low bytes of lanes 0..n - half
        low = digits.to_bytes(size * lanes, "little")[: size * (lanes - half) : size]
        head, middle = low[:half], low[half:]
        row, left = [], lanes
        for v in range(0, 256, p - 1):
            if not left:
                break
            row.append(2 * head.count(v) + middle.count(v))
            left -= row[-1]
        if left:
            raise ArithmeticError(f"row {n}: a digit-sum lane is no multiple of p - 1")
        rows.append(row)
    return bad, rows


def _runs(calls: list, jobs: int) -> list[list]:
    """``calls`` cut into up to ``jobs`` runs of consecutive calls, one run
    per process: no more runs than there are calls or CPUs this process may
    use."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    size = max(1, -(-len(calls) // max(1, min(jobs, cpus))))
    return [calls[i : i + size] for i in range(0, len(calls), size)]


def _fork_run(fn, calls: list):
    """Fork a child that makes ``calls`` and sends back ``(True, results)``,
    or ``(False, exception)``, pickled through a pipe of its own; the
    child's pid and the pipe's read end, as a file.  The child leaves by
    ``os._exit``, so it never returns into the caller or flushes buffers it
    shares with the parent."""
    import pickle

    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    status = 1
    try:
        os.close(r)
        try:
            data = pickle.dumps((True, [fn(*args) for args in calls]), -1)
        except BaseException as exc:
            try:
                data = pickle.dumps((False, exc), -1)
                pickle.loads(data)
            except Exception:
                data = pickle.dumps((False, RuntimeError(repr(exc))), -1)
        with open(w, "wb") as out:
            out.write(data)
        status = 0
    finally:
        os._exit(status)


def _spread(fn, jobs: int, *iterables) -> list:
    """``list(map(fn, *iterables))``, on up to ``jobs`` processes.

    The calls are cut into runs by ``_runs``.  The parent makes the first
    run itself; each other run goes to a child forked by ``_fork_run``, so
    every worker inherits what the parent built before the call.  An
    exception in a child is raised again here, and a child that sends no
    result raises RuntimeError naming its run.  If anything raises, every
    pipe is closed and every child still running is killed and reaped
    first, so none is left behind.  Where ``os`` has no ``fork``, the calls
    run here, one after another.
    """
    calls = list(zip(*iterables))
    runs = _runs(calls, jobs)
    if len(runs) <= 1 or not hasattr(os, "fork"):
        return [fn(*args) for args in calls]
    import pickle

    live = {}  # pid -> pipe, in run order, until the child is reaped
    try:
        for run in runs[1:]:
            pid, pipe = _fork_run(fn, run)
            live[pid] = pipe
        results = [fn(*args) for args in runs[0]]
        for i, (pid, pipe) in enumerate(list(live.items()), 2):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del live[pid]
            try:
                ok, value = pickle.loads(data)
            except Exception:
                raise RuntimeError(
                    f"worker for run {i} of {len(runs)} sent no result "
                    f"(exit code {os.waitstatus_to_exitcode(status)})"
                ) from None
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        if live:
            import signal

            for pid, pipe in live.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _triple_scan(
    p: int, n_max: int, jobs: int
) -> tuple[tuple[int, int] | None, list[list[int]]]:
    """``_triple_chunk`` over rows 0..n_max - 1, in up to ``jobs`` chunks:
    the first disagreement, or None, and every row's brute histogram."""
    # at least one chunk, so that n_max = 0 scans the empty range; a row
    # costs about n, so chunk i ends near n_max sqrt(i / jobs)
    jobs = max(1, min(jobs, n_max))
    bounds = [math.isqrt(n_max * n_max * i // jobs) for i in range(jobs + 1)]
    chunks = _spread(_triple_chunk, jobs, repeat(p), bounds[:-1], bounds[1:])
    bad = next((bad for bad, _ in chunks if bad is not None), None)
    return bad, [row for _, rows in chunks for row in rows]


def triple_agreement_scan(
    p: int, n_max: int, jobs: int = 1
) -> tuple[bool, tuple[int, int] | None]:
    """Exhaustively compare the three valuation routes for all t <= n < n_max.

    Returns (True, None) on agreement, else (False, first bad (n, t)).
    """
    bad, _ = _triple_scan(p, n_max, jobs)
    return bad is None, bad


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
    return ColumnCheckReport(t, tuple(rows), worst, worst <= tol)


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
    below n_max, and ``synth._first_difference`` finds the stored rows of
    P_0..P_J equal to their rebuild.
    """

    p: int
    n_max: int
    triple_counterexample: tuple[int, int] | None
    rows_counterexample: int | None
    poly_counterexample: tuple[int, int] | None

    @property
    def triple_ok(self) -> bool:
        return self.triple_counterexample is None

    @property
    def rows_ok(self) -> bool:
        return self.rows_counterexample is None

    @property
    def poly_ok(self) -> bool:
        return self.poly_counterexample is None

    @property
    def ok(self) -> bool:
        return self.triple_ok and self.rows_ok and self.poly_ok


def equivalence_report(p: int, n_max: int, jobs: int = 1) -> VerifyReport:
    """Root-of-trust check for all n < n_max.

    Three layers: the valuation routes agree pairwise, the brute-force row
    histogram equals the row polynomial coefficients, and the synthesized
    level polynomials reproduce the histogram through theta_0 scaling.
    The last compares the generating function with each histogram on
    integers; this module reads P_j through nothing else.  Then
    ``synth._first_difference`` compares the stored rows that ``poly``
    prints with their rebuild, so that monomials whose words occur in no
    row below n_max count too, and names its own counterexample.
    """
    # this process and its forked workers scan the routes and count the brute
    # rows; the log r_w table and the build of P_0..P_J are made after them
    triple_bad, brute = _triple_scan(p, n_max, jobs)
    # the identity is checked against the brute rows, which come from digit
    # sums alone, so it runs also when the recurrence's rows disagree
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
    if poly_bad is None:
        poly_bad = _first_difference(p, j_top)

    return VerifyReport(p, n_max, triple_bad, rows_bad, poly_bad)
