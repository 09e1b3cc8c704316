"""Brute-force cross checks: valuation routes, row histograms, columns."""

import array
import math
import os
import pickle
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ppk import oracle, synth, words
from ppk.cli import main
from ppk.oracle import (
    ColumnCheckReport,
    ColumnCheckRow,
    ValuationTriple,
    column_check,
    column_scan,
    equivalence_report,
    row_counts_bruteforce,
    triple_agreement_scan,
    valuation,
    valuation_by_factorization,
)
from ppk.synth import BlockPolynomial, _level_index, block_polynomials_up_to
from ppk.theta import T_poly
from ppk.words import (
    Word,
    complement,
    counting_factor_counts,
    digit_sum,
    enumerate_admissible,
    expand,
    factor_count,
)


def carries_when_adding(a: int, b: int, p: int) -> int:
    # textbook Kummer route, digit by digit
    carries = 0
    carry = 0
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


class TestValuation:
    def test_routes_agree_with_direct_factorization(self):
        rng = random.Random(41)
        for p in (2, 3, 5, 7):
            for _ in range(60):
                n = rng.randrange(0, 3000)
                t = rng.randrange(0, n + 1) if n else 0
                triple = valuation(n, t, p)
                assert triple.agreed
                assert triple.value() == valuation_by_factorization(n, t, p)

    def test_matches_carry_count(self):
        rng = random.Random(42)
        for p in (2, 3):
            for _ in range(80):
                n = rng.randrange(0, 5000)
                t = rng.randrange(0, n + 1) if n else 0
                assert valuation(n, t, p).value() == carries_when_adding(t, n - t, p)

    def test_disagreement_detected(self):
        bad = ValuationTriple(1, 2, 1)
        assert not bad.agreed
        with pytest.raises(ArithmeticError):
            bad.value()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            valuation(5, 6, 2)
        with pytest.raises(ValueError):
            valuation_by_factorization(5, -1, 2)

    def test_exhaustive_scan_small(self):
        for p in (2, 3, 5):
            ok, bad = triple_agreement_scan(p, 300)
            assert ok and bad is None

    def test_scan_parallel_agrees(self):
        assert triple_agreement_scan(2, 400, jobs=2) == (True, None)

    def test_empty_scan(self):
        assert triple_agreement_scan(2, 0) == (True, None)
        assert triple_agreement_scan(2, 0, jobs=4) == (True, None)


class TestRowCounts:
    def test_against_comb(self):
        for p in (2, 3):
            for n in range(0, 45):
                hist = {}
                for t in range(n + 1):
                    c = math.comb(n, t)
                    v = 0
                    while c % p == 0:
                        c //= p
                        v += 1
                    hist[v] = hist.get(v, 0) + 1
                counts = row_counts_bruteforce(p, n)
                assert counts == [hist.get(j, 0) for j in range(max(hist) + 1)]

    def test_sum_is_row_length(self):
        for p in (2, 3, 5):
            for n in (0, 1, 17, 100, 641):
                assert sum(row_counts_bruteforce(p, n)) == n + 1

    def test_matches_recurrence_polynomial(self):
        for p in (2, 3, 5):
            for n in range(0, 260):
                assert row_counts_bruteforce(p, n) == [
                    int(c) for c in T_poly(p, n).coeffs
                ]


class TestDigitSumTable:
    # the in-place block fill against the textbook digit sum, at the block
    # edges p^k - 1, p^k, p^k + 1 and around one digit
    @staticmethod
    def limits(p):
        return sorted({0, 1, p - 1, p, p + 1, p**4 - 1, p**4, p**4 + 1})

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_fresh_table(self, p):
        for limit in self.limits(p):
            table = oracle._digit_sum_table(limit, p)
            assert isinstance(table, list)
            assert table == [digit_sum(m, p) for m in range(limit)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_grown_table(self, p):
        # the table grows a whole block past the limit and is then cut:
        # the tables at rising limits are prefixes of the largest one
        limits = self.limits(p)
        largest = oracle._digit_sum_table(limits[-1], p)
        assert len(largest) == limits[-1]
        for limit in limits:
            assert oracle._digit_sum_table(limit, p) == largest[:limit]

    def test_scans_leave_no_module_state(self):
        # every table of a scan lives for one call: after scans at three
        # bases, with and without workers, no module global holds a container
        equivalence_report(2, 300, jobs=2)
        triple_agreement_scan(3, 200)
        row_counts_bruteforce(5, 60)
        held = {
            name: type(value).__name__
            for name, value in vars(oracle).items()
            if not (name.startswith("__") and name.endswith("__"))
            and isinstance(value, (dict, list, set, array.array))
        }
        assert held == {}


def plain_chunk(p, n_lo, n_hi, s, nu):
    # the three routes and the histogram entry by entry on plain ints, read
    # off the tables s (digit sums) and nu (nu_p(m!)) as the packed scan is
    bad, rows = None, []
    for n in range(n_lo, n_hi):
        qs = [p**k for k in range(1, n.bit_length() + 1) if p**k <= n]
        hist = {}
        for t in range(n + 1):
            borrows = sum(t % q > n % q for q in qs)
            digits = s[t] + s[n - t] - s[n]
            facts = nu[n] - nu[t] - nu[n - t]
            if bad is None and not borrows * (p - 1) == digits == (p - 1) * facts:
                bad = n, t
            hist[digits // (p - 1)] = hist.get(digits // (p - 1), 0) + 1
        rows.append([hist.get(j, 0) for j in range(max(hist) + 1)])
    return bad, rows


def textbook_tables(p, limit):
    s = [digit_sum(m, p) for m in range(limit)]
    nu = [oracle._nu_factorial(m, p) for m in range(limit)]
    return s, nu


class TestPackedScan:
    # the chunks of the lane-packed scan against the routes entry by entry
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize(
        "bounds", [(0, 90), (0, 1, 2, 90), (0, 17, 18, 49, 90), (0, 64, 65, 90)]
    )
    def test_chunks_match_plain_routes(self, p, bounds):
        s, nu = textbook_tables(p, bounds[-1])
        rows = []
        for lo, hi in zip(bounds, bounds[1:]):
            bad, chunk_rows = oracle._triple_chunk(p, lo, hi)
            assert (bad, chunk_rows) == plain_chunk(p, lo, hi, s, nu)
            assert bad is None
            rows += chunk_rows
        assert rows == [row_counts_bruteforce(p, n) for n in range(bounds[-1])]
        assert rows == plain_chunk(p, 0, bounds[-1], s, nu)[1]

    @staticmethod
    def tamper_digit_sums(monkeypatch, m, by):
        table = oracle._digit_sum_table

        def tampered(limit, p):
            s = table(limit, p)
            if limit > m:
                s[m] += by
            return s

        monkeypatch.setattr(oracle, "_digit_sum_table", tampered)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lane_sized_factorial_error(self, monkeypatch, jobs):
        # nu(12!) alone gains 2^16, a whole 16-bit lane: lanes wide enough
        # for the tables keep it from aliasing into a neighbour, and the
        # entry pass names (12, 1) on the plain tables
        sieve = oracle._valuation_sieve

        def tampered(limit, p):
            v = sieve(limit, p)
            if limit > 12:
                v[12] += 1 << 16
            if limit > 13:
                v[13] -= 1 << 16
            return v

        monkeypatch.setattr(oracle, "_valuation_sieve", tampered)
        s, nu = textbook_tables(2, 40)
        nu[12] += 1 << 16
        assert oracle._triple_chunk(2, 0, 40) == plain_chunk(2, 0, 40, s, nu)
        assert oracle._triple_chunk(2, 12, 13)[0] == (12, 1)
        assert triple_agreement_scan(2, 40, jobs=jobs) == (False, (12, 1))
        rep = equivalence_report(2, 40, jobs=jobs)
        assert rep.triple_counterexample == (12, 1)
        assert rep.rows_ok and rep.poly_ok

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_wrong_digit_sum_fails_triple_and_rows(self, monkeypatch, jobs):
        # s_2(8) one too high: row 8 loses one factor 2 at 0 < t < 8, and
        # rows above gain one where t or n - t is 8
        self.tamper_digit_sums(monkeypatch, 8, 1)
        s, nu = textbook_tables(2, 40)
        s[8] += 1
        assert oracle._triple_chunk(2, 0, 40) == plain_chunk(2, 0, 40, s, nu)
        rep = equivalence_report(2, 40, jobs=jobs)
        assert rep.triple_counterexample == (8, 1)
        assert rep.rows_counterexample == 8
        assert not rep.ok

    def test_lane_sized_digit_sum_error_raises(self, monkeypatch):
        # s_2(5) gains 2^16 and rows 20..39 hold it at t = 5 and n - 5: in
        # 16-bit lanes it would carry into lane 6 and read as a byte; lanes
        # wide enough for the table keep it in lane 5, above 255
        self.tamper_digit_sums(monkeypatch, 5, 1 << 16)
        with pytest.raises(ArithmeticError, match="row 20"):
            oracle._triple_chunk(2, 20, 40)

    def test_negative_lane_raises(self, monkeypatch):
        # s_2(3) one too high leaves digits -1 at t = 1, 2 of row 3: never
        # read as a byte
        self.tamper_digit_sums(monkeypatch, 3, 1)
        with pytest.raises(ArithmeticError, match="row 3: .* leaves 0..255"):
            oracle._triple_chunk(2, 0, 8)

    def test_lane_off_the_multiples_raises(self, monkeypatch):
        # s_3(4) one too high leaves an odd digits lane at t = 4 of row 10:
        # no valuation's multiple of p - 1 = 2, so it is never binned
        self.tamper_digit_sums(monkeypatch, 4, 1)
        with pytest.raises(ArithmeticError, match="row 10: .* no multiple"):
            oracle._triple_chunk(3, 10, 20)


class TestColumns:
    def test_known_densities_exact(self):
        # nu_2(C(m+2, m)) = 0 iff bit 1 of m is clear
        counts = oracle._carry_counts(2, 1, 1 << 12)
        assert Fraction(counts[0], 1 << 12) == Fraction(1, 2)
        assert Fraction(counts[1], 1 << 12) == Fraction(1, 4)
        # column 0 is all ones
        assert oracle._carry_counts(0, 0, 1 << 10) == [1 << 10]

    def test_column_zero_report(self):
        rep = column_check(0, 4, 1 << 10)
        assert rep.ok
        assert [r.prediction for r in rep.rows] == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert rep.rows[0].estimate == 1.0
        assert rep.max_deviation == 0.0

    def test_power_of_two_window_is_exact(self):
        # the density of each level is periodic in m, and a power-of-two
        # window covers whole periods for these columns
        rep = column_check(2, 4, 1 << 14)
        assert rep.ok and rep.max_deviation == 0.0
        rep = column_check(11, 3, 1 << 14)
        assert rep.ok and rep.max_deviation == 0.0

    def test_one_build(self):
        # columns reads the log r_w table, built once, and builds no P_j
        block_polynomials_up_to.cache_clear()
        _level_index.cache_clear()
        column_check(5, 4, 64)
        assert _level_index.cache_info().misses == 1
        assert block_polynomials_up_to.cache_info().misses == 0

    def test_report_pickles(self):
        # forked columns workers send their reports through a pipe
        rep = column_check(11, 3, 1 << 10)
        again = pickle.loads(pickle.dumps(rep, -1))
        assert again == rep and type(again) is ColumnCheckReport
        assert type(again.rows[0]) is ColumnCheckRow
        assert again.rows[2]._asdict() == rep.rows[2]._asdict()

    def test_small_scan(self):
        reports = column_scan(8, 3, 1 << 14)
        assert len(reports) == 9
        assert all(rep.ok for rep in reports)
        assert max(rep.max_deviation for rep in reports) == 0.0

    def test_power_of_two_window_matches_exact_prediction(self):
        # on m < 2^18 every column t <= 64 covers whole periods, so each
        # sampled count over 2^18 is the exact predicted density
        m_max = 1 << 18
        words = enumerate_admissible(2, 4)
        reports = column_scan(64, 4, m_max)
        polys = block_polynomials_up_to(2, 4)
        compared = 0
        for t, rep in enumerate(reports):
            counts = {w: factor_count(t, complement(w)) for w in words}
            base = Fraction(1, 2 ** digit_sum(t, 2))
            exact = [poly.evaluate_counts(counts) for poly in polys]
            for row in rep.rows:
                assert Fraction(row.count, m_max) == exact[row.j] * base, (t, row)
                compared += 1
        assert compared == 325

    def test_level_no_row_reaches(self):
        # column 0 has no carries, so no m reaches level 3
        assert oracle._carry_counts(0, 3, 1 << 10)[3] == 0


def carry_histograms(t, j_max, stops):
    # {m_max: counts of m < m_max by carries in m + t, up to j_max}, by a
    # brute loop over m with Kummer's count s_2(m) + s_2(t) - s_2(m + t)
    hist, out, shift = [0] * (j_max + 1), {}, digit_sum(t, 2)
    for m in range(max(stops) + 1):
        if m in stops:
            out[m] = hist.copy()
        j = m.bit_count() + shift - (m + t).bit_count()
        if j <= j_max:
            hist[j] += 1
    return out


class TestCarryCounts:
    # the digit automaton against the brute loop, for j <= 8: m_max = 1,
    # around each period 2^(bitlen(t) + j), off the powers of two, and
    # below t
    @pytest.mark.parametrize(
        "t", [*range(33), 63, 64, 65, 127, 128, 129, 170, 255, 256, 257, 299, 300]
    )
    def test_matches_brute_loop(self, t):
        j_max, b = 8, t.bit_length()
        stops = {1, 1000, 3 * 2 ** (b + 2) + 5, max(1, t // 3), max(1, t - 1)}
        for j in range(j_max + 1):
            stops |= {2 ** (b + j) - 1, 2 ** (b + j), 2 ** (b + j) + 1}
        want = carry_histograms(t, j_max, stops)
        for m_max in sorted(stops):
            for j in range(j_max + 1):
                got = oracle._carry_counts(t, j, m_max)
                assert got == want[m_max][: j + 1], (t, j, m_max)

    def test_one_row(self):
        # m = 0 adds no carry to any t
        for t in (0, 1, 300, 1 << 40):
            assert oracle._carry_counts(t, 2, 1) == [1, 0, 0]

    def test_wide_windows_are_exact(self):
        # far past any numpy table: every m < 2^40 in one lane, and for
        # t = 1 half the rows are even (no carry), a quarter are 1 mod 4
        assert oracle._carry_counts(0, 3, 1 << 40) == [1 << 40, 0, 0, 0]
        assert oracle._carry_counts(1, 1, 1 << 40) == [1 << 39, 1 << 38]


class TestEquivalence:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_report_ok(self, p):
        rep = equivalence_report(p, 200)
        assert rep.ok
        assert rep.triple_ok and rep.triple_counterexample is None
        assert rep.rows_ok and rep.rows_counterexample is None
        assert rep.poly_ok and rep.poly_counterexample is None

    def test_each_verdict_is_stored_once(self):
        # the *_ok verdicts are properties of the counterexamples
        assert list(oracle.VerifyReport._fields) == [
            "p", "n_max", "triple_counterexample", "rows_counterexample",
            "poly_counterexample",
        ]

    def test_parallel_matches_serial(self):
        assert equivalence_report(2, 220, jobs=2) == equivalence_report(2, 220)

    def test_empty_range_is_ok(self):
        # as triple_agreement_scan, n_max = 0 checks the empty range
        rep = equivalence_report(2, 0)
        assert rep.ok and rep.n_max == 0

    def test_wrong_coefficient_is_caught(self):
        n_max = 64
        rows = [row_counts_bruteforce(2, n) for n in range(n_max)]
        j_top = max(len(r) - 1 for r in rows)
        block_polynomials_up_to.cache_clear()
        try:
            polys = block_polynomials_up_to(2, j_top)
            mono = next(iter(polys[3].terms))
            # the stored row of that monomial gets +1/3
            key, c, d = polys[3]._rows[0]
            polys[3]._rows[0] = key, 3 * c + d, 3 * d
            # the first row where the tampered monomial is nonzero
            first = next(
                n
                for n in range(n_max)
                if all(
                    counting_factor_counts(expand(n, 2)).get(w, 0)
                    for w, _ in mono.factors
                )
            )
            rep = equivalence_report(2, n_max)
        finally:
            block_polynomials_up_to.cache_clear()
        assert rep.triple_ok and rep.rows_ok
        assert not rep.poly_ok and not rep.ok
        assert rep.poly_counterexample == (first, 3)
        assert equivalence_report(2, n_max).ok

    @staticmethod
    def tampered_report(n_max, tamper):
        # the report with the cached build of P_0..P_J changed by tamper
        j_top = max(len(row_counts_bruteforce(2, n)) - 1 for n in range(n_max))
        block_polynomials_up_to.cache_clear()
        try:
            tamper(block_polynomials_up_to(2, j_top))
            rep = equivalence_report(2, n_max)
        finally:
            block_polynomials_up_to.cache_clear()
        assert rep.triple_ok and rep.rows_ok
        assert not rep.poly_ok and not rep.ok
        return rep

    @staticmethod
    def key_of(polys, word, k=1):
        return ((polys[0]._words.index(Word.parse(word, 2)), k),)

    def test_dropped_row_is_caught(self):
        # X[100] loses its P_2 row; row 4 = 100_2 is the first to hold it
        def tamper(polys):
            key = self.key_of(polys, "100")
            polys[2]._rows[:] = [row for row in polys[2]._rows if row[0] != key]

        assert self.tampered_report(64, tamper).poly_counterexample == (4, 2)

    def test_key_outside_the_walk_is_caught(self):
        # X[10]^4 has weight 4 > J = 3; row 2 = 10_2 is the first to hold 10
        def tamper(polys):
            assert len(polys) == 4
            polys[3]._rows.append((self.key_of(polys, "10", 4), 1, 1))

        assert self.tampered_report(16, tamper).poly_counterexample == (2, 3)

    def test_fault_invisible_below_n_max_is_caught(self):
        # J = 3 for n_max = 10, but 1110_2 = 14 is the first row to hold
        # the word 1110, so no row below n_max shows +1/3 on X[1110] in P_3
        def tamper(polys):
            assert len(polys) == 4
            key = self.key_of(polys, "1110")
            rows = polys[3]._rows
            i = next(i for i, row in enumerate(rows) if row[0] == key)
            _, c, d = rows[i]
            rows[i] = key, 3 * c + d, 3 * d

        assert self.tampered_report(10, tamper).poly_counterexample == (14, 3)

    def test_search_evaluates_only_the_difference(self, monkeypatch):
        # J = 8 for n_max = 300; 111111110_2 = 510 is the first row to hold
        # the word 111111110, whose P_8 row gets +1/3.  The search evaluates
        # the stored-minus-rebuilt difference on the index's counts, with
        # no dense evaluation of a stored level and no Word count dict
        def refuse(*args):
            raise AssertionError("dense evaluation")

        monkeypatch.setattr(BlockPolynomial, "evaluate_counts", refuse)
        monkeypatch.setattr(words, "counting_factor_counts", refuse)
        monkeypatch.setattr(synth, "counting_factor_counts", refuse)

        def tamper(polys):
            assert len(polys) == 9
            key = self.key_of(polys, "111111110")
            rows = polys[8]._rows
            i = next(i for i, row in enumerate(rows) if row[0] == key)
            _, c, d = rows[i]
            rows[i] = key, 3 * c + d, 3 * d

        assert self.tampered_report(300, tamper).poly_counterexample == (510, 8)

    def test_failed_peel_rebuilds_once(self, monkeypatch):
        # the one rebuild of P_0..P_3 serves the comparison and the search
        # for the row
        calls = []
        peeled = synth._peeled

        def counted(p, jmax):
            calls.append((p, jmax))
            return peeled(p, jmax)

        monkeypatch.setattr(synth, "_peeled", counted)

        def tamper(polys):
            key = self.key_of(polys, "1110")
            rows = polys[3]._rows
            i = next(i for i, row in enumerate(rows) if row[0] == key)
            _, c, d = rows[i]
            rows[i] = key, 3 * c + d, 3 * d
            calls.clear()

        assert self.tampered_report(10, tamper).poly_counterexample == (14, 3)
        assert calls == [(2, 3)]

    @staticmethod
    def swap_first_rows(polys):
        rows = polys[3]._rows
        rows[0], rows[1] = rows[1], rows[0]

    @staticmethod
    def respell_x10_x100(polys):
        # X[10] X[100] stored as X[100] X[10], ids falling, in every level
        for poly in polys:
            poly._rows[:] = [
                (key[::-1] if key == ((0, 1), (1, 1)) else key, c, d)
                for key, c, d in poly._rows
            ]

    @pytest.mark.parametrize("tamper", ["swap_first_rows", "respell_x10_x100"])
    def test_fault_no_row_shows_raises(self, tamper):
        # every monomial keeps its value, so no row can show the fault, yet
        # `poly` prints P_3 otherwise than its canonical rows
        block_polynomials_up_to.cache_clear()
        try:
            getattr(self, tamper)(block_polynomials_up_to(2, 6))
            with pytest.raises(ArithmeticError, match="P_3"):
                equivalence_report(2, 100)
        finally:
            block_polynomials_up_to.cache_clear()


class TestCounterexamples:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_triple_counterexample(self, monkeypatch, capsys, jobs):
        # one extra factor p at 12 in the factorial route: for n_max = 16
        # the routes first disagree at (12, 1), in the second of two chunks
        sieve = oracle._valuation_sieve

        def tampered(limit, p):
            v = sieve(limit, p)
            if limit > 12:
                v[12] += 1
            return v

        monkeypatch.setattr(oracle, "_valuation_sieve", tampered)
        assert triple_agreement_scan(2, 16, jobs=jobs) == (False, (12, 1))
        rep = equivalence_report(2, 16, jobs=jobs)
        assert not rep.ok and rep.triple_counterexample == (12, 1)
        assert rep.rows_ok and rep.poly_ok
        assert main(["verify", "--nmax", "16", "--jobs", str(jobs)]) == 1
        assert capsys.readouterr().out == (
            "valuation triple: FAIL at (12, 1)\n"
            "row counts: ok\n"
            "polynomial identity: ok\n"
            "FAIL\n"
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_packed_borrow_counterexample(self, monkeypatch, capsys, jobs):
        # +1 on lane 3 of the packed borrows of row 10: only the packed
        # route is wrong, so t is named from the packed differences
        borrow_lanes = oracle._borrow_lanes

        def tampered(p, n, w, periods):
            b = borrow_lanes(p, n, w, periods)
            return b + (1 << 3 * w) if n == 10 else b

        monkeypatch.setattr(oracle, "_borrow_lanes", tampered)
        assert triple_agreement_scan(2, 16, jobs=jobs) == (False, (10, 3))
        assert main(["verify", "--nmax", "16", "--jobs", str(jobs)]) == 1
        assert capsys.readouterr().out == (
            "valuation triple: FAIL at (10, 3)\n"
            "row counts: ok\n"
            "polynomial identity: ok\n"
            "FAIL\n"
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_row_count_counterexample(self, monkeypatch, capsys, jobs):
        row_coeffs = oracle._row_coeffs

        def tampered(p, n):
            row = row_coeffs(p, n)
            return row if n != 5 else row[:-1] + [row[-1] + 1]

        monkeypatch.setattr(oracle, "_row_coeffs", tampered)
        rep = equivalence_report(3, 9, jobs=jobs)
        assert rep.triple_ok and not rep.rows_ok and not rep.ok
        assert rep.rows_counterexample == 5
        # the identity runs against the brute rows, not the recurrence's,
        # and holds
        assert rep.poly_ok and rep.poly_counterexample is None
        assert main(["verify", "--p", "3", "--nmax", "9", "--jobs", str(jobs)]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            "row counts: FAIL at 5",
            "polynomial identity: ok",
            "FAIL",
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_identity_checked_after_row_count_failure(
        self, monkeypatch, capsys, jobs
    ):
        # a wrong row 5 from the recurrence and a wrong level 1 at row 7:
        # both checks run, and each reports its own counterexample
        row_coeffs = oracle._row_coeffs
        levels = synth._LevelIndex.evaluate

        def tampered_rows(p, n):
            row = row_coeffs(p, n)
            return row if n != 5 else row[:-1] + [row[-1] + 1]

        def tampered_levels(index, n):
            # P_1 = A_1 / dens[1] gains 1
            values = levels(index, n)
            if n != 7:
                return values
            return values[:1] + [values[1] + index.dens[1]] + values[2:]

        monkeypatch.setattr(oracle, "_row_coeffs", tampered_rows)
        monkeypatch.setattr(synth._LevelIndex, "evaluate", tampered_levels)
        rep = equivalence_report(3, 9, jobs=jobs)
        assert rep.triple_ok and not rep.ok
        assert not rep.rows_ok and rep.rows_counterexample == 5
        assert not rep.poly_ok and rep.poly_counterexample == (7, 1)
        assert main(["verify", "--p", "3", "--nmax", "9", "--jobs", str(jobs)]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            "row counts: FAIL at 5",
            "polynomial identity: FAIL at (7, 1)",
            "FAIL",
        ]


class TestWorkerCap:
    @pytest.fixture
    def runs(self, monkeypatch):
        # the run sizes of each spread that forks, recorded around the real
        # cut; every run after the first goes to a real forked worker
        seen = []
        cut = oracle._runs

        def recording(calls, jobs):
            runs = cut(calls, jobs)
            if len(runs) > 1:
                seen.append([len(run) for run in runs])
            return runs

        monkeypatch.setattr(oracle, "_runs", recording)
        # 64 usable CPUs, so that the cap on calls is what these tests see
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        return seen

    @staticmethod
    def workers(runs):
        return [len(sizes) for sizes in runs]

    def test_triple_scan_no_more_workers_than_rows(self, runs):
        assert triple_agreement_scan(2, 16, jobs=64) == (True, None)
        assert triple_agreement_scan(2, 16, jobs=2) == (True, None)
        assert triple_agreement_scan(2, 1, jobs=8) == (True, None)
        assert self.workers(runs) == [16, 2]

    def test_column_scan_no_more_workers_than_columns(self, runs):
        serial = column_scan(3, 2, 1 << 8)
        assert column_scan(3, 2, 1 << 8, jobs=64) == serial
        assert column_scan(0, 2, 1 << 8, jobs=64) == serial[:1]
        assert self.workers(runs) == [4]

    def test_verify_caps_the_triple_scan(self, runs):
        assert equivalence_report(3, 5, jobs=64).ok
        assert self.workers(runs) == [5]

    def test_no_more_workers_than_usable_cpus(self, runs, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert oracle._spread(abs, 5000, range(-10, 0)) == list(range(10, 0, -1))
        assert triple_agreement_scan(2, 100, jobs=5000) == (True, None)
        assert equivalence_report(2, 100, jobs=5000) == equivalence_report(2, 100)
        assert self.workers(runs) == [3, 3, 3]

    def test_one_run_of_calls_per_worker(self, runs):
        assert oracle._spread(abs, 3, range(-10, 0)) == list(range(10, 0, -1))
        assert oracle._spread(abs, 5, range(-10, 0)) == list(range(10, 0, -1))
        assert self.workers(runs) == [3, 5]
        assert runs == [[4, 4, 2], [2, 2, 2, 2, 2]]

    def test_cpu_count_without_affinity(self, runs, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert oracle._spread(abs, 5000, range(-10, 0)) == list(range(10, 0, -1))
        # an unknown CPU count runs serially
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert oracle._spread(abs, 5000, range(-10, 0)) == list(range(10, 0, -1))
        assert self.workers(runs) == [4]

    def test_serial_without_fork(self, runs, monkeypatch):
        def no_fork(fn, calls):
            raise AssertionError("forked a worker")

        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(oracle, "_fork_run", no_fork)
        assert oracle._spread(abs, 3, range(-10, 0)) == list(range(10, 0, -1))
        assert triple_agreement_scan(2, 16, jobs=2) == (True, None)


class TestSpread:
    # real forked workers, each sent one run of consecutive calls
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.fixture(autouse=True)
    def deadline(self):
        # a hung worker or wait fails the test instead of holding the suite;
        # a forked child does not inherit the alarm
        def expire(signum, frame):
            raise TimeoutError("no result within 60 s")

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)

    def test_results_keep_call_order(self):
        want = [divmod(i, 7) for i in range(-40, 41)]
        assert oracle._spread(divmod, 2, range(-40, 41), [7] * 81) == want

    def test_columns_with_two_jobs(self, capsys):
        args = ["columns", "--tmax", "20", "--jmax", "3", "--mmax", "4096"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main([*args, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    @staticmethod
    def assert_no_worker_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_exception_reaches_the_scan(self, monkeypatch):
        # s_2(12) gains 2^16: of the chunks rows 0..10 and 11..15, only the
        # second, which the forked worker scans, reads it
        TestPackedScan.tamper_digit_sums(monkeypatch, 12, 1 << 16)
        with pytest.raises(ArithmeticError, match="row 12: a digit-sum lane leaves"):
            triple_agreement_scan(2, 16, jobs=2)
        self.assert_no_worker_left()

    def test_unpicklable_exception_is_named(self):
        class Unpicklable(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        parent = os.getpid()

        def fails(x):
            if os.getpid() != parent:
                raise Unpicklable(x, "more")
            return x

        with pytest.raises(RuntimeError, match=r"Unpicklable\('5 and more'\)"):
            oracle._spread(fails, 2, range(10))
        self.assert_no_worker_left()

    def test_worker_without_result_raises(self):
        parent = os.getpid()

        def dies(x):
            if os.getpid() != parent:
                os._exit(0)
            return x

        with pytest.raises(RuntimeError, match="run 2 of 2 sent no result"):
            oracle._spread(dies, 2, range(10))
        self.assert_no_worker_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_parent_failure_leaves_no_worker_or_pipe(self):
        # the worker's result outgrows a pipe's buffer, so it blocks in its
        # write until the pipe is closed or it is killed
        parent = os.getpid()

        def big(x):
            if os.getpid() == parent:
                time.sleep(0.2)
                raise ValueError("the parent's run")
            return bytes(1 << 20)

        fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(ValueError, match="the parent's run"):
            oracle._spread(big, 2, range(2))
        self.assert_no_worker_left()
        assert sorted(os.listdir("/proc/self/fd")) == fds

    def test_workers_never_flush_the_parents_buffers(self):
        # stdout to a pipe is block-buffered, so "before" is still in the
        # buffer that each forked worker inherits
        code = (
            "import os, sys, ppk.cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "print('before')\n"
            "sys.exit(ppk.cli.main(['verify', '--nmax', '2048', '--jobs', '2']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == (
            "before\nvaluation triple: ok\nrow counts: ok\n"
            "polynomial identity: ok\nok\n"
        )
