"""Acceptance gate: eleven criteria, one test and one PASS/FAIL line each.

Run with -s to see the lines as they appear; every stated runtime budget is
asserted with wall-clock time from time.perf_counter.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ppk.analysis import classify_word, coefficient_sum, term_bound_series
from ppk.oracle import row_counts_bruteforce, triple_agreement_scan, column_scan
from ppk.ratcore import PolyQ, SeriesQ
from ppk.synth import (
    Monomial,
    block_polynomials_up_to,
    monomials_up_to_weight,
    rw_identity_scan,
    telescope_random_check,
)
from ppk.theta import T_poly, theta0, tilde_product_table, tilde_table
from ppk.words import Word, counting_factor_counts, expand, padic_valuation

from test_analysis import EXCEPTIONAL_LEN10, ONES_ZERO_ONES_ZERO_LEN10
from test_theta import TILDE_CELLS, TILDE_KMAX

W = lambda text, p=2: Word.parse(text, p)

P1_TEXT = "1/2*X[10]"
P2_TEXT = "-1/8*X[10] + 1/8*X[10]^2 + X[100] + 1/4*X[110]"
P3_TEXT = (
    "1/24*X[10] - 1/16*X[10]^2 - 1/2*X[100] - 1/8*X[110] + 1/48*X[10]^3"
    " + 1/2*X[10]*X[100] + 1/8*X[10]*X[110] + 2*X[1000] + 1/2*X[1010]"
    " + 1/2*X[1100] + 1/8*X[1110]"
)
P4_TEXT = (
    "-1/64*X[10] + 11/384*X[10]^2 - 1/4*X[100] + 1/32*X[110] - 1/64*X[10]^3"
    " - 3/8*X[10]*X[100] - 3/32*X[10]*X[110] - X[1000] - 1/2*X[1010]"
    " - 1/2*X[1100] - 1/16*X[1110] + 1/384*X[10]^4 + 1/8*X[10]^2*X[100]"
    " + 1/32*X[10]^2*X[110] + 1/2*X[100]^2 + 1/4*X[100]*X[110]"
    " + 1/32*X[110]^2 + X[10]*X[1000] + 1/4*X[10]*X[1010]"
    " + 1/4*X[10]*X[1100] + 1/16*X[10]*X[1110] + 4*X[10000] + X[10010]"
    " + X[10100] + 1/4*X[10110] + X[11000] + 1/4*X[11010] + 1/4*X[11100]"
    " + 1/16*X[11110]"
)

TERM_COUNTS = [1, 1, 4, 11, 29, 69, 174, 413, 995, 2364, 5581, 13082]
TERM_BOUNDS = [1, 2, 5, 12, 30, 72, 176, 420, 1005, 2378, 5611, 13144]

ADMISSIBLE_LEN9 = {2: 255, 3: 13120, 5: 1562496}

# shared across criteria so the expensive build is timed exactly once
_STATE: dict = {}


@contextmanager
def criterion(k: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {k:2d} ({label}): FAIL")
        raise
    print(f"criterion {k:2d} ({label}): PASS [{time.perf_counter() - t0:.2f}s]")


def _polys11():
    if "polys11" not in _STATE:
        _STATE["polys11"] = block_polynomials_up_to(2, 11)
    return _STATE["polys11"]


def test_criterion_01_golden_polynomials():
    with criterion(1, "golden polynomials"):
        t0 = time.perf_counter()
        polys = block_polynomials_up_to(2, 4)
        elapsed = time.perf_counter() - t0
        assert [poly.text() for poly in polys[1:]] == [
            P1_TEXT,
            P2_TEXT,
            P3_TEXT,
            P4_TEXT,
        ]
        assert polys[0].terms == {Monomial.of([]): Fraction(1)}
        assert polys[1].terms == {Monomial.of([(W("10"), 1)]): Fraction(1, 2)}
        assert list(polys[2].terms.values()) == [
            Fraction(-1, 8),
            Fraction(1, 8),
            Fraction(1),
            Fraction(1, 4),
        ]
        assert elapsed < 1.0, f"build took {elapsed:.3f}s"


def test_criterion_02_term_counts():
    with criterion(2, "term counts"):
        t0 = time.perf_counter()
        polys = _polys11()
        elapsed = time.perf_counter() - t0
        assert [poly.term_count for poly in polys] == TERM_COUNTS
        assert term_bound_series(2, 11) == TERM_BOUNDS
        assert all(n <= b for n, b in zip(TERM_COUNTS, TERM_BOUNDS))
        assert elapsed < 60.0, f"build took {elapsed:.3f}s"


def test_criterion_03_polynomial_oracle():
    with criterion(3, "polynomial vs brute force"):
        t0 = time.perf_counter()
        for p in (2, 3, 5):
            rows = [row_counts_bruteforce(p, n) for n in range(512)]
            j_top = max(len(r) - 1 for r in rows)
            polys = block_polynomials_up_to(p, j_top)
            for n, row in enumerate(rows):
                scale = theta0(p, n)
                counts = counting_factor_counts(expand(n, p))
                for j in range(j_top + 1):
                    want = row[j] if j < len(row) else 0
                    assert polys[j].evaluate_counts(counts) * scale == want, (
                        p, n, j,
                    )
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"scan took {elapsed:.3f}s"


def test_criterion_04_valuation_triple():
    with criterion(4, "valuation routes"):
        for p in (2, 3, 5):
            ok, bad = triple_agreement_scan(p, 1024)
            assert ok and bad is None, (p, bad)


def test_criterion_05_rw_consistency():
    with criterion(5, "closed form vs quotient"):
        for p in (2, 3, 5):
            checked, failures = rw_identity_scan(p, 9)
            assert checked == ADMISSIBLE_LEN9[p]
            assert not failures, (p, failures[:3])


def test_criterion_06_telescope():
    with criterion(6, "telescoping identity"):
        for p in (2, 3, 5):
            count, failures = telescope_random_check(
                p, count=500, max_len=12, order=12, seed=600 + p
            )
            assert count == 500
            assert not failures, (p, failures[:3])


def test_criterion_07_coefficient_sequences():
    with criterion(7, "coefficient sequences"):
        polys = _polys11()
        x10 = Monomial.of([(W("10"), 1)])
        x110 = Monomial.of([(W("110"), 1)])
        ref = SeriesQ.from_poly(PolyQ([1, Fraction(1, 2)]), 24).log()
        for j in range(12):
            assert polys[j].terms.get(x10, Fraction(0)) == ref[j]
        # closed form (-1)^(j+1) / (j 2^j) gives the alternating tail bound
        target = math.log(1.5)
        partial = Fraction(0)
        for j_cut in range(1, 25):
            partial += ref[j_cut]
            tail = abs(target - float(partial))
            assert tail <= 2.0**-j_cut / j_cut, j_cut
        for j in (5, 7, 11):
            assert x110 not in polys[j].terms


def test_criterion_08_tilde_tables():
    with criterion(8, "reindexed count tables"):
        for p in (2, 3, 5):
            table = tilde_table(p, 9, 17)
            cells = TILDE_CELLS[p]
            for k in range(10):
                for n in range(18):
                    want = cells.get((k, n), 0)
                    if k <= TILDE_KMAX[p]:
                        assert table[k][n] == want, (p, k, n)
                    else:
                        assert table[k][n] == 0, (p, k, n)
            assert tilde_product_table(p, 10, 17) == tilde_table(p, 10, 17)


def test_criterion_09_classification(base2_scan):
    with criterion(9, "convergence classification"):
        rep = base2_scan
        assert (rep.p, rep.max_len, rep.tol) == (2, 10, 1e-6)
        fams = {name: [str(w) for w in ws] for name, ws in rep.families.items()}
        assert fams == {
            "ones_zero": ["1" * s + "0" for s in range(1, 10)],
            "ones_zero_zero": ["100", "1111100"],
            "ones_zero_ones_zero": ONES_ZERO_ONES_ZERO_LEN10,
        }
        assert [str(w) for w in rep.exceptional] == EXCEPTIONAL_LEN10
        assert len(rep.exceptional) == 14

        pr = classify_word(W("1010"))
        assert abs(pr.dominant_singularity.imag) < 1e-12
        assert abs(pr.dominant_singularity.real - (-0.86408)) < 1e-4

        total = coefficient_sum(Monomial.of([(W("110"), 1)]))
        assert abs(total.value - math.log(7 / 6)) < 1e-10
        total = coefficient_sum(Monomial.of([(W("10"), 2)]))
        assert abs(total.value - 0.5 * math.log(1.5) ** 2) < 1e-10


def test_criterion_10_column_densities():
    with criterion(10, "column densities"):
        t0 = time.perf_counter()
        reports = column_scan(64, 4, 2**20, tol=5e-3)
        elapsed = time.perf_counter() - t0
        assert len(reports) == 65
        assert all(r.ok for r in reports)
        assert max(r.max_deviation for r in reports) <= 5e-3
        assert elapsed < 120.0, f"scan took {elapsed:.3f}s"


def test_criterion_11_property_suite():
    with criterion(11, "structural properties"):
        # every monomial enters at its weight and never earlier
        polys = _polys11()[:7]
        for mono in monomials_up_to_weight(2, 6):
            if mono.is_constant:
                continue
            assert polys[mono.weight].terms.get(mono, 0) != 0, str(mono)
            for j in range(mono.weight):
                assert mono not in polys[j].terms, (str(mono), j)

        # degree formula and row sum for n <= 4096
        for p in (2, 3, 5):
            assert T_poly(p, 0) == PolyQ([1])
            for n in range(1, 4097):
                digits = expand(n, p).digits
                lam = len(digits) - 1
                m = n - digits[0] * p**lam
                poly = T_poly(p, n)
                assert poly.degree == lam - padic_valuation(m + 1, p), (p, n)
                assert poly(1) == n + 1, (p, n)

        # exp and log invert each other on random unit series
        rng = random.Random(11)
        for _ in range(25):
            order = rng.randint(3, 9)
            body = [
                Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                for _ in range(order)
            ]
            f = SeriesQ(order, [Fraction(1)] + body)
            assert f.log().exp() == f
            g = SeriesQ(order, [Fraction(0)] + body)
            assert g.exp().log() == g
