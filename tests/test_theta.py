"""Row counts by exact prime-power divisibility and their reindexed tables."""

import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from ppk.ratcore import PolyQ
from ppk.theta import (
    T_poly,
    Tbar,
    theta,
    theta0,
    tilde_product_table,
    tilde_table,
)
from ppk.words import Word, digit_sum, expand, padic_valuation

PRIMES = (2, 3, 5)


def valuation_histogram(p, n):
    """Independent route: factor every entry of the row."""
    counts = {}
    for t in range(n + 1):
        c = math.comb(n, t)
        v = 0
        while c % p == 0:
            c //= p
            v += 1
        counts[v] = counts.get(v, 0) + 1
    return counts


# frozen reference tables, k by n, absent cells are zero
TILDE_CELLS = {
    2: {
        (0, 0): 1,
        (1, 1): 2, (1, 2): 2, (1, 4): 2, (1, 8): 2, (1, 16): 2,
        (2, 2): 1, (2, 3): 4, (2, 4): 1, (2, 5): 4, (2, 6): 4, (2, 8): 1,
        (2, 9): 4, (2, 10): 4, (2, 12): 4, (2, 16): 1, (2, 17): 4,
        (3, 4): 2, (3, 5): 2, (3, 6): 2, (3, 7): 8, (3, 8): 2, (3, 9): 2,
        (3, 10): 4, (3, 11): 8, (3, 12): 2, (3, 13): 8, (3, 14): 8,
        (3, 16): 2, (3, 17): 2,
        (4, 6): 1, (4, 8): 4, (4, 9): 4, (4, 10): 1, (4, 11): 4, (4, 12): 5,
        (4, 13): 4, (4, 14): 4, (4, 15): 16, (4, 16): 4, (4, 17): 4,
        (5, 10): 2, (5, 12): 2, (5, 13): 2, (5, 14): 2, (5, 16): 8, (5, 17): 8,
        (6, 14): 1,
    },
    3: {
        (0, 0): 1,
        (1, 1): 2, (1, 3): 2, (1, 9): 2,
        (2, 2): 3, (2, 4): 4, (2, 6): 3, (2, 10): 4, (2, 12): 4,
        (3, 3): 2, (3, 5): 6, (3, 7): 6, (3, 9): 2, (3, 11): 6, (3, 13): 8,
        (3, 15): 6,
        (4, 4): 1, (4, 6): 4, (4, 8): 9, (4, 10): 4, (4, 12): 5, (4, 14): 12,
        (4, 16): 12,
        (5, 7): 2, (5, 9): 6, (5, 11): 6, (5, 13): 4, (5, 15): 8, (5, 17): 18,
        (6, 10): 3, (6, 12): 4, (6, 14): 3, (6, 16): 4,
        (7, 13): 2, (7, 15): 2,
        (8, 16): 1,
    },
    5: {
        (0, 0): 1,
        (1, 1): 2, (1, 5): 2,
        (2, 2): 3, (2, 6): 4, (2, 10): 3,
        (3, 3): 4, (3, 7): 6, (3, 11): 6, (3, 15): 4,
        (4, 4): 5, (4, 8): 8, (4, 12): 9, (4, 16): 8,
        (5, 5): 4, (5, 9): 10, (5, 13): 12, (5, 17): 12,
        (6, 6): 3, (6, 10): 8, (6, 14): 15,
        (7, 7): 2, (7, 11): 6, (7, 15): 12,
        (8, 8): 1, (8, 12): 4, (8, 16): 9,
        (9, 13): 2, (9, 17): 6,
    },
}
TILDE_KMAX = {2: 6, 3: 8, 5: 9}


class TestRowPolynomials:
    def test_domain_errors(self):
        with pytest.raises(ValueError, match="base must be >= 2"):
            T_poly(1, 3)
        with pytest.raises(ValueError, match="row index must be >= 0"):
            T_poly(2, -1)
        with pytest.raises(ValueError, match="word base does not match p"):
            Tbar(3, Word(2, (1, 0)))

    def test_small_golden_rows(self):
        assert T_poly(2, 8).text() == "2 + x + 2x^2 + 4x^3"
        assert T_poly(2, 6) == PolyQ([4, 2, 1])
        assert T_poly(2, 0) == PolyQ([1])
        assert T_poly(3, 5) == PolyQ([6])
        assert T_poly(3, 7) == PolyQ([6, 2])
        assert T_poly(5, 26) == PolyQ([4, 8, 15])

    def test_counts_match_factorization(self):
        for p in PRIMES:
            for n in range(130):
                hist = valuation_histogram(p, n)
                poly = T_poly(p, n)
                for j in range(len(poly.coeffs)):
                    assert poly.coeffs[j] == hist.get(j, 0)
                    assert theta(p, j, n) == hist.get(j, 0)
                assert max(hist) == poly.degree

    def test_row_sum(self):
        rng = random.Random(30)
        for _ in range(150):
            p = rng.choice(PRIMES)
            n = rng.randrange(0, 4000)
            assert T_poly(p, n)(1) == n + 1
        # rows whose coefficients need more than 64 bits
        assert T_poly(2, 2**70 - 1) == PolyQ([2**70])
        assert T_poly(3, 3**45 + 5)(1) == 3**45 + 6

    def test_carry_recurrence(self):
        # splitting off the last digit a of p n + a
        def holds(p, n, a):
            lhs = T_poly(p, p * n + a)
            shift = PolyQ.monomial(1, padic_valuation(n, p) + 1)
            rhs = (a + 1) * T_poly(p, n) + (p - a - 1) * shift * T_poly(p, n - 1)
            return lhs == rhs

        rng = random.Random(31)
        for _ in range(150):
            p = rng.choice(PRIMES)
            n = rng.randrange(1, 700)
            assert holds(p, n, rng.randrange(p))
        # coefficients beyond 64 bits
        for a in range(5):
            assert holds(5, 5**28 + 17, a)

    def test_degree_formula(self):
        # n = c p^lam + m with leading digit c: deg = lam - v_p(m + 1)
        for p in PRIMES:
            for n in range(1, 600):
                lam = len(expand(n, p).digits) - 1
                m = n - expand(n, p).digits[0] * p**lam
                assert T_poly(p, n).degree == lam - padic_valuation(m + 1, p)

    def test_zero_count_is_digit_product(self):
        rng = random.Random(32)
        for _ in range(200):
            p = rng.choice(PRIMES)
            n = rng.randrange(0, 10**5)
            prod = 1
            for d in expand(n, p).digits:
                prod *= d + 1
            assert theta0(p, n) == prod
            assert theta(p, 0, n) == prod

    def test_theta_out_of_support(self):
        assert theta(2, 40, 6) == 0
        assert theta(2, -1, 6) == 0


class TestNormalizedRows:
    def test_constant_term_one(self):
        rng = random.Random(33)
        for _ in range(80):
            p = rng.choice(PRIMES)
            n = rng.randrange(0, 3000)
            poly = Tbar(p, n)
            assert poly.coeffs[0] == 1
            assert poly == T_poly(p, n) * Fraction(1, theta0(p, n))

    def test_accepts_words(self):
        w = Word(2, (1, 1, 0))
        assert Tbar(2, w) == Tbar(2, 6)
        assert Tbar(2, Word(2, ())) == PolyQ([1])


class TestTildeTables:
    @pytest.mark.parametrize("p", PRIMES)
    def test_frozen_reference_cells(self, p):
        cells = TILDE_CELLS[p]
        table = tilde_table(p, TILDE_KMAX[p], 17)
        for k in range(TILDE_KMAX[p] + 1):
            for n in range(18):
                assert table[k][n] == cells.get((k, n), 0), (p, k, n)

    def test_reindexing_transform(self):
        # tilde(k, n) = theta(j, n) exactly when k = s_p(n) + (p-1) j
        for p in PRIMES:
            spans = [(digit_sum(n, p), T_poly(p, n).degree) for n in range(180)]
            table = tilde_table(p, max(s + (p - 1) * d + p - 1 for s, d in spans), 179)
            for n, (s, deg) in enumerate(spans):
                for j in range(deg + 1):
                    assert table[s + (p - 1) * j][n] == theta(p, j, n)
                for k in range(s + (p - 1) * deg + p):
                    if k < s or (k - s) % (p - 1):
                        assert table[k][n] == 0

    @pytest.mark.parametrize(
        "p,kmax,nmax",
        [pytest.param(p, 10, 17, id=str(p)) for p in PRIMES]
        + [(2, 40, 1023), (3, 30, 728), (5, 20, 624), (7, 16, 342)],
    )
    def test_product_form(self, p, kmax, nmax):
        assert tilde_product_table(p, kmax, nmax) == tilde_table(p, kmax, nmax)

    def test_table_layout(self):
        table = tilde_table(2, 4, 9)
        assert len(table) == 5
        assert all(len(row) == 10 for row in table)
        assert table[0][0] == 1
        assert tilde_table(3, 0, 0) == [[1]]
        with pytest.raises(ValueError):
            tilde_table(2, 4, -1)
        with pytest.raises(ValueError):
            tilde_table(2, -1, 4)


def test_submodule_not_shadowed():
    # the package binds no function over its ppk.theta submodule
    import ppk.theta as m

    assert isinstance(m, types.ModuleType)
    assert m.theta(2, 3, 8) == 4


def test_package_root_imports_nothing():
    # in a fresh interpreter: the root binds no library name and loads no
    # submodule, so ppk.words loads only itself
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, ppk\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('ppk'))\n"
        "print(sorted(k for k in vars(ppk) if not k.startswith('__')), loaded())\n"
        "import ppk.words\n"
        "print(loaded())\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
    )
    assert run.stdout == "[] ['ppk']\n['ppk', 'ppk.words']\n"
