"""Roots, convergence verdicts, families and term-count asymptotics."""

import math
import random
from fractions import Fraction

import pytest

from ppk.analysis import (
    ConvergenceError,
    asymptotic_constants,
    classify_word,
    closed_form_family,
    coefficient_sum,
    log_rat_coeff_exact,
    poly_roots,
    q_polynomial,
    scan_convergent_words,
    term_bound_asymptotic,
    term_bound_series,
)
from ppk.ratcore import PolyQ
from ppk.synth import Monomial, log_rw_series, r_w_quotient
from ppk.theta import Tbar
from ppk.words import Word, enumerate_admissible, truncations

W = lambda text, p=2: Word.parse(text, p)

BOUNDS_BASE2 = [1, 2, 5, 12, 30, 72, 176, 420, 1005, 2378, 5611, 13144]

ONES_ZERO_ONES_ZERO_LEN10 = (
    "10110 101110 110110 1011110 1101110 1110110 10111110 11011110 11101110"
    " 11110110 101111110 110111110 111011110 111101110 111110110 1011111110"
    " 1101111110 1110111110 1111011110 1111101110 1111110110"
).split()

EXCEPTIONAL_LEN10 = (
    "10011110 101101110 101110110 101111010 101111100 111011010 1011011110"
    " 1011101110 1011110110 1101101110 1101110110 1101111010 1101111100"
    " 1111011010"
).split()


class TestTermBounds:
    def test_constants(self):
        c2 = asymptotic_constants(2)
        assert c2.mu == 0.5
        assert abs(c2.sigma - 0.6695830859268775) < 1e-14
        c3 = asymptotic_constants(3)
        assert abs(c3.mu - 4 / 3) < 1e-15
        assert abs(c3.sigma - 0.3047484092142746) < 1e-14
        assert abs(asymptotic_constants(5).sigma - 0.14128997165792032) < 1e-14

    def test_bound_sequence_golden(self):
        assert term_bound_series(2, 11) == BOUNDS_BASE2

    def test_bound_large_value(self):
        bounds = term_bound_series(2, 40)
        assert bounds[:12] == BOUNDS_BASE2
        assert bounds[40] == 217134342730623

    def test_bound_monotone_and_integral(self):
        for p in (2, 3, 5):
            bounds = term_bound_series(p, 12)
            assert bounds[0] == 1
            assert all(isinstance(b, int) for b in bounds)
            assert all(a <= b for a, b in zip(bounds, bounds[1:]))

    def test_asymptotic_underestimates_by_drifting_factor(self):
        # the closed first-order prefactor undershoots; the measured ratios
        # drift upward toward p^(3/2), so only these frozen values are stable
        bounds = term_bound_series(2, 80)
        measured = {
            20: 2.0940043725742883,
            40: 2.244805303569387,
            80: 2.374984675179809,
        }
        for j, want in measured.items():
            ratio = bounds[j] / term_bound_asymptotic(2, j)
            assert abs(ratio - want) < 1e-9 * want
        assert measured[20] < measured[40] < measured[80] < 2 ** 1.5

    def test_asymptotic_positive_and_growing(self):
        vals = [term_bound_asymptotic(2, j) for j in range(5, 30)]
        assert all(v > 0 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestRootFinder:
    def test_known_roots_with_multiplicities(self):
        f = PolyQ([1])
        expected = []
        for root, mult in ((Fraction(1, 2), 2), (Fraction(-1, 3), 1), (Fraction(-2), 3)):
            for _ in range(mult):
                f = f * PolyQ([-root, 1])
            expected.append((complex(float(root), 0), mult))
        got = poly_roots(f * 6)
        assert len(got) == len(expected)
        for (r, m), (er, em) in zip(sorted(got, key=lambda rm: rm[0].real),
                                    sorted(expected, key=lambda rm: rm[0].real)):
            assert m == em
            assert abs(r - er) < 1e-9

    def test_wilkinson_lite(self):
        f = PolyQ([1])
        for k in range(1, 9):
            f = f * PolyQ([-k, 1])
        roots = sorted(r.real for r, _ in poly_roots(f))
        assert all(abs(r - k) < 1e-6 for r, k in zip(roots, range(1, 9)))

    def test_repeated_complex_pair(self):
        base = PolyQ([1, 1, 1])
        got = poly_roots(base * base * base)
        assert sorted(m for _, m in got) == [3, 3]
        for r, _ in got:
            assert abs(abs(r) - 1.0) < 1e-12

    def test_sorted_by_modulus(self):
        f = PolyQ([-6, 11, -6, 1])  # roots 1, 2, 3
        mods = [abs(r) for r, _ in poly_roots(f)]
        assert mods == sorted(mods)

    def test_degenerate_inputs(self):
        assert poly_roots(PolyQ([5])) == []
        assert poly_roots(PolyQ()) == []


class TestClassification:
    def test_definitely_convergent_word(self):
        pr = classify_word(W("10"))
        assert pr.classification == "convergent"
        assert abs(pr.max_xi_modulus - 0.5) < 1e-12
        assert abs(pr.dominant_singularity - (-2.0)) < 1e-12
        assert pr.r_at_one == Fraction(3, 2)
        assert abs(pr.coefficient_sum - math.log(1.5)) < 1e-12

    def test_second_convergent_word(self):
        pr = classify_word(W("110"))
        assert pr.classification == "convergent"
        assert pr.r_at_one == Fraction(7, 6)
        assert abs(pr.coefficient_sum - math.log(7 / 6)) < 1e-12

    def test_divergent_word(self):
        pr = classify_word(W("1010"))
        assert pr.classification == "divergent"
        assert pr.coefficient_sum is None
        assert abs(pr.max_xi_modulus - 1.157298106138376) < 1e-9
        x0 = pr.dominant_singularity
        assert abs(x0.imag) < 1e-12
        assert abs(x0.real - (-0.86408)) < 1e-4

    def test_needs_admissible_word(self):
        with pytest.raises(ValueError):
            classify_word(W("11"))

    def test_tolerance_widens_boundary(self):
        # with a huge tolerance even |xi| = 1/2 lands in the boundary band
        assert classify_word(W("10"), tol=0.6).classification == "boundary"

    def test_nan_tolerance_rejected(self):
        # NaN fails every band comparison, which once made 1010 "convergent"
        with pytest.raises(ValueError, match="positive and finite"):
            classify_word(W("1010"), tol=float("nan"))

    def test_boundary_word_100_certified(self):
        pr = classify_word(W("100"))
        assert pr.classification == "boundary"
        assert abs(pr.max_xi_modulus - 1.0) < 1e-9
        rf = r_w_quotient(W("100"))
        assert rf.num == PolyQ([2, 1, 2])
        assert rf.den == PolyQ([2, 1])
        # conjugate pair of 2 + x + 2x^2: negative discriminant and root
        # product c0/c2 = 1, so both roots sit exactly on the unit circle
        a, b, c = rf.num.coeffs[2], rf.num.coeffs[1], rf.num.coeffs[0]
        assert b * b - 4 * a * c < 0
        assert c / a == 1

    def test_boundary_word_10011110_certified(self):
        w = W("10011110")
        pr = classify_word(w)
        assert pr.classification == "boundary"
        assert abs(pr.max_xi_modulus - 1.0) < 1e-9
        wl, wr, _ = truncations(w)
        assert str(wl) == "11110" and str(wr) == "1001111"
        # the right truncation carries the exact unit-circle pair
        assert Tbar(2, wr) == PolyQ([1, Fraction(1, 2), 1])
        # the left truncation is the geometric factor with all roots at 2
        one_minus_half = PolyQ([1, Fraction(-1, 2)])
        assert Tbar(2, wl) * one_minus_half == PolyQ(
            [1, 0, 0, 0, 0, Fraction(-1, 32)]
        )
        # numerator roots stay strictly outside the unit circle
        num_mods = [abs(r) for r, _ in poly_roots(r_w_quotient(w).num)]
        assert min(num_mods) > 1.04

    def test_exact_coefficient_formula(self):
        # [x^n] log r_w recovered from the root data, against the series
        worst = 0.0
        for p, jmax in ((2, 5), (3, 3)):
            for w in enumerate_admissible(p, jmax):
                prof = classify_word(w)
                series = log_rw_series(w, 20)
                for n in range(1, 21):
                    exact = log_rat_coeff_exact(prof, n)
                    ref = float(series[n])
                    err = abs(exact - complex(ref, 0.0))
                    worst = max(worst, err / max(1.0, abs(ref)))
        assert worst < 1e-8

    def test_coefficient_index_validated(self):
        with pytest.raises(ValueError):
            log_rat_coeff_exact(classify_word(W("10")), 0)

    def test_dominant_singularity_governs_tail(self):
        # one simple real singularity nearest the origin forces
        # c_j ~ -eps xi^j / j, sign alternating with the negative root
        w = W("1010")
        pr = classify_word(w)
        x0 = pr.dominant_singularity
        at_radius = [
            (r, m, eps)
            for roots, eps in ((pr.zeros, 1), (pr.poles, -1))
            for r, m in roots
            if abs(abs(r) - pr.radius) < 1e-9
        ]
        assert len(at_radius) == 1
        root, mult, eps = at_radius[0]
        assert mult == 1 and abs(root - x0) < 1e-12
        xi = 1 / x0.real
        series = log_rw_series(w, 56)
        for j in (53, 54, 55, 56):
            predicted = -eps * xi**j / j
            assert abs(float(series[j]) / predicted - 1) < 2e-3


class TestScanPartition:
    def test_census(self, base2_scan):
        rep = base2_scan
        assert (rep.p, rep.max_len) == (2, 10)
        assert rep.checked == 511
        assert rep.divergent_count == 465
        assert len(rep.convergent) == 44
        assert [str(w) for w in rep.boundary] == ["100", "10011110"]

    def test_families(self, base2_scan):
        fams = base2_scan.families
        assert [str(w) for w in fams["ones_zero"]] == [
            "1" * s + "0" for s in range(1, 10)
        ]
        assert [str(w) for w in fams["ones_zero_zero"]] == ["100", "1111100"]
        assert [str(w) for w in fams["ones_zero_ones_zero"]] == ONES_ZERO_ONES_ZERO_LEN10
        assert [str(w) for w in base2_scan.exceptional] == EXCEPTIONAL_LEN10

    def test_partition_covers_non_divergent(self, base2_scan):
        rep = base2_scan
        covered = {w for ws in rep.families.values() for w in ws}
        covered.update(rep.exceptional)
        assert len(covered) == rep.checked - rep.divergent_count
        assert set(rep.convergent) | set(rep.boundary) == covered

    def test_partition_stable_under_tol_halving(self):
        a = scan_convergent_words(2, 8, tol=1e-6)
        b = scan_convergent_words(2, 8, tol=5e-7)
        assert a.families == b.families
        assert a.exceptional == b.exceptional
        assert a.boundary == b.boundary
        assert a.divergent_count == b.divergent_count

    def test_other_base_has_no_named_families(self):
        rep = scan_convergent_words(3, 3)
        assert all(not ws for ws in rep.families.values())
        assert set(rep.exceptional) == set(rep.convergent) | set(rep.boundary)


class TestFamilies:
    def test_q_polynomial_values(self):
        assert q_polynomial(1) == PolyQ([-1, 1])
        assert q_polynomial(2) == PolyQ([-1, 0, -3, 4])
        with pytest.raises(ValueError):
            q_polynomial(0)

    def test_ones_zero_geometric(self):
        one_minus_half = PolyQ([1, Fraction(-1, 2)])
        for s in range(1, 13):
            form, rep = closed_form_family(s, "ones_zero")
            assert rep.matches
            w = Word(2, (1,) * s + (0,))
            assert Tbar(2, w) * one_minus_half == PolyQ(
                [1] + [0] * s + [-Fraction(1, 2 ** (s + 1))]
            )

    def test_ones_zero_zero_quotient(self):
        for s in range(1, 14):
            form, rep = closed_form_family(s, "ones_zero_zero")
            assert rep.matches, s

    def test_ones_zero_zero_near_root(self):
        # q_s has a root near i/2; the first-order correction lands within
        # 10/4^s of it, and for s >= 3 the side of the circle |t| = 1/2
        # follows s mod 4
        for s in (5, 9, 13):
            _, rep = closed_form_family(s, "ones_zero_zero")
            assert rep.approx_error * 4**s < 10
        for s in range(3, 14):
            _, rep = closed_form_family(s, "ones_zero_zero")
            assert rep.side_matches_rule, s

    def test_ones_zero_zero_degenerate_small_s(self):
        # s = 1 has only the root t = 1; s = 2 sits exactly on |t| = 1/2
        _, rep1 = closed_form_family(1, "ones_zero_zero")
        assert abs(rep1.near_root - 1) < 1e-12
        assert abs(rep1.modulus_excess - 0.5) < 1e-12
        _, rep2 = closed_form_family(2, "ones_zero_zero")
        assert abs(rep2.modulus_excess) < 1e-12
        # exactness: the pair comes from 4t^2 + t + 1 with root product 1/4
        quotient, remainder = divmod(q_polynomial(2), PolyQ([-1, 1]))
        assert remainder.is_zero
        assert quotient == PolyQ([1, 1, 4])

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            closed_form_family(3, "no_such_family")
        with pytest.raises(ValueError):
            closed_form_family(0, "ones_zero")


class TestCoefficientSums:
    def test_single_words(self):
        rep = coefficient_sum(Monomial.of([(W("10"), 1)]))
        assert abs(rep.value - math.log(1.5)) < 1e-10
        assert rep.r_at_one == {W("10"): Fraction(3, 2)}
        assert 0 < rep.error_bound < 1e-12
        rep = coefficient_sum(Monomial.of([(W("110"), 1)]))
        assert abs(rep.value - math.log(7 / 6)) < 1e-10

    def test_square_gets_factorial_weight(self):
        rep = coefficient_sum(Monomial.of([(W("10"), 2)]))
        assert abs(rep.value - 0.5 * math.log(1.5) ** 2) < 1e-10

    def test_partial_sums_actually_approach(self):
        series = log_rw_series(W("10"), 40)
        total = sum(float(c) for c in series.coeffs)
        assert abs(total - math.log(1.5)) < 1e-11

    def test_divergent_refused(self):
        with pytest.raises(ConvergenceError) as err:
            coefficient_sum(Monomial.of([(W("1010"), 1)]))
        assert "1010 is divergent" in str(err.value)
        assert err.value.profiles[0].classification == "divergent"

    def test_boundary_refused(self):
        with pytest.raises(ConvergenceError) as err:
            coefficient_sum(Monomial.of([(W("100"), 1)]))
        assert "100 is boundary" in str(err.value)

    def test_mixed_monomial_reports_offender(self):
        with pytest.raises(ConvergenceError) as err:
            coefficient_sum(Monomial.of([(W("10"), 1), (W("1010"), 2)]))
        assert [str(pr.word) for pr in err.value.profiles] == ["1010"]
