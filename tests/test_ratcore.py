"""Exact arithmetic layer: polynomials, truncated series, rational functions."""

import cmath
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from ppk import ratcore
from ppk.analysis import _half_substitute, classify_word, poly_roots, q_polynomial
from ppk.ratcore import (
    _CERT_PRIME,
    PolyQ,
    RationalFunctionQ,
    SeriesQ,
    _exact_quotient,
    _int_row,
    _squarefree_mod,
    poly_gcd,
    rational_to_str,
    signed_sum,
    squarefree_decomposition,
)
from ppk.synth import (
    BlockPolynomial,
    _mul,
    _quotient_rows,
    _rw_parts,
    r_w_closed,
    r_w_quotient,
)
from ppk.words import Word, enumerate_admissible


def rand_poly(rng, degree, scale=9):
    return PolyQ(
        [Fraction(rng.randint(-scale, scale), rng.randint(1, scale)) for _ in range(degree + 1)]
    )


class TestRationalStrings:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(200):
            q = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            assert Fraction(rational_to_str(q)) == q

    def test_integer_form_drops_denominator(self):
        assert rational_to_str(Fraction(-6, 3)) == "-2"
        assert rational_to_str(Fraction(7, 2)) == "7/2"
        assert rational_to_str(3) == "3"


class TestPolyQ:
    def test_trailing_zeros_dropped(self):
        assert PolyQ([1, 2, 0, 0]).coeffs == (1, 2)
        assert PolyQ([0, 0]).is_zero
        assert PolyQ().degree == -1

    def test_ring_identities(self):
        rng = random.Random(2)
        for _ in range(40):
            a = rand_poly(rng, rng.randint(0, 6))
            b = rand_poly(rng, rng.randint(0, 6))
            c = rand_poly(rng, rng.randint(0, 6))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert a - a == PolyQ()

    def test_divmod_invariant(self):
        rng = random.Random(3)
        for _ in range(60):
            a = rand_poly(rng, rng.randint(0, 8))
            b = rand_poly(rng, rng.randint(0, 4))
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(PolyQ([1]), PolyQ())

    def test_evaluation_is_horner(self):
        f = PolyQ([3, 0, -2, 1])
        # 3 - 2x^2 + x^3 at x = 5/2
        assert f(Fraction(5, 2)) == 3 - 2 * Fraction(25, 4) + Fraction(125, 8)

    def test_derivative_product_rule(self):
        rng = random.Random(4)
        for _ in range(30):
            a = rand_poly(rng, rng.randint(0, 5))
            b = rand_poly(rng, rng.randint(0, 5))
            assert (a * b).derivative() == a.derivative() * b + a * b.derivative()

    def test_text_rendering(self):
        assert PolyQ([2, 1, 2, 4]).text() == "2 + x + 2x^2 + 4x^3"
        assert PolyQ([1, Fraction(1, 2), 1]).text() == "1 + 1/2*x + x^2"
        assert PolyQ([0, -1, 0, Fraction(-3, 4)]).text() == "-x - 3/4*x^3"
        assert PolyQ().text() == "0"

    def test_signed_sum(self):
        assert signed_sum([]) == "0"
        assert signed_sum([(Fraction(-1, 2), "1/2*x")]) == "-1/2*x"
        assert signed_sum([(3, "3"), (-1, "x"), (2, "2x^2")]) == "3 - x + 2x^2"

    def test_monomial_and_constant(self):
        assert PolyQ.monomial(5, 3) == PolyQ([0, 0, 0, 5])
        assert PolyQ([Fraction(1, 3)])(10) == Fraction(1, 3)
        with pytest.raises(ValueError):
            PolyQ.monomial(1, -1)


class TestGcdAndSquarefree:
    def test_gcd_of_common_factor(self):
        rng = random.Random(5)
        for _ in range(25):
            f = rand_poly(rng, rng.randint(1, 3))
            g = rand_poly(rng, rng.randint(0, 3))
            h = rand_poly(rng, rng.randint(0, 3))
            if f.is_zero or g.is_zero or h.is_zero:
                continue
            d = poly_gcd(f * g, f * h)
            # d is monic and divisible by the monic part of f
            assert d.coeffs[-1] == 1
            assert (d % f.monic()).is_zero

    def test_gcd_zero_cases(self):
        f = PolyQ([1, 2])
        assert poly_gcd(f, PolyQ()) == f.monic()
        assert poly_gcd(PolyQ(), PolyQ()).is_zero

    def test_squarefree_reconstruction(self):
        rng = random.Random(6)
        for _ in range(25):
            # build from distinct monic linear factors with multiplicities
            roots = rng.sample(range(-6, 7), rng.randint(1, 4))
            mults = [rng.randint(1, 3) for _ in roots]
            f = PolyQ([rng.randint(1, 5)])
            for root, m in zip(roots, mults):
                lin = PolyQ([-root, 1])
                for _ in range(m):
                    f = f * lin
            parts = squarefree_decomposition(f)
            rebuilt = PolyQ([f.coeffs[-1]])
            for g, i in parts:
                for _ in range(i):
                    rebuilt = rebuilt * g
            assert rebuilt == f
            assert sorted(i for _, i in parts) == sorted(set(mults))
            for g, _ in parts:
                assert poly_gcd(g, g.derivative()).degree == 0


def reference_gcd(a, b):
    """Monic gcd over Q by Euclid on Fraction coefficients."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def reference_squarefree(f):
    """Yun's algorithm by Fraction Euclid, the reference for the integer core."""
    if f.degree <= 0:
        return []
    fp = f.derivative()
    g = reference_gcd(f, fp)
    if g.degree == 0:
        return [(f.monic(), 1)]
    b = f // g
    d = (fp // g) - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        a_i = reference_gcd(b, d)
        if a_i.degree > 0:
            out.append((a_i, i))
        b = b // a_i
        d = (d // a_i) - b.derivative()
        i += 1
    return out


def reference_roots(f):
    """poly_roots on the reference factors, floats taken from Fractions."""
    import numpy

    out = []
    for factor, mult in reference_squarefree(f):
        lead_first = [float(c) for c in reversed(factor.coeffs)]
        out.extend((complex(r), mult) for r in numpy.roots(lead_first))
    out.sort(key=lambda rm: (abs(rm[0]), cmath.phase(rm[0]), rm[1]))
    return out


def power(f, k):
    out = PolyQ([1])
    for _ in range(k):
        out = out * f
    return out


class TestIntegerCore:
    @pytest.mark.parametrize("p, max_len", [(2, 10), (3, 6), (5, 4)])
    def test_rw_rows_match_reference(self, p, max_len):
        uncertified = 0
        for w in enumerate_admissible(p, max_len - 1):
            profile = classify_word(w)
            for row, roots in zip(_rw_parts(w), (profile.zeros, profile.poles)):
                f = PolyQ(row)
                assert squarefree_decomposition(f) == reference_squarefree(f), w
                want = reference_roots(f)
                assert list(roots) == want, w
                assert poly_roots(f) == want, w
                uncertified += f.degree > 0 and not _squarefree_mod(_int_row(f))
        # the rows that miss the certificate run Yun over Z
        assert uncertified > 0

    def test_lead_divisible_by_prime_falls_back(self):
        q = _CERT_PRIME
        f = PolyQ([1, 0, q])
        assert not _squarefree_mod(_int_row(f))
        assert squarefree_decomposition(f) == [(f.monic(), 1)]
        g = PolyQ([1, q])
        assert not _squarefree_mod(_int_row(g * g))
        assert squarefree_decomposition(g * g) == [(g.monic(), 2)]
        # (qx + 1)^2 (x + 2) is x + 2 mod q, squarefree there but not over Q
        h = g * g * PolyQ([2, 1])
        assert not _squarefree_mod(_int_row(h))
        assert squarefree_decomposition(h) == [(PolyQ([2, 1]), 1), (g.monic(), 2)]

    def test_squarefree_over_q_but_not_mod_q(self):
        f = PolyQ([-_CERT_PRIME, 0, 1])  # x^2 - q = x^2 mod q
        assert not _squarefree_mod(_int_row(f))
        assert squarefree_decomposition(f) == [(f, 1)]
        assert [m for _, m in poly_roots(f)] == [1, 1]

    def test_certificate_accepts_squarefree_rows(self):
        assert _squarefree_mod([2, 1, 2])
        assert not _squarefree_mod([1, 2, 1])

    def test_repeated_linear_and_complex_factors(self):
        lin, pair, mixed = PolyQ([-1, 1]), PolyQ([1, 0, 1]), PolyQ([2, 1, 2])
        f = power(lin, 2) * power(pair, 3) * PolyQ([2, 1]) * power(mixed, 2) * 3
        want = [
            (PolyQ([2, 1]), 1),
            ((lin * mixed).monic(), 2),
            (pair, 3),
        ]
        assert squarefree_decomposition(f) == want
        assert reference_squarefree(f) == want
        assert poly_roots(f) == reference_roots(f)
        assert sorted(m for _, m in poly_roots(f)) == [1, 2, 2, 2, 3, 3]

    def test_rational_coefficients(self):
        # closed_form_family's half-substituted pole polynomials q_s(x/2)
        half = PolyQ([1, Fraction(-1, 2)])
        for s in range(1, 10):
            f = _half_substitute(q_polynomial(s))
            for g in (f, f * power(half, 2), power(f, 2) * half):
                assert squarefree_decomposition(g) == reference_squarefree(g)
                assert poly_roots(g) == reference_roots(g)

    def test_random_products_match_reference(self):
        rng = random.Random(10)
        for _ in range(40):
            f = PolyQ([Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
            for _ in range(rng.randint(1, 4)):
                g = rand_poly(rng, rng.randint(1, 3))
                f = f * power(g, rng.randint(1, 3))
            assert squarefree_decomposition(f) == reference_squarefree(f)

    def test_exact_quotient(self):
        assert _exact_quotient([2, 3, 1], [1, 1]) == [2, 1]
        assert _exact_quotient([], [3, 1]) == []
        with pytest.raises(ArithmeticError, match="not exact"):
            _exact_quotient([1, 0, 1], [1, 1])  # remainder 2
        with pytest.raises(ArithmeticError, match="not exact"):
            _exact_quotient([1, 2], [0, 2])  # lead divides, constant does not

    def test_zero_and_constant(self):
        for f in (PolyQ(), PolyQ([Fraction(5, 3)]), PolyQ([-1])):
            assert squarefree_decomposition(f) == []
            assert poly_roots(f) == []
        assert poly_gcd(PolyQ([Fraction(2, 3)]), PolyQ([0, 1])) == PolyQ([1])
        assert poly_gcd(PolyQ(), PolyQ([Fraction(-2, 3)])) == PolyQ([1])

    def test_gcd_of_rational_inputs_is_monic(self):
        rng = random.Random(11)
        for _ in range(40):
            f = rand_poly(rng, rng.randint(1, 3))
            g = rand_poly(rng, rng.randint(0, 3))
            h = rand_poly(rng, rng.randint(0, 3))
            a, b = f * g, f * h * Fraction(-7, 3)
            d = poly_gcd(a, b)
            assert d == reference_gcd(a, b)
            if not d.is_zero:
                assert d.coeffs[-1] == 1


class TestSeriesQ:
    def test_order_mismatch_raises(self):
        a = SeriesQ.one(4)
        b = SeriesQ.one(5)
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
            with pytest.raises(ValueError):
                op()

    def test_construction_validates_length(self):
        with pytest.raises(ValueError):
            SeriesQ(3, (1, 2))
        with pytest.raises(ValueError):
            SeriesQ(-1, ())

    def test_division_round_trip(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(0, 8)
            a = SeriesQ(n, [rng.randint(-9, 9) for _ in range(n + 1)])
            b_coeffs = [1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            b = SeriesQ(n, b_coeffs)
            assert (a / b) * b == a

    def test_division_needs_unit(self):
        with pytest.raises(ZeroDivisionError):
            SeriesQ.one(3) / SeriesQ.zero(3)

    def test_log_exp_round_trip(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(1, 10)
            coeffs = [1] + [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
            u = SeriesQ(n, coeffs)
            assert u.log().exp() == u
            v = SeriesQ(n, [0] + list(coeffs[1:]))
            assert v.exp().log() == v

    def test_log_turns_products_into_sums(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 9)
            mk = lambda: SeriesQ(
                n, [1] + [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
            )
            u, v = mk(), mk()
            assert (u * v).log() == u.log() + v.log()

    def test_log_golden(self):
        # log(1 + x/2) = x/2 - x^2/8 + x^3/24 - x^4/64 + ...
        s = SeriesQ(4, (1, Fraction(1, 2), 0, 0, 0)).log()
        assert s.coeffs == (
            0,
            Fraction(1, 2),
            Fraction(-1, 8),
            Fraction(1, 24),
            Fraction(-1, 64),
        )

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            SeriesQ(2, (2, 0, 0)).log()
        with pytest.raises(ValueError):
            SeriesQ(2, (1, 0, 0)).exp()

    def test_from_poly_pads_and_truncates(self):
        f = PolyQ([1, 2, 3])
        assert SeriesQ.from_poly(f, 4).coeffs == (1, 2, 3, 0, 0)
        assert SeriesQ.from_poly(f, 1).coeffs == (1, 2)

class TestRationalFunctionQ:
    def test_canonical_form(self):
        # common factor and rational scaling are both removed
        a = RationalFunctionQ(PolyQ([2, 2]), PolyQ([4, 2]))
        b = RationalFunctionQ(PolyQ([Fraction(1, 2), Fraction(1, 2)]), PolyQ([1, Fraction(1, 2)]))
        assert a == b
        assert a.num == PolyQ([1, 1])
        assert a.den == PolyQ([2, 1])

    def test_gcd_cancellation(self):
        common = PolyQ([1, 3, 1])
        a = RationalFunctionQ(common * PolyQ([1, 1]), common * PolyQ([2, 5]))
        assert a == RationalFunctionQ(PolyQ([1, 1]), PolyQ([2, 5]))

    def test_denominator_constant_sign(self):
        a = RationalFunctionQ(PolyQ([1]), PolyQ([-2, 1]))
        assert a.den(0) > 0
        assert a.num(0) / a.den(0) == Fraction(-1, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalFunctionQ(PolyQ([1]), PolyQ())
        with pytest.raises(ValueError):
            RationalFunctionQ(PolyQ([1]), PolyQ([0, 1]))

    def test_series_agrees_with_eval_structure(self):
        f = RationalFunctionQ(PolyQ([1]), PolyQ([1, -1]))
        # geometric series 1/(1 - x)
        assert f.series(5).coeffs == (1, 1, 1, 1, 1, 1)

    def test_zero_function(self):
        z = RationalFunctionQ(PolyQ(), PolyQ([3, 1]))
        assert z.num.is_zero
        assert z.den == PolyQ([1])

    def test_str_is_the_rw_form(self):
        assert str(r_w_quotient(Word.parse("110", 2))) == "(4 + 2x + x^2) / (4 + 2x)"
        assert str(RationalFunctionQ(PolyQ([Fraction(1, 2), 1]))) == "(1 + 2x) / (2)"
        assert str(RationalFunctionQ(PolyQ(), PolyQ([3, 1]))) == "(0) / (1)"
        assert BlockPolynomial(2, 1, {}).text() == "0"


def reference_canonical(num, den):
    """The canonical (num, den) by Fraction Euclid, monic gcd and Fraction
    division, then a common rational scale: the reference for the row core."""
    if num.is_zero:
        return PolyQ(), PolyQ([1])
    g = reference_gcd(num, den)
    if g.degree > 0:
        num, den = num // g, den // g
    coeffs = num.coeffs + den.coeffs
    scale_den = lcm(*(c.denominator for c in coeffs))
    content = 0
    for c in coeffs:
        content = gcd(content, c.numerator * (scale_den // c.denominator))
    scale = Fraction(scale_den, content)
    if den(0) < 0:
        scale = -scale
    return num * scale, den * scale


def assert_reference_form(rf, num, den):
    assert (rf.num, rf.den) == reference_canonical(num, den)


class TestCanonicalForm:
    def test_random_pairs_match_reference(self):
        rng = random.Random(12)
        shapes = {"common": 0, "negative": 0, "zero": 0, "constant": 0}
        for _ in range(200):
            a = rand_poly(rng, rng.randint(0, 4))
            b = rand_poly(rng, rng.randint(0, 3))
            g = rand_poly(rng, rng.randint(0, 3))
            if rng.random() < 0.15:
                a = PolyQ()
            if rng.random() < 0.15:
                b = PolyQ([rng.choice([-1, 1]) * Fraction(rng.randint(1, 9), rng.randint(1, 9))])
            num, den = a * g, b * g
            if den.is_zero or not den(0):
                continue
            assert_reference_form(RationalFunctionQ(num, den), num, den)
            shapes["common"] += g.degree > 0 and g.coeffs[-1] != 1 and not num.is_zero
            shapes["negative"] += den(0) < 0
            shapes["zero"] += num.is_zero
            shapes["constant"] += den.degree == 0
        # every case the row core handles differently was drawn
        assert min(shapes.values()) >= 10, shapes

    @pytest.mark.parametrize("p, max_len", [(2, 10), (3, 6), (5, 4), (7, 3)])
    def test_rw_matches_reference(self, p, max_len):
        for w in enumerate_admissible(p, max_len - 1):
            num, den = map(PolyQ, _quotient_rows(w))
            assert_reference_form(r_w_quotient(w), num, den)
            num, den = map(PolyQ, _rw_parts(w))
            assert_reference_form(r_w_closed(w), num, den)

    def test_from_rows_matches_polyq_path(self):
        rng = random.Random(17)
        for _ in range(200):
            num = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
            den = [rng.choice([-1, 1]) * rng.randint(1, 9)]
            den += [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
            g = [rng.randint(1, 5)] + [rng.randint(-5, 5) for _ in range(2)]
            num, den = _mul(num, g, len(num) + 2), _mul(den, g, len(den) + 2)
            want = RationalFunctionQ(PolyQ(num), PolyQ(den))
            # trailing zeros are allowed in a row
            assert RationalFunctionQ.from_rows(num + [0], den + [0, 0]) == want
        for den in ([], [0], [0, 1]):
            with pytest.raises(ValueError):
                RationalFunctionQ.from_rows([1], den)

    def test_rw_takes_no_fraction_on_the_way_in(self, monkeypatch):
        # the rows go straight to the integer core; only the canonical
        # result is held as PolyQ
        monkeypatch.setattr(ratcore, "_int_row", None)
        w = Word.parse("10110", 2)
        assert str(r_w_quotient(w)) == str(r_w_closed(w))

    def test_no_fraction_division_or_gcd(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Fraction polynomial division or gcd")

        monkeypatch.setattr(PolyQ, "__divmod__", refuse)
        monkeypatch.setattr(PolyQ, "__floordiv__", refuse)
        monkeypatch.setattr(ratcore, "poly_gcd", refuse)
        common = PolyQ([1, Fraction(3, 2), 7])
        f = RationalFunctionQ(common * PolyQ([1, 1]), common * PolyQ([-2, 5]))
        assert (f.num, f.den) == (PolyQ([-1, -1]), PolyQ([2, -5]))
        assert r_w_quotient(Word.parse("100111111110", 2)) == r_w_closed(
            Word.parse("100111111110", 2)
        )
