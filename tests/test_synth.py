"""Building-block rational functions and synthesis of the level polynomials."""

import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction
from math import lcm

import pytest

from ppk.ratcore import (
    PolyQ,
    RationalFunctionQ,
    SeriesQ,
    rational_to_str,
    signed_sum,
)
from ppk.synth import (
    BlockPolynomial,
    Monomial,
    alpha_coefficient,
    block_polynomial,
    block_polynomials_up_to,
    _level_index,
    _log_rw,
    _mul,
    _peeled,
    _reduced,
    _rw_parts,
    cumulative_polynomial,
    evaluate_levels,
    log_rw_series,
    monomial_series,
    monomials_up_to_weight,
    r_w_closed,
    r_w_quotient,
    rw_identity_scan,
    telescope_identity_holds,
    telescope_random_check,
)
from ppk.theta import T_poly, Tbar, theta, theta0
from ppk.words import (
    Word,
    complement,
    counting_factor_counts,
    enumerate_admissible,
    expand,
    factor_count,
    truncations,
)

W = lambda text, p=2: Word.parse(text, p)

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


def counting_words(p, max_len):
    """Every word with a nonzero lead and at most max_len digits."""
    words = [Word(p, (c,)) for c in range(1, p)]
    frontier = words
    for _ in range(max_len - 1):
        frontier = [Word(p, w.digits + (a,)) for w in frontier for a in range(p)]
        words.extend(frontier)
    return words


class TestMul:
    def test_matches_polyq_product_truncated(self):
        # interior zeros, empty lists, and n below, at and past the length
        rng = random.Random(77)

        def sparse_row():
            size = rng.randint(0, 7)
            row = [rng.choice((0, 0, rng.randint(-50, 50))) for _ in range(size)]
            if row and not row[-1]:
                row[-1] = rng.choice((-2, 3))
            return row

        for _ in range(300):
            xs, ys = sparse_row(), sparse_row()
            full = (PolyQ(xs) * PolyQ(ys)).coeffs
            length = len(xs) + len(ys) - 1
            for n in {0, 1, length - 1, length, length + 3}:
                got = _mul(xs, ys, n)
                want = list(full[:n])
                assert len(got) <= max(n, 0)
                assert got + [0] * (n - len(got)) == want + [0] * (n - len(want))

    def test_interior_zeros(self):
        assert _mul([1, 0, 2], [3, 0, 0, 1], 10) == [3, 0, 6, 1, 0, 2]
        assert _mul([1, 0, 2], [3, 0, 0, 1], 3) == [3, 0, 6]
        assert _mul([5], [7], 0) == []


class TestAlphaAndRw:
    def test_alpha_golden(self):
        assert alpha_coefficient(W("10")) == Fraction(1, 2)
        assert alpha_coefficient(W("100")) == 1
        assert alpha_coefficient(W("110")) == Fraction(1, 4)
        assert alpha_coefficient(W("1010")) == Fraction(1, 2)
        assert alpha_coefficient(W("21", 3)) == Fraction(1, 3)

    def test_alpha_needs_admissible(self):
        for bad in (W("11"), W("01"), W("1")):
            with pytest.raises(ValueError):
                alpha_coefficient(bad)
            with pytest.raises(ValueError):
                r_w_closed(bad)

    def test_rw_golden(self):
        assert r_w_quotient(W("10")) == RationalFunctionQ(PolyQ([2, 1]), PolyQ([2]))
        assert r_w_quotient(W("100")) == RationalFunctionQ(
            PolyQ([2, 1, 2]), PolyQ([2, 1])
        )
        assert r_w_quotient(W("110")) == RationalFunctionQ(
            PolyQ([4, 2, 1]), PolyQ([4, 2])
        )

    def test_quotient_digest(self):
        # every admissible word at p = 2, 3, 5, 7 (lengths <= 10, 6, 4, 3);
        # the digest was taken from the Tbar-product build of r_w_quotient
        h = hashlib.sha256()
        count = 0
        for p, max_len in ((2, 10), (3, 6), (5, 4), (7, 3)):
            for w in enumerate_admissible(p, max_len - 1):
                rf = r_w_quotient(w)
                num = ",".join(str(c) for c in rf.num.coeffs)
                den = ",".join(str(c) for c in rf.den.coeffs)
                h.update(f"{p} {w} {num} {den}\n".encode())
                count += 1
        assert count == 1779
        assert h.hexdigest() == (
            "6b57db4ecc3402a177c6a7371b198c374728a53e24be5e3a12091ff7a973d71b"
        )

    def test_quotient_matches_tbar_definition(self):
        # every counting word, single digits and a last digit p - 1 included
        for p, max_len in ((2, 6), (3, 4), (5, 3)):
            for w in counting_words(p, max_len):
                wl, wr, wlr = truncations(w)
                want = RationalFunctionQ(
                    Tbar(p, w) * Tbar(p, wlr), Tbar(p, wr) * Tbar(p, wl)
                )
                assert r_w_quotient(w) == want, w
        assert r_w_quotient(W("2", 3)) == RationalFunctionQ(PolyQ([1]))
        with pytest.raises(ValueError):
            r_w_quotient(W("01"))

    def test_closed_equals_quotient(self):
        for p, max_len in ((2, 7), (3, 5), (5, 4), (7, 4)):
            for w in enumerate_admissible(p, max_len - 1):
                rf = r_w_quotient(w)
                assert r_w_closed(w) == rf, w
                # (N, bD) is already in lowest terms: the canonical quotient
                # is it times one positive rational
                num, den = _rw_parts(w)
                scale = rf.den.coeffs[0] / den[0]
                assert scale > 0, w
                assert rf.num == PolyQ(num) * scale, w
                assert rf.den == PolyQ(den) * scale, w

    def test_leading_correction_shape(self):
        # r_w - 1 starts at x^{mu-1} with the alpha coefficient on top
        rng = random.Random(40)
        for _ in range(60):
            p = rng.choice((2, 3, 5))
            length = rng.randint(2, 6)
            digits = [rng.randint(1, p - 1)]
            digits.extend(rng.randrange(p) for _ in range(length - 2))
            digits.append(rng.randrange(p - 1))
            w = Word(p, tuple(digits))
            mu = len(digits)
            s = r_w_quotient(w).series(mu)
            assert s.coeffs[0] == 1
            assert all(c == 0 for c in s.coeffs[1 : mu - 1])
            assert s.coeffs[mu - 1] == alpha_coefficient(w)

    def test_identity_scan_small(self):
        checked, bad = rw_identity_scan(2, 6)
        assert (checked, bad) == (31, [])
        checked, bad = rw_identity_scan(3, 4)
        assert (checked, bad) == (52, [])
        checked, bad = rw_identity_scan(7, 4)
        assert (checked, bad) == (2052, [])


class TestLogSeries:
    def test_x10_is_log_of_one_plus_half_x(self):
        s = log_rw_series(W("10"), 12)
        for j in range(1, 13):
            assert s[j] == Fraction((-1) ** (j + 1), j * 2**j)
        assert s[0] == 0

    def test_x110_closed_pattern(self):
        # coefficient j is (2[2|j] - 3[3|j]) / (j 2^j); zero iff j = +-1 mod 6
        s = log_rw_series(W("110"), 24)
        for j in range(1, 25):
            num = 2 * (j % 2 == 0) - 3 * (j % 3 == 0)
            assert s[j] == Fraction(num, j * 2**j)

    def test_matches_quotient_series(self):
        rng = random.Random(41)
        for _ in range(40):
            p = rng.choice((2, 3))
            length = rng.randint(2, 6)
            digits = [rng.randint(1, p - 1)]
            digits.extend(rng.randrange(p) for _ in range(length - 2))
            digits.append(rng.randrange(p - 1))
            w = Word(p, tuple(digits))
            assert log_rw_series(w, 10) == r_w_quotient(w).series(10).log()

    def test_truncation_edges_match_quotient(self):
        # every order 0..12, including m > order (zero series) and
        # m == order (alpha_w x^m alone), with m = len(w) - 1; two words
        # each with m = 1, 2, 3 also at every order up to 40
        rng = random.Random(46)
        for p in (2, 3, 5, 7):
            words = enumerate_admissible(p, 1 if p > 3 else 2)
            for length in (3, 4, 5, 7, 10, 13, 14):
                for _ in range(2):
                    digits = [rng.randint(1, p - 1)]
                    digits.extend(rng.randrange(p) for _ in range(length - 2))
                    digits.append(rng.randrange(p - 1))
                    words.append(Word(p, tuple(digits)))
            high = []
            for m in (1, 2, 3):
                pool = [
                    w for w in enumerate_admissible(p, m)
                    if len(w.digits) == m + 1
                ]
                high.extend(rng.sample(pool, min(2, len(pool))))
            for w in words + high:
                rw = r_w_quotient(w)
                m = len(w.digits) - 1
                for order in range(41 if w in high else 13):
                    s = log_rw_series(w, order)
                    assert s == rw.series(order).log(), (w, order)
                    if m > order:
                        assert s == SeriesQ.zero(order)
                    elif m == order:
                        tail = [alpha_coefficient(w)]
                        assert s == SeriesQ(order, [0] * m + tail)


class TestMonomials:
    def test_construction_rules(self):
        a, b = W("10"), W("100")
        Monomial(((a, 2), (b, 1)))
        with pytest.raises(ValueError):
            Monomial(((b, 1), (a, 2)))  # out of order
        with pytest.raises(ValueError):
            Monomial(((a, 1), (a, 1)))  # duplicate
        with pytest.raises(ValueError):
            Monomial(((a, 0),))
        with pytest.raises(ValueError):
            Monomial(((Word(2, ()), 1),))

    def test_of_sorts(self):
        m = Monomial.of([(W("100"), 1), (W("10"), 2)])
        assert str(m) == "X[10]^2*X[100]"
        assert m.weight == 4

    def test_display_order(self):
        # weight, then factor-size partition, then the words themselves
        names = [str(m) for m in monomials_up_to_weight(2, 4)]
        assert names[:19] == [
            "1",
            "X[10]",
            "X[10]^2",
            "X[100]",
            "X[110]",
            "X[10]^3",
            "X[10]*X[100]",
            "X[10]*X[110]",
            "X[1000]",
            "X[1010]",
            "X[1100]",
            "X[1110]",
            "X[10]^4",
            "X[10]^2*X[100]",
            "X[10]^2*X[110]",
            "X[100]^2",
            "X[100]*X[110]",
            "X[110]^2",
            "X[10]*X[1000]",
        ]
        assert len(names) == len(set(names))

    def test_census_against_bound(self):
        # number of weight <= j monomials equals the bound sequence partial
        from ppk.analysis import term_bound_series

        for p, jmax in ((2, 7), (3, 4)):
            monos = monomials_up_to_weight(p, jmax)
            bounds = term_bound_series(p, jmax)
            by_weight = [0] * (jmax + 1)
            for m in monos:
                by_weight[m.weight] += 1
            running = 0
            for j in range(jmax + 1):
                running += by_weight[j]
                assert running == bounds[j]

    def test_series_needs_room(self):
        m = Monomial.of([(W("1000"), 1)])
        with pytest.raises(ValueError):
            monomial_series(m, 2)

    def test_power_series_is_scaled_log_power(self):
        m = Monomial.of([(W("10"), 2)])
        s = monomial_series(m, 8)
        base = log_rw_series(W("10"), 8)
        assert s == (base * base) / 2
        assert s[2] == Fraction(1, 8)
        assert s[3] == Fraction(-1, 16)


class TestWalkAgainstQuotient:
    @pytest.mark.parametrize("p,jmax", [(2, 7), (3, 4), (5, 3), (7, 2)])
    def test_every_coefficient(self, p, jmax):
        # prod (L^k / k!) from quotient-built SeriesQ logs, so neither the
        # closed form nor the integer core checks itself
        polys = block_polynomials_up_to(p, jmax)
        logs = {}
        seen = [0] * (jmax + 1)
        for mono in monomials_up_to_weight(p, jmax):
            s = SeriesQ.one(jmax)
            for w, k in mono.factors:
                if w not in logs:
                    logs[w] = r_w_quotient(w).series(jmax).log()
                for i in range(1, k + 1):
                    s = (s * logs[w]) / i
            for j in range(jmax + 1):
                assert polys[j].terms.get(mono, 0) == s[j], (str(mono), j)
                seen[j] += s[j] != 0
        assert seen == [q.term_count for q in polys]


def reference_build(p, jmax):
    """P_0..P_jmax as dicts, built as before the walk ran on word ids: a
    recursive walk whose nodes are validated ``Monomial``s, each step a full
    truncated product, every log r_w from the closed form one order higher
    and cut (so no top word takes the alpha_w shortcut), every level a dict
    of ``Fraction``s filled by (weight, shape) groups."""
    words = enumerate_admissible(p, jmax)
    wts = [len(w) - 1 for w in words]

    def cut_log(w):
        low, d, nums = _log_rw(w, jmax + 1)
        return _reduced(low, d, nums[: jmax + 1 - low])

    def times(a, b, k):
        (wa, da, xs), (wb, db, ys) = a, b
        return _reduced(wa + wb, da * db * k, _mul(xs, ys, jmax - wa - wb + 1))

    logs = [cut_log(w) for w in words]
    factors, groups = [], {}

    def rec(idx, budget, shape, value):
        node = (Monomial(tuple(factors)), value)
        groups.setdefault((jmax - budget, shape), []).append(node)
        for i in range(idx, len(words)):
            wt = wts[i]
            if wt > budget:
                break
            chain = [value]
            for k in range(1, budget // wt + 1):
                chain.append(times(chain[-1], logs[i], k))
            for k in range(len(chain) - 1, 0, -1):
                factors.append((words[i], k))
                rec(i + 1, budget - k * wt, (wt,) * k + shape, chain[k])
                factors.pop()

    rec(0, jmax, (), (0, 1, [1]))
    tables = [{} for _ in range(jmax + 1)]
    for key in sorted(groups):
        for mono, (low, d, nums) in groups[key]:
            for j, c in enumerate(nums, low):
                if c:
                    tables[j][mono] = Fraction(c, d)
    return tables


class TestAgainstReferenceBuild:
    @pytest.mark.parametrize("p, jmax", [(2, 10), (3, 5), (5, 4), (7, 3)])
    def test_every_level_in_order(self, p, jmax):
        ref = reference_build(p, jmax)
        block_polynomials_up_to.cache_clear()
        polys = block_polynomials_up_to(p, jmax)
        # term_count reads the stored rows, before any terms are made
        assert [q.term_count for q in polys] == [len(t) for t in ref]
        for poly, want in zip(polys, ref):
            assert list(poly.terms.items()) == list(want.items()), poly.j
            assert poly.term_count == len(want)

    def test_top_log_needs_admissible(self):
        # log r_w to x^m is alpha_w x^m, read without the closed form
        with pytest.raises(ValueError):
            log_rw_series(W("12", 3), 1)


class TestBlockPolynomials:
    def test_golden_displays(self):
        assert block_polynomial(2, 0).text() == "1"
        assert block_polynomial(2, 1).text() == "1/2*X[10]"
        assert block_polynomial(2, 2).text() == P2_TEXT
        assert block_polynomial(2, 3).text() == P3_TEXT
        assert block_polynomial(2, 4).text() == P4_TEXT

    @pytest.mark.parametrize("p, jmax", [(2, 10), (3, 6), (5, 4), (7, 3)])
    def test_walk_gives_canonical_order(self, p, jmax):
        monos = monomials_up_to_weight(p, jmax)
        assert monos == sorted(monos, key=Monomial.sort_key)
        # cumulative_polynomial(p, jmax + 1) sums this same build
        levels = block_polynomials_up_to(p, jmax)
        for poly in (*levels, cumulative_polynomial(p, jmax + 1)):
            terms = list(poly.terms)
            assert terms == sorted(terms, key=Monomial.sort_key), poly.j

    def test_no_sort_by_monomial_key(self, monkeypatch):
        def refuse(self):
            raise AssertionError("sorted by Monomial.sort_key")

        block_polynomials_up_to.cache_clear()
        monkeypatch.setattr(Monomial, "sort_key", refuse)
        block_polynomials_up_to(3, 5)
        monomials_up_to_weight(5, 3)
        cumulative_polynomial(2, 8)

    def test_build_is_one_cached_tuple(self):
        polys = block_polynomials_up_to(2, 3)
        assert isinstance(polys, tuple)
        assert block_polynomials_up_to(2, 3) is polys

    def test_term_count_prefix(self):
        polys = block_polynomials_up_to(2, 6)
        assert [q.term_count for q in polys] == [1, 1, 4, 11, 29, 69, 174]

    def test_json_layout(self):
        obj = block_polynomial(2, 2).json_obj()
        assert obj["p"] == 2 and obj["j"] == 2
        assert obj["terms"][0] == {
            "monomial": [{"word": "10", "exp": 1}],
            "coeff": "-1/8",
        }
        assert [t["coeff"] for t in obj["terms"]] == ["-1/8", "1/8", "1", "1/4"]

    def test_evaluation_matches_counts(self):
        rng = random.Random(42)
        for p, jmax in ((2, 6), (3, 4), (5, 3)):
            polys = block_polynomials_up_to(p, jmax)
            for _ in range(60):
                n = rng.randrange(0, 1 << 14)
                top = T_poly(p, n).degree
                for j in range(min(jmax, top) + 1):
                    expected = Fraction(theta(p, j, n), theta0(p, n))
                    assert polys[j].evaluate(n) == expected

    def test_zero_for_high_levels(self):
        # rows with small degree evaluate to zero at higher levels
        polys = block_polynomials_up_to(2, 5)
        for n in (0, 1, 3, 7, 31):
            # all-ones rows have degree 0
            for j in range(1, 6):
                assert polys[j].evaluate(n) == 0

    def test_first_occurrence_is_sharp(self):
        polys = block_polynomials_up_to(2, 6)
        for mono in monomials_up_to_weight(2, 6):
            if mono.is_constant:
                continue
            k = mono.weight
            assert mono in polys[k].terms, str(mono)
            for j in range(k):
                assert mono not in polys[j].terms, (str(mono), j)

    def test_evaluate_counts_skips_absent_words(self):
        poly = block_polynomial(2, 2)
        assert poly.evaluate_counts({W("10"): 2}) == Fraction(-2, 8) + Fraction(4, 8)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            block_polynomial(2, -1)


def reference_renders(poly):
    """(text, csv rows, json) of a level, written from ``terms`` and
    ``json_obj`` as they were before printing read the stored rows."""

    def mono_text(mono):
        return "*".join(
            f"X[{w}]" if k == 1 else f"X[{w}]^{k}" for w, k in mono.factors
        ) or "1"

    terms = []
    for mono, coeff in poly.terms.items():
        mag = abs(coeff)
        if mono.is_constant:
            body = rational_to_str(mag)
        elif mag == 1:
            body = mono_text(mono)
        else:
            body = f"{rational_to_str(mag)}*{mono_text(mono)}"
        terms.append((coeff, body))
    rows = [[mono_text(m), rational_to_str(c)] for m, c in poly.terms.items()]
    return signed_sum(terms), rows, json.dumps(poly.json_obj(), indent=2)


def renders(poly):
    return poly.text(), list(poly.csv_rows()), "".join(poly.json_chunks())


class TestRenderFromRows:
    # text, csv and json of a stored level come from its rows, one json
    # chunk per term; all three must match the route through ``terms``
    @pytest.mark.parametrize("p, jmax", [(2, 10), (3, 6), (5, 4), (7, 3)])
    def test_every_level_matches_terms(self, p, jmax):
        polys = block_polynomials_up_to.__wrapped__(p, jmax)
        streamed = [renders(poly) for poly in polys]
        chunks = [len(list(poly.json_chunks())) for poly in polys]
        assert chunks == [poly.term_count + 2 for poly in polys]
        for poly, got in zip(polys, streamed):
            want = reference_renders(poly)
            assert got == want, (p, poly.j)
            # reading terms leaves the renders as they were
            assert renders(poly) == want

    @pytest.mark.parametrize("p, jmax", [(2, 10), (3, 6), (5, 4), (7, 3)])
    def test_cumulative_levels_match_terms(self, p, jmax):
        for j in range(1, jmax + 1):
            poly = cumulative_polynomial(p, j)
            assert renders(poly) == reference_renders(poly), (p, j)
            got = "".join(poly.json_chunks(cumulative=True))
            want = {**poly.json_obj(), "cumulative": True}
            assert got == json.dumps(want, indent=2)

    def test_edge_forms(self):
        p0 = block_polynomials_up_to.__wrapped__(2, 0)[0]
        assert "".join(p0.json_chunks(cumulative=False)) == (
            '{\n  "p": 2,\n  "j": 0,\n  "terms": [\n    {\n'
            '      "monomial": [],\n      "coeff": "1"\n    }\n  ],\n'
            '  "cumulative": false\n}'
        )
        empty = BlockPolynomial(2, 1, {})
        assert renders(empty) == ("0", [], '{\n  "p": 2,\n  "j": 1,\n  "terms": []\n}')
        assert renders(empty) == reference_renders(empty)

    def test_terms_is_read_only(self):
        poly = block_polynomials_up_to(2, 3)[3]
        first = next(iter(poly.terms))
        with pytest.raises(TypeError):
            poly.terms[first] = Fraction(7, 3)
        with pytest.raises(AttributeError):
            poly.terms = {first: Fraction(7, 3)}
        assert poly.terms is poly.terms and poly.text() == P3_TEXT


def dense_levels(p, jmax, counts):
    return tuple(
        poly.evaluate_counts(counts) for poly in block_polynomials_up_to(p, jmax)
    )


class TestEvaluateLevels:
    @pytest.mark.parametrize(
        "p, jmax, rows",
        [
            (2, 9, range(1024)),
            (3, 5, range(729)),
            (5, 4, range(0, 5**5, 37)),
            (7, 3, range(0, 7**4, 31)),
        ],
    )
    def test_rows_match_dense(self, p, jmax, rows):
        for n in rows:
            counts = counting_factor_counts(expand(n, p))
            assert evaluate_levels(p, jmax, n) == dense_levels(p, jmax, counts), n

    def test_column_counts_with_zeros_match_dense(self):
        # column t is evaluated at its complemented row (see column_check)
        words = enumerate_admissible(2, 4)
        zeros = 0
        for t in range(65):
            counts = {w: factor_count(t, complement(w)) for w in words}
            zeros += sum(c == 0 for c in counts.values())
            row = ((1 << (t.bit_length() + 4)) - 1) ^ t
            assert evaluate_levels(2, 4, row) == dense_levels(2, 4, counts), t
        assert zeros

    def test_complemented_row_counts(self):
        # the counts of t' = (2^(bitlen(t) + J) - 1) XOR t on the level-J
        # words are the counts of their complements in t
        # (enumerate_admissible(2, J) is a prefix of enumerate_admissible(2, 8))
        flipped = [complement(w) for w in enumerate_admissible(2, 8)]
        wants = [[factor_count(t, v) for v in flipped] for t in range(1025)]
        for jmax in range(9):
            index = _level_index(2, jmax)
            size = len(enumerate_admissible(2, jmax))
            for t, want in enumerate(wants):
                row = ((1 << (t.bit_length() + jmax)) - 1) ^ t
                got = index.counts(row)
                assert got == [(i, c) for i, c in enumerate(want[:size]) if c], (
                    t,
                    jmax,
                )

    def test_negative_row_is_rejected(self):
        with pytest.raises(ValueError):
            evaluate_levels(2, 3, -1)

    def test_negative_level_is_rejected(self):
        with pytest.raises(ValueError):
            block_polynomials_up_to(2, -1)
        with pytest.raises(ValueError):
            evaluate_levels(2, -1, 5)

    def test_index_keeps_only_the_last_build(self):
        block_polynomials_up_to.cache_clear()
        evaluate_levels(2, 3, 0)
        ref = weakref.ref(block_polynomials_up_to(2, 3)[0])
        evaluate_levels(2, 4, 0)
        block_polynomials_up_to.cache_clear()
        gc.collect()
        assert ref() is None

    def test_next_build_frees_the_last(self):
        # the build and the log r_w table are each freed with the next (p, J)
        block_polynomials_up_to.cache_clear()
        evaluate_levels(2, 8, 0)
        polys = block_polynomials_up_to(2, 8)
        refs = [weakref.ref(polys[0]), weakref.ref(_level_index(2, 8))]
        del polys
        evaluate_levels(3, 4, 0)
        block_polynomials_up_to(3, 4)
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert block_polynomials_up_to.cache_info().currsize == 1
        assert _level_index.cache_info().currsize == 1

    def test_empty_counts_leave_the_constant(self):
        # rows 0 and 1 hold no admissible word
        assert evaluate_levels(2, 3, 0) == evaluate_levels(2, 3, 1) == (1, 0, 0, 0)

    def test_exponent_gap(self):
        # X_w and X_w^3 without X_w^2: the rebuild must not pass the gap; the
        # levels share one table, as a build's do (w has id 0, v id 1)
        w, v = W("10"), W("100")
        words = enumerate_admissible(2, 2)
        assert words[:2] == [w, v]
        polys = (
            BlockPolynomial._stored(2, 0, words, [((), 1, 1)]),
            BlockPolynomial._stored(
                2,
                1,
                words,
                [(((0, 1),), 1, 2), (((0, 3),), -1, 3), (((0, 3), (1, 2)), 5, 7)],
            ),
            BlockPolynomial._stored(2, 2, words, [(((0, 3),), 3, 4)]),
        )
        assert polys[1].terms == {
            Monomial.of([(w, 1)]): Fraction(1, 2),
            Monomial.of([(w, 3)]): Fraction(-1, 3),
            Monomial.of([(w, 3), (v, 2)]): Fraction(5, 7),
        }
        # X_w lacks its level-2 term and X_w^2, X_v, X_110 are missing,
        # and the gap keys lie above weight 2, where no walk reaches: the
        # rows are not the rebuild, which is a build's rows
        assert [poly._rows for poly in polys] != _peeled(2, 2)
        assert _peeled(2, 2) == [P._rows for P in block_polynomials_up_to(2, 2)]
        # the dense reference takes the gap: 0b10100 has |n|_10 = 2 and
        # |n|_100 = 1
        assert tuple(poly.evaluate(0b10100) for poly in polys) == (
            1,
            Fraction(1) - Fraction(8, 3) + Fraction(40, 7),
            Fraction(6),
        )


class TestPeel:
    @pytest.mark.parametrize("p, jmax", [(2, 8), (3, 5), (5, 3), (7, 3)])
    def test_build_passes(self, p, jmax):
        build = block_polynomials_up_to(p, jmax)
        assert [P._rows for P in build] == _peeled(p, jmax)

    @staticmethod
    def assert_flagged(jmax, tamper):
        # the cached build of P_0..P_jmax changed by tamper leaves its
        # rebuild, and the rebuild reads no stored row: it is a fresh,
        # untampered build's rows
        block_polynomials_up_to.cache_clear()
        try:
            polys = block_polynomials_up_to(2, jmax)
            tamper(polys)
            rebuilt = _peeled(2, jmax)
            assert [P._rows for P in polys] != rebuilt
            block_polynomials_up_to.cache_clear()
            assert [P._rows for P in block_polynomials_up_to(2, jmax)] == rebuilt
        finally:
            block_polynomials_up_to.cache_clear()

    def test_tampered_row_flags_only_it(self):
        # +1/3 on P_3's first stored row, X[10]: the rebuild reads no stored
        # row, so X[10]^2 and the other keys peeled onto X[10] stay right
        def tamper(polys):
            key, c, d = polys[3]._rows[0]
            assert key == ((0, 1),)
            polys[3]._rows[0] = key, 3 * c + d, 3 * d

        self.assert_flagged(4, tamper)

    def test_reordered_level_flags_the_keys_out_of_place(self):
        # P_3's first two rows swapped: every monomial keeps its series, yet
        # the level is not its rebuild
        def tamper(polys):
            rows = polys[3]._rows
            rows[0], rows[1] = rows[1], rows[0]

        self.assert_flagged(4, tamper)

    def test_level_below_the_weight_is_flagged(self):
        # X[100] has weight 2, so a P_1 row for it fails
        def tamper(polys):
            assert polys[0]._words[1] == W("100")
            polys[1]._rows.append((((1, 1),), 1, 1))

        self.assert_flagged(3, tamper)


class TestCumulative:
    def test_matches_sum(self):
        rng = random.Random(43)
        cum = cumulative_polynomial(2, 4)
        parts = block_polynomials_up_to(2, 3)
        for _ in range(80):
            n = rng.randrange(0, 1 << 12)
            assert cum.evaluate(n) == sum(q.evaluate(n) for q in parts)

    def test_counts_below_level(self):
        rng = random.Random(44)
        cum = cumulative_polynomial(3, 3)
        for _ in range(60):
            n = rng.randrange(0, 3**9)
            total = sum(theta(3, j, n) for j in range(3))
            assert cum.evaluate(n) == Fraction(total, theta0(3, n))

    def test_one_build(self):
        # P'_j sums the walked series in one walk; it builds no P_0..P_{j-1}
        block_polynomials_up_to.cache_clear()
        cumulative_polynomial(3, 5)
        assert block_polynomials_up_to.cache_info().misses == 0

    @staticmethod
    def merged_by_key(p, j):
        # the rows of P_0..P_{j-1} merged key by key over the lcm of their
        # denominators, in order of first appearance, zero sums dropped
        by_key = {}
        for poly in block_polynomials_up_to(p, j - 1):
            for key, c, d in poly._rows:
                by_key.setdefault(key, []).append((c, d))
        rows = []
        for key, terms in by_key.items():
            den = lcm(*(d for _, d in terms))
            c = sum(c * (den // d) for c, d in terms)
            if c:
                rows.append((key, c, den))
        return rows

    @pytest.mark.parametrize("p, jmax", [(2, 10), (3, 6), (5, 4), (7, 3)])
    def test_rows_match_merged_levels(self, p, jmax):
        # keys, order, numerators and denominators, at every level
        for j in range(1, jmax + 1):
            assert cumulative_polynomial(p, j)._rows == self.merged_by_key(p, j), j

    def test_needs_positive_level(self):
        with pytest.raises(ValueError):
            cumulative_polynomial(2, 0)


class TestTelescope:
    def test_specific_expansions(self):
        for text, p in (("1", 2), ("110110", 2), ("2101", 3), ("430", 5)):
            assert telescope_identity_holds(W(text, p), 10)

    def test_empty_word(self):
        assert telescope_identity_holds(Word(2, ()), 6)

    def test_rejects_leading_zero(self):
        with pytest.raises(ValueError):
            telescope_identity_holds(W("011"), 6)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            telescope_identity_holds(W("110"), -1)

    @pytest.mark.parametrize(
        "text,p", [("110110", 2), ("2101", 3), ("430", 5), ("6051", 7)]
    )
    def test_miscounted_factor_fails(self, monkeypatch, text, p):
        # dropping one occurrence of an admissible factor w changes the
        # product first at x^m, m = len(w) - 1, where r_w - 1 starts with
        # alpha_w != 0: the check holds to x^(m-1) and fails from x^m on
        v = W(text, p)
        assert telescope_identity_holds(v, 10)
        real = counting_factor_counts
        admissible = [w for w in real(v) if w.is_admissible]
        assert admissible
        for dropped in admissible:

            def miscounted(word):
                counts = real(word)
                counts[dropped] -= 1
                return counts

            monkeypatch.setattr("ppk.synth.counting_factor_counts", miscounted)
            m = len(dropped) - 1
            assert telescope_identity_holds(v, m - 1), dropped
            assert not telescope_identity_holds(v, m), dropped
            assert not telescope_identity_holds(v, 10), dropped

    @pytest.mark.parametrize("p,count", [(2, 120), (3, 80), (5, 50), (7, 40)])
    def test_random_words(self, p, count):
        checked, failures = telescope_random_check(p, count, 9, 10, seed=500 + p)
        assert checked == count
        assert failures == []
