"""Digit words, expansions, factor counting and realizing count vectors."""

import random

import pytest

from ppk.words import (
    Word,
    complement,
    counting_factor_counts,
    digit_sum,
    enumerate_admissible,
    expand,
    factor_count,
    padic_valuation,
    separator_integer,
    truncations,
    weight,
)


def brute_factor_count(n, w):
    """Window scan over the zero-padded expansion, written independently."""
    digits = []
    p = w.p
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    pattern = list(w.digits[::-1])
    total = 0
    for i in range(len(digits)):
        window = [(digits[i + k] if i + k < len(digits) else 0) for k in range(len(pattern))]
        if window == pattern:
            total += 1
    return total


def digit_loop_factor_count(v, w):
    """Digit-by-digit window scan over the reversed expansion of v (an int
    or a Word): the reference for factor_count's integer windows."""
    if isinstance(v, int):
        v = expand(v, w.p)
    dv = v.digits[::-1]
    dw = w.digits[::-1]
    nv, nw = len(dv), len(dw)
    count = 0
    for i in range(nv):
        for k in range(nw):
            pos = i + k
            digit = dv[pos] if pos < nv else 0
            if digit != dw[k]:
                break
        else:
            count += 1
    return count


class TestWordBasics:
    def test_parse_and_str(self):
        w = Word.parse("1021", 3)
        assert w.digits == (1, 0, 2, 1)
        assert str(w) == "1021"
        assert Word.parse("eps", 2).is_empty
        assert str(Word(5, ())) == "eps"

    def test_parse_rejects_garbage(self):
        for bad in ("", "12a", "-1", "1 0 1"):
            with pytest.raises(ValueError):
                Word.parse(bad, 2)

    def test_digit_range_enforced(self):
        with pytest.raises(ValueError):
            Word(2, (1, 2))
        with pytest.raises(ValueError):
            Word(1, (0,))

    def test_value(self):
        assert Word(2, (1, 0, 1, 1)).value == 11
        assert Word(3, (0, 2, 1)).value == 7
        assert Word(7, ()).value == 0

    def test_admissibility(self):
        assert Word(2, (1, 0)).is_admissible
        assert not Word(2, (1, 1)).is_admissible  # trailing digit p-1
        assert not Word(2, (0, 1, 0)).is_admissible  # leading zero
        assert not Word(2, (1,)).is_admissible  # too short
        assert Word(3, (2, 1)).is_admissible

    def test_counting_set(self):
        assert Word(2, (1,)).in_counting_set
        assert not Word(2, (0, 1)).in_counting_set
        assert not Word(2, ()).in_counting_set


class TestExpansions:
    def test_round_trip(self):
        rng = random.Random(20)
        for _ in range(300):
            p = rng.choice((2, 3, 5, 7))
            n = rng.randrange(0, 10**6)
            w = expand(n, p)
            assert w.value == n
            if n:
                assert w.digits[0] != 0

    def test_digit_sum_matches_expansion(self):
        rng = random.Random(21)
        for _ in range(200):
            p = rng.choice((2, 3, 5))
            n = rng.randrange(0, 10**6)
            assert digit_sum(n, p) == sum(expand(n, p).digits)

    def test_valuation(self):
        assert padic_valuation(40, 2) == 3
        assert padic_valuation(45, 3) == 2
        assert padic_valuation(7, 5) == 0
        rng = random.Random(22)
        for _ in range(200):
            p = rng.choice((2, 3, 5))
            v = rng.randrange(0, 6)
            m = rng.randrange(1, 50)
            if m % p == 0:
                m += 1
            assert padic_valuation(m * p**v, p) == v

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            expand(-1, 2)
        with pytest.raises(ValueError, match="base must be >= 2"):
            expand(5, 1)
        with pytest.raises(ValueError, match="digit_sum needs n >= 0"):
            digit_sum(-1, 2)
        with pytest.raises(ValueError):
            padic_valuation(0, 2)


class TestFactorCounting:
    def test_padding_examples(self):
        # the expansion of 1 is padded as ...0001
        assert factor_count(1, Word(2, (0, 1))) == 1
        assert factor_count(1, Word(2, (1, 0))) == 0
        assert factor_count(0b110110, Word(2, (1, 1))) == 2
        assert factor_count(0b110110, Word(2, (1, 0))) == 2
        assert factor_count(0b110110, Word(2, (0, 1))) == 2

    def test_all_zero_word_rejected(self):
        with pytest.raises(ValueError):
            factor_count(5, Word(2, (0, 0)))

    def test_base_mismatch_rejected(self):
        with pytest.raises(ValueError):
            factor_count(Word(3, (1,)), Word(2, (1,)))

    def test_against_bruteforce(self):
        rng = random.Random(23)
        for _ in range(400):
            p = rng.choice((2, 3, 5))
            n = rng.randrange(0, 1 << 20)
            length = rng.randint(1, 4)
            w = Word(p, tuple(rng.randrange(p) for _ in range(length)))
            if all(d == 0 for d in w.digits):
                continue
            assert factor_count(n, w) == brute_factor_count(n, w)

    def test_matches_digit_loop(self):
        rng = random.Random(25)
        compared = 0
        while compared < 20000:
            p = rng.choice((2, 3, 5, 7))
            w = Word(p, tuple(rng.randrange(p) for _ in range(rng.randint(1, 5))))
            if not any(w.digits):
                continue
            if rng.random() < 0.5:
                v = rng.randrange(0, p**8)
            else:  # a row given as a word, possibly with leading zeros
                v = Word(p, tuple(rng.randrange(p) for _ in range(rng.randint(0, 8))))
            got = factor_count(v, w)
            assert got == digit_loop_factor_count(v, w), (v, w)
            if w.in_counting_set:
                row = v if isinstance(v, Word) else expand(v, p)
                assert got == counting_factor_counts(row).get(w, 0), (v, w)
            compared += 1

    def test_counting_factor_counts_complete(self):
        rng = random.Random(24)
        for _ in range(60):
            p = rng.choice((2, 3))
            n = rng.randrange(1, 1 << 14)
            v = expand(n, p)
            counts = counting_factor_counts(v)
            # reported counts match the padded window scan
            for w, c in counts.items():
                assert w.in_counting_set
                assert factor_count(v, w) == c
            # and no counting factor is missed
            for start in range(len(v.digits)):
                for stop in range(start + 1, len(v.digits) + 1):
                    sub = Word(p, v.digits[start:stop])
                    if sub.in_counting_set:
                        assert sub in counts


class TestTruncations:
    def test_examples(self):
        L, R, LR = truncations(Word(2, (1, 1, 0)))
        assert (str(L), str(R), str(LR)) == ("10", "11", "1")
        L, R, LR = truncations(Word(2, (1, 0, 0)))
        assert (str(L), str(R), str(LR)) == ("eps", "10", "eps")
        L, R, LR = truncations(Word(3, (2, 0, 1, 2)))
        assert (str(L), str(R), str(LR)) == ("12", "201", "1")

    def test_empty_word_fixed_point(self):
        e = Word(2, ())
        assert truncations(e) == (e, e, e)

    def test_needs_nonzero_lead(self):
        with pytest.raises(ValueError):
            truncations(Word(2, (0, 1)))

    def test_left_is_longest_counting_suffix(self):
        rng = random.Random(25)
        for _ in range(150):
            p = rng.choice((2, 3, 5))
            digits = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randint(0, 6))]
            w = Word(p, tuple(digits))
            L, R, LR = truncations(w)
            assert R.digits == w.digits[:-1]
            assert LR.digits == L.digits[:-1]
            if L.is_empty:
                assert all(d == 0 for d in w.digits[1:])
            else:
                assert L.in_counting_set
                assert w.digits[-len(L.digits):] == L.digits
                # nothing longer works
                gap = len(w.digits) - len(L.digits)
                assert all(d == 0 for d in w.digits[1:gap])


class TestEnumerationAndSeparators:
    def test_admissible_census(self):
        assert len(enumerate_admissible(2, 8)) == 2**8 - 1
        assert len(enumerate_admissible(3, 5)) == 2 * 2 * (3**5 - 1) // 2
        words = enumerate_admissible(5, 3)
        assert len(words) == len(set(words))
        assert all(w.is_admissible and len(w.digits) <= 4 for w in words)
        assert words == sorted(words, key=Word.sort_key)

    def test_weight(self):
        assert weight(Word(2, (1, 0))) == 1
        assert weight(Word(2, (1, 0, 1, 0))) == 3
        with pytest.raises(ValueError):
            weight(Word(2, ()))

    def test_complement(self):
        assert complement(Word(2, (1, 0, 1))) == Word(2, (0, 1, 0))
        with pytest.raises(ValueError):
            complement(Word(3, (1, 0)))

    def test_separator_realizes_unit_increments(self):
        rng = random.Random(26)
        for p, ell in ((2, 1), (2, 2), (3, 1)):
            words = enumerate_admissible(p, ell)
            big_r = 3
            for _ in range(20):
                a = [rng.randint(0, big_r) for _ in words]
                m = rng.randrange(len(words))
                if a[m] == big_r:
                    a[m] -= 1
                bumped = list(a)
                bumped[m] += 1
                base = separator_integer(a, ell, big_r, p)
                more = separator_integer(bumped, ell, big_r, p)
                assert factor_count(more, words[m]) == factor_count(base, words[m]) + 1
                for later in words[m + 1:]:
                    assert factor_count(more, later) == factor_count(base, later)

    def test_separator_validates(self):
        with pytest.raises(ValueError):
            separator_integer([1, 1], 1, 2, 2)
        words = enumerate_admissible(2, 2)
        with pytest.raises(ValueError):
            separator_integer([5] * len(words), 2, 4, 2)
