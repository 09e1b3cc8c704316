"""Base-p digit words and factor counting.

A word is a finite digit string in base p, most significant digit first.
Counting occurrences of a word w inside an expansion always pads the
expansion with infinitely many zeros on the left, so for example the single
digit 1 contains one occurrence of ``01`` but none of ``10``.

Three word families recur throughout the package:

* admissible words: length >= 2, leading digit nonzero, last digit != p-1;
* counting words (``W~``): nonempty with nonzero leading digit;
* level-j admissible words: admissible with length <= j+1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Union


@dataclass(frozen=True, slots=True)
class Word:
    """Immutable digit word; ``digits`` may be empty and may lead with 0."""

    p: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("base must be >= 2")
        if any(not isinstance(d, int) or not 0 <= d < self.p for d in self.digits):
            raise ValueError(f"digits must lie in 0..{self.p - 1}: {self.digits}")

    @classmethod
    def parse(cls, text: str, p: int) -> "Word":
        """Parse the text form: a digit string, or ``eps`` for the empty word."""
        text = text.strip()
        if text == "eps":
            return cls(p, ())
        if not text or not text.isdigit():
            raise ValueError(f"not a word over digits 0..{p - 1}: {text!r}")
        return cls(p, tuple(int(ch) for ch in text))

    def __str__(self) -> str:
        return "".join(str(d) for d in self.digits) if self.digits else "eps"

    def __len__(self) -> int:
        return len(self.digits)

    @property
    def is_empty(self) -> bool:
        return not self.digits

    @property
    def value(self) -> int:
        """The integer whose base-p expansion (leading zeros allowed) this is."""
        n = 0
        for d in self.digits:
            n = n * self.p + d
        return n

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical order: by length, then lexicographically."""
        return (len(self.digits), self.digits)

    @property
    def in_counting_set(self) -> bool:
        """Nonempty with nonzero leading digit (the set ``W~``)."""
        return bool(self.digits) and self.digits[0] != 0

    @property
    def is_admissible(self) -> bool:
        return (
            len(self.digits) >= 2
            and self.digits[0] != 0
            and self.digits[-1] != self.p - 1
        )


def expand(n: int, p: int) -> Word:
    """Canonical base-p expansion of a natural number (no leading zeros)."""
    if n < 0:
        raise ValueError("expand needs n >= 0")
    if p < 2:
        raise ValueError("base must be >= 2")
    digits: list[int] = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return Word(p, tuple(reversed(digits)))


def digit_sum(n: int, p: int) -> int:
    """Sum of base-p digits."""
    if n < 0:
        raise ValueError("digit_sum needs n >= 0")
    s = 0
    while n:
        n, d = divmod(n, p)
        s += d
    return s


def padic_valuation(n: int, p: int) -> int:
    """Exponent of the largest power of p dividing n (n >= 1)."""
    if n <= 0:
        raise ValueError("padic_valuation needs n >= 1")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def weight(w: Word) -> int:
    """Length minus one; the grading used for monomials of counting words."""
    if w.is_empty:
        raise ValueError("the empty word has no weight")
    return len(w.digits) - 1


def complement(w: Word) -> Word:
    """Digitwise Boolean complement; defined for base 2 only."""
    if w.p != 2:
        raise ValueError("complement is defined for base 2 only")
    return Word(2, tuple(1 - d for d in w.digits))


def factor_count(v: Union[int, Word], w: Word) -> int:
    """Occurrences of w in v's expansion, padded with zeros on the left.

    w occurs at offset i < len(v) when floor(n / p^i) mod p^len(w) =
    value(w), for n the value of v; digits above the expansion read as 0.
    w must contain a nonzero digit, otherwise the count would be infinite.
    """
    if all(d == 0 for d in w.digits):
        raise ValueError("counted word needs a nonzero digit")
    if isinstance(v, int):
        v = expand(v, w.p)
    elif v.p != w.p:
        raise ValueError("factor_count needs matching bases")
    n, p, target = v.value, w.p, w.value
    window = p ** len(w)
    count = 0
    for _ in range(len(v)):
        count += n % window == target
        n //= p
    return count


def truncations(w: Word) -> tuple[Word, Word, Word]:
    """Return (w_L, w_R, w_LR) for a counting word or the empty word.

    * w_L drops the leading nonzero digit and the zeros after it (the
      longest proper suffix that is again a counting word, or the empty
      word);
    * w_R drops the last digit;
    * w_LR applies both, in either order.
    """
    if w.is_empty:
        return w, w, w
    if w.digits[0] == 0:
        raise ValueError("truncations need a counting word (nonzero lead)")
    left_digits: tuple[int, ...] = ()
    for i in range(1, len(w.digits)):
        if w.digits[i] != 0:
            left_digits = w.digits[i:]
            break
    left = Word(w.p, left_digits)
    right = Word(w.p, w.digits[:-1])
    left_right = Word(w.p, left.digits[:-1])
    return left, right, left_right


def enumerate_admissible(p: int, jmax: int) -> list[Word]:
    """All admissible words of length <= jmax + 1, in length-then-lex order."""
    out: list[Word] = []
    for mu in range(2, jmax + 2):
        for lead in range(1, p):
            for middle in itertools.product(range(p), repeat=mu - 2):
                for last in range(p - 1):
                    out.append(Word(p, (lead,) + middle + (last,)))
    return out


def counting_factor_counts(v: Word) -> dict[Word, int]:
    """All counting-word factors of v with their padded occurrence counts.

    A counting word has a nonzero leading digit, so no occurrence can reach
    into the zero padding; a plain substring scan is complete.
    """
    digits = v.digits
    counts: dict[Word, int] = {}
    n = len(digits)
    for start in range(n):
        if digits[start] == 0:
            continue
        for length in range(1, n - start + 1):
            sub = Word(v.p, digits[start : start + length])
            counts[sub] = counts.get(sub, 0) + 1
    return counts


def separator_integer(a: Iterable[int], ell: int, big_r: int, p: int) -> int:
    """Integer whose factor counts realize a prescribed vector on level-ell words.

    The level-ell admissible words w_0 < ... < w_{M-1} (canonical order) get
    one concatenated block each, most significant block last-first:
    ``(w_m N^ell 0^ell)^{a_m} (N^ell 0^ell)^{R - a_m}`` with N = p-1.  Raising
    a_m by one adds exactly one padded occurrence of w_m and leaves the
    counts of all later words unchanged.
    """
    words = enumerate_admissible(p, ell)
    a = list(a)
    if len(a) != len(words):
        raise ValueError(f"need {len(words)} multiplicities, got {len(a)}")
    if any(not 0 <= am <= big_r for am in a):
        raise ValueError(f"multiplicities must lie in 0..{big_r}")
    nine = (p - 1,) * ell + (0,) * ell
    digits: list[int] = []
    for m in range(len(words) - 1, -1, -1):
        digits.extend((words[m].digits + nine) * a[m])
        digits.extend(nine * (big_r - a[m]))
    return Word(p, tuple(digits)).value
