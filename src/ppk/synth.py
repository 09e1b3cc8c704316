"""Synthesis of the universal block-count polynomials.

For every level j there is a polynomial P_j in variables X_w, one per
admissible word w of length <= j+1, such that for every row n

    theta(p, j, n) / theta(p, 0, n) = P_j evaluated at X_w = |n|_w,

where |n|_w is the padded factor count of w in the base-p expansion of n.
The coefficients come from a generating function: the coefficient series of
the monomial X_{w1}^{k1} ... X_{wl}^{kl} across all levels is

    prod_i (1 / k_i!) (log r_{w_i})^{k_i},

where r_w is the telescoping quotient of normalized row polynomials

    r_w = Tbar_w Tbar_{w_LR} / (Tbar_{w_R} Tbar_{w_L}),

which also has the closed form 1 + alpha_w x^{len(w)-1} / (Tbar_{w_L}
Tbar_{w_R}) with an explicit rational alpha_w.  This module builds r_w both
ways, integrates the logarithmic derivative of the closed form for log r_w,
enumerates monomials by total weight, and assembles the polynomials exactly,
on integer numerators over one denominator per series.

The build runs on integer word ids in ``enumerate_admissible`` order: a
monomial is a tuple of (id, exponent) pairs, and each level stores its
coefficients as integer numerators and denominators, its only store.
Printing reads those rows; a ``Monomial`` and a ``Fraction`` are made only
where the public API reads ``terms``.  The cumulative P'_j = P_0 + ... +
P_{j-1} is the partial sum of each walked series, so it builds no level.
P_0..P_J at a row come from the generating function exp(sum_w |n|_w log
r_w), which reads no row; ``_first_difference`` compares the stored rows
with their rebuild from the same log r_w, ``_peeled``, exactly, for
``verify``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .ratcore import (
    RationalFunctionQ,
    SeriesQ,
    ratio_to_str,
    rational_to_str,
    signed_sum,
)
from .theta import _ext_pair, _row_coeffs
from .words import (
    Word,
    counting_factor_counts,
    enumerate_admissible,
    expand,
    truncations,
)

__all__ = [
    "Monomial",
    "BlockPolynomial",
    "alpha_coefficient",
    "r_w_quotient",
    "r_w_closed",
    "log_rw_series",
    "monomials_up_to_weight",
    "monomial_series",
    "block_polynomial",
    "block_polynomials_up_to",
    "evaluate_levels",
    "cumulative_polynomial",
    "telescope_identity_holds",
    "telescope_random_check",
    "rw_identity_scan",
]


def alpha_coefficient(w: Word) -> Fraction:
    """Leading coefficient of r_w - 1; positive for every admissible word.

    alpha_w = p^{mu-2} * d_lead/(d_lead+1) * (p-1-d_last)/(d_last+1)
              * prod over interior digits v of 1/(v+1)^2 (nonzero v only),
    with mu the length of w.
    """
    if not w.is_admissible:
        raise ValueError(f"alpha is defined for admissible words only: {w}")
    return Fraction(*_alpha(w.p, w.digits))


def _alpha(p: int, d: Sequence[int]) -> tuple[int, int]:
    """alpha_w as a reduced (numerator, denominator) for the digits d of an
    admissible word."""
    a = p ** (len(d) - 2) * d[0] * (p - 1 - d[-1])
    b = (d[0] + 1) * (d[-1] + 1)
    for v in d[1:-1]:
        if v:
            b *= (v + 1) ** 2
    g = math.gcd(a, b)
    return a // g, b // g


def r_w_quotient(w: Word) -> RationalFunctionQ:
    """r_w from its definition as a quotient of normalized row polynomials."""
    return RationalFunctionQ.from_rows(*_quotient_rows(w))


def _quotient_rows(w: Word) -> tuple[list[int], list[int]]:
    """r_w = T_w T_{w_LR} / (T_{w_R} T_{w_L}) as integer coefficient lists,
    with equal constant terms theta0(w) theta0(w_LR) = theta0(w_R) theta0(w_L)."""
    if not w.in_counting_set:
        raise ValueError(f"r_w needs a counting word (nonzero lead): {w}")
    if len(w) == 1:  # the constants differ, but Tbar of a digit is 1
        return [1], [1]
    wl, wr, wlr = truncations(w)
    t, tl, tr, tlr = (_row_coeffs(w.p, u.value) for u in (w, wl, wr, wlr))
    return _mul(t, tlr, len(t) + len(tlr)), _mul(tr, tl, len(tr) + len(tl))


def r_w_closed(w: Word) -> RationalFunctionQ:
    """r_w from the closed form 1 + alpha x^{len(w)-1}/(Tbar_{w_L} Tbar_{w_R})."""
    return RationalFunctionQ.from_rows(*_rw_parts(w))


def _check_admissible(w: Word) -> None:
    if not w.is_admissible:
        raise ValueError(f"the closed form of r_w needs an admissible word: {w}")


def _rw_parts(w: Word) -> tuple[list[int], list[int]]:
    """r_w = N / (b D) in lowest terms, as integer coefficient lists.

    With D = T_{w_L} T_{w_R}, c = D(0), alpha_w = a/b and m = len(w) - 1,
    N = b D + a c x^m.  A common factor of N and b D divides a c x^m, and
    b D(0) = b c != 0, so there is none.
    """
    _check_admissible(w)
    a, b = _alpha(w.p, w.digits)
    m = len(w.digits) - 1
    wl, wr, _ = truncations(w)
    tl, tr = _row_coeffs(w.p, wl.value), _row_coeffs(w.p, wr.value)
    bd = [b * x for x in _mul(tl, tr, len(tl) + len(tr) - 1)]
    num = bd + [0] * (m + 1 - len(bd))
    num[m] += a * tl[0] * tr[0]
    return num, bd


# ---------------------------------------------------------------------------
# Integer offset series.
#
# A series of order J whose coefficients below x^W all vanish is stored as
# (W, D, nums): coefficient j is nums[j - W] / D for W <= j <= J, with
# gcd(D, *nums) = 1.  The list stops at its last nonzero entry.  Nothing
# below the weight or above the last nonzero entry is stored or multiplied,
# and no Fraction is built until a coefficient is read out.
# ---------------------------------------------------------------------------

_Offset = tuple[int, int, list[int]]

# a monomial in a walk: its (word id, exponent) pairs, ids rising
_Key = tuple[tuple[int, int], ...]


def _reduced(w: int, d: int, nums: list[int]) -> _Offset:
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(d, *nums)
    if g > 1:
        return w, d // g, [c // g for c in nums]
    return w, d, nums


def _mul(xs: list[int], ys: list[int], n: int) -> list[int]:
    """The first n coefficients of xs * ys (fewer where the product ends);
    missing entries of xs and ys are zero."""
    out = []
    for t in range(min(n, len(xs) + len(ys) - 1)):
        lo = max(0, t + 1 - len(ys))
        out.append(sum(map(operator.mul, xs[lo : t + 1], ys[t - lo :: -1])))
    return out


def _times(a: _Offset, b: _Offset, k: int, order: int) -> _Offset:
    """a * b / k truncated at x^order."""
    wa, da, xs = a
    wb, db, ys = b
    w = wa + wb
    if w == order and xs and ys:  # one coefficient: one product, one gcd
        c, d = xs[0] * ys[0], da * db * k
        g = math.gcd(c, d)
        return (w, d // g, [c // g]) if c else (w, 1, [])
    return _reduced(w, da * db * k, _mul(xs, ys, order - w + 1))


def _log_rw(w: Word, order: int) -> _Offset:
    """log r_w to x^order from the closed form, as an offset series.

    With r_w = N / (b D) from ``_rw_parts`` and N - b D = a c x^m, the
    logarithmic derivative of r_w is a c x^(m-1) E / G with E = m D - x D'
    and G = N D; a constant factor of D cancels, so D is taken primitive.
    E / G is divided out to x^(order - m), coefficient k as an integer over
    G(0)^(k+1), and integrated termwise: term k lands on x^(m+k) over m + k.
    """
    m = len(w.digits) - 1
    n = order - m
    if n < 0:
        return m, 1, []
    if n == 0:  # r_w = 1 + alpha_w x^m + O(x^(m+1))
        _check_admissible(w)
        a, b = _alpha(w.p, w.digits)
        return m, b, [a]
    num, bd = _rw_parts(w)
    ac = sum(num) - sum(bd)  # N(1) - b D(1)
    content = math.gcd(*bd)
    d = [x // content for x in bd[: n + 1]]
    e = [(m - k) * x for k, x in enumerate(d)] + [0] * (n + 1 - len(d))
    g = _mul(num, d, n + 1)
    gpow = [g[0] ** k for k in range(n + 2)]
    # q[k] = (E / G)_k * G(0)^(k+1)
    q: list[int] = []
    for k in range(n + 1):
        top = min(k, len(g) - 1)
        q.append(
            e[k] * gpow[k]
            - sum(g[i] * q[k - i] * gpow[i - 1] for i in range(1, top + 1))
        )
    span = math.lcm(*range(m, order + 1))
    nums = [ac * x * gpow[n - k] * (span // (m + k)) for k, x in enumerate(q)]
    return _reduced(m, gpow[n + 1] * span, nums)


def _to_series(s: _Offset, order: int) -> SeriesQ:
    w, d, nums = s
    cs = [0] * w + [Fraction(c, d) for c in nums] + [0] * (order + 1)
    return SeriesQ(order, cs[: order + 1])


def log_rw_series(w: Word, order: int) -> SeriesQ:
    """log r_w as a series, from the closed form of r_w."""
    return _to_series(_log_rw(w, order), order)


@dataclass(frozen=True, slots=True)
class Monomial:
    """Product of X_w^k factors, stored sorted by the canonical word order."""

    factors: tuple[tuple[Word, int], ...]

    def __post_init__(self) -> None:
        seen: list[tuple[int, tuple[int, ...]]] = []
        for w, k in self.factors:
            if w.is_empty:
                raise ValueError("monomial factors need nonempty words")
            if k < 1:
                raise ValueError("monomial exponents must be >= 1")
            seen.append(w.sort_key())
        if seen != sorted(set(seen)):
            raise ValueError("monomial factors must be sorted and distinct")

    @classmethod
    def of(cls, pairs: Iterable[tuple[Word, int]]) -> "Monomial":
        return cls(tuple(sorted(pairs, key=lambda fk: fk[0].sort_key())))

    @classmethod
    def _walked(cls, words: Sequence[Word], key: _Key) -> "Monomial":
        """The monomial of a walk key over ``words``; the walk gives ids
        rising and exponents >= 1, so the factors are not checked again."""
        mono = cls.__new__(cls)
        object.__setattr__(mono, "factors", tuple((words[i], k) for i, k in key))
        return mono

    @property
    def is_constant(self) -> bool:
        return not self.factors

    @property
    def weight(self) -> int:
        return sum(k * (len(w.digits) - 1) for w, k in self.factors)

    def sort_key(self) -> tuple:
        """Total weight, then the factor-size partition (largest part first),
        then the factor words; reproduces the conventional display order."""
        shape: list[int] = []
        expanded: list[tuple[int, tuple[int, ...]]] = []
        for w, k in self.factors:
            shape.extend([len(w.digits) - 1] * k)
            expanded.extend([w.sort_key()] * k)
        shape.sort(reverse=True)
        return (self.weight, tuple(shape), tuple(expanded))

    def __str__(self) -> str:
        return _monomial_text([(str(w), k) for w, k in self.factors])


def _monomial_text(factors: Sequence[tuple[str, int]]) -> str:
    """A monomial from its (word, exponent) pairs, as ``X[10]^2*X[110]``."""
    if not factors:
        return "1"
    return "*".join(f"X[{w}]" if k == 1 else f"X[{w}]^{k}" for w, k in factors)


def _monomial_tree(
    wts: Sequence[int],
    jmax: int,
    root: object = None,
    extend: Callable[[object, int, int], object] = lambda value, i, k: value,
) -> Iterator[tuple[_Key, object]]:
    """The monomials of total weight <= jmax in words of weights ``wts``
    (given in Word order, so the weights never fall) with their values, in
    canonical ``Monomial.sort_key`` order.

    A monomial is a key: its (word id, exponent) pairs, ids rising.  The
    constant monomial carries ``root``; appending factor (i, k) to a node
    carries ``extend(v, i, k)``, with v the value for exponent k - 1.  The
    walk goes depth first, word ids rising and exponents falling: that is
    canonical order among the monomials of one shape (factor weights,
    largest first), so the nodes are grouped by shape and the groups joined
    in (weight, shape) order, each dropped once it is given out.
    """
    factors: list[tuple[int, int]] = []
    # shape -> (keys, values), in walk order
    groups: dict[tuple[int, ...], tuple[list[_Key], list[object]]] = {}
    firsts = [(i, 1) for i in range(len(wts))]  # one pair (i, 1) for all leaves

    def rec(idx: int, budget: int, shape: tuple[int, ...], value: object) -> None:
        keys, values = groups.setdefault(shape, ([], []))
        keys.append(tuple(factors))
        values.append(value)
        top = bisect.bisect_left(wts, budget, idx)
        for i in range(idx, top):
            wt = wts[i]
            chain = [value]
            for k in range(1, budget // wt + 1):
                chain.append(extend(chain[-1], i, k))
            for k in range(len(chain) - 1, 0, -1):
                factors.append((i, k))
                rec(i + 1, budget - k * wt, (wt,) * k + shape, chain[k])
                factors.pop()
        # a factor of weight budget ends the branch, with exponent 1
        end = bisect.bisect_right(wts, budget, top)
        if top < end:
            base = tuple(factors)
            keys, values = groups.setdefault((budget,) + shape, ([], []))
            for i in range(top, end):
                keys.append((*base, firsts[i]))
                values.append(extend(value, i, 1))

    rec(0, jmax, (), root)
    for shape in sorted(groups, key=lambda shape: (sum(shape), shape)):
        yield from zip(*groups.pop(shape))


def _weights(words: Sequence[Word]) -> list[int]:
    return [len(w.digits) - 1 for w in words]


def monomials_up_to_weight(p: int, jmax: int) -> list[Monomial]:
    """All monomials of total weight <= jmax (constant included), in canonical
    order."""
    words = enumerate_admissible(p, jmax)
    walk = _monomial_tree(_weights(words), jmax)
    return [Monomial._walked(words, key) for key, _ in walk]


def monomial_series(mono: Monomial, order: int) -> SeriesQ:
    """Coefficient series of a monomial: prod (log r_w)^k / k!.

    Coefficients below the total weight vanish; the order must reach the
    weight so the first nonzero coefficient is representable.
    """
    return _to_series(_monomial_offset(mono, order), order)


def _monomial_offset(mono: Monomial, order: int) -> _Offset:
    """``monomial_series`` as an offset series, whose offset is the weight W.

    Each (log r_w)^k is raised by squaring, about 2 log_2 k products, and
    divided once by k!.  Every series here is cut at its own offset plus
    order - W, and that is exact to x^order.  The offsets add: log r_w has
    offset m, the weight of w, a product has the sum of its factors'
    offsets, so the finished factors (log r_w)^k / k! have offsets that add
    up to W.  A term t places past the offset of its series is only ever
    multiplied by terms at or past the other factors' offsets, so it lands
    at x^(W + t) or later, past x^order when t > order - W.  And a product's
    terms up to t past its offset read only its factors' terms up to t past
    theirs.
    """
    if order < mono.weight:
        raise ValueError(
            f"order {order} is below the monomial weight {mono.weight}"
        )
    slack = order - mono.weight

    def times(a: _Offset, b: _Offset) -> _Offset:
        return _times(a, b, 1, a[0] + b[0] + slack)

    s: _Offset = (0, 1, [1])
    for w, k in mono.factors:
        m = len(w.digits) - 1
        base, power, e = _log_rw(w, m + slack), (0, 1, [1]), k
        while True:
            if e & 1:
                power = times(power, base)
            e >>= 1
            if not e:
                break
            base = times(base, base)
        wt, d, nums = power
        s = times(s, _reduced(wt, d * math.factorial(k), nums))
    return s


# a term as it is stored: its key, a numerator and a positive denominator
_Row = tuple[_Key, int, int]

# a term as it is printed: its (word, exponent) pairs, then its coefficient
# as a numerator and a positive denominator in lowest terms
_Term = tuple[list[tuple[str, int]], int, int]


class BlockPolynomial:
    """Polynomial for one level j: maps factor counts to theta(j)/theta(0).

    A level is stored once, as its nonzero coefficients in the order given,
    in (key, numerator, denominator) rows over a word table.  The build and
    ``cumulative_polynomial`` make rows over ``enumerate_admissible(p, J)``
    in canonical order, so counting or printing them makes no ``Monomial``
    and no ``Fraction``; ``BlockPolynomial(p, j, terms)`` turns a dict into
    rows over a table of its own words in ``Word.sort_key`` order.
    ``terms`` is a read-only view made from the rows on its first read;
    ``json_obj`` and ``__eq__`` read it.
    """

    def __init__(self, p: int, j: int, terms: dict[Monomial, Fraction]) -> None:
        words = sorted({w for m in terms for w, _ in m.factors}, key=Word.sort_key)
        ids = {w: i for i, w in enumerate(words)}
        self.p, self.j, self._words = p, j, words
        self._rows: list[_Row] = [
            (tuple((ids[w], k) for w, k in m.factors), q.numerator, q.denominator)
            for m, q in terms.items()
        ]

    @classmethod
    def _stored(
        cls, p: int, j: int, words: Sequence[Word], rows: list[_Row]
    ) -> "BlockPolynomial":
        poly = cls.__new__(cls)
        poly.p, poly.j, poly._words, poly._rows = p, j, words, rows
        return poly

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        if "_view" not in self.__dict__:  # made once, on the first read
            words = self._words
            self._view = MappingProxyType(
                {Monomial._walked(words, k): Fraction(c, d) for k, c, d in self._rows}
            )
        return self._view

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BlockPolynomial):
            return (self.p, self.j, self.terms) == (other.p, other.j, other.terms)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    @property
    def term_count(self) -> int:
        return len(self._rows)

    def _stream(self) -> Iterator[_Term]:
        """The terms in order, as printed, with no ``Monomial`` or
        ``Fraction`` made."""
        names = [str(w) for w in self._words]
        for key, c, d in self._rows:
            g = math.gcd(c, d)
            yield [(names[i], k) for i, k in key], c // g, d // g

    def text(self) -> str:
        terms: list[tuple[int, str]] = []
        for factors, c, d in self._stream():
            mag = ratio_to_str(abs(c), d)
            if not factors:
                body = mag
            elif mag == "1":
                body = _monomial_text(factors)
            else:
                body = f"{mag}*{_monomial_text(factors)}"
            terms.append((c, body))
        return signed_sum(terms)

    def csv_rows(self) -> Iterator[list[str]]:
        """One (monomial, coefficient) row per term, with no header."""
        for factors, c, d in self._stream():
            yield [_monomial_text(factors), ratio_to_str(c, d)]

    def json_chunks(self, **extra: object) -> Iterator[str]:
        """The text of ``json.dumps({**self.json_obj(), **extra}, indent=2)``
        in chunks, one per term, written from the term stream; ``extra``
        holds scalar fields."""
        from json import dumps
        from json.encoder import encode_basestring_ascii as encode

        yield f'{{\n  "p": {self.p},\n  "j": {self.j},\n  "terms": ['
        sep, close = "", "]"
        for factors, c, d in self._stream():
            mono = ",".join(
                f'\n        {{\n          "word": {encode(w)},'
                f'\n          "exp": {k}\n        }}'
                for w, k in factors
            )
            if mono:
                mono += "\n      "
            yield (
                f'{sep}\n    {{\n      "monomial": [{mono}],'
                f'\n      "coeff": "{ratio_to_str(c, d)}"\n    }}'
            )
            sep, close = ",", "\n  ]"
        fields = "".join(f",\n  {encode(k)}: {dumps(v)}" for k, v in extra.items())
        yield f"{close}{fields}\n}}"

    def json_obj(self) -> dict:
        return {
            "p": self.p,
            "j": self.j,
            "terms": [
                {
                    "monomial": [
                        {"word": str(w), "exp": k} for w, k in mono.factors
                    ],
                    "coeff": rational_to_str(coeff),
                }
                for mono, coeff in self.terms.items()
            ],
        }

    def evaluate_counts(self, counts: dict[Word, int]) -> Fraction:
        """Substitute X_w = counts.get(w, 0) and evaluate exactly, term by
        term over the stored rows."""
        total = Fraction(0)
        for key, c, d in self._rows:
            prod = 1
            for i, k in key:
                x = counts.get(self._words[i], 0)
                if not x:
                    prod = 0
                    break
                prod *= x**k
            if prod:
                total += Fraction(c * prod, d)
        return total

    def evaluate(self, n: int) -> Fraction:
        """Evaluate at the factor counts of a row index n."""
        return self.evaluate_counts(counting_factor_counts(expand(n, self.p)))


@functools.lru_cache(maxsize=1)
def block_polynomials_up_to(p: int, jmax: int) -> tuple[BlockPolynomial, ...]:
    """Build P_0 .. P_jmax in one shared pass over the monomial tree.

    The cache keeps the last build; asking for another (p, jmax) frees it.
    The tree walk reuses the partial coefficient-series product of each
    monomial prefix, so every monomial costs one truncated product of
    integer offset series, from its weight up to x^jmax; at weight jmax
    that is one product of leading coefficients.  The walk gives the
    monomials in canonical order as (word id, exponent) keys, so every
    level stores its nonzero coefficients in that order as (key, numerator,
    denominator) rows over the table ``enumerate_admissible(p, jmax)``; no
    ``Monomial`` or ``Fraction`` is made until a level's ``terms`` is read.
    """
    index = _level_index(p, jmax)
    return tuple(
        BlockPolynomial._stored(p, j, index.words, level)
        for j, level in enumerate(_level_rows(_walk(index, jmax), jmax))
    )


def _walk(index: _LevelIndex, jmax: int) -> Iterator[tuple[_Key, _Offset]]:
    """The monomials of weight <= jmax in canonical order, each with its
    coefficient series to x^jmax: the tree walk, appending factor (i, k) by
    one truncated product with log r_i / k."""
    logs = index.logs
    return _monomial_tree(
        index.wts, jmax, (0, 1, [1]), lambda s, i, k: _times(s, logs[i], k, jmax)
    )


def _level_rows(
    walk: Iterable[tuple[_Key, _Offset]], jmax: int
) -> list[list[_Row]]:
    """The nonzero coefficients of the walked series, filed by level as
    (key, numerator, denominator) rows in walk order."""
    rows: list[list[_Row]] = [[] for _ in range(jmax + 1)]
    for key, (low, d, nums) in walk:
        for j, c in enumerate(nums, low):
            if c:
                rows[j].append((key, c, d))
    return rows


# ---------------------------------------------------------------------------
# Evaluation of P_0..P_J at a row n by the generating function.
#
# Summed over all monomials, the coefficient series prod (log r_w)^k / k!
# give sum_j P_j(n) x^j = exp(s) mod x^(J+1), s = sum_w |n|_w log r_w, so
# no monomial is walked; ``verify`` compares the stored rows with their
# rebuild, ``_first_difference``, instead.  With every log r_w over one
# denominator D, s = S / D for integers S_i, S_0 = 0.
# P = exp(s) solves k P_k = sum_{i=1..k} i s_i P_{k-i}; writing P_k =
# A_k / (D^k k!) and multiplying through by D^k (k-1)! leaves integers:
#
#     A_0 = 1,  A_k = sum_{i=1..k} i S_i A_{k-i} D^(i-1) (k-1)! / (k-i)!.
# ---------------------------------------------------------------------------


class _LevelIndex:
    """The word table and the log r_w series of one (p, J), shared by the
    build, the generating function and the rebuild."""

    def __init__(self, p: int, jmax: int) -> None:
        self.p = p
        self.words = words = enumerate_admissible(p, jmax)
        self.wts = _weights(words)
        self.ids = {(len(w), w.value): i for i, w in enumerate(words)}
        self.windows = [(k, p**k) for k in range(2, jmax + 2)]
        self.logs = [_log_rw(w, jmax) for w in words]
        den = math.lcm(*(d for _, d, _ in self.logs))
        # D log r_w as offset integers
        self.scaled = [
            (low, [c * (den // d) for c in nums]) for low, d, nums in self.logs
        ]
        # weights[k - 1][i - 1] = i D^(i-1) (k-1)! / (k-i)!; P_k = A_k / dens[k]
        self.weights = [
            [i * den ** (i - 1) * math.perm(k - 1, i - 1) for i in range(1, k + 1)]
            for k in range(1, jmax + 1)
        ]
        self.dens = [den**k * math.factorial(k) for k in range(jmax + 1)]

    def counts(self, n: int) -> list[tuple[int, int]]:
        """(id, |n|_w) for the table's words in n, ids rising, read off the
        windows floor(n / p^i) mod p^k that fit below n's top digit; a
        longer one leads with 0 and spells no admissible word."""
        p, ids, counts = self.p, self.ids, Counter()
        while n:
            top = n * p
            for k, mod in self.windows:
                if mod > top:
                    break
                counts[ids.get((k, n % mod))] += 1
            n //= p
        del counts[None]  # the windows that spell no admissible word
        return sorted(counts.items())

    def evaluate(self, n: int) -> list[int]:
        """A_0..A_J at row n: P_k(n) = A_k / dens[k]."""
        s = [0] * len(self.dens)
        for i, c in self.counts(n):
            low, nums = self.scaled[i]
            for j, x in enumerate(nums, low):
                s[j] += c * x
        a = [1]
        for k, weights in enumerate(self.weights, 1):
            a.append(sum(x * s[i] * a[k - i] for i, x in enumerate(weights, 1)))
        return a


@functools.lru_cache(maxsize=1)
def _level_index(p: int, jmax: int) -> _LevelIndex:
    """The index of the last (p, J) asked for; asking for another frees it."""
    if jmax < 0:
        raise ValueError("level must be >= 0")
    return _LevelIndex(p, jmax)


def evaluate_levels(p: int, jmax: int, n: int) -> tuple[Fraction, ...]:
    """P_0..P_jmax at X_w = |n|_w for a row n >= 0, exactly, from the
    generating function; equal to ``[P.evaluate(n) for P in
    block_polynomials_up_to(p, jmax)]`` when that build's rows equal their
    rebuild: ``_first_difference(p, jmax)`` is None."""
    if n < 0:
        raise ValueError("evaluate_levels needs a row >= 0")
    index = _level_index(p, jmax)
    return tuple(Fraction(a, d) for a, d in zip(index.evaluate(n), index.dens))


def _peeled(p: int, jmax: int) -> list[list[_Row]]:
    """The rows of P_0..P_jmax rebuilt from the log r_w table, each walk
    key's first factor (i, k) peeled: m's series is that of m / X_i, a lower
    key, times log r_i / k.  The build appends the last factor instead."""
    index = _level_index(p, jmax)
    memo: dict[_Key, _Offset] = {(): (0, 1, [1])}
    for key, _ in _monomial_tree(index.wts, jmax):
        if key:
            (i, k), rest = key[0], key[1:]
            base = memo[((i, k - 1), *rest) if k > 1 else rest]
            memo[key] = _times(base, index.logs[i], k, jmax)
    return _level_rows(memo.items(), jmax)


def _first_difference(p: int, jmax: int) -> tuple[int, int] | None:
    """None when the stored rows of P_0..P_jmax, the cached build's, equal
    their rebuild ``_peeled(p, jmax)``: keys, order, numerators and
    denominators.  Else the least row n, then level j, where they differ:
    each level's stored rows minus its rebuilt ones as multisets, where
    common rows cancel, summed by monomial and evaluated on
    ``_LevelIndex.counts(n)``.  By the uniqueness of P_j a nonzero
    difference shows at some row; a zero one (rows ordered or spelled
    otherwise) shows at none: ArithmeticError."""
    stored = [poly._rows for poly in block_polynomials_up_to(p, jmax)]
    rebuilt = _peeled(p, jmax)
    if stored == rebuilt:
        return None
    diff = []
    for have, want in zip(stored, rebuilt):
        rows = Counter(have)
        rows.subtract(want)
        terms = Counter()
        for (key, c, d), times in rows.items():
            if times:
                mono = {i: sum(k for h, k in key if h == i) for i, _ in key}
                terms[tuple(sorted(mono.items()))] += times * Fraction(c, d)
        diff.append([(m, q) for m, q in terms.items() if q])
    if not any(diff):
        j = next(j for j, (xs, ys) in enumerate(zip(stored, rebuilt)) if xs != ys)
        raise ArithmeticError(f"P_{j} leaves its rebuild only in order or spelling")
    index = _level_index(p, jmax)
    for n in itertools.count():
        x = dict(index.counts(n))
        for j, terms in enumerate(diff):
            if sum(q * math.prod(x.get(i, 0) ** k for i, k in m) for m, q in terms):
                return n, j


def block_polynomial(p: int, j: int) -> BlockPolynomial:
    """P_j from the cached build of P_0..P_j; that build is keyed by (p, j),
    so after a larger build this builds levels 0..j once more, in its place."""
    return block_polynomials_up_to(p, j)[j]


def cumulative_polynomial(p: int, j: int) -> BlockPolynomial:
    """P'_j = P_0 + ... + P_{j-1}: the share of entries with valuation < j.

    A monomial's coefficients in P_0..P_{j-1} are its walked series to
    x^(j-1), all over the series' one denominator d, so its row is the sum
    of the numerators over d, kept when nonzero.  The rows come in walk
    order, which is canonical; no level is built."""
    if j < 1:
        raise ValueError("cumulative level must be >= 1")
    index = _level_index(p, j - 1)
    rows = []
    for key, (_, d, nums) in _walk(index, j - 1):
        c = sum(nums)
        if c:
            rows.append((key, c, d))
    return BlockPolynomial._stored(p, j, index.words, rows)


def telescope_identity_holds(v: Word, order: int) -> bool:
    """Check Tbar_v = prod over counting factors w of r_w^{|v|_w} to x^order.

    With r_w = A_w / B_w from the defining quotient (not the closed form),
    A = prod A_w^{|v|_w} and B = prod B_w^{|v|_w}, this is T_v A(0) B =
    T_v(0) A B(0) on integers; B(0) != 0, so that is the series identity.
    """
    if not (v.is_empty or v.in_counting_set):
        raise ValueError("telescope check needs a counting word or eps")
    if order < 0:
        raise ValueError("series order must be >= 0")
    n = order + 1
    a, b = [1], [1]
    for w, k in counting_factor_counts(v).items():
        num, den = _quotient_rows(w)
        for _ in range(k):
            a, b = _mul(a, num, n), _mul(b, den, n)
    t = _row_coeffs(v.p, v.value)
    lhs = [a[0] * x for x in _mul(t, b, n)]
    rhs = [t[0] * b[0] * x for x in a]
    return lhs + [0] * (n - len(lhs)) == rhs + [0] * (n - len(rhs))


def telescope_random_check(
    p: int, count: int, max_len: int, order: int, seed: int
) -> tuple[int, list[Word]]:
    """Run the telescope check on seeded random counting words.

    Returns (number checked, failing words).
    """
    rng = random.Random(seed)
    failures: list[Word] = []
    for _ in range(count):
        length = rng.randint(1, max_len)
        digits = [rng.randint(1, p - 1)]
        digits.extend(rng.randint(0, p - 1) for _ in range(length - 1))
        v = Word(p, tuple(digits))
        if not telescope_identity_holds(v, order):
            failures.append(v)
    return count, failures


# ---------------------------------------------------------------------------
# Exhaustive closed-form consistency scan.
#
# Cross-multiplying r_w_closed == r_w_quotient and clearing the (equal)
# normalizing constants theta0(w) theta0(w_LR) = theta0(w_L) theta0(w_R)
# leaves an identity between integer row polynomials:
#
#     T_w T_{w_LR} - T_{w_L} T_{w_R} = theta0(w) theta0(w_LR) alpha_w x^{mu-1}.
#
# The scan walks the digit trie of counting words once, carrying the pairs
# (T_u, T_{u-1}) for the prefix u and its suffix u_L, so each word costs a
# constant number of polynomial operations.  Polynomials ride in single
# integers packed by theta._ext_pair, with lanes of L = bit_length of
# p^(2 max_len) bits.  Every coefficient on either side is nonnegative and
# at most T_w(1) T_{w_LR}(1) <= p^(2 mu - 2) <= p^(2 max_len) / 4 < 2^(L-2).
# So the true alpha term is below 2^(L-2), and while the expected one is
# below 2^(L-1) no lane carries and the integer compare is exact; a word
# whose expected term reaches 2^(L-1) fails without a compare.
# ---------------------------------------------------------------------------


def rw_identity_scan(p: int, max_len: int) -> tuple[int, list[Word]]:
    """Verify closed form == quotient for every admissible word of length
    <= max_len; returns (words checked, mismatching words)."""
    failures: list[Word] = []
    checked = 0
    digits: list[int] = []
    lane = (p ** (2 * max_len)).bit_length()
    half_lane = 1 << (lane - 1)

    def rec(depth, pair, tz, cf, lpair, cl):
        nonlocal checked
        if depth == max_len:
            return
        for a in range(p):
            child_pair = _ext_pair(pair, tz, a, p, lane)
            if lpair is None:
                child_l = None if a == 0 else (a + 1, a)
                child_cl = 1 if a == 0 else a + 1
            else:
                child_l = _ext_pair(lpair, tz, a, p, lane)
                child_cl = cl * (a + 1)
            if a != p - 1:
                checked += 1
                c_w = cf * (a + 1)
                c_wlr = cl if lpair is not None else 1
                anum, aden = _alpha(p, (*digits, a))
                expected, rest = divmod(c_w * c_wlr * anum, aden)
                ok = not rest and expected < half_lane
                if ok:
                    lhs = child_pair[0] * (lpair[0] if lpair is not None else 1)
                    rhs = (child_l[0] if child_l is not None else 1) * pair[0]
                    ok = lhs == rhs + (expected << (lane * depth))
                if not ok:
                    failures.append(Word(p, tuple(digits) + (a,)))
            digits.append(a)
            rec(
                depth + 1,
                child_pair,
                tz + 1 if a == 0 else 0,
                cf * (a + 1),
                child_l,
                child_cl,
            )
            digits.pop()

    for c in range(1, p):
        digits.append(c)
        rec(1, (c + 1, c), 0, c + 1, None, 1)
        digits.pop()
    return checked, failures
