"""Counting binomial coefficients in one Pascal row by exact prime-power
divisibility.

``theta(p, j, n)`` counts the entries of row n divisible by p^j but not
p^(j+1).  The generating polynomial of a row,

    T_n(x) = sum_j theta(p, j, n) x^j,

satisfies T_a = a + 1 for 0 <= a < p and, for n >= 1 and 0 <= a < p,

    T_{p n + a} = (a + 1) T_n + (p - a - 1) x^{v_p(n) + 1} T_{n - 1},

which is the recurrence everything here is built on.  ``tilde_table``
re-indexes theta by digit sums, which turns the two-variable generating
function into an explicit infinite product (``tilde_product_table``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .ratcore import PolyQ
from .words import Word, expand


def _ext_pair(
    pair: tuple[int, int], tz: int, a: int, p: int, lane: int
) -> tuple[int, int]:
    """Extend (T_n, T_{n-1}) for a prefix n with tz trailing zero digits by
    digit a, giving (T_{pn+a}, T_{pn+a-1}).

    Each polynomial rides in one integer, coefficient i in bits
    [lane*i, lane*(i+1)), so products are single bigint operations.  All
    coefficients are nonnegative; the caller picks a lane wider than every
    coefficient it builds, or neighbouring lanes carry into each other.
    """
    tn, tn1 = pair
    sh = lane * (tz + 1)
    if a == 0:
        return tn + (((p - 1) * tn1) << sh), p * tn1
    return (
        (a + 1) * tn + (((p - a - 1) * tn1) << sh),
        a * tn + (((p - a) * tn1) << sh),
    )


def _row_coeffs(p: int, n: int) -> list[int]:
    """Coefficients of T_n(x) as integers, constant term first."""
    # a row m <= n has T_m(1) = m + 1 entries, which bounds every coefficient
    lane = (n + 1).bit_length()
    pair, tz = (1, 0), 0  # (T_0, T_{-1}) for the empty prefix
    for a in expand(n, p).digits:
        pair = _ext_pair(pair, tz, a, p, lane)
        tz = tz + 1 if a == 0 else 0
    packed, mask = pair[0], (1 << lane) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & mask)
        packed >>= lane
    return coeffs


def T_poly(p: int, n: int) -> PolyQ:
    """Row polynomial T_n(x) over base p; coefficients are the theta counts."""
    if p < 2:
        raise ValueError("base must be >= 2")
    if n < 0:
        raise ValueError("row index must be >= 0")
    return PolyQ(_row_coeffs(p, n))


def theta(p: int, j: int, n: int) -> int:
    """Entries of row n exactly divisible by p^j; zero outside the support."""
    if j < 0:
        return 0
    coeffs = _row_coeffs(p, n)
    return coeffs[j] if j < len(coeffs) else 0


def theta0(p: int, n: int) -> int:
    """Entries of row n not divisible by p: the product of (digit + 1)."""
    out = 1
    for d in expand(n, p).digits:
        out *= d + 1
    return out


def Tbar(p: int, v: Union[int, Word]) -> PolyQ:
    """Row polynomial normalized to constant term 1."""
    if isinstance(v, Word):
        if v.p != p:
            raise ValueError("word base does not match p")
        v = v.value
    coeffs = _row_coeffs(p, v)
    return PolyQ(Fraction(c, coeffs[0]) for c in coeffs)


def tilde_table(p: int, kmax: int, nmax: int) -> list[list[int]]:
    """Digit-sum re-indexing of theta, rows k = 0..kmax by columns n = 0..nmax.

    Entry [k][n] is theta(p, j, n) with j = (k - s_p(n)) / (p - 1), and zero
    unless k >= s_p(n) and p-1 divides k - s_p(n).  Built column by column
    from column 0 = [1, 0, ...] by its own recurrence, so the defining
    transform can be tested against it:

        tt(k, p n + a) = (a+1) tt(k-a, n) + (p-a-1) tt(k-p-a, n-1).
    """
    if kmax < 0 or nmax < 0:
        raise ValueError("kmax and nmax must be >= 0")
    zero = [0] * (kmax + 1)
    cols = [[1] + zero[1:]]
    for n in range(1, nmax + 1):
        m, a = divmod(n, p)
        lo = ([0] * a + cols[m])[: kmax + 1]
        hi = ([0] * (p + a) + (cols[m - 1] if m else zero))[: kmax + 1]
        cols.append([(a + 1) * x + (p - a - 1) * y for x, y in zip(lo, hi)])
    return [list(row) for row in zip(*cols)]


def tilde_product_table(p: int, x_order: int, z_order: int) -> list[list[int]]:
    """Coefficients of prod_{i>=0} (1 + x z^{p^i} + ... + x^{p-1} z^{(p-1) p^i})^2.

    Entry [k][n] is the coefficient of x^k z^n, truncated to k <= x_order and
    n <= z_order; only factors with p^i <= z_order can contribute.  This is
    the closed product form of ``tilde_table``.
    """
    table = [[0] * (z_order + 1) for _ in range(x_order + 1)]
    table[0][0] = 1
    step = 1
    while step <= z_order:
        # each factor appears squared
        for _ in range(2):
            new = [[0] * (z_order + 1) for _ in range(x_order + 1)]
            for k in range(x_order + 1):
                row = table[k]
                for n in range(z_order + 1):
                    c = row[n]
                    if not c:
                        continue
                    for m in range(p):
                        kk = k + m
                        nn = n + m * step
                        if kk > x_order or nn > z_order:
                            break
                        new[kk][nn] += c
            table = new
        step *= p
    return table
