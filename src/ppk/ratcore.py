"""Exact arithmetic over the rationals.

Three value types:

* :class:`PolyQ` -- dense univariate polynomials,
* :class:`SeriesQ` -- power series truncated at an explicit order,
* :class:`RationalFunctionQ` -- canonical quotients of polynomials that are
  defined at 0.

Coefficients are `fractions.Fraction` throughout; every operation is exact
and every object immutable.  Series refuse mixed-order arithmetic so a
silent truncation bug becomes a loud error.

``poly_gcd``, ``squarefree_decomposition`` and the canonical form of
``RationalFunctionQ`` take and return ``PolyQ``, but inside they clear
denominators and run on primitive integer rows: gcds by primitive remainder
sequences, exact integer quotients, and Yun's algorithm over Z behind a
squarefree certificate modulo one prime.  No gcd, division or canonical form
runs on ``Fraction``s.

Commands print integer rows over one denominator, through ``row_text``,
``quotient_text`` and ``ratio_strs``; the three types are the library's exact
reference, and ``PolyQ.text`` and ``str`` of a ``RationalFunctionQ`` print
through the same functions.  ``signed_sum`` is the one text join of signed
terms, shared by ``row_text`` and ``synth.BlockPolynomial.text``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from math import lcm as _ilcm
from typing import Iterable, Sequence, Union

Coefficient = Union[Fraction, int]

__all__ = [
    "PolyQ",
    "SeriesQ",
    "RationalFunctionQ",
    "poly_gcd",
    "squarefree_decomposition",
    "canonical_rows",
    "signed_sum",
    "rational_to_str",
    "ratio_to_str",
    "ratio_strs",
    "row_text",
    "quotient_text",
]


def rational_to_str(q: Coefficient) -> str:
    """Serialize exactly; the denominator is omitted when it is 1."""
    q = Fraction(q)
    return ratio_to_str(q.numerator, q.denominator)


def ratio_to_str(num: int, den: int) -> str:
    """``rational_to_str`` of num/den, given in lowest terms with den > 0."""
    return str(num) if den == 1 else f"{num}/{den}"


def signed_sum(terms: Iterable[tuple[Coefficient, str]]) -> str:
    """Join ``(coefficient, body)`` terms as ``a + b - c``, each sign taken
    from its coefficient and each body already written without one; "0" when
    there are no terms."""
    parts: list[str] = []
    for c, body in terms:
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


def ratio_strs(row: Iterable[int], den: int = 1) -> list[str]:
    """``ratio_to_str`` of each row[i] / den, reduced; den > 0."""
    out = []
    for c in row:
        g = _igcd(c, den)
        out.append(ratio_to_str(c // g, den // g))
    return out


def row_text(row: Sequence[int], den: int = 1, var: str = "x") -> str:
    """The polynomial sum_i (row[i] / den) x^i in human form, e.g.
    ``2 + x + 2x^2``, each coefficient reduced and zero terms skipped;
    den > 0."""
    terms: list[tuple[int, str]] = []
    for i, (c, body) in enumerate(zip(row, ratio_strs(map(abs, row), den))):
        if not c:
            continue
        if i:
            xpow = var if i == 1 else f"{var}^{i}"
            if body == "1":
                body = xpow
            elif "/" in body:
                body += f"*{xpow}"
            else:
                body += xpow
        terms.append((c, body))
    return signed_sum(terms)


def quotient_text(num: Sequence[int], den: Sequence[int]) -> str:
    """The text form ``(num) / (den)`` of a quotient of integer rows."""
    return f"({row_text(num)}) / ({row_text(den)})"


class PolyQ:
    """Dense polynomial over Q; ``coeffs[i]`` multiplies x^i, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coefficient] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def monomial(cls, c: Coefficient, degree: int) -> "PolyQ":
        if degree < 0:
            raise ValueError("degree must be >= 0")
        return cls((0,) * degree + (c,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolyQ):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == PolyQ((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("PolyQ", self.coeffs))

    def __repr__(self) -> str:
        return f"PolyQ({list(self.coeffs)!r})"

    def __add__(self, other: "PolyQ | Coefficient") -> "PolyQ":
        o = other if isinstance(other, PolyQ) else PolyQ((other,))
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyQ(out)

    __radd__ = __add__

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "PolyQ | Coefficient") -> "PolyQ":
        o = other if isinstance(other, PolyQ) else PolyQ((other,))
        return self + (-o)

    def __rsub__(self, other: Coefficient) -> "PolyQ":
        return PolyQ((other,)) - self

    def __mul__(self, other: "PolyQ | Coefficient") -> "PolyQ":
        if isinstance(other, (int, Fraction)):
            return PolyQ(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return PolyQ()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return PolyQ(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        lead = other.coeffs[-1]
        d = other.degree
        while len(rem) - 1 >= d and any(rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return PolyQ(q), PolyQ(rem)

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[0]

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[1]

    def __call__(self, x: Coefficient) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "PolyQ":
        return PolyQ(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def monic(self) -> "PolyQ":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        return PolyQ(tuple(c / lead for c in self.coeffs))

    def text(self, var: str = "x") -> str:
        """Human form, e.g. ``2 + x + 2x^2``; zero terms are skipped."""
        scale = _ilcm(*(c.denominator for c in self.coeffs))
        return row_text(_int_row(self, scale), scale, var)


# ---------------------------------------------------------------------------
# Integer rows.
#
# gcds and squarefree parts are computed on primitive integer coefficient
# lists (index i multiplies x^i, no trailing zeros, content 1, positive lead).
# By Gauss's lemma a primitive factor over Q divides an integer row over Z,
# so every division below is exact in integers and no Fraction is built.
# ---------------------------------------------------------------------------

# the largest prime below 2^15: a product of two residues fits one 30-bit
# CPython int digit
_CERT_PRIME = 32749


def _primitive(row: Sequence[int]) -> list[int]:
    """``row`` over its content, trailing zeros dropped, lead positive."""
    row = list(row)
    while row and not row[-1]:
        row.pop()
    if not row:
        return row
    g = _igcd(*row)
    if row[-1] < 0:
        g = -g
    return [c // g for c in row]


def _int_row(f: PolyQ, scale: int = 0) -> list[int]:
    """f times ``scale`` as an integer row; ``scale`` must be a multiple of
    f's denominators and defaults to their lcm."""
    scale = scale or _ilcm(*(c.denominator for c in f.coeffs))
    return [c.numerator * (scale // c.denominator) for c in f.coeffs]


def _derivative(row: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(row)][1:]


def _sub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    while out and not out[-1]:
        out.pop()
    return out


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of a mod b, for a nonzero row b.

    Each elimination scales the remainder by |lead(b)| / g, never by a
    negative number, so the values keep the signs of the true remainder's,
    as a Sturm sequence needs.
    """
    rem = list(a)
    lead, d = b[-1], len(b) - 1
    while len(rem) > d:
        c = rem.pop()
        if not c:
            continue
        g = _igcd(c, lead)
        s, t = lead // g, c // g
        if s < 0:
            s, t = -s, -t
        k = len(rem) - d
        if s != 1:
            rem = [s * x for x in rem]
        for i in range(d):
            rem[k + i] -= t * b[i]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _gcd_rows(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two integer rows by the primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer rows when b divides a in Z[x]; b is nonzero."""
    rem = list(a)
    lead, d = b[-1], len(b) - 1
    q = [0] * max(len(rem) - d, 0)
    for k in reversed(range(len(q))):
        c, r = divmod(rem[k + d], lead)
        if r:
            raise ArithmeticError("integer polynomial division is not exact")
        q[k] = c
        if c:
            for i in range(d):
                rem[k + i] -= c * b[i]
    if any(rem[:d]):
        raise ArithmeticError("integer polynomial division is not exact")
    return q


def _squarefree_mod(f: list[int]) -> bool:
    """True certifies that the integer row f (degree >= 1) is squarefree over Q.

    Let q be the fixed prime.  If q does not divide the lead and
    gcd(f mod q, f' mod q) = 1, f is squarefree: a square factor g^2 of f
    over Z would reduce to a square factor of the same degree mod q.  False
    decides nothing.
    """
    q = _CERT_PRIME
    if not f[-1] % q:
        return False
    a = [c % q for c in f]
    b = [c % q for c in _derivative(f)]
    while b and not b[-1]:
        b.pop()
    while b:
        rem, d = a, len(b) - 1
        inv = pow(b[-1], -1, q)
        while len(rem) > d:
            c = rem.pop() * inv % q
            if c:
                k = len(rem) - d
                for i in range(d):
                    rem[k + i] = (rem[k + i] - c * b[i]) % q
        while rem and not rem[-1]:
            rem.pop()
        a, b = b, rem
    return len(a) == 1


def _squarefree_rows(f: Sequence[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm over Z: ``[(g_i, i)]`` with f = c * prod g_i^i.

    The g_i are primitive integer rows of degree >= 1, squarefree and
    pairwise coprime.  A row certified squarefree mod a prime is returned
    whole; otherwise Yun runs on primitive remainder sequences.
    """
    f = _primitive(f)
    if len(f) <= 1:
        return []
    if _squarefree_mod(f):
        return [(f, 1)]
    fp = _derivative(f)
    g = _gcd_rows(f, fp)
    b = _exact_quotient(f, g)
    d = _sub(_exact_quotient(fp, g), _derivative(b))
    out: list[tuple[list[int], int]] = []
    i = 1
    while len(b) > 1:
        a_i = _gcd_rows(b, d)
        if len(a_i) > 1:
            out.append((a_i, i))
        b = _exact_quotient(b, a_i)
        d = _sub(_exact_quotient(d, a_i), _derivative(b))
        i += 1
    return out


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd over Q, computed on the primitive integer rows of a and b."""
    return PolyQ(_gcd_rows(_int_row(a), _int_row(b))).monic()


def squarefree_decomposition(f: PolyQ) -> list[tuple[PolyQ, int]]:
    """Yun's algorithm: return ``[(g_i, i)]`` with f = lc * prod g_i^i.

    Each ``g_i`` is monic, squarefree and pairwise coprime with the others,
    so the multiplicity structure of f's roots is recovered exactly.
    """
    return [(PolyQ(g).monic(), i) for g, i in _squarefree_rows(_int_row(f))]


def canonical_rows(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """The canonical form of the quotient num / den of integer rows (constant
    term first, no trailing zeros), as integer rows: their primitive gcd
    divided out (Gauss's lemma), then their joint content, with den(0) > 0.
    Equal quotients give equal rows."""
    if not den or not den[0]:
        raise ValueError("denominator must not vanish at 0")
    g = _gcd_rows(num, den)
    n, d = _exact_quotient(num, g), _exact_quotient(den, g)
    content = _igcd(*n, *d)
    if d[0] < 0:
        content = -content
    return [c // content for c in n], [c // content for c in d]


class SeriesQ:
    """Power series truncated at a fixed order (coefficients 0..order kept).

    Arithmetic between series demands equal orders; anything else raises
    ``ValueError`` rather than silently picking a truncation.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Coefficient]):
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != order + 1:
            raise ValueError(
                f"series of order {order} needs {order + 1} coefficients, got {len(cs)}"
            )
        self.order = order
        self.coeffs = cs

    @classmethod
    def zero(cls, order: int) -> "SeriesQ":
        return cls(order, (0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "SeriesQ":
        return cls(order, (1,) + (0,) * order)

    @classmethod
    def from_poly(cls, poly: PolyQ, order: int) -> "SeriesQ":
        cs = poly.coeffs[: order + 1]
        return cls(order, cs + (0,) * (order + 1 - len(cs)))

    def __getitem__(self, j: int) -> Fraction:
        return self.coeffs[j]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SeriesQ):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("SeriesQ", self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"SeriesQ({self.order}, {list(self.coeffs)!r})"

    def _like(self, other: "SeriesQ") -> None:
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other: "SeriesQ") -> "SeriesQ":
        self._like(other)
        return SeriesQ(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "SeriesQ") -> "SeriesQ":
        self._like(other)
        return SeriesQ(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "SeriesQ":
        return SeriesQ(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "SeriesQ | Coefficient") -> "SeriesQ":
        if isinstance(other, (int, Fraction)):
            return SeriesQ(self.order, tuple(c * other for c in self.coeffs))
        self._like(other)
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            ca = a[i]
            if ca:
                for j in range(n + 1 - i):
                    if b[j]:
                        out[i + j] += ca * b[j]
        return SeriesQ(n, out)

    __rmul__ = __mul__

    def __truediv__(self, other: "SeriesQ | Coefficient") -> "SeriesQ":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return SeriesQ(self.order, tuple(c / f for c in self.coeffs))
        self._like(other)
        if not other.coeffs[0]:
            raise ZeroDivisionError("series division needs a unit constant term")
        n = self.order
        a, b = self.coeffs, other.coeffs
        q = [Fraction(0)] * (n + 1)
        b0 = b[0]
        for k in range(n + 1):
            acc = a[k]
            for i in range(k):
                if q[i] and b[k - i]:
                    acc -= q[i] * b[k - i]
            q[k] = acc / b0
        return SeriesQ(n, q)

    def log(self) -> "SeriesQ":
        """Series logarithm via formal integration of f'/f; needs f(0) = 1."""
        if self.coeffs[0] != 1:
            raise ValueError("series log needs constant term 1")
        n = self.order
        if n == 0:
            return SeriesQ.zero(0)
        deriv = SeriesQ(n - 1, tuple((i + 1) * c for i, c in enumerate(self.coeffs[1:])))
        base = SeriesQ(n - 1, self.coeffs[:n])
        q = deriv / base
        out = [Fraction(0)] * (n + 1)
        for k, c in enumerate(q.coeffs):
            out[k + 1] = c / (k + 1)
        return SeriesQ(n, out)

    def exp(self) -> "SeriesQ":
        """Series exponential as the defining sum; needs constant term 0."""
        if self.coeffs[0] != 0:
            raise ValueError("series exp needs constant term 0")
        n = self.order
        result = SeriesQ.one(n)
        term = SeriesQ.one(n)
        for k in range(1, n + 1):
            term = (term * self) / k
            result = result + term
        return result


class RationalFunctionQ:
    """Canonical quotient num/den of polynomials with den(0) != 0.

    Canonical form: the polynomial gcd is divided out, both parts are scaled
    by one common rational so all coefficients are integers of joint content
    1, and the denominator's constant term is positive.  Equal functions
    therefore compare equal structurally.  It is ``canonical_rows`` of num
    and den over one common denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: "PolyQ | Coefficient", den: "PolyQ | Coefficient" = 1):
        num = num if isinstance(num, PolyQ) else PolyQ((num,))
        den = den if isinstance(den, PolyQ) else PolyQ((den,))
        scale = _ilcm(*(c.denominator for c in num.coeffs + den.coeffs))
        self._canonical(_int_row(num, scale), _int_row(den, scale))

    @classmethod
    def from_rows(cls, num: Sequence[int], den: Sequence[int]) -> "RationalFunctionQ":
        """num / den for integer coefficient rows (constant term first), with
        no ``Fraction`` on the way in."""
        rf = cls.__new__(cls)
        rf._canonical(num, den)
        return rf

    def _canonical(self, n: Sequence[int], d: Sequence[int]) -> None:
        """Set num and den to the canonical form of the integer rows n / d."""
        n, d = canonical_rows(n, d)
        self.num, self.den = PolyQ(n), PolyQ(d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunctionQ):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RationalFunctionQ", self.num.coeffs, self.den.coeffs))

    def __repr__(self) -> str:
        return f"RationalFunctionQ({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        """The text form ``(num) / (den)``; both have integer coefficients."""
        num, den = ([c.numerator for c in f.coeffs] for f in (self.num, self.den))
        return quotient_text(num, den)

    def series(self, order: int) -> SeriesQ:
        return SeriesQ.from_poly(self.num, order) / SeriesQ.from_poly(self.den, order)
