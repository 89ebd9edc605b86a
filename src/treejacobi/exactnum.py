"""Exact complex arithmetic on Gaussian rationals times sqrt(m).

Recurrence runs that must be checked for exact cancellation (alternating
signs at z = 0, Wronskian identities, level sums) cannot tolerate float
drift.  On the radial matrix with off-diagonal sqrt(d)*lambda_n, p_n(z)
and q_n(z) are Gaussian rationals times a power of sqrt(d), so each value
has one grade: a representation

    (x + i y) / den * sqrt(m)

with integers x, y, den > 0 and squarefree m is closed under *, / and the
same-grade +, -, and is enough for every exact-mode computation in this
package.  A sum of two nonzero values of different grades raises
ValueError.  An ExactComplex holds those integers, as the fraction-free
recurrence holds its rows (Bareiss 1968; Geddes, Czapor & Labahn 1992,
ch. 2): each arithmetic operation brings its result to lowest terms by one
gcd (_lowest), a product with a rational cancelling only against the
rational's parts (_scaled), and the rational parts re and im are built
when read.  unreduced() gives the same type from integers without the gcd.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from numbers import Rational
from typing import Sequence


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s*s*m and m squarefree."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    s, m, rem = 1, 1, n
    k = 2
    while k * k <= rem:
        count = 0
        while rem % k == 0:
            rem //= k
            count += 1
        s *= k ** (count // 2)
        if count % 2:
            m *= k
        k += 1
    m *= rem
    return s, m


def _grades(m1: int, m2: int) -> tuple[int, int]:
    """(k, m) with sqrt(m1) * sqrt(m2) = k * sqrt(m)."""
    if m1 == 1 or m2 == 1:
        return 1, m1 * m2
    if m1 == m2:
        return m1, 1
    raise ValueError(f"incompatible radicands {m1} and {m2}")


def _operand(value):
    """(x, y, den, m) of an ExactComplex or a rational, else None."""
    if isinstance(value, ExactComplex):
        return value.ints + (value.m,)
    if isinstance(value, int):
        return value, 0, 1, 1
    if isinstance(value, Rational):
        return value.numerator, 0, value.denominator, 1
    return None


def _new(x: int, y: int, den: int, m: int) -> "ExactComplex":
    value = object.__new__(ExactComplex)
    value.ints = (x, y, den)
    value.m = m
    return value


def _lowest(x: int, y: int, den: int, m: int) -> "ExactComplex":
    """(x + i*y)/den * sqrt(m) in lowest terms, for den > 0: the one gcd of
    an arithmetic operation.  A zero gets grade 1."""
    g = math.gcd(den, x, y)
    if g != 1:
        x, y, den = x // g, y // g, den // g
    return _new(x, y, den, m if x or y else 1)


def _scaled(x: int, y: int, den: int, m: int, p: int, q: int) -> "ExactComplex":
    """(x + i*y)/den * sqrt(m) times p/q in lowest terms, q > 0, cancelling
    only against p and q, as Fraction's product does: gcds with one small
    operand, which keep a value in lowest terms if it was."""
    if not (p and (x or y)):
        return _new(0, 0, 1, 1)
    g = math.gcd(p, den)
    if g != 1:
        p, den = p // g, den // g
    if q != 1:
        h = math.gcd(q, x, y)
        if h != 1:
            q, x, y = q // h, x // h, y // h
        den *= q
    if p != 1:
        x, y = x * p, y * p
    return _new(x, y, den, m)


class ExactComplex:
    """(x + i*y)/den * sqrt(m) with integers x, y, den > 0 and squarefree
    m >= 1 (zero has m = 1), built from rational parts: ExactComplex(re, im,
    m).  + - * / keep gcd(x, y, den) = 1.  Immutable; == and hash compare values.
    complex(), abs() and bool() answer as for a complex; a float operand raises."""

    __slots__ = ("ints", "m")

    def __init__(self, re=0, im=0, m: int = 1):
        re, im = Fraction(re), Fraction(im)
        value = _lowest(re.numerator * im.denominator, im.numerator * re.denominator,
                        re.denominator * im.denominator, m)
        self.ints, self.m = value.ints, value.m

    re = property(lambda self: Fraction(self.ints[0], self.ints[2]))
    im = property(lambda self: Fraction(self.ints[1], self.ints[2]))
    # the parts of a + b*sqrt(m), with a = ar + i*ai and b = br + i*bi
    ar = property(lambda self: self.re if self.m == 1 else Fraction(0))
    ai = property(lambda self: self.im if self.m == 1 else Fraction(0))
    br = property(lambda self: self.re if self.m != 1 else Fraction(0))
    bi = property(lambda self: self.im if self.m != 1 else Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, ExactComplex):
            return NotImplemented
        (x1, y1, d1), (x2, y2, d2) = self.ints, other.ints
        return self.m == other.m and x1 * d2 == x2 * d1 and y1 * d2 == y2 * d1

    def __hash__(self):
        return hash((self.re, self.im, self.m))

    def __add__(self, other):
        b = _operand(other)
        if b is None:
            return NotImplemented
        x2, y2, d2, m2 = b
        x1, y1, d1 = self.ints
        if not (x2 or y2):
            return _new(x1, y1, d1, self.m)
        if not (x1 or y1):
            return _new(x2, y2, d2, m2)
        if m2 != self.m:
            raise ValueError(f"cannot add values of grades sqrt({self.m}) and sqrt({m2})")
        if d1 == d2:
            return _lowest(x1 + x2, y1 + y2, d1, m2)
        return _lowest(x1 * d2 + x2 * d1, y1 * d2 + y2 * d1, d1 * d2, m2)

    __radd__ = __add__

    def __neg__(self):
        x, y, den = self.ints
        return _new(-x, -y, den, self.m)

    def __sub__(self, other):
        if _operand(other) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = _operand(other)
        if b is None:
            return NotImplemented
        x2, y2, d2, m2 = b
        x1, y1, d1 = self.ints
        if not y2 and m2 == 1:  # a rational: cancel against its two parts
            return _scaled(x1, y1, d1, self.m, x2, d2)
        if not y1 and self.m == 1:
            return _scaled(x2, y2, d2, m2, x1, d1)
        k, m = _grades(self.m, m2)
        return _lowest(k * (x1 * x2 - y1 * y2), k * (x1 * y2 + y1 * x2), d1 * d2, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = _operand(other)
        if b is None:
            return NotImplemented
        x2, y2, d2, m2 = b
        x1, y1, d1 = self.ints
        norm = x2 * x2 + y2 * y2
        if not norm:
            raise ZeroDivisionError("division by exact zero")
        if not y2 and m2 == 1:  # times d2/x2, its sign moved to the numerator
            return _scaled(x1, y1, d1, self.m, d2 if x2 > 0 else -d2, abs(x2))
        k, m = _grades(self.m, m2)
        den = d1 * norm
        if k != m2:  # 1/sqrt(m2) = sqrt(m2)/m2
            den *= m2
        return _lowest(d2 * (x1 * x2 + y1 * y2), d2 * (y1 * x2 - x1 * y2), den, m)

    def __rtruediv__(self, other):
        b = _operand(other)
        if b is None:
            return NotImplemented
        return _new(*b) / self

    def conjugate(self) -> "ExactComplex":
        x, y, den = self.ints
        return _new(x, -y, den, self.m)

    def abs2(self) -> "ExactComplex":
        """|x|^2 = (x^2 + y^2) * m / den^2, exact and rational."""
        x, y, den = self.ints
        return _lowest((x * x + y * y) * self.m, 0, den * den, 1)

    def __bool__(self) -> bool:
        return any(self.ints[:2])

    is_zero = property(lambda self: not self)

    def to_complex(self) -> complex:
        """One correctly rounded int / int per part, which is the float of
        the part's Fraction whether or not the integers are in lowest terms."""
        x, y, den = self.ints
        root = self.m ** 0.5
        try:
            re, im = x / den, y / den
        except OverflowError:
            raise OverflowError("exact value does not fit in a float") from None
        return complex(re * root, im * root)

    __complex__ = to_complex

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __repr__(self):
        return f"ExactComplex({self.re}, {self.im}, sqrt={self.m})"


def unreduced(x: int, y: int, den: int, m: int = 1) -> ExactComplex:
    """The ExactComplex (x + i*y)/den * sqrt(m) of integers x, y and
    den != 0 (a negative den is moved to x and y), built without the gcd,
    for a value that may only be read as floats: to_complex is one int / int
    per part.  Arithmetic on it brings its result to lowest terms."""
    if den < 0:
        x, y, den = -x, -y, -den
    return _new(x, y, den, m if x or y else 1)


def exact_complex(re, im=0) -> ExactComplex:
    """Exact number from rational real and imaginary parts."""
    return ExactComplex(Fraction(re), Fraction(im))


def exact_sqrt(n: int) -> ExactComplex:
    """Exact sqrt(n) for a positive integer n."""
    s, m = squarefree_split(n)
    return ExactComplex(Fraction(s), m=m)


def matching_sqrt(d: int, *values):
    """sqrt(d) in the arithmetic of values: exact_sqrt(d) when any of them
    is an ExactComplex, a float otherwise."""
    return exact_sqrt(d) if any(map(is_exact, values)) else math.sqrt(d)


def half_power(d: int, k: int) -> ExactComplex:
    """Exact d**(k/2) for integers d >= 1, k >= 0: the integer d**(k // 2),
    times exact_sqrt(d) when k is odd."""
    whole = exact_complex(d ** (k // 2))
    return whole * exact_sqrt(d) if k % 2 else whole


def is_exact(value) -> bool:
    return isinstance(value, ExactComplex)


def conj(value):
    """Complex conjugate for floats, complex numbers and ExactComplex."""
    return (value if isinstance(value, (ExactComplex, complex)) else complex(value)).conjugate()


def abs2(value):
    if isinstance(value, ExactComplex):
        return value.abs2()
    v = complex(value)
    return v.real * v.real + v.imag * v.imag


# An ExactComplex answers complex(), abs() and bool() as a float does, so
# readers of either arithmetic call those; these two names say the same.
as_complex = complex
is_zero = operator.not_


def sums_to_zero(values: Sequence, rtol: float) -> bool:
    """Whether the values sum to zero.  When each is an ExactComplex or 0 the
    test is exact: the sum on each grade vanishes (distinct square roots are
    independent over the Gaussian rationals).  Otherwise |sum| must be at most
    rtol * max |v|, so scaling every value does not change the answer."""
    if all(is_exact(v) or v == 0 for v in values):
        totals: dict = {}
        for v in values:
            if is_exact(v):
                totals[v.m] = totals.get(v.m, 0) + v
        return not any(totals.values())
    floats = [complex(v) for v in values]
    return abs(sum(floats)) <= rtol * max(map(abs, floats))
