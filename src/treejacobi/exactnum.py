"""Exact complex arithmetic on Gaussian rationals times sqrt(m).

Recurrence runs that must be checked for exact cancellation (alternating
signs at z = 0, Wronskian identities, level sums) cannot tolerate float
drift.  On the radial matrix with off-diagonal sqrt(d)*lambda_n, p_n(z)
and q_n(z) are Gaussian rationals times a power of sqrt(d), so each value
has one grade: a representation

    (re + i im) * sqrt(m)

with Fraction re, im and squarefree m is closed under *, / and the
same-grade +, -, and is enough for every exact-mode computation in this
package.  A sum of two nonzero values of different grades raises
ValueError.  An UnreducedComplex is such a value given by integers, which
it brings to lowest terms only when its parts are first read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cdiv(x, y):
    den = y[0] * y[0] + y[1] * y[1]
    if den == 0:
        raise ZeroDivisionError("division by exact zero")
    return ((x[0] * y[0] + x[1] * y[1]) / den, (x[1] * y[0] - x[0] * y[1]) / den)


def _grades(m1: int, m2: int) -> tuple[int, int]:
    """(k, m) with sqrt(m1) * sqrt(m2) = k * sqrt(m)."""
    if m1 == 1 or m2 == 1:
        return 1, m1 * m2
    if m1 == m2:
        return m1, 1
    raise ValueError(f"incompatible radicands {m1} and {m2}")


@dataclass(frozen=True, eq=False)
class ExactComplex:
    """A number (re + i*im) * sqrt(m) with rational re, im and squarefree
    m >= 1; zero is stored with m = 1."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)
    m: int = 1

    def __post_init__(self):
        if self.m != 1 and not (self.re or self.im):
            object.__setattr__(self, "m", 1)

    @property
    def ar(self) -> Fraction:
        return self.re if self.m == 1 else Fraction(0)

    @property
    def ai(self) -> Fraction:
        return self.im if self.m == 1 else Fraction(0)

    @property
    def br(self) -> Fraction:
        return self.re if self.m != 1 else Fraction(0)

    @property
    def bi(self) -> Fraction:
        return self.im if self.m != 1 else Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return (self.re, self.im, self.m) == (other.re, other.im, other.m)

    def __hash__(self):
        return hash((self.re, self.im, self.m))

    def _coerce(self, other):
        if isinstance(other, ExactComplex):
            return other
        if isinstance(other, (int, Rational)):
            return ExactComplex(Fraction(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.m != self.m:
            if other.is_zero:
                return self
            if self.is_zero:
                return other
            raise ValueError(f"cannot add values of grades sqrt({self.m}) and sqrt({other.m})")
        return ExactComplex(self.re + other.re, self.im + other.im, self.m)

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im, self.m)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # a rational: one product per part
            return ExactComplex(self.re * other, self.im * other, self.m)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k, m = _grades(self.m, other.m)
        re, im = _cmul((self.re, self.im), (other.re, other.im))
        if k != 1:
            re, im = k * re, k * im
        return ExactComplex(re, im, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k, m = _grades(self.m, other.m)
        re, im = _cdiv((self.re, self.im), (other.re, other.im))
        if k != other.m:  # 1/sqrt(m2) = sqrt(m2)/m2
            re, im = re / other.m, im / other.m
        return ExactComplex(re, im, m)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im, self.m)

    def abs2(self) -> "ExactComplex":
        """|x|^2 = (re^2 + im^2) * m, exact and rational."""
        return ExactComplex((self.re * self.re + self.im * self.im) * self.m)

    @property
    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def to_complex(self) -> complex:
        root = self.m ** 0.5
        try:
            re, im = self._floats()
        except OverflowError:
            raise OverflowError("exact value does not fit in a float") from None
        return complex(re * root, im * root)

    def _floats(self) -> tuple:
        return float(self.re), float(self.im)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __repr__(self):
        return f"ExactComplex({self.re}, {self.im}, sqrt={self.m})"


class UnreducedComplex(ExactComplex):
    """The ExactComplex (x + i*y)/den * sqrt(m) of integers x, y and den > 0
    (a negative den is moved to x and y), kept as those integers until its
    parts re and im are first read, which brings them to lowest terms once.

    Until then nothing reduces it: to_complex is one correctly rounded
    int / int per part, which is the float of the reduced Fraction too
    (float(Fraction) divides the same way); is_zero reads x and y; abs2 is
    one Fraction; and a product with an int or a Fraction is again an
    UnreducedComplex.  Any other arithmetic reads the parts."""

    def __init__(self, x: int, y: int, den: int, m: int = 1):
        if den < 0:
            x, y, den = -x, -y, -den
        object.__setattr__(self, "ints", (x, y, den))
        object.__setattr__(self, "m", m if x or y else 1)

    def _parts(self) -> tuple:
        parts = self.__dict__.get("_reduced")
        if parts is None:
            x, y, den = self.ints
            parts = (Fraction(x, den), Fraction(y, den))
            object.__setattr__(self, "_reduced", parts)
        return parts

    re = property(lambda self: self._parts()[0])
    im = property(lambda self: self._parts()[1])

    @property
    def is_zero(self) -> bool:
        x, y, _ = self.ints
        return not (x or y)

    def _floats(self) -> tuple:
        x, y, den = self.ints
        return x / den, y / den

    def abs2(self) -> ExactComplex:
        x, y, den = self.ints
        return ExactComplex(Fraction((x * x + y * y) * self.m, den * den))

    def __mul__(self, other):
        if isinstance(other, Rational):
            x, y, den = self.ints
            return UnreducedComplex(x * other.numerator, y * other.numerator,
                                    den * other.denominator, self.m)
        return super().__mul__(other)

    __rmul__ = __mul__


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


def root_power(root, d: int, k: int):
    """d**(k/2) in the arithmetic of root, the square root of d as a float or
    as exact_sqrt(d): the integer d**(k // 2), times root when k is odd."""
    whole = d ** (k // 2)
    return whole * root if k % 2 else whole


def half_power(d: int, k: int) -> ExactComplex:
    """Exact d**(k/2) for integers d >= 1, k >= 0."""
    return exact_complex(1) * root_power(exact_sqrt(d), d, k)


def is_exact(value) -> bool:
    return isinstance(value, ExactComplex)


def conj(value):
    """Complex conjugate for floats, complex numbers and ExactComplex."""
    if isinstance(value, ExactComplex):
        return value.conjugate()
    return value.conjugate() if isinstance(value, complex) else complex(value).conjugate()


def abs2(value):
    if isinstance(value, ExactComplex):
        return value.abs2()
    v = complex(value)
    return v.real * v.real + v.imag * v.imag


def as_complex(value) -> complex:
    if isinstance(value, ExactComplex):
        return value.to_complex()
    return complex(value)


def is_zero(value) -> bool:
    if isinstance(value, ExactComplex):
        return value.is_zero
    return value == 0


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
        return all(t.is_zero for t in totals.values())
    floats = [as_complex(v) for v in values]
    return abs(sum(floats)) <= rtol * max(map(abs, floats))
