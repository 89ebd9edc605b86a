"""Exact complex arithmetic over the field Q(i, sqrt(m)).

Recurrence runs that must be checked for exact cancellation (alternating
signs at z = 0, Wronskian identities, level sums) cannot tolerate float
drift.  The quantities involved live in the quadratic extension of the
Gaussian rationals by sqrt(d), so a four-component representation

    (a_re + i a_im) + (b_re + i b_im) * sqrt(m)

with Fraction components is closed under +, -, *, / and is enough for
every exact-mode computation in this package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


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


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _csub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cdiv(x, y):
    den = y[0] * y[0] + y[1] * y[1]
    if den == 0:
        raise ZeroDivisionError("division by exact zero")
    return ((x[0] * y[0] + x[1] * y[1]) / den, (x[1] * y[0] - x[0] * y[1]) / den)


@dataclass(frozen=True)
class ExactComplex:
    """A number a + b*sqrt(m) with Gaussian-rational a, b and squarefree m."""

    ar: Fraction = Fraction(0)
    ai: Fraction = Fraction(0)
    br: Fraction = Fraction(0)
    bi: Fraction = Fraction(0)
    m: int = 1

    def __post_init__(self):
        if self.m == 1 and (self.br or self.bi):
            # sqrt(1) folds into the rational part
            object.__setattr__(self, "ar", self.ar + self.br)
            object.__setattr__(self, "ai", self.ai + self.bi)
            object.__setattr__(self, "br", Fraction(0))
            object.__setattr__(self, "bi", Fraction(0))
        if not self.br and not self.bi and self.m != 1:
            object.__setattr__(self, "m", 1)

    @staticmethod
    def from_rational(re, im=0) -> "ExactComplex":
        return ExactComplex(Fraction(re), Fraction(im))

    @staticmethod
    def sqrt_int(n: int) -> "ExactComplex":
        s, m = squarefree_split(n)
        if m == 1:
            return ExactComplex(Fraction(s))
        return ExactComplex(br=Fraction(s), m=m)

    def _coerce(self, other):
        if isinstance(other, ExactComplex):
            if self.m != 1 and other.m != 1 and self.m != other.m:
                raise ValueError(f"incompatible radicands {self.m} and {other.m}")
            return other
        if isinstance(other, (int, Rational)):
            return ExactComplex(Fraction(other))
        return NotImplemented

    def _radicand(self, other: "ExactComplex") -> int:
        return self.m if self.m != 1 else other.m

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactComplex(self.ar + other.ar, self.ai + other.ai,
                            self.br + other.br, self.bi + other.bi,
                            self._radicand(other))

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.ar, -self.ai, -self.br, -self.bi, self.m)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self._radicand(other)
        a1, b1 = (self.ar, self.ai), (self.br, self.bi)
        a2, b2 = (other.ar, other.ai), (other.br, other.bi)
        a = _cadd(_cmul(a1, a2), tuple(m * t for t in _cmul(b1, b2)))
        b = _cadd(_cmul(a1, b2), _cmul(b1, a2))
        return ExactComplex(a[0], a[1], b[0], b[1], m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self._radicand(other)
        a2, b2 = (other.ar, other.ai), (other.br, other.bi)
        if b2 == (0, 0):
            a1, b1 = (self.ar, self.ai), (self.br, self.bi)
            a = _cdiv(a1, a2)
            b = _cdiv(b1, a2)
            return ExactComplex(a[0], a[1], b[0], b[1], m)
        # multiply by the algebraic conjugate a2 - b2*sqrt(m)
        conj = ExactComplex(a2[0], a2[1], -b2[0], -b2[1], m)
        num = self * conj
        den = _csub(_cmul(a2, a2), tuple(m * t for t in _cmul(b2, b2)))
        a = _cdiv((num.ar, num.ai), den)
        b = _cdiv((num.br, num.bi), den)
        return ExactComplex(a[0], a[1], b[0], b[1], m)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.ar, -self.ai, self.br, -self.bi, self.m)

    def abs2(self) -> "ExactComplex":
        """|x|^2, exact; a real element of Q(sqrt(m))."""
        return self * self.conjugate()

    @property
    def is_zero(self) -> bool:
        return not (self.ar or self.ai or self.br or self.bi)

    @property
    def is_real(self) -> bool:
        return not (self.ai or self.bi)

    def to_complex(self) -> complex:
        root = self.m ** 0.5
        return complex(float(self.ar) + float(self.br) * root,
                       float(self.ai) + float(self.bi) * root)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __repr__(self):
        return f"ExactComplex({self.ar}, {self.ai}, {self.br}, {self.bi}, sqrt={self.m})"


def exact_complex(re, im=0) -> ExactComplex:
    """Exact number from rational real and imaginary parts."""
    return ExactComplex.from_rational(re, im)


def exact_sqrt(n: int) -> ExactComplex:
    """Exact sqrt(n) for a positive integer n."""
    return ExactComplex.sqrt_int(n)


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
    return ExactComplex.from_rational(1) * root_power(exact_sqrt(d), d, k)


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
