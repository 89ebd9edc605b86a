"""Exact arithmetic on Gaussian rationals times sqrt(m)."""
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treejacobi.exactnum import (ExactComplex, abs2, as_complex, exact_complex, exact_sqrt,
                                 half_power, is_exact, is_zero, squarefree_split,
                                 sums_to_zero, unreduced)


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(4) == (2, 1)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(18) == (3, 2)
    assert squarefree_split(7) == (1, 7)
    with pytest.raises(ValueError):
        squarefree_split(0)


def test_sqrt_folds_perfect_squares():
    assert exact_sqrt(9) == exact_complex(3)
    r2 = exact_sqrt(2)
    assert (r2 * r2) == exact_complex(2)
    assert (r2 * r2 * r2 * r2) == exact_complex(4)


def test_half_power():
    assert half_power(2, 0) == exact_complex(1)
    assert half_power(2, 2) == exact_complex(2)
    assert half_power(2, 3) == exact_complex(2) * exact_sqrt(2)
    assert abs(half_power(3, 5).to_complex() - 3 ** 2.5) < 1e-12


def test_division_with_radical_denominator():
    """A mixed sum such as 1 + sqrt(2) raises; quotients by sqrt(2) are exact."""
    r2 = exact_sqrt(2)
    with pytest.raises(ValueError):
        exact_complex(1) + r2
    with pytest.raises(ValueError):
        r2 - 1
    assert r2 + exact_complex(0) == r2
    assert r2 * r2 == exact_complex(2)
    assert r2 / r2 == exact_complex(1)
    assert exact_complex(1) / r2 == ExactComplex(Fraction(1, 2), m=2)
    assert (exact_complex(1) / r2) * r2 == exact_complex(1)


def test_complex_parts_and_conjugate():
    z = exact_complex(Fraction(1, 2), Fraction(-3, 4))
    assert z.conjugate() == exact_complex(Fraction(1, 2), Fraction(3, 4))
    sq = z.abs2()
    assert sq.im == 0
    assert sq.ar == Fraction(1, 4) + Fraction(9, 16)
    w = exact_complex(1, 2) * exact_sqrt(3)
    assert w.abs2() == exact_complex(15)


def test_abs2_of_a_float_or_complex():
    assert abs2(-1.5) == 2.25
    assert abs2(3 - 4j) == 25.0
    assert abs2(2) == 4.0


def test_sums_to_zero_exact_per_grade():
    r2 = exact_sqrt(2)
    one = exact_complex(1)
    assert sums_to_zero([one, 0, -one], 0.0)
    assert sums_to_zero([one, r2, -one, -r2], 0.0)  # each grade cancels
    assert not sums_to_zero([one, -r2], 0.5)
    assert not sums_to_zero([one, exact_complex(Fraction(-1, 10 ** 30) - 1)], 1.0)
    assert sums_to_zero([], 0.0) and sums_to_zero([0, 0.0], 0.0)


def test_sums_to_zero_float_rule_is_scale_free():
    for k in range(-300, 301, 20):
        c = 2.0 ** k
        assert sums_to_zero([c, -c], 1e-14)
        assert sums_to_zero([c, -c * (1 + 1e-15)], 1e-14)
        assert not sums_to_zero([c, -c * (1 + 1e-12)], 1e-14)
        assert not sums_to_zero([c, 0.0], 1e-14)
    assert sums_to_zero([1j, exact_complex(0, -1)], 1e-14)  # mixed: float rule
    assert not sums_to_zero([float("nan"), 1.0], 1e-14)


@pytest.mark.parametrize("call, message", [
    (lambda x: x - "a", "for -: 'ExactComplex' and 'str'"),
    (lambda x: x / "a", "for /: 'ExactComplex' and 'str'"),
    (lambda x: "a" / x, "for /: 'str' and 'ExactComplex'"),
], ids=["sub", "truediv", "rtruediv"])
def test_an_operand_that_is_no_number_is_a_type_error(call, message):
    with pytest.raises(TypeError, match=f"unsupported operand type\\(s\\) {message}"):
        call(exact_complex(1, 2))


def test_incompatible_radicands_rejected():
    with pytest.raises(ValueError):
        exact_sqrt(2) + exact_sqrt(3)
    with pytest.raises(ValueError):
        exact_sqrt(2) * exact_sqrt(3)
    with pytest.raises(ValueError):
        exact_sqrt(2) / exact_sqrt(3)


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def graded(m: int):
    """Values (re + i*im) * sqrt(m) of the one grade m."""
    return st.builds(lambda re, im: ExactComplex(re, im, m), fractions, fractions)


def exacts(m: int):
    """Values of a random grade, 1 or m."""
    return st.sampled_from([1, m]).flatmap(graded)


def same_grade(m: int):
    """Two values of one random grade, 1 or m."""
    return st.sampled_from([1, m]).flatmap(lambda g: st.tuples(graded(g), graded(g)))


@given(same_grade(2), exacts(2))
def test_field_axioms(xy, w):
    x, y = xy
    assert (x + y) * w == x * w + y * w
    assert x * y == y * x
    assert x * w == w * x
    assert (x - y) + y == x


@given(exacts(3))
def test_division_inverts_multiplication(x):
    if x:
        assert (x * x) / x == x
        one = exact_complex(1)
        assert (one / x) * x == one


@given(exacts(5), exacts(5))
def test_conjugation_is_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def _close(exact, approx, size):
    return abs(exact.to_complex() - approx) <= 1e-9 * max(1.0, size)


@given(exacts(2), exacts(2), same_grade(2))
def test_float_embedding_consistent(x, w, uv):
    fx, fw = x.to_complex(), w.to_complex()
    assert _close(x * exact_sqrt(2), fx * math.sqrt(2), abs(fx))
    assert _close(x * w, fx * fw, abs(fx) * abs(fw))
    if w:
        assert _close(x / w, fx / fw, abs(fx / fw))
    u, v = uv
    assert _close(u + v, u.to_complex() + v.to_complex(),
                  abs(u.to_complex()) + abs(v.to_complex()))


# -- values given by integers, not in lowest terms ---------------------------

def _reduced(x, y, den, m):
    return ExactComplex(Fraction(x, den), Fraction(y, den), m)


def _floats_or_error(value):
    try:
        c = as_complex(value) if is_exact(value) else value.to_complex()  # or a FractionPair
    except OverflowError as exc:
        return str(exc)
    return repr(c.real), repr(c.imag)


# integers whose quotients overflow, underflow to subnormals or to zero
WIDE = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 400, 10 ** 400),
                 st.builds(lambda a, e: a * 2 ** e, st.integers(-9, 9), st.integers(0, 1200)))


@settings(max_examples=300)
@given(WIDE, WIDE, WIDE.filter(bool), st.sampled_from([1, 2, 3]))
def test_unreduced_floats_are_the_reduced_floats(reductions, x, y, den, m):
    # one int / int per part rounds as float(Fraction) does, signed zeros
    # and the overflow error included, and reduces nothing
    v = unreduced(x, y, den, m)
    with reductions() as bits:
        got = _floats_or_error(v)
    assert got == _floats_or_error(_reduced(x, y, den, m)) and bits == []


def _read(reader, value):
    """repr of what reader reads from value, or its OverflowError."""
    try:
        return repr(complex(reader(value)))
    except OverflowError as exc:
        return "OverflowError", str(exc)


@settings(max_examples=300)
@given(st.one_of(st.just(exact_complex(0)), st.sampled_from([1, 2, 3]).flatmap(graded),
                 st.builds(unreduced, WIDE, WIDE, WIDE.filter(bool), st.sampled_from([1, 2, 3]))))
def test_float_readers_read_an_exact_value_as_to_complex(v):
    # complex(), abs() and bool() answer for an exact value as for its
    # to_complex(), signed zeros and the overflow error included, and so do
    # a complex array and the two exactnum names
    want = _read(ExactComplex.to_complex, v)
    for reader in (complex, as_complex, lambda v: np.array([v], dtype=complex)[0]):
        assert _read(reader, v) == want, reader
    assert _read(abs, v) == _read(lambda v: abs(v.to_complex()), v)
    assert bool(v) is (v != exact_complex(0)) is (not is_zero(v))


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-20, 20).filter(bool),
       st.sampled_from([1, 2]), fractions, exacts(2))
def test_unreduced_value_is_its_reduced_value(reductions, x, y, den, m, r, w):
    v, want = unreduced(x, y, den, m), _reduced(x, y, den, m)
    with reductions() as bits:
        assert is_zero(v) == is_zero(want) and v.m == want.m
        # a rational product cancels only against the rational's parts
        assert v * r == want * r == r * v
        assert v == want and want == v
    assert bits == []
    assert abs2(v) == abs2(want)
    assert hash(v) == hash(want)
    assert v.re == want.re and v.ints == ((x, y, den) if den > 0 else (-x, -y, -den))
    assert v * w == want * w and w * v == w * want
    assert v + want == want + want and v / 1 == want


RATIONALS = st.one_of(st.integers(-30, 30), fractions, st.just(0), st.just(Fraction(0)))


@given(RATIONALS, exacts(2), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-20, 20).filter(bool), st.sampled_from([1, 3]))
def test_rational_times_exact_is_the_coerced_product(r, x, a, b, den, m):
    # an int or a Fraction cancels against each part once; zero resets the grade
    for value in (x, unreduced(a, b, den, m)):
        want = exact_complex(r) * value
        for got in (r * value, value * r):
            assert got == want and got.m == want.m
            assert got.m == 1 or got
    assert type(r * unreduced(a, b, den, m)) is ExactComplex
    assert type(r * x) is ExactComplex and isinstance((r * x).re, Fraction)


# -- oracle: the Fraction-pair ExactComplex the integer type replaced ---------

def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cdiv(x, y):
    den = y[0] * y[0] + y[1] * y[1]
    if den == 0:
        raise ZeroDivisionError("division by exact zero")
    return ((x[0] * y[0] + x[1] * y[1]) / den, (x[1] * y[0] - x[0] * y[1]) / den)


def _grades(m1, m2):
    if m1 == 1 or m2 == 1:
        return 1, m1 * m2
    if m1 == m2:
        return m1, 1
    raise ValueError(f"incompatible radicands {m1} and {m2}")


@dataclass(frozen=True, eq=False)
class FractionPair:
    """(re + i*im) * sqrt(m) held as two Fractions, as ExactComplex was."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)
    m: int = 1

    def __post_init__(self):
        if self.m != 1 and not (self.re or self.im):
            object.__setattr__(self, "m", 1)

    def __eq__(self, other):
        if not isinstance(other, FractionPair):
            return NotImplemented
        return (self.re, self.im, self.m) == (other.re, other.im, other.m)

    def __hash__(self):
        return hash((self.re, self.im, self.m))

    def _coerce(self, other):
        if isinstance(other, FractionPair):
            return other
        if isinstance(other, (int, Rational)):
            return FractionPair(Fraction(other))
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
        return FractionPair(self.re + other.re, self.im + other.im, self.m)

    __radd__ = __add__

    def __neg__(self):
        return FractionPair(-self.re, -self.im, self.m)

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
        k, m = _grades(self.m, other.m)
        re, im = _cmul((self.re, self.im), (other.re, other.im))
        return FractionPair(k * re, k * im, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k, m = _grades(self.m, other.m)
        re, im = _cdiv((self.re, self.im), (other.re, other.im))
        if k != other.m:  # 1/sqrt(m2) = sqrt(m2)/m2
            re, im = re / other.m, im / other.m
        return FractionPair(re, im, m)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self):
        return FractionPair(self.re, -self.im, self.m)

    def abs2(self):
        return FractionPair((self.re * self.re + self.im * self.im) * self.m)

    @property
    def is_zero(self):
        return not (self.re or self.im)

    def to_complex(self):
        root = self.m ** 0.5
        try:
            re, im = float(self.re), float(self.im)
        except OverflowError:
            raise OverflowError("exact value does not fit in a float") from None
        return complex(re * root, im * root)

    def __repr__(self):
        return f"ExactComplex({self.re}, {self.im}, sqrt={self.m})"


def _oracle(value):
    """The FractionPair of an ExactComplex, and a rational as itself."""
    return FractionPair(value.re, value.im, value.m) if is_exact(value) else value


def _outcome(fn, *args):
    """fn(*args), or the type and text of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)


def _in_lowest_terms(value) -> bool:
    x, y, den = value.ints
    return math.gcd(x, y, den) == 1


def _same(got, want, lowest: bool) -> None:
    """got (integer type) is want (FractionPair): the same value, grade,
    repr and hash, or the same error; den > 0 always, and gcd(x, y, den) = 1
    when every operand was in lowest terms."""
    if isinstance(want, tuple) or want is NotImplemented:
        assert got == want
        return
    assert type(got) is ExactComplex and _oracle(got) == want
    assert got.m == want.m and repr(got) == repr(want) and hash(got) == hash(want)
    assert got.ints[2] > 0
    assert _in_lowest_terms(got) or not lowest


SMALL = st.integers(-60, 60)
DENS = st.integers(-40, 40).filter(bool)


def integer_operands(m: int):
    """Values of grade 1 or m with their FractionPair: from rational parts,
    from integers not in lowest terms (den of either sign), zeros of the
    grade, and ints and Fractions."""
    grade = st.sampled_from([1, m])
    from_parts = st.builds(lambda re, im, g: (ExactComplex(re, im, g), FractionPair(re, im, g)),
                           fractions, fractions, grade)
    from_ints = st.builds(lambda x, y, den, g: (unreduced(x, y, den, g),
                                                FractionPair(Fraction(x, den), Fraction(y, den), g)),
                          SMALL, SMALL, DENS, grade)
    zeros = grade.map(lambda g: (ExactComplex(0, 0, g), FractionPair(Fraction(0), Fraction(0), g)))
    rationals = st.one_of(st.integers(-30, 30), fractions).map(lambda r: (r, r))
    return st.one_of(from_parts, from_ints, zeros, rationals)


DUNDERS = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__"]


@settings(max_examples=200)
@given(st.sampled_from([2, 3]).flatmap(lambda m: st.tuples(integer_operands(m),
                                                           integer_operands(m))),
       st.sampled_from(DUNDERS))
def test_integer_type_is_the_fraction_pair_on_every_dunder(operands, name):
    (a, fa), (b, fb) = operands
    if not is_exact(a):
        (a, fa), (b, fb) = (b, fb), (a, fa)
    if not is_exact(a):
        return
    lowest = all(_in_lowest_terms(v) for v in (a, b) if is_exact(v))
    _same(_outcome(getattr(ExactComplex, name), a, b),
          _outcome(getattr(FractionPair, name), fa, fb), lowest)
    # and through the operator, whichever side the rational is on
    op = getattr(operator, name.strip("_").removeprefix("r"))
    _same(_outcome(op, b, a), _outcome(op, fb, fa), lowest)


@given(st.sampled_from([2, 3]).flatmap(lambda m: st.tuples(integer_operands(m),
                                                           integer_operands(m))))
def test_integer_type_is_the_fraction_pair_on_the_other_operations(operands):
    (a, fa), (b, fb) = operands
    if not is_exact(a):
        return
    lowest = _in_lowest_terms(a)
    for name in ("__neg__", "conjugate"):
        _same(getattr(a, name)(), getattr(fa, name)(), lowest)
    _same(a.abs2(), fa.abs2(), True)
    assert (not a) == fa.is_zero and repr(a) == repr(fa) and hash(a) == hash(fa)
    assert (a == b) == (fa == fb) and (b == a) == (fb == fa)
    assert (a != b) == (fa != fb)
    assert (a.ar, a.ai, a.br, a.bi) == ((fa.re, fa.im, 0, 0) if fa.m == 1
                                        else (0, 0, fa.re, fa.im))
    assert _floats_or_error(a) == _floats_or_error(fa)


@settings(max_examples=200)
@given(WIDE, WIDE, WIDE.filter(bool), st.sampled_from([1, 2, 3]))
def test_integer_type_rounds_as_the_fraction_pair(x, y, den, m):
    # correctly rounded parts, signed zeros and the overflow text included,
    # for values not in lowest terms and for their reduced form
    want = _floats_or_error(FractionPair(Fraction(x, den), Fraction(y, den), m))
    assert _floats_or_error(unreduced(x, y, den, m)) == want
    assert _floats_or_error(_reduced(x, y, den, m)) == want


def test_integer_type_edge_cases():
    r2, r3 = exact_sqrt(2), exact_sqrt(3)
    # mixed grades
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="grades sqrt\\(2\\) and sqrt\\(3\\)"):
            op(r2, r3)
    for op in (operator.mul, operator.truediv):
        with pytest.raises(ValueError, match="incompatible radicands 2 and 3"):
            op(r2, r3)
    # division by an exact zero, of any form
    for zero in (0, Fraction(0), exact_complex(0), unreduced(0, 0, -7, 2)):
        with pytest.raises(ZeroDivisionError, match="division by exact zero"):
            r2 / zero
    with pytest.raises(ZeroDivisionError):
        1 / exact_complex(0)
    # a zero resets the grade, and then adds to any grade
    for zero in (r2 * 0, r2 - r2, 0 * r2, r2 * exact_complex(0), unreduced(0, 0, 5, 3)):
        assert not zero and zero.m == 1
        assert (zero + r3) == r3 and (r3 + zero) == r3
    # a negative den moves to the numerator, and division by a negative
    # rational keeps den positive
    v = unreduced(3, -4, -6, 2)
    assert v.ints == (-3, 4, 6) and v == ExactComplex(Fraction(-1, 2), Fraction(2, 3), 2)
    for q in (v / -3, v / Fraction(-3, 4), exact_complex(1, 1) / -2, r2 / Fraction(-2, 9)):
        assert q.ints[2] > 0 and _in_lowest_terms(q)
    assert r2 / Fraction(-2, 9) == ExactComplex(Fraction(-9, 2), 0, 2)
    # a rational product cancels against the rational's parts
    assert (exact_complex(2, 4) * Fraction(1, 6)).ints == (1, 2, 3)
    assert (Fraction(3, 2) * ExactComplex(Fraction(1, 3), 0, 2)).ints == (1, 0, 2)
    assert (exact_complex(Fraction(1, 6), Fraction(1, 4)) * -12).ints == (-2, -3, 1)
    # quotients through sqrt(m)
    assert exact_complex(1) / r3 == ExactComplex(Fraction(1, 3), 0, 3)
    assert exact_complex(1, 2) / (exact_complex(0, 1) * r2) == ExactComplex(1, Fraction(-1, 2), 2)
    assert (r3 / r3).m == 1 and r3 / r3 == exact_complex(1)
    # floats are not exact operands, though complex(r2) reads r2 as one
    assert ExactComplex.__add__(r2, 0.5) is NotImplemented
    with pytest.raises(TypeError):
        r2 * 0.5
    for other in (0.5j, np.float64(0.5), np.complex128(0.5j)):
        for op in (operator.add, operator.mul):
            with pytest.raises(TypeError):
                op(r2, other)
            with pytest.raises(TypeError):
                op(other, r2)
