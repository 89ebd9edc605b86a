"""Exact arithmetic on Gaussian rationals times sqrt(m)."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treejacobi.exactnum import (ExactComplex, UnreducedComplex, abs2, as_complex,
                                 exact_complex, exact_sqrt, half_power, is_zero,
                                 squarefree_split, sums_to_zero)


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
    if not x.is_zero:
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
    if not w.is_zero:
        assert _close(x / w, fx / fw, abs(fx / fw))
    u, v = uv
    assert _close(u + v, u.to_complex() + v.to_complex(),
                  abs(u.to_complex()) + abs(v.to_complex()))


# -- values kept as integers until their parts are read ----------------------

def _reduced(x, y, den, m):
    return ExactComplex(Fraction(x, den), Fraction(y, den), m)


def _floats_or_error(value):
    try:
        c = as_complex(value)
    except OverflowError as exc:
        return str(exc)
    return repr(c.real), repr(c.imag)


# integers whose quotients overflow, underflow to subnormals or to zero
WIDE = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 400, 10 ** 400),
                 st.builds(lambda a, e: a * 2 ** e, st.integers(-9, 9), st.integers(0, 1200)))


@settings(max_examples=300)
@given(WIDE, WIDE, WIDE.filter(bool), st.sampled_from([1, 2, 3]))
def test_unreduced_floats_are_the_reduced_floats(x, y, den, m):
    # one int / int per part rounds as float(Fraction) does, signed zeros
    # and the overflow error included
    v = UnreducedComplex(x, y, den, m)
    assert _floats_or_error(v) == _floats_or_error(_reduced(x, y, den, m))
    assert "_reduced" not in vars(v)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-20, 20).filter(bool),
       st.sampled_from([1, 2]), fractions, exacts(2))
def test_unreduced_value_is_its_reduced_value(x, y, den, m, r, w):
    v, want = UnreducedComplex(x, y, den, m), _reduced(x, y, den, m)
    assert is_zero(v) == want.is_zero and v.m == want.m
    assert "_reduced" not in vars(v)
    assert abs2(v) == abs2(want)
    assert type(v * r) is type(r * v) is UnreducedComplex and v * r == want * r == r * v
    assert "_reduced" not in vars(v)
    assert v == want and want == v and hash(v) == hash(want)
    assert v.re is v.re  # brought to lowest terms once
    assert v * w == want * w and w * v == w * want
    assert v + want == want + want and v / 1 == want


RATIONALS = st.one_of(st.integers(-30, 30), fractions, st.just(0), st.just(Fraction(0)))


@given(RATIONALS, exacts(2), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-20, 20).filter(bool), st.sampled_from([1, 3]))
def test_rational_times_exact_is_the_coerced_product(r, x, a, b, den, m):
    # an int or a Fraction multiplies each part once; zero resets the grade
    for value in (x, UnreducedComplex(a, b, den, m)):
        want = exact_complex(r) * value
        for got in (r * value, value * r):
            assert got == want and got.m == want.m
            assert got.m == 1 or not got.is_zero
    assert type(r * UnreducedComplex(a, b, den, m)) is UnreducedComplex
    assert type(r * x) is ExactComplex and isinstance((r * x).re, Fraction)
