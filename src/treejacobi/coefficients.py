"""Coefficient sequences (lambda_n, beta_n) defining a Jacobi operator.

Each family is one formula over an index range: from an index lo on, it
yields lambda_n (and beta_n) as integer pairs (num, den), or in floats as
(x, 1) for the float x of a non-integer power, which exact arithmetic
refuses before any float is computed, and raises at the first index whose
value fails.  Every read is a list index: each sequence keeps its lambda_n
and beta_n in tables (cached properties), one of floats and one of
Fractions each, made on the first read of its kind with indices 0..15.  A
read past the end extends the table to twice its length, stopping before
the first index that fails (a float overflow, a lambda_n that is not
positive, the end of an explicit list, a float-only family read exactly),
and an index still past the end is computed alone, so it raises its own
error.  Values and errors do not depend on the order of the reads.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Iterator, Optional

from .errors import (CoefficientIndexError, CoefficientOverflow,
                     ExactModeUnavailable, NonPositiveLambda, TreeJacobiError)
from .exactnum import is_exact

_FIRST_BLOCK = 16  # the indices a table is made with


def _extend(values: list, pairs, exact: bool, count: int) -> list:
    """values, with the next `count` pairs of pairs(len(values), exact)
    appended up to the first that fails, each as a Fraction when exact and
    as its float quotient otherwise."""
    convert = Fraction if exact else operator.truediv
    try:
        made = pairs(len(values), exact)
        if type(made) is itertools.repeat:  # one value at every index
            values += [convert(*next(made))] * count
        else:
            values += itertools.starmap(convert, itertools.islice(made, count))
    except (TreeJacobiError, ArithmeticError, ValueError):  # the table ends before it
        pass
    return values


def _read(values: list, n: int, pairs, exact: bool, name: str):
    """Index n of a table, past its end or negative: a nonnegative n
    extends the table to twice its length, and an index still past the end
    is read alone, raising the error of index n if it has one."""
    if n >= 0:
        _extend(values, pairs, exact, len(values))
        if n < len(values):
            return values[n]
    num, den = next(pairs(n, exact))
    try:
        return Fraction(num, den) if exact else num / den
    except OverflowError as exc:
        raise CoefficientOverflow(f"{name}_{n} does not fit in a float") from exc


@dataclass(frozen=True)
class CoefficientSequence:
    """Off-diagonal lambda_n > 0 and diagonal beta_n, given by a closed-form
    family or an explicit list.

    Families:
      constant:   lambda_n = lam, beta_n = beta
      geometric:  lambda_n = base * ratio**n, beta_n = 0
      power:      lambda_n = base * (n + 1)**exponent, beta_n = 0
      paper:      lambda from a base family, beta_n = lambda_n + lambda_{n-1},
                  beta_0 = lambda_0
      explicit:   finite lists; access beyond the length raises
    """

    family: str
    params: tuple = ()
    base: Optional["CoefficientSequence"] = None
    lams: tuple = field(default=(), repr=False)
    betas: tuple = field(default=(), repr=False)

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(lam, beta=0) -> "CoefficientSequence":
        return CoefficientSequence("constant", (Fraction(lam), Fraction(beta)))

    @staticmethod
    def geometric(base, ratio) -> "CoefficientSequence":
        return CoefficientSequence("geometric", (Fraction(base), Fraction(ratio)))

    @staticmethod
    def power(base, exponent) -> "CoefficientSequence":
        if isinstance(exponent, int):
            return CoefficientSequence("power", (Fraction(base), exponent))
        if not math.isfinite(exponent):
            raise ValueError(f"power exponent must be finite, got {exponent}")
        return CoefficientSequence("power", (Fraction(base), float(exponent)))

    @staticmethod
    def paper_example(lam_family: Optional["CoefficientSequence"] = None) -> "CoefficientSequence":
        """beta_n = lambda_n + lambda_{n-1}, beta_0 = lambda_0; default lambda_n = 2**n."""
        if lam_family is None:
            lam_family = CoefficientSequence.geometric(1, 2)
        return CoefficientSequence("paper", base=lam_family)

    @staticmethod
    def explicit(lams, betas=None) -> "CoefficientSequence":
        lam_t = tuple(Fraction(v) for v in lams)
        beta_t = tuple(Fraction(v) for v in (betas if betas is not None else [0] * len(lam_t)))
        return CoefficientSequence("explicit", lams=lam_t, betas=beta_t)

    # -- each family's values from an index on ---------------------------

    def _lam_pairs(self, lo: int, exact: bool) -> Iterator[tuple]:
        """lambda_lo, lambda_{lo+1}, ... as integer pairs (num, den) with
        den > 0, not necessarily in lowest terms, or as (x, 1) for the
        float x of a non-integer power, which exact arithmetic refuses
        before any float is computed; the iterator raises at the first index
        whose lambda_n is not a positive value."""
        if lo < 0:
            raise IndexError("lambda index must be nonnegative")
        family = self.family
        if family == "constant":
            value = self.params[0]
            if value.numerator <= 0:
                raise _not_positive(lo, value)
            return itertools.repeat(value.as_integer_ratio())
        if family == "geometric":
            return _geometric_pairs(*self.params, lo)
        if family == "power":
            base, exponent = self.params
            if not isinstance(exponent, int):
                if exact:
                    raise ExactModeUnavailable(
                        "power family with non-integer exponent has no exact values")
                if base.numerator <= 0:
                    raise NonPositiveLambda(f"lambda_{lo} = {base} * {lo + 1}^{exponent} "
                                            "is not positive")
                return _power_floats(base, exponent, lo)
            if base.numerator <= 0:
                raise _not_positive(lo, base * Fraction(lo + 1) ** exponent)
            num, den = base.as_integer_ratio()
            if exponent >= 0:
                return ((num * m ** exponent, den) for m in itertools.count(lo + 1))
            return ((num, den * m ** -exponent) for m in itertools.count(lo + 1))
        if family == "paper":
            return self.base._lam_pairs(lo, exact)
        if family == "explicit":
            return _listed_pairs(self.lams, lo, "lambda")
        raise ValueError(f"unknown family {family!r}")

    def _beta_pairs(self, lo: int, exact: bool) -> Iterator[tuple]:
        """beta_lo, beta_{lo+1}, ... as pairs, like _lam_pairs."""
        if lo < 0:
            raise IndexError("beta index must be nonnegative")
        family = self.family
        if family == "constant":
            return itertools.repeat(self.params[1].as_integer_ratio())
        if family in ("geometric", "power"):
            return itertools.repeat((0, 1))
        if family == "paper":
            return _paper_betas(self.base, lo, exact)
        if family == "explicit":
            return _listed_pairs(self.betas, lo, "beta")
        raise ValueError(f"unknown family {family!r}")

    # -- tables: made on the first read, with indices below _FIRST_BLOCK ---

    @cached_property
    def _lam_fractions(self) -> list:
        return _extend([], self._lam_pairs, True, _FIRST_BLOCK)

    @cached_property
    def _beta_fractions(self) -> list:
        return _extend([], self._beta_pairs, True, _FIRST_BLOCK)

    @cached_property
    def _lam_floats(self) -> list:
        return _extend([], self._lam_pairs, False, _FIRST_BLOCK)

    @cached_property
    def _beta_floats(self) -> list:
        return _extend([], self._beta_pairs, False, _FIRST_BLOCK)

    # -- accessors: list indexes into the tables, extended by _read --------

    def lam_exact(self, n: int) -> Fraction:
        try:
            if n >= 0:
                return self._lam_fractions[n]
        except IndexError:
            pass
        return _read(self._lam_fractions, n, self._lam_pairs, True, "lambda")

    def beta_exact(self, n: int) -> Fraction:
        try:
            if n >= 0:
                return self._beta_fractions[n]
        except IndexError:
            pass
        return _read(self._beta_fractions, n, self._beta_pairs, True, "beta")

    def lam(self, n: int) -> float:
        """lambda_n as the correctly rounded quotient of its integer pair,
        the same float as float(lam_exact(n)); a non-integer power, and a
        paper family over one, use the float formula."""
        try:
            if n >= 0:
                return self._lam_floats[n]
        except IndexError:
            pass
        return _read(self._lam_floats, n, self._lam_pairs, False, "lambda")

    def beta(self, n: int) -> float:
        try:
            if n >= 0:
                return self._beta_floats[n]
        except IndexError:
            pass
        return _read(self._beta_floats, n, self._beta_pairs, False, "beta")

    def describe(self) -> str:
        if self.family == "constant":
            return f"constant(lam={self.params[0]}, beta={self.params[1]})"
        if self.family == "geometric":
            return f"geometric(base={self.params[0]}, ratio={self.params[1]})"
        if self.family == "power":
            return f"power(base={self.params[0]}, exponent={self.params[1]})"
        if self.family == "paper":
            return f"paper({self.base.describe()})"
        return f"explicit({len(self.lams)} terms)"


def _not_positive(n: int, value: Fraction) -> NonPositiveLambda:
    return NonPositiveLambda(f"lambda_{n} = {value} is not positive")


def _geometric_pairs(base: Fraction, ratio: Fraction, lo: int) -> Iterator[tuple]:
    """base * ratio**n from n = lo on, as running products of integers."""
    rn, rd = ratio.as_integer_ratio()
    num, den = base.numerator * rn ** lo, base.denominator * rd ** lo
    for n in itertools.count(lo):
        if num <= 0:
            raise _not_positive(n, Fraction(num, den))
        yield num, den
        num *= rn
        den *= rd


def _power_floats(base: Fraction, exponent: float, lo: int) -> Iterator[tuple]:
    """(base * (n + 1)**exponent, 1) in floats from n = lo on."""
    n = lo
    try:
        scale = float(base)
        for n in itertools.count(lo):
            yield scale * (n + 1) ** exponent, 1
    except OverflowError as exc:
        raise CoefficientOverflow(f"lambda_{n} does not fit in a float") from exc


def _listed_pairs(values: tuple, lo: int, name: str) -> Iterator[tuple]:
    """The pairs of an explicit list from index lo on, raising past its end
    and, for lambda, at a value that is not positive."""
    for n, value in enumerate(itertools.islice(values, lo, None), lo):
        pair = value.as_integer_ratio()
        if pair[0] <= 0 and name == "lambda":
            raise _not_positive(n, value)
        yield pair
    raise CoefficientIndexError(
        f"{name}_{max(lo, len(values))} requested but the explicit list has "
        f"{len(values)} entries (indices 0..{len(values) - 1})")


def _paper_betas(base: CoefficientSequence, lo: int, exact: bool) -> Iterator[tuple]:
    """beta_n = lambda_n + lambda_{n-1}, beta_0 = lambda_0, from n = lo on,
    summed as pairs from the lambda pairs of base; lambda_lo is made before
    lambda_{lo-1}, so an index fails as its lambda_n does, or else as its
    lambda_{n-1} does."""
    lams = base._lam_pairs(lo, exact)
    a, b = next(lams)
    c, e = next(base._lam_pairs(lo - 1, exact)) if lo else (0, 1)
    yield a * e + c * b, b * e
    for c, e in lams:
        yield a * e + c * b, b * e
        a, b = c, e


def _accessors(coeffs: CoefficientSequence, exact: bool):
    """The (lam, beta) accessors of one arithmetic: Fractions when exact,
    floats otherwise.  Callers choose once, when they build a table."""
    if exact:
        return coeffs.lam_exact, coeffs.beta_exact
    return coeffs.lam, coeffs.beta


ESA, NOT_ESA = "essentially_selfadjoint", "not_essentially_selfadjoint"


def _criterion(coeffs: CoefficientSequence, scale) -> Optional[tuple]:
    """(criterion, verdict, hypotheses) of the theorem that decides the
    matrix with off-diagonal scale * lambda_n from the family's exact
    parameters, or None.

    Multiplying the off-diagonal by a real nonzero scale changes neither
    boundedness, nor whether sum 1/lambda_n diverges, nor log-concavity, so
    the bounded, Carleman and Berezanskii criteria decide a `constant`,
    `geometric` or `power` family at every such scale and every z.  A
    `paper` family over one of them (beta_n = lambda_n + lambda_{n-1}) is
    decided at a real scale s by the sign of s**2 - 1, taken exactly
    (_side_of_one): at |s| = 1 by alternation, since p_n(0) = (-s)^n for
    every lambda is not l^2; else by the bounded or Carleman criterion of
    its base, or by Perron's theorem for a geometric base with ratio above
    1 (_perron).  The series decide `explicit`, a paper family over a power
    with exponent above 1 at |s| != 1 (its limit roots lie on the unit
    circle), a non-real scale, and a family whose lambda_n are not all
    positive and finite (the recurrence then reports the fault)."""
    side = _side_of_one(scale)
    paper = coeffs.family == "paper"
    lams = coeffs.base if paper else coeffs
    family = lams.family
    if side is None or family not in ("constant", "geometric", "power"):
        return None
    base, shape = lams.params
    if base <= 0 or (family == "geometric" and shape <= 0):
        return None
    law = {"constant": "", "geometric": f" * ({shape})^n", "power": f" * (n+1)^{shape}"}[family]
    beta = ("lambda_n + lambda_{n-1}, beta_0 = lambda_0" if paper
            else shape if family == "constant" else 0)
    hypotheses = f"lambda_n = {base}{law}, beta_n = {beta}"
    if paper and side == 0:
        return ("alternation", ESA,
                f"alternation: {hypotheses}, |s| = 1: p_n(0) = (-s)^n whatever lambda is, "
                "so p(0) is not l^2")
    if family == "power" and shape <= 1:
        return ("carleman", ESA, f"Carleman: {hypotheses}, sum 1/lambda_n diverges")
    if family == "constant" or shape <= 1:
        return ("bounded", ESA,
                f"bounded: {hypotheses}, both bounded, so the matrix is a bounded operator")
    if not paper:
        return ("berezanskii", NOT_ESA,
                f"Berezanskii: {hypotheses}, lambda_n log-concave "
                "(lambda_{n-1} lambda_{n+1} <= lambda_n^2), sum 1/lambda_n converges: "
                "nontrivial deficiency spaces")
    if family == "geometric":
        return _perron(hypotheses, shape, abs(complex(scale).real), side)
    return None


def _side_of_one(scale) -> Optional[int]:
    """The sign of scale**2 - 1 when scale is real, None otherwise, taken
    exactly: an ExactComplex (re + i*im)*sqrt(m) with im = 0 squares to
    re**2 * m (exact_sqrt(d) to d), and a rational or a float compares its
    size with 1 as its exact value."""
    if is_exact(scale):
        if scale.im:
            return None
        size = scale.re ** 2 * scale.m
    elif isinstance(scale, Rational):
        size = abs(scale)
    else:
        value = complex(scale)
        if value.imag:
            return None
        size = abs(value.real)
    return (size > 1) - (size < 1)


def _perron(hypotheses: str, r: Fraction, s: float, side: int) -> tuple:
    """The verdict for a paper family over a geometric base with ratio
    r > 1 at a real scale of size s, where side, the sign of s**2 - 1, is
    not 0.

    Dividing the recurrence by lambda_n, lambda_{n-1}/lambda_n -> 1/r and
    beta_n/lambda_n -> 1 + 1/r give the limit equation
    s x^2 + (1 + 1/r) x + s/r = 0, whose roots multiply to 1/r < 1.  By
    the Schur-Cohn-Jury test both lie inside the unit circle exactly when
    |s| > 1, and then every solution is l^2 (Perron): not ESA.  For |s| < 1
    the roots are real with one outside the circle, so a solution grows
    geometrically (Perron): ESA.  The root moduli in the hypotheses are
    floats; the verdict reads only side."""
    r_inv = float(1 / r)
    b = 1 + r_inv
    disc = b * b - 4 * s * s * r_inv
    if disc < 0:  # complex conjugate roots, each of modulus sqrt(1/r)
        big = small = math.sqrt(r_inv)
    else:
        big = (b + math.sqrt(disc)) / (2 * s)
        small = r_inv / big
    limits = (f"Perron: {hypotheses}; lambda_{{n-1}}/lambda_n -> 1/r and beta_n/lambda_n "
              f"-> 1 + 1/r for r = {r}, so the limit equation s x^2 + (1 + 1/r) x + s/r = 0 "
              f"has root moduli {big:.6g} and {small:.6g}")
    if side > 0:
        return ("perron", NOT_ESA,
                f"{limits}, both inside the unit circle as |s| > 1 (Schur-Cohn-Jury): "
                "every solution is l^2, nontrivial deficiency spaces")
    return ("perron", ESA,
            f"{limits}, one outside the unit circle as |s| < 1: a solution grows "
            "geometrically, so the deficiency spaces are trivial")


@dataclass(frozen=True)
class TreeConfig:
    """Branching degree of the homogeneous tree."""

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"branching degree must be at least 2, got {self.d}")
