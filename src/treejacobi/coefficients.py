"""Coefficient sequences (lambda_n, beta_n) defining a Jacobi operator."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import (CoefficientIndexError, CoefficientOverflow,
                     ExactModeUnavailable, NonPositiveLambda)


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

    # -- family dispatch ----------------------------------------------

    def _lam_ratio(self, n: int) -> tuple:
        """lambda_n as an integer pair (num, den) with den > 0, not
        necessarily in lowest terms."""
        if n < 0:
            raise IndexError("lambda index must be nonnegative")
        if self.family == "constant":
            value = self.params[0]
            num, den = value.numerator, value.denominator
        elif self.family == "geometric":
            base, ratio = self.params
            num = base.numerator * ratio.numerator ** n
            den = base.denominator * ratio.denominator ** n
        elif self.family == "power":
            base, exponent = self.params
            if not isinstance(exponent, int):
                raise ExactModeUnavailable(
                    "power family with non-integer exponent has no exact values")
            num, den = base.numerator, base.denominator
            if exponent >= 0:
                num *= (n + 1) ** exponent
            else:
                den *= (n + 1) ** -exponent
        elif self.family == "paper":
            num, den = self.base._lam_ratio(n)
        elif self.family == "explicit":
            if n >= len(self.lams):
                raise CoefficientIndexError(
                    f"lambda_{n} requested but the explicit list has "
                    f"{len(self.lams)} entries (indices 0..{len(self.lams) - 1})")
            value = self.lams[n]
            num, den = value.numerator, value.denominator
        else:
            raise ValueError(f"unknown family {self.family!r}")
        if num <= 0:
            raise NonPositiveLambda(f"lambda_{n} = {Fraction(num, den)} is not positive")
        return num, den

    def _beta_ratio(self, n: int) -> tuple:
        """beta_n as an integer pair (num, den) with den > 0."""
        if n < 0:
            raise IndexError("beta index must be nonnegative")
        if self.family == "constant":
            value = self.params[1]
        elif self.family in ("geometric", "power"):
            return 0, 1
        elif self.family == "paper":
            if n == 0:
                return self._lam_ratio(0)
            a, b = self._lam_ratio(n)
            c, e = self._lam_ratio(n - 1)
            return a * e + c * b, b * e
        elif self.family == "explicit":
            if n >= len(self.betas):
                raise CoefficientIndexError(
                    f"beta_{n} requested but the explicit list has "
                    f"{len(self.betas)} entries (indices 0..{len(self.betas) - 1})")
            value = self.betas[n]
        else:
            raise ValueError(f"unknown family {self.family!r}")
        return value.numerator, value.denominator

    # -- accessors ------------------------------------------------------

    def lam_exact(self, n: int) -> Fraction:
        return Fraction(*self._lam_ratio(n))

    def beta_exact(self, n: int) -> Fraction:
        return Fraction(*self._beta_ratio(n))

    def lam(self, n: int) -> float:
        """lambda_n as the correctly rounded quotient of its integer pair,
        the same float as float(lam_exact(n)); a non-integer power, and a
        paper family over one, use the float formula."""
        try:
            if self.family == "power" and not isinstance(self.params[1], int):
                base, exponent = self.params
                if base <= 0:
                    raise NonPositiveLambda(f"lambda_{n} = {base} * {n + 1}^{exponent} "
                                            "is not positive")
                return float(base) * (n + 1) ** exponent
            num, den = self._lam_ratio(n)
            return num / den
        except ExactModeUnavailable:  # a paper family over a non-integer power
            return self.base.lam(n)
        except OverflowError as exc:
            raise CoefficientOverflow(f"lambda_{n} does not fit in a float") from exc

    def beta(self, n: int) -> float:
        try:
            num, den = self._beta_ratio(n)
        except ExactModeUnavailable:  # a paper family over a non-integer power
            return self.lam(n) + self.lam(n - 1) if n else self.lam(0)
        try:
            return num / den
        except OverflowError as exc:
            raise CoefficientOverflow(f"beta_{n} does not fit in a float") from exc

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


def _accessors(coeffs: CoefficientSequence, exact: bool):
    """The (lam, beta) accessors of one arithmetic: Fractions when exact,
    floats otherwise.  Callers choose once, when they build a table."""
    if exact:
        return coeffs.lam_exact, coeffs.beta_exact
    return coeffs.lam, coeffs.beta


@dataclass(frozen=True)
class TreeConfig:
    """Branching degree of the homogeneous tree."""

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"branching degree must be at least 2, got {self.d}")
