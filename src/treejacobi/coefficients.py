"""Coefficient sequences (lambda_n, beta_n) defining a Jacobi operator."""
from __future__ import annotations

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

    # -- exact accessors ----------------------------------------------

    def lam_exact(self, n: int) -> Fraction:
        if n < 0:
            raise IndexError("lambda index must be nonnegative")
        if self.family == "constant":
            value = self.params[0]
        elif self.family == "geometric":
            base, ratio = self.params
            value = base * ratio ** n
        elif self.family == "power":
            base, exponent = self.params
            if not isinstance(exponent, int):
                raise ExactModeUnavailable(
                    "power family with non-integer exponent has no exact values")
            value = base * Fraction(n + 1) ** exponent
        elif self.family == "paper":
            value = self.base.lam_exact(n)
        elif self.family == "explicit":
            if n >= len(self.lams):
                raise CoefficientIndexError(
                    f"lambda_{n} requested but the explicit list has "
                    f"{len(self.lams)} entries (indices 0..{len(self.lams) - 1})")
            value = self.lams[n]
        else:
            raise ValueError(f"unknown family {self.family!r}")
        if value <= 0:
            raise NonPositiveLambda(f"lambda_{n} = {value} is not positive")
        return value

    def beta_exact(self, n: int) -> Fraction:
        if n < 0:
            raise IndexError("beta index must be nonnegative")
        if self.family == "constant":
            return self.params[1]
        if self.family in ("geometric", "power"):
            return Fraction(0)
        if self.family == "paper":
            if n == 0:
                return self.lam_exact(0)
            return self.lam_exact(n) + self.lam_exact(n - 1)
        if self.family == "explicit":
            if n >= len(self.betas):
                raise CoefficientIndexError(
                    f"beta_{n} requested but the explicit list has "
                    f"{len(self.betas)} entries (indices 0..{len(self.betas) - 1})")
            return self.betas[n]
        raise ValueError(f"unknown family {self.family!r}")

    # -- float accessors ----------------------------------------------

    def lam(self, n: int) -> float:
        try:
            if self.family == "power" and not isinstance(self.params[1], int):
                base, exponent = self.params
                value = float(base) * (n + 1) ** exponent
                if value <= 0:
                    raise NonPositiveLambda(f"lambda_{n} = {value} is not positive")
                return value
            return float(self.lam_exact(n))
        except OverflowError as exc:
            raise CoefficientOverflow(f"lambda_{n} does not fit in a float") from exc

    def beta(self, n: int) -> float:
        if self.family == "power" and not isinstance(self.params[1], int):
            return 0.0
        try:
            return float(self.beta_exact(n))
        except OverflowError as exc:
            raise CoefficientOverflow(f"beta_{n} does not fit in a float") from exc

    @property
    def supports_exact(self) -> bool:
        if self.family == "power":
            return isinstance(self.params[1], int)
        if self.family == "paper":
            return self.base.supports_exact
        return True

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
