"""Coefficient families: float accessors agree bit for bit with the exact
ones, and errors name the index that was requested."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treejacobi.coefficients import CoefficientSequence
from treejacobi.deficiency import classify
from treejacobi.errors import (CoefficientIndexError, CoefficientOverflow,
                               ExactModeUnavailable, NonPositiveLambda)

POSITIVE = st.fractions(min_value=Fraction(1, 1000), max_value=1000,
                        max_denominator=1000)
ANY = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)

CLOSED_FORMS = st.one_of(
    st.builds(CoefficientSequence.constant, POSITIVE, ANY),
    st.builds(CoefficientSequence.geometric, POSITIVE, POSITIVE),
    st.builds(CoefficientSequence.power, POSITIVE, st.integers(-3, 3)),
)
FAMILIES = st.one_of(
    CLOSED_FORMS,
    st.builds(CoefficientSequence.paper_example, CLOSED_FORMS),
    st.lists(st.tuples(POSITIVE, ANY), min_size=1, max_size=20).map(
        lambda pairs: CoefficientSequence.explicit(*zip(*pairs))),
)


def _float_or_overflow(fetch, n):
    try:
        return fetch(n)
    except OverflowError:
        return "overflow"


@given(FAMILIES, st.integers(0, 1200))
def test_float_accessors_are_correctly_rounded_exact_values(coeffs, n):
    if coeffs.family == "explicit":
        n %= len(coeffs.lams)
    lam = _float_or_overflow(coeffs.lam, n)
    beta = _float_or_overflow(coeffs.beta, n)
    assert lam == _float_or_overflow(lambda k: float(coeffs.lam_exact(k)), n)
    assert beta == _float_or_overflow(lambda k: float(coeffs.beta_exact(k)), n)


def test_first_index_past_the_float_range_overflows():
    paper = CoefficientSequence.paper_example()
    assert paper.lam(1023) == 2.0 ** 1023
    assert paper.beta(1023) == 1.5 * 2.0 ** 1023
    for fetch in (paper.lam, paper.beta):
        with pytest.raises(CoefficientOverflow, match="_1024 "):
            fetch(1024)
    assert paper.lam_exact(1024) == 2 ** 1024


@pytest.mark.parametrize("coeffs, n, error, text", [
    (CoefficientSequence.explicit([1, 0]), 1, NonPositiveLambda, "lambda_1 = 0 "),
    (CoefficientSequence.geometric(1, 0), 3, NonPositiveLambda, "lambda_3 = 0 "),
    (CoefficientSequence.power(-2, -2), 2, NonPositiveLambda, "lambda_2 = -2/9 "),
    (CoefficientSequence.explicit([1, 2]), 5, CoefficientIndexError, "lambda_5 "),
    (CoefficientSequence.paper_example(CoefficientSequence.explicit([1, 2])), 7,
     CoefficientIndexError, "lambda_7 "),
])
def test_lambda_errors_name_the_index(coeffs, n, error, text):
    for fetch in (coeffs.lam, coeffs.lam_exact):
        with pytest.raises(error, match=text):
            fetch(n)


def test_beta_errors_name_the_index():
    coeffs = CoefficientSequence.explicit([1, 2, 3], [0, 1])
    for fetch in (coeffs.beta, coeffs.beta_exact):
        with pytest.raises(CoefficientIndexError, match="beta_2 "):
            fetch(2)


@pytest.mark.parametrize("exponent", [float("inf"), float("-inf"), float("nan")])
def test_power_rejects_a_non_finite_exponent(exponent):
    with pytest.raises(ValueError, match="finite"):
        CoefficientSequence.power(1, exponent)


def test_non_integer_power_sign_comes_from_the_base():
    # lambda_1 = 2**-2000.5 is positive, though it rounds to 0.0
    assert CoefficientSequence.power(1, -2000.5).lam(1) == 0.0
    with pytest.raises(NonPositiveLambda, match="lambda_1 "):
        CoefficientSequence.power(-1, -2000.5).lam(1)


def test_paper_over_a_non_integer_power_has_float_values():
    base = CoefficientSequence.power(1, 0.5)
    coeffs = CoefficientSequence.paper_example(base)
    assert [coeffs.lam(n) for n in range(6)] == [base.lam(n) for n in range(6)]
    assert coeffs.beta(0) == coeffs.lam(0)
    for n in range(1, 6):
        assert coeffs.beta(n) == coeffs.lam(n) + coeffs.lam(n - 1)
    for fetch in (coeffs.lam_exact, coeffs.beta_exact):
        with pytest.raises(ExactModeUnavailable):
            fetch(3)
    assert classify(coeffs, 2).verdict in (
        "essentially_selfadjoint", "not_essentially_selfadjoint", "inconclusive")
