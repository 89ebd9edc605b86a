"""Coefficient families: float accessors agree bit for bit with the exact
ones, and errors name the index that was requested."""
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treejacobi.coefficients import CoefficientSequence, _criterion, _side_of_one
from treejacobi.deficiency import classify
from treejacobi.errors import (CoefficientIndexError, CoefficientOverflow,
                               ExactModeUnavailable, NonPositiveLambda)
from treejacobi.exactnum import exact_complex

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
    # a non-integer power overflows in its float formula
    power = CoefficientSequence.power(1, 1023.5)
    assert power.lam(1) == 2.0 ** 1023.5
    with pytest.raises(CoefficientOverflow, match="lambda_2 "):
        power.lam(2)


@pytest.mark.parametrize("coeffs, n, error, text", [
    (CoefficientSequence.explicit([1, 0]), 1, NonPositiveLambda, "lambda_1 = 0 "),
    (CoefficientSequence.geometric(1, 0), 3, NonPositiveLambda, "lambda_3 = 0 "),
    (CoefficientSequence.power(-2, -2), 2, NonPositiveLambda, "lambda_2 = -2/9 "),
    (CoefficientSequence.explicit([1, 2]), 5, CoefficientIndexError, "lambda_5 "),
    (CoefficientSequence.paper_example(CoefficientSequence.explicit([1, 2])), 7,
     CoefficientIndexError, "lambda_7 "),
    (CoefficientSequence("bogus"), 0, ValueError, "unknown family 'bogus'"),
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
    coeffs = CoefficientSequence("bogus")
    for fetch in (coeffs.beta, coeffs.beta_exact):
        with pytest.raises(ValueError, match="unknown family 'bogus'"):
            fetch(0)


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
    # refused in every read order: after float reads, as the first read of
    # a fresh sequence, and before a float lambda_0 would overflow
    for fetch, n in ((coeffs.lam_exact, 3), (coeffs.beta_exact, 3),
                     (CoefficientSequence.power(1, 1 / 2).lam_exact, 50),
                     (CoefficientSequence.paper_example(base).beta_exact, 3),
                     (CoefficientSequence.power(10 ** 400, 0.5).lam_exact, 0)):
        with pytest.raises(ExactModeUnavailable, match="has no exact values"):
            fetch(n)
    assert classify(coeffs, 2).verdict in (
        "essentially_selfadjoint", "not_essentially_selfadjoint", "inconclusive")


# -- tables ------------------------------------------------------------------

TABLED = st.one_of(
    FAMILIES,
    st.builds(CoefficientSequence.power, POSITIVE, st.floats(-3, 3)),
    st.builds(CoefficientSequence.paper_example,
              st.builds(CoefficientSequence.power, POSITIVE, st.floats(-3, 3))),
    st.builds(CoefficientSequence.geometric, POSITIVE, st.fractions(-2, 2, max_denominator=4)),
    st.lists(st.tuples(ANY, ANY), min_size=1, max_size=20).map(
        lambda pairs: CoefficientSequence.explicit(*zip(*pairs))),
)


def _read_or_error(fetch, n):
    try:
        return fetch(n)
    except Exception as exc:  # the error is the value read
        return type(exc), str(exc)


@settings(max_examples=300)
@given(TABLED, st.lists(st.tuples(st.sampled_from(["lam", "beta", "lam_exact", "beta_exact"]),
                                  st.one_of(st.integers(0, 40), st.integers(0, 150))),
                        min_size=1, max_size=30))
def test_table_reads_equal_one_index_reads(coeffs, reads):
    # any read order on one instance, in both arithmetics, gives what one
    # read on a fresh instance does
    for name, n in reads:
        fresh = dataclasses.replace(coeffs)
        assert (_read_or_error(getattr(coeffs, name), n)
                == _read_or_error(getattr(fresh, name), n))


def _in_both_orders(make, reads):
    """The outcome of each (accessor, index) read, reading forwards on one
    instance and backwards on another; both must agree."""
    first, second = make(), make()
    forwards = [_read_or_error(getattr(first, name), n) for name, n in reads]
    backwards = [_read_or_error(getattr(second, name), n) for name, n in reversed(reads)]
    assert forwards == backwards[::-1]
    return forwards


def test_paper_tables_end_at_the_float_range_in_both_orders():
    got = _in_both_orders(CoefficientSequence.paper_example,
                          [("lam", 1023), ("lam", 1024), ("beta", 1023), ("beta", 1024)])
    assert got == [2.0 ** 1023, (CoefficientOverflow, "lambda_1024 does not fit in a float"),
                   1.5 * 2.0 ** 1023, (CoefficientOverflow, "beta_1024 does not fit in a float")]


def test_zero_ratio_fails_from_index_one_in_both_orders():
    got = _in_both_orders(lambda: CoefficientSequence.geometric(1, 0),
                          [("lam", 0), ("lam", 1), ("lam", 3), ("beta", 3)])
    assert got == [1.0, (NonPositiveLambda, "lambda_1 = 0 is not positive"),
                   (NonPositiveLambda, "lambda_3 = 0 is not positive"), 0.0]


def test_paper_beta_fails_as_its_own_lambda_does_first():
    got = _in_both_orders(
        lambda: CoefficientSequence.paper_example(CoefficientSequence.geometric(1, 0)),
        [("beta", 0), ("beta", 1), ("beta", 2), ("lam", 2)])
    assert got == [1.0, (NonPositiveLambda, "lambda_1 = 0 is not positive"),
                   (NonPositiveLambda, "lambda_2 = 0 is not positive"),
                   (NonPositiveLambda, "lambda_2 = 0 is not positive")]


def test_a_zero_entry_fails_only_its_own_index():
    got = _in_both_orders(lambda: CoefficientSequence.explicit([1, 0, 2], [5, 6, 7]),
                          [("lam", 0), ("lam", 1), ("lam", 2), ("beta", 2)])
    assert got == [1.0, (NonPositiveLambda, "lambda_1 = 0 is not positive"), 2.0, 7.0]
    paper = CoefficientSequence.paper_example(CoefficientSequence.explicit([1, 0, 3]))
    assert [_read_or_error(paper.beta, n) for n in range(4)] == [
        1.0, (NonPositiveLambda, "lambda_1 = 0 is not positive"),
        (NonPositiveLambda, "lambda_1 = 0 is not positive"),
        (CoefficientIndexError, "lambda_3 requested but the explicit list has 3 entries "
                                "(indices 0..2)")]


def test_reads_past_an_explicit_list_name_their_index():
    got = _in_both_orders(lambda: CoefficientSequence.explicit([1, 2], [3, 4]),
                          [("lam", 1), ("lam", 2), ("lam", 40), ("beta", 0), ("beta", 2)])
    assert got == [2.0, (CoefficientIndexError, "lambda_2 requested but the explicit list "
                                                "has 2 entries (indices 0..1)"),
                   (CoefficientIndexError, "lambda_40 requested but the explicit list "
                                           "has 2 entries (indices 0..1)"),
                   3.0, (CoefficientIndexError, "beta_2 requested but the explicit list "
                                                "has 2 entries (indices 0..1)")]


@pytest.mark.parametrize("coeffs", [
    CoefficientSequence.geometric(1, 2), CoefficientSequence.power(1, 0.5),
    CoefficientSequence.paper_example(CoefficientSequence.power(1, 0.5)),
    CoefficientSequence.explicit([1, 2]),
])
def test_negative_indices_are_refused(coeffs):
    # even with a table, whose list would read index -1 from its end
    coeffs.lam(1), coeffs.beta(1)
    for fetch, text in ((coeffs.lam, "lambda"), (coeffs.beta, "beta")):
        with pytest.raises(IndexError, match=f"{text} index must be nonnegative"):
            fetch(-1)


def test_a_table_is_made_on_the_first_float_read_and_doubles():
    coeffs = CoefficientSequence.geometric(1, 3)
    assert "_lam_floats" not in vars(coeffs) and "_beta_floats" not in vars(coeffs)
    assert coeffs.lam_exact(4) == 81 and "_lam_floats" not in vars(coeffs)
    assert coeffs.lam(3) == 27.0
    table = vars(coeffs)["_lam_floats"]
    assert table[:4] == [1.0, 3.0, 9.0, 27.0] and len(table) == 16
    assert "_beta_floats" not in vars(coeffs)
    assert coeffs.lam(16) == float(3 ** 16) and len(table) == 32
    assert coeffs.lam(100) == float(3 ** 100) and len(table) == 64  # read alone
    assert table == [float(3 ** n) for n in range(64)]
    assert coeffs == CoefficientSequence.geometric(1, 3)
    assert hash(coeffs) == hash(CoefficientSequence.geometric(1, 3))
    one_value = CoefficientSequence.constant(2, -1)
    assert one_value.beta(20) == -1.0 and vars(one_value)["_beta_floats"] == [-1.0] * 32


@pytest.mark.parametrize("coeffs", [CoefficientSequence.geometric(1, 2),
                                    CoefficientSequence.power(1, 1),
                                    CoefficientSequence.constant(1, 3)])
def test_a_criterion_verdict_reads_no_coefficient(coeffs):
    assert classify(coeffs, 2).criterion is not None
    tables = {"_lam_floats", "_beta_floats", "_lam_fractions", "_beta_fractions"}
    assert not tables & set(vars(coeffs))


@pytest.mark.parametrize("coeffs, text", [
    (CoefficientSequence.constant(1), "constant(lam=1, beta=0)"),
    (CoefficientSequence.constant(Fraction(3, 2), Fraction(-1, 2)), "constant(lam=3/2, beta=-1/2)"),
    (CoefficientSequence.geometric(1, Fraction(3, 2)), "geometric(base=1, ratio=3/2)"),
    (CoefficientSequence.power(Fraction(1, 3), 2), "power(base=1/3, exponent=2)"),
    (CoefficientSequence.power(1, 0.5), "power(base=1, exponent=0.5)"),
    (CoefficientSequence.paper_example(), "paper(geometric(base=1, ratio=2))"),
    (CoefficientSequence.explicit([1, 2, 3]), "explicit(3 terms)"),
])
def test_describe_names_the_family_and_its_parameters(coeffs, text):
    assert coeffs.describe() == text


@pytest.mark.parametrize("coeffs", [
    CoefficientSequence.constant(-1), CoefficientSequence.geometric(0, 2),
    CoefficientSequence.geometric(1, -2), CoefficientSequence.geometric(1, 0),
    CoefficientSequence.power(-1, 2), CoefficientSequence.paper_example(
        CoefficientSequence.geometric(-1, 2)),
])
def test_no_criterion_for_a_non_positive_base_or_ratio(coeffs):
    # no theorem applies; the recurrence reports the fault
    assert _criterion(coeffs, 2 ** 0.5) is None
    with pytest.raises(NonPositiveLambda):
        classify(coeffs, 2)


@pytest.mark.parametrize("scale", [1j, 1 + 1j, exact_complex(1, 1), exact_complex(0, 1)])
def test_a_non_real_scale_has_no_side_of_one_and_no_criterion(scale):
    assert _side_of_one(scale) is None
    assert _criterion(CoefficientSequence.paper_example(), scale) is None
    assert _criterion(CoefficientSequence.constant(1), scale) is None
