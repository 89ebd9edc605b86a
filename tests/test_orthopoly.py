"""Recurrence values, Wronskian identity, roots, series engine, norms."""
import cmath
import copy
import io
import itertools
import math
import operator
import warnings
from collections import Counter, deque
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from treejacobi import orthopoly
from treejacobi.coefficients import CoefficientSequence
from treejacobi.errors import (CoefficientIndexError, CoefficientOverflow, DivergedSeries,
                               InconclusiveSeries, NonPositiveLambda, RealSpectralParameter,
                               RecurrenceOverflow)
from treejacobi.exactnum import (ExactComplex, abs2, as_complex, exact_complex, exact_sqrt,
                                 half_power, is_exact)
from treejacobi.orthopoly import (CONVERGENCE_WINDOW, RATIO_CEILING, SERIES_N_MAX, SERIES_TOL,
                                  DeficiencyContext, PolyCache, SeriesResult, _IntegerRecurrence,
                                  alpha_series, alpha_sq_partial, alpha_sq_terms,
                                  check_series_limits, compute_polys, poly_pairs, poly_roots,
                                  sum_series, wronskian_residual, wronskian_scale)

PAPER = CoefficientSequence.paper_example()
CONSTANT = CoefficientSequence.constant(1)
GEOMETRIC = CoefficientSequence.geometric(1, Fraction(3, 2))
POWER = CoefficientSequence.power(1, 1)
FAMILIES = [PAPER, CONSTANT, GEOMETRIC, POWER]


def test_initial_data():
    for coeffs in FAMILIES:
        t = compute_polys(coeffs, 1.0, 0.5 + 0.5j, 3)
        assert t.p[0] == 1
        assert t.q[0] == 0
        assert abs(t.q[1] - 1 / coeffs.lam(0)) < 1e-15
        assert abs(t.p[1] - (t.z - coeffs.beta(0)) / coeffs.lam(0)) < 1e-15
        # the public generator reads the same table
        assert (list(itertools.islice(poly_pairs(coeffs, 1.0, 0.5 + 0.5j), 4))
                == [(n, t.p[n], t.q[n], None) for n in range(4)])


def test_paper_alternation_exact():
    t = compute_polys(PAPER, exact_complex(1), exact_complex(0), 200)
    for n in range(201):
        assert t.p[n] == exact_complex((-1) ** n)


def test_free_recurrence_pattern():
    # lam = 1, beta = 0, scale 1, z = 0: p cycles 1, 0, -1, 0
    t = compute_polys(CONSTANT, 1.0, 0j, 8)
    expected = [1, 0, -1, 0, 1, 0, -1, 0, 1]
    for n, e in enumerate(expected):
        assert abs(t.p[n] - e) < 1e-15


def test_wronskian_exact_zero():
    for coeffs in FAMILIES:
        for z in (exact_complex(0), exact_complex(0, 1), exact_complex(1, 1)):
            t = compute_polys(coeffs, exact_sqrt(2), z, 60)
            assert all(r == 0 for r in wronskian_residual(t))


def test_wronskian_float_relative():
    for coeffs in FAMILIES:
        for z in (0j, 1j, 1 + 1j):
            t = compute_polys(coeffs, math.sqrt(2), z, 100)
            res = wronskian_residual(t)
            scales = wronskian_scale(t)
            assert max(r / s for r, s in zip(res, scales)) <= 1e-9


def test_single_step_wronskian():
    t = compute_polys(CONSTANT, 1.0, 2j, 1)
    assert wronskian_residual(t) == [0.0]


def test_explicit_list_overrun():
    coeffs = CoefficientSequence.explicit([1, 2], [0, 0])
    with pytest.raises(CoefficientIndexError) as exc:
        compute_polys(coeffs, 1.0, 0j, 5)
    assert "2" in str(exc.value)


def test_nonpositive_lambda_rejected():
    coeffs = CoefficientSequence.explicit([1, 0], [0, 0])
    with pytest.raises(NonPositiveLambda):
        compute_polys(coeffs, 1.0, 0j, 3)


def test_overflow_raises():
    fast = CoefficientSequence.geometric(1, Fraction(1, 4))
    with pytest.raises(RecurrenceOverflow):
        compute_polys(fast, 1.0, 1j, 3000)


def test_csv_export():
    t = compute_polys(CONSTANT, 1.0, 1j, 2)
    buf = io.StringIO()
    t.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,Re p,Im p,Re q,Im q"
    assert len(lines) == 4
    assert lines[1].startswith("0,1.0,0.0,0.0,0.0")


# -- roots ------------------------------------------------------------------

def test_single_root_is_first_diagonal():
    roots = poly_roots(PAPER, math.sqrt(2), 1)
    assert abs(roots[0] - PAPER.beta(0)) < 1e-12


def test_roots_are_zeros_and_increasing():
    for coeffs in FAMILIES:
        roots = poly_roots(coeffs, math.sqrt(2), 5)
        assert all(a < b for a, b in zip(roots, roots[1:]))
        t = compute_polys(coeffs, math.sqrt(2), 0j, 6)
        # evaluate p_5 at each root by a fresh recurrence run
        for r in roots:
            tr = compute_polys(coeffs, math.sqrt(2), complex(r), 5)
            scale = max(abs(v) for v in tr.p)
            assert abs(tr.p[5]) <= 1e-8 * scale


def test_roots_interlace():
    for coeffs in FAMILIES:
        r5 = poly_roots(coeffs, math.sqrt(2), 5)
        r6 = poly_roots(coeffs, math.sqrt(2), 6)
        for j in range(5):
            assert r6[j] < r5[j] < r6[j + 1]


def test_paper_family_frozen_roots():
    # reference values from the dense tridiagonal eigensolve
    roots = poly_roots(PAPER, math.sqrt(2), 5)
    frozen = [-0.9106342932804724, 0.8719847455074762, 4.067576672426975,
              10.810082426975784, 31.160990448370235]
    assert max(abs(a - b) for a, b in zip(roots, frozen)) < 1e-9


def test_constant_family_symmetric_roots():
    roots = poly_roots(CONSTANT, 1.0, 3)
    assert abs(roots[1]) < 1e-12
    assert abs(roots[0] + roots[2]) < 1e-12


def _monic_value(coeffs, d, n, t):
    """Exact P_n(t) from P_{k+1} = (t - beta_k) P_k - d lam_{k-1}^2 P_{k-1}."""
    t = Fraction(t)
    p_prev, p_cur = Fraction(0), Fraction(1)
    for k in range(n):
        b = d * coeffs.lam_exact(k - 1) ** 2 if k > 0 else 0
        p_prev, p_cur = p_cur, (t - coeffs.beta_exact(k)) * p_cur - b * p_prev
    return p_cur


@pytest.mark.parametrize("spec, d, n", [
    (CoefficientSequence.constant(Fraction(7, 4), Fraction(1, 2)), 3, 18),
    (CoefficientSequence.constant(1, 1), 3, 26),
    (CoefficientSequence.constant(Fraction(3, 2), Fraction(-1, 4)), 3, 32),
    (PAPER, 2, 60),
], ids=["constant:7/4:1/2", "constant:1:1", "constant:3/2:-1/4", "paper"])
def test_roots_have_small_relative_error(spec, d, n):
    # every root r is bracketed by r * (1 -+ 1e-13): p_n changes sign there
    roots = poly_roots(spec, math.sqrt(d), n)
    assert len(roots) == n
    for r in roots:
        lo = _monic_value(spec, d, n, r * (1 - 1e-13))
        hi = _monic_value(spec, d, n, r * (1 + 1e-13))
        assert lo * hi <= 0, f"root {r!r} of p_{n} is not bracketed"


def test_zero_root_is_tiny():
    for n in (9, 19):
        assert abs(poly_roots(CONSTANT, math.sqrt(3), n)[n // 2]) < 1e-20


def test_roots_emit_no_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        poly_roots(PAPER, math.sqrt(2), 60)


# -- series engine ----------------------------------------------------------

def test_sum_series_geometric_converges():
    res = sum_series((0.5 ** n for n in range(10_000)))
    assert res.status == "converged"
    total = res.partial_sum + res.tail_estimate
    assert abs(total - 2.0) < 1e-9
    assert res.ratio == pytest.approx(0.5, rel=1e-6)


def test_sum_series_constant_diverges():
    # the series diverges, but no finite run of terms shows it
    res = sum_series((1.0 for _ in range(10_000)))
    assert res.status == "inconclusive"
    assert (res.terms_used, res.note) == (10_000, "no verdict after 10000 terms")


def test_sum_series_partial_sum_blowup():
    # doubling terms reach inf at the 1025th: past the float range, no verdict
    res = sum_series(itertools.accumulate(itertools.repeat(2.0, 10_000), operator.mul,
                                          initial=1.0))
    assert res.status == "inconclusive"
    assert (res.terms_used, res.note) == (1024, "term overflowed the float range")


def test_sum_series_oscillating_decay_still_converges():
    # decaying terms with frequent near-zero minima: the block sums still
    # shrink geometrically, whatever single terms do
    terms = [abs(math.cos(n * 0.7)) * 0.9 ** n for n in range(10_000)]
    res = sum_series(iter(terms))
    assert res.status == "converged"


def test_sum_series_period_two_decay_converges():
    # terms alternating between two decay phases: single-step ratios swing
    # between 15 and 0.006, while every block of 8 terms shrinks by 0.3**8
    res = sum_series((0.3 ** n * (50 if n % 2 else 1) for n in range(10_000)),
                     n_max=200)
    assert res.status == "converged"
    assert res.ratio == pytest.approx(0.3, rel=1e-9)
    exact_total = (1 + 50 * 0.3) / (1 - 0.3 ** 2)
    assert res.partial_sum + res.tail_estimate == pytest.approx(exact_total, rel=1e-12)


def test_sum_series_inconclusive():
    res = sum_series((1.0 / (n + 1) ** 2 for n in range(50)), n_max=50)
    assert res.status == "inconclusive"


def test_sum_series_overflowing_term():
    res = sum_series(iter([1.0, float("inf")]))
    assert (res.status, res.partial_sum, res.terms_used) == ("inconclusive", 1.0, 1)
    assert res.note == "term overflowed the float range"


def _overflowing_after(n: int, pulls: list):
    """Terms 1.0 counted in pulls, raising RecurrenceOverflow on pull n + 1."""
    for _ in range(n):
        pulls.append(1)
        yield 1.0
    pulls.append(1)
    raise RecurrenceOverflow("recurrence value left the float range")


def test_sum_series_reads_no_term_past_n_max():
    # an overflow one term past n_max is never reached
    pulls = []
    res = sum_series(_overflowing_after(3, pulls), n_max=3)
    assert len(pulls) == 3
    assert (res.status, res.partial_sum, res.terms_used) == ("inconclusive", 3.0, 3)


def test_sum_series_reads_a_recurrence_overflow_as_inconclusive():
    pulls = []
    res = sum_series(_overflowing_after(3, pulls), n_max=4)
    assert len(pulls) == 4
    assert (res.status, res.partial_sum, res.terms_used) == ("inconclusive", 3.0, 3)
    assert res.note == "recurrence overflow: terms left the float range"


def _reference_sum_series(terms, n_max=SERIES_N_MAX):
    """The block-ratio loop without sum_series' screen on the oldest term of
    the newer block: the property below holds sum_series to it, field for
    field."""
    check_series_limits(n_max)
    tol = SERIES_TOL
    s = 0.0
    recent: deque = deque(maxlen=2 * CONVERGENCE_WINDOW)
    count = 0
    try:
        for t in itertools.islice(terms, n_max):
            if not math.isfinite(t):
                return SeriesResult("inconclusive", s, count,
                                    note="term overflowed the float range")
            s += t
            count += 1
            recent.append(t)

            if t < tol * s and count >= 2 * CONVERGENCE_WINDOW:
                last = list(reversed(recent))
                newer = sum(last[:CONVERGENCE_WINDOW])
                older = sum(last[CONVERGENCE_WINDOW:])
                if all(v < tol * s for v in last[:CONVERGENCE_WINDOW]) and (
                        newer < RATIO_CEILING ** CONVERGENCE_WINDOW * older
                        or newer == older == 0):
                    big_r = newer / older if older > 0 else 0.0
                    tail_est = newer * big_r / (1.0 - big_r)
                    return SeriesResult("converged", s, count, tail_est,
                                        big_r ** (1.0 / CONVERGENCE_WINDOW))
    except RecurrenceOverflow:
        return SeriesResult("inconclusive", s, count,
                            note="recurrence overflow: terms left the float range")
    return SeriesResult("inconclusive", s, count,
                        note=f"no verdict after {count} terms")


_LENGTHS = st.integers(0, 2000)
_SCALES = st.floats(1e-3, 1e3)
# geometric ratios a hair inside and outside the ceiling, and anywhere
_RATIOS = st.one_of(
    st.sampled_from([1 - 1e-9, 1 + 1e-9, 1 - 1e-4, 1 + 1e-4]).map(lambda f: RATIO_CEILING * f),
    st.floats(0.05, 1.05))
_SERIES_TERMS = st.one_of(
    st.builds(lambda a, r, n: [a * r ** k for k in range(n)], _SCALES, _RATIOS, _LENGTHS),
    # period-2 phases
    st.builds(lambda a, c, r, n: [a * r ** k * (c if k % 2 else 1) for k in range(n)],
              _SCALES, _SCALES, _RATIOS, _LENGTHS),
    # a periodic multiplier: spikes inside a block, zeros between decaying terms
    st.builds(lambda m, r, n: [r ** k * m[k % len(m)] for k in range(n)],
              st.lists(st.one_of(st.sampled_from([0.0, 1.0, 1e3]), st.floats(0, 10)),
                       min_size=1, max_size=12), _RATIOS, _LENGTHS),
    # power-law decay
    st.builds(lambda a, p, n: [a * (k + 1) ** -p for k in range(n)],
              _SCALES, st.floats(0.5, 8), _LENGTHS),
    # runs of one value each, exact zeros among them
    st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0, 100)), st.integers(1, 40)),
             max_size=30).map(lambda runs: [v for v, n in runs for _ in range(n)]))


def _ending(values: list, end):
    """values, then an infinite term, a RecurrenceOverflow or nothing."""
    yield from values
    if end == "inf":
        yield math.inf
    elif end == "overflow":
        raise RecurrenceOverflow("recurrence value left the float range")


@settings(max_examples=400, deadline=None)
@given(values=_SERIES_TERMS, end=st.sampled_from([None, "inf", "overflow"]),
       n_max=st.one_of(st.integers(1, 2 * CONVERGENCE_WINDOW), st.integers(1, 2500)))
def test_sum_series_matches_the_unscreened_block_test(values, end, n_max):
    result = sum_series(_ending(values, end), n_max)
    event(result.status)
    assert result == _reference_sum_series(_ending(values, end), n_max)


def test_poly_cache_keeps_its_first_error():
    # lambda_1024 = 2**1024 of the paper family does not fit in a float
    cache = PolyCache(PAPER, math.sqrt(2), 1j)
    with pytest.raises(OverflowError) as first:
        cache.ensure(1100)
    with pytest.raises(type(first.value)) as again:
        cache.ensure(1100)
    assert again.value is first.value


@pytest.mark.parametrize("coeffs", FAMILIES)
@pytest.mark.parametrize("exact", [False, True])
def test_ensure_one_index_at_a_time_builds_the_bulk_table(coeffs, exact):
    # p and q come from one stream made with the table, whatever else reads
    # the table's solutions ahead of it in between
    scale, z = ((exact_sqrt(2), exact_complex(Fraction(3, 10), 1)) if exact
                else (math.sqrt(2), 0.3 + 1j))
    bulk = compute_polys(coeffs, scale, z, 40)
    stepwise = PolyCache(coeffs, scale, z)
    for n in range(41):
        stepwise.ensure(n)
        list(itertools.islice(stepwise.values(n % 2 == 1, n), 3))
    assert stepwise.p[:41] == bulk.p and stepwise.q[:41] == bulk.q
    assert list(itertools.islice(poly_pairs(coeffs, scale, z), 41)) == [
        (n, bulk.p[n], bulk.q[n], bulk._rows[n][2] if exact else None) for n in range(41)]


def test_failed_table_serves_the_indices_it_holds():
    # five explicit lambdas build p_0..p_5; the step to p_6 needs lambda_5
    cache = PolyCache(CoefficientSequence.explicit([1, 2, 3, 4, 5]), 1.0, 1j)
    with pytest.raises(CoefficientIndexError) as first:
        cache.ensure(10)
    assert cache.N == 5
    for j in (0, 3, cache.N):
        cache.ensure(j)
    with pytest.raises(CoefficientIndexError) as again:
        cache.ensure(cache.N + 1)
    assert again.value is first.value


def test_exact_mode_rejects_float_values():
    # a float sqrt(2) must not turn into Fraction(1.4142135623730951)
    with pytest.raises(ValueError):
        PolyCache(PAPER, math.sqrt(2), exact_complex(0, 1)).ensure(3)
    with pytest.raises(ValueError):
        compute_polys(PAPER, exact_sqrt(2), 1j, 3)
    t = compute_polys(PAPER, Fraction(3, 2), exact_complex(0, 1), 3)
    assert t.exact and t.p[3].m == 1


def test_exact_mode_needs_gaussian_z_and_rational_square_scale():
    with pytest.raises(ValueError, match="Gaussian-rational z"):
        compute_polys(PAPER, exact_sqrt(2), exact_sqrt(3), 3)
    with pytest.raises(ValueError, match="square is rational"):
        compute_polys(PAPER, exact_complex(1, 1), exact_complex(0, 1), 3)


# -- the integer engine against a plain exact recurrence ---------------------

def _plain_recurrence(coeffs, scale, z, N):
    """p_0..p_N and q_0..q_N by the three-term recurrence on ExactComplex."""
    one, zero = exact_complex(1), exact_complex(0)
    scale, z = one * scale, one * z
    lam, beta = coeffs.lam_exact, coeffs.beta_exact
    p = [one, (z - beta(0)) / (scale * lam(0))]
    q = [zero, one / lam(0)]
    for n in range(1, N):
        for x in (p, q):
            x.append(((z - beta(n)) * x[n] - scale * lam(n - 1) * x[n - 1]) / (scale * lam(n)))
    return p, q


# Denominators drawn from one pool, so that lambda has non-unit denominators
# and beta and z share factors: the cases where a step's content cancels.
SHARED_DENOMINATOR = st.sampled_from([2, 3, 4, 6, 9, 12])
SMALL_POSITIVE = st.one_of(
    st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=20),
    st.builds(Fraction, st.integers(1, 60), SHARED_DENOMINATOR))
SMALL_ANY = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=20),
    st.builds(Fraction, st.integers(-60, 60), SHARED_DENOMINATOR))
CLOSED_FORMS = st.one_of(
    st.builds(CoefficientSequence.constant, SMALL_POSITIVE, SMALL_ANY),
    st.builds(CoefficientSequence.geometric, SMALL_POSITIVE, SMALL_POSITIVE),
    st.builds(CoefficientSequence.power, SMALL_POSITIVE, st.integers(-2, 3)),
)
EXACT_FAMILIES = st.one_of(
    CLOSED_FORMS,
    st.builds(CoefficientSequence.paper_example, CLOSED_FORMS),
    st.lists(st.tuples(SMALL_POSITIVE, SMALL_ANY), min_size=31, max_size=31).map(
        lambda pairs: CoefficientSequence.explicit(*zip(*pairs))),
)


@settings(max_examples=40, deadline=None)
@given(EXACT_FAMILIES, st.sampled_from([2, 3, 4, 8]), st.booleans(), SMALL_POSITIVE,
       SMALL_ANY, SMALL_ANY, st.integers(1, 30))
def test_integer_engine_matches_plain_recurrence(coeffs, d, root_scale, fraction_scale,
                                                 re, im, N):
    scale = exact_sqrt(d) if root_scale else fraction_scale
    z = exact_complex(re, im)
    t = compute_polys(coeffs, scale, z, N)
    assert (t.p, t.q) == _plain_recurrence(coeffs, scale, z, N)
    assert wronskian_residual(t) == [0.0] * N


def _bits(row) -> int:
    return max(v.bit_length() for v in row)


@pytest.mark.parametrize("coeffs, n", [
    (CoefficientSequence.power(1, -2000), 1),
    (CoefficientSequence.power(1, -2000.5), 1),
    (CoefficientSequence.geometric(1, Fraction(1, 2)), 1075),
])
def test_float_recurrence_refuses_an_underflowed_lambda(coeffs, n):
    assert coeffs.lam(n) == 0.0
    with pytest.raises(CoefficientOverflow, match=f"lambda_{n} underflows"):
        compute_polys(coeffs, 1.0, 0j, n + 1)


def test_extended_table_keeps_an_exact_wronskian():
    # compute_polys returns the lazily extended table itself: extending it
    # past N keeps every row on the integer recurrence
    N = 12
    t = compute_polys(GEOMETRIC, exact_sqrt(2), exact_complex(Fraction(1, 3), Fraction(1, 2)), N)
    t.ensure(N + 10)
    assert t.N == N + 10
    assert wronskian_residual(t) == [0.0] * (N + 10)


@pytest.mark.parametrize("coeffs, d", [
    (CoefficientSequence.geometric(1, Fraction(3, 2)), 3),
    (CoefficientSequence.geometric(2, Fraction(5, 4)), 3),
    (CoefficientSequence.geometric(Fraction(1, 3), Fraction(7, 5)), 2),
    (CoefficientSequence.constant(1, Fraction(1, 3)), 2),
], ids=["geometric:1:3/2", "geometric:2:5/4", "geometric:1/3:7/5", "constant:1:1/3"])
def test_rows_carry_no_surplus_content(coeffs, d):
    # a row that multiplied in every step's coefficient denominators would
    # carry 1.6-2.8 times the bits of its value in lowest terms
    engine = _IntegerRecurrence(coeffs, exact_sqrt(d),
                                exact_complex(Fraction(1, 3), Fraction(1, 2)))
    n, a, b, t, _ = next(itertools.islice(engine.rows(), 100, None))
    for x, k in ((a, n), (b, n - 1)):
        row = engine.edge(x, t, k)[:3]
        content = math.gcd(*row)
        assert _bits(row) <= 1.10 * _bits([v // content for v in row])


@pytest.mark.parametrize("which, n", [("p", 0), ("p", 5), ("p", 12),
                                      ("q", 0), ("q", 5), ("q", 12)])
def test_residual_detects_a_changed_value(which, n):
    # a nudge of 0 writes an equal value that the table did not build
    for nudge in (Fraction(1, 10 ** 6), 0):
        t = compute_polys(GEOMETRIC, exact_sqrt(2),
                          exact_complex(Fraction(1, 3), Fraction(1, 2)), 12)
        values = getattr(t, which)
        # a nudge of the row's grade: sqrt(2)**n for p_n, sqrt(2)**(n - 1) for q_n
        grade = exact_sqrt(2) if (n + (which == "q")) % 2 else exact_complex(1)
        values[n] = copy.copy(values[n] + grade * nudge)  # distinct even for a nudge of 0
        residual = wronskian_residual(t)
        affected = {n - 1, n} & set(range(t.N)) if nudge else set()
        assert {k for k, r in enumerate(residual) if r != 0} == affected
        p, q, lam = t.p, t.q, GEOMETRIC.lam_exact
        for k in affected:
            assert residual[k] == abs(p[k] * q[k + 1] - p[k + 1] * q[k] - 1 / lam(k))


def test_residual_certifies_on_the_stored_rows(monkeypatch):
    # the table keeps the rows it built its values from: no rerun of the recurrence
    t = compute_polys(GEOMETRIC, exact_sqrt(2), exact_complex(Fraction(1, 3), Fraction(1, 2)), 30)
    monkeypatch.setattr(_IntegerRecurrence, "rows", None)
    assert wronskian_residual(t) == [0.0] * 30


def _gauss_product(x: tuple, y: tuple) -> tuple:
    """The Gaussian-integer product x*y with three multiplications."""
    k1 = y[0] * (x[0] + x[1])
    return k1 - x[1] * (y[0] + y[1]), k1 + x[0] * (y[1] - y[0])


def _casoratian_holds(sigma, lam_n, n, row, next_row) -> bool:
    """The Wronskian identity at n straight on two stored rows: A_n B_{n+1}
    - A_{n+1} B_n = sigma**n T_n T_{n+1} / lambda_n, by products of two
    row-sized integers."""
    a, b, (t, t_den), _ = row
    a1, b1, (t1, t1_den), _ = next_row
    (re, im), (re1, im1) = _gauss_product(a, b1), _gauss_product(a1, b)
    return im == im1 and ((re - re1) * sigma.denominator ** n * t_den * t1_den * lam_n.numerator
                          == sigma.numerator ** n * t * t1 * lam_n.denominator)


def _residual_and_fallback(table) -> tuple:
    """wronskian_residual(table), the indices n at which it multiplied
    p[n] * q[n + 1] in ExactComplex arithmetic, and the count of its
    ExactComplex multiplications of any table value."""
    calls = []
    original = ExactComplex.__mul__

    def spy(x, y):
        calls.append((x, y))
        return original(x, y)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ExactComplex, "__mul__", spy)
        residual = wronskian_residual(table)
    p, q = table.p, table.q
    fallback = {n for n in range(table.N) if any(x is p[n] and y is q[n + 1] for x, y in calls)}
    values = {id(v) for v in p + q}
    return residual, fallback, sum(id(x) in values or id(y) in values for x, y in calls)


WITNESS_SCALES = st.one_of(
    st.sampled_from([2, 3, 4]).map(exact_sqrt),
    SMALL_POSITIVE,
    SMALL_POSITIVE.map(lambda r: exact_complex(0, r)),  # sigma < 0
)
WITNESS_ZS = st.one_of(st.just(exact_complex(0)), st.builds(exact_complex, SMALL_ANY, SMALL_ANY))


@settings(max_examples=40, deadline=None)
@given(CLOSED_FORMS | st.builds(CoefficientSequence.paper_example, CLOSED_FORMS),
       WITNESS_SCALES, WITNESS_ZS, st.integers(1, 40), st.integers(0, 40),
       st.sampled_from(["A", "B", "T", "witness"]), st.integers(1, 5))
def test_witness_chain_certifies_where_the_identity_holds(coeffs, scale, z, N, k, part, nudge):
    t = compute_polys(coeffs, scale, z, N)
    sigma = (exact_complex(1) * scale * scale).re
    rows = [row for _, _, row in t._rows]
    assert all(_casoratian_holds(sigma, t.lam(n), n, rows[n], rows[n + 1]) for n in range(N))
    residual, fallback, calls = _residual_and_fallback(t)
    assert residual == [0.0] * N and fallback == set() and calls == 0
    # a changed row: every index the chain still certifies satisfies the identity
    k = min(k, N)
    a, b, (tv, t_den), w = rows[k]
    if part == "A":
        a = (a[0] + nudge, a[1])
    elif part == "B":
        b = (b[0], b[1] - nudge)
    elif part == "T":
        tv += nudge
    elif w is not None:
        (ur, ui), v = w
        w = ((ur, ui + nudge), v)
    t._rows[k] = t._rows[k][:2] + ((a, b, (tv, t_den), w),)
    rows[k] = t._rows[k][2]
    residual, fallback, _ = _residual_and_fallback(t)
    assert residual == [0.0] * N
    assert all(_casoratian_holds(sigma, t.lam(n), n, rows[n], rows[n + 1])
               for n in set(range(N)) - fallback)


@pytest.mark.parametrize("part, k, first", [
    ("witness", 2, 1), ("witness", 9, 8), ("A", 0, 0), ("B", 0, 0), ("B", 1, 0),
    ("A", 1, 1),  # A_1 meets only B_0 = 0 in the identity at 0
    ("A", 7, 6), ("B", 12, 11)])
def test_a_changed_row_falls_back_from_its_step(part, k, first):
    # p and q are untouched, so the true residuals stay 0; the step that built
    # row k carries the identity to index k - 1, and no later index can be
    # reached past the broken link
    N = 12
    t = compute_polys(GEOMETRIC, exact_sqrt(2), exact_complex(Fraction(1, 3), Fraction(1, 2)), N)
    pv, qv, (a, b, tv, w) = t._rows[k]
    if part == "witness":
        u, v = w
        w = (u, v + 1)
    elif part == "A":
        a = (a[0] + 1, a[1])
    else:
        b = (b[0], b[1] + 1)
    t._rows[k] = (pv, qv, (a, b, tv, w))
    residual, fallback, _ = _residual_and_fallback(t)
    assert residual == [0.0] * N
    assert fallback == set(range(first, N))


def test_read_values_keep_their_rows_identity(reductions):
    # building the table reduces no value (scale**2 is the one value brought
    # to lowest terms); reading a value's parts leaves the very value the
    # row built in the table, so the identity rule still certifies; a
    # changed row leaves the values the table built before it untouched
    N = 12
    z = exact_complex(Fraction(1, 3), Fraction(1, 2))
    with reductions() as bits:
        t = compute_polys(GEOMETRIC, exact_sqrt(2), z, N)
    assert max(bits) < 8
    plain = _plain_recurrence(GEOMETRIC, exact_sqrt(2), z, N)
    assert [v.re for v in t.p + t.q] == [v.re for v in plain[0] + plain[1]]
    residual, fallback, calls = _residual_and_fallback(t)
    assert residual == [0.0] * N and fallback == set() and calls == 0
    t = compute_polys(GEOMETRIC, exact_sqrt(2), exact_complex(Fraction(1, 3), Fraction(1, 2)), N)
    pv, qv, ((ar, ai), b, tv, w) = t._rows[5]
    t._rows[5] = (pv, qv, ((ar + 1, ai), b, tv, w))
    assert (t.p, t.q) == plain


@pytest.mark.parametrize("coeffs, scale, N", [
    (CoefficientSequence.power(1, -2000), exact_complex(1), 3),
    (CoefficientSequence.geometric(1, 1000), exact_sqrt(2), 120),
])
def test_wronskian_scale_refuses_an_exact_table(coeffs, scale, N):
    # its values need not fit in a float; wronskian_residual is exact there
    t = compute_polys(coeffs, scale, exact_complex(0, 1), N)
    with pytest.raises(ValueError, match="wronskian_residual"):
        wronskian_scale(t)
    assert wronskian_residual(t) == [0.0] * N


def _old_f_zero(p, d, n):
    """p_n / d^(n/2) on reduced values."""
    return p[n] / half_power(d, n)


def _old_f_anchored(coeffs, p, q, d, k, n):
    """lambda_k (p_k q_n - q_k p_n) / d^((n-k-1)/2) on reduced values."""
    return coeffs.lam_exact(k) * (p[k] * q[n] - q[k] * p[n]) / half_power(d, n - k - 1)


def _old_alpha_sq_partial(coeffs, p, q, k, n_terms):
    if k == 0:
        return sum((p[n].abs2() for n in range(n_terms)), exact_complex(0))
    lam2 = coeffs.lam_exact(k - 1) ** 2
    return sum((lam2 * (p[k - 1] * q[n] - q[k - 1] * p[n]).abs2()
                for n in range(k, k + n_terms)), exact_complex(0))


@pytest.mark.parametrize("coeffs, d", [(CONSTANT, 2), (CoefficientSequence.power(1, 2), 2),
                                       (CoefficientSequence.geometric(1, 2), 3), (PAPER, 2)],
                         ids=["constant-d2", "power-d2", "geometric-d3", "paper-d2"])
def test_float_f_values_match_exact_mode_pointwise(coeffs, d):
    # p_k q_n - q_k p_n over d^((n-k-1)/2) read up to 5e74 relative here;
    # stepped from each anchor, every 23rd level below it agrees
    from treejacobi.deficiency import DeficiencyContext
    ctx = DeficiencyContext(coeffs, d, 1j)
    exact = DeficiencyContext(coeffs, d, exact_complex(0, 1))
    for n in range(0, 601, 23):
        want = exact.f_zero(n).to_complex()
        assert abs(ctx.f_zero(n) - want) <= 1e-12 * abs(want)
    for k in (10, 35, 100, 300):
        for n in range(k + 1, k + 301, 23):
            want = exact.f_anchored(k, n).to_complex()
            assert abs(ctx.f_anchored(k, n) - want) <= 1e-12 * abs(want)


def test_f_anchored_reads_where_the_product_left_the_float_range():
    # p_611 q_1441 and q_611 p_1441 each overflow to inf, and p_n itself
    # leaves the float range at n = 2049; the value is about 2i/3
    from treejacobi.deficiency import DeficiencyContext
    ctx = DeficiencyContext(CONSTANT, 2, 1j)
    exact = DeficiencyContext(CONSTANT, 2, exact_complex(0, 1))
    assert abs(exact.f_anchored(611, 1441).to_complex() - 2j / 3) < 1e-12
    for k, n in ((611, 1441), (611, 3000), (0, 1441), (6, 1440)):
        want = exact.f_anchored(k, n).to_complex()
        assert abs(ctx.f_anchored(k, n) - want) <= 1e-12 * abs(want)


def test_level_values_do_not_extend_the_recurrence_table():
    # constant(1) at d = 2: the p, q recurrence leaves the float range at
    # index 2049, the level values stay near 2/3
    from treejacobi.deficiency import DeficiencyContext
    ctx = DeficiencyContext(CONSTANT, 2, 1j)
    exact = DeficiencyContext(CONSTANT, 2, exact_complex(0, 1))
    for n in (700, 2040, 3000):
        want = exact.f_zero(n).to_complex()
        assert abs(ctx.f_zero(n) - want) <= 1e-12 * abs(want)
    assert len(ctx.anchored_levels(611, 3000)) == 2389
    assert ctx.N == -1
    with pytest.raises(RecurrenceOverflow, match=r"^the solution anchored at level -1 \(weights "
                                                 r"1.41421, 1.41421\) left the float range at "
                                                 "level 2049;"):
        ctx.ensure(3000)


def test_level_value_beyond_the_float_range_raises():
    # geometric(1/2, 1/2) at d = 2: the values grow like 2^(n^2/2), and the
    # exact radial value at level 46 does not fit in a float either
    from treejacobi.deficiency import DeficiencyContext
    ctx = DeficiencyContext(CoefficientSequence.geometric(Fraction(1, 2), Fraction(1, 2)), 2, 1j)
    with pytest.raises(RecurrenceOverflow, match=r"^the solution anchored at level -1 \(weights "
                                                 r"2, 1\) left the float range at level 46;"):
        ctx.f_zero(60)
    with pytest.raises(RecurrenceOverflow, match=r"^the solution anchored at level 5 \(weights "
                                                 r"2, 1\) left the float range at level 47;"):
        ctx.anchored_levels(5, 60)
    assert len(ctx.anchored_levels(5, 46)) == 41


def _outcome(read):
    """repr of the value read, or the type and text of the error raised."""
    try:
        value = read()
    except (ArithmeticError, LookupError) as exc:
        return type(exc), str(exc)
    return repr(value)


def _level_read(k, n, whole):
    """The read of level n below anchor level k (k = -1: the radial
    function), or of all levels k + 1..n when whole."""
    if whole:
        return lambda ctx: ([ctx.f_zero(m) for m in range(n + 1)] if k < 0
                            else ctx.anchored_levels(k, n))
    return lambda ctx: ctx.f_zero(n) if k < 0 else ctx.f_anchored(k, n)


TABLE_FAMILIES = [CoefficientSequence.constant(1), CoefficientSequence.constant(2, -1),
                  CoefficientSequence.geometric(1, Fraction(3, 2)),
                  CoefficientSequence.geometric(Fraction(1, 2), Fraction(1, 2)),
                  CoefficientSequence.geometric(3, Fraction(9, 10)),
                  CoefficientSequence.power(1, 1), CoefficientSequence.power(Fraction(1, 3), 2),
                  PAPER]
TABLE_ZS = [exact_complex(0, 1), exact_complex(Fraction(1, 2), 1),
            exact_complex(-2, Fraction(1, 4)), exact_complex(3, Fraction(-1, 1024))]


@settings(max_examples=60, deadline=None)
@given(coeffs=st.sampled_from(TABLE_FAMILIES), d=st.sampled_from([2, 3, 4]),
       z=st.sampled_from(TABLE_ZS),
       reads=st.lists(st.tuples(st.booleans(), st.integers(-1, 60), st.integers(1, 70)),
                      min_size=1, max_size=25))
def test_anchored_tables_read_alike_in_any_order(coeffs, d, z, reads):
    # single values and level slices, in the order drawn, against a fresh
    # context for each read: the same values, or the same error
    from treejacobi.deficiency import DeficiencyContext
    z = z.to_complex()
    table = DeficiencyContext(coeffs, d, z)
    for whole, k, span in reads:
        read = _level_read(k, k + span, whole)
        assert (_outcome(lambda: read(table))
                == _outcome(lambda: read(DeficiencyContext(coeffs, d, z))))


def _in_float_range(values) -> list:
    """The exact values as complex numbers, up to the first one beyond
    2^1000 in modulus, which leaves room for the float step's products."""
    out = []
    for v in values:
        try:
            c = v.to_complex()
        except OverflowError:
            break
        if not abs(c) < 2.0 ** 1000:
            break
        out.append(c)
    return out


@settings(max_examples=60, deadline=None)
@given(coeffs=st.sampled_from(TABLE_FAMILIES), d=st.sampled_from([2, 3, 4]),
       z=st.sampled_from(TABLE_ZS), k=st.integers(-1, 60))
def test_float_level_values_match_exact_mode_normwise(coeffs, d, z, k):
    # 70 levels below anchor level k (k = -1: levels 0..69 of the radial
    # function), as far as the exact values lie in the float range
    from treejacobi.deficiency import DeficiencyContext
    exact = DeficiencyContext(coeffs, d, z)
    want = _in_float_range(_level_read(k, k + 70, True)(exact))
    got = _level_read(k, k + len(want), True)(DeficiencyContext(coeffs, d, z.to_complex()))
    assert len(got) == len(want)
    assert (max(abs(g - w) for g, w in zip(got, want))
            <= 1e-12 * max(abs(w) for w in want))


def test_anchored_table_serves_lower_levels_after_an_error():
    # lambda_1024 = 2^1024 of the paper family does not fit in a float
    from treejacobi.deficiency import DeficiencyContext
    ctx, fresh = DeficiencyContext(PAPER, 2, 1j), DeficiencyContext(PAPER, 2, 1j)
    message = "lambda_1024 does not fit in a float"
    with pytest.raises(CoefficientOverflow, match=message) as first:
        ctx.f_anchored(611, 1025)
    for read in (lambda: ctx.anchored_levels(611, 1500), lambda: ctx.f_anchored(611, 1460)):
        with pytest.raises(CoefficientOverflow) as again:
            read()
        assert str(again.value) == str(first.value)
    for n in (612, 1000, 1024):
        assert repr(ctx.f_anchored(611, n)) == repr(fresh.f_anchored(611, n))
    assert repr(ctx.anchored_levels(611, 1024)) == repr(fresh.anchored_levels(611, 1024))
    with pytest.raises(CoefficientOverflow, match=message):
        ctx.f_zero(1025)
    assert repr(ctx.f_zero(1024)) == repr(fresh.f_zero(1024))


def test_a_second_anchored_read_steps_nothing(monkeypatch):
    # each table steps a level once, when it is first read, and every table
    # of a context reads one list of coefficient rows: beta_n is read once
    # for all anchor levels, weights, p and q
    from treejacobi.deficiency import DeficiencyContext
    stepped = []
    original = CoefficientSequence.beta
    monkeypatch.setattr(CoefficientSequence, "beta",
                        lambda self, n: stepped.append(n) or original(self, n))
    ctx = DeficiencyContext(PAPER, 2, 1j)
    ctx.f_anchored(3, 500)
    assert stepped == list(range(500))
    ctx.f_anchored(3, 500)
    ctx.anchored_levels(3, 8)
    ctx.f_anchored(3, 4)
    ctx.f_zero(5)
    for k in range(4):
        list(itertools.islice(alpha_sq_terms(k, ctx), 100))
    ctx.ensure(200)
    assert stepped == list(range(500))
    ctx.f_zero(501)
    assert stepped == list(range(501))


def test_late_anchor_float_values_match_exact_mode():
    # ROADMAP direction 8: the difference formula cancelled here
    from treejacobi.deficiency import DeficiencyContext
    ctx = DeficiencyContext(CONSTANT, 2, 1j)
    exact = DeficiencyContext(CONSTANT, 2, exact_complex(0, 1))
    for n in range(41, 46):
        want = exact.f_anchored(40, n).to_complex()
        assert abs(ctx.f_anchored(40, n) - want) <= 1e-12 * abs(want)


def test_late_anchor_float_alpha_sums_match_exact_mode():
    # ROADMAP direction 8: the float terms lambda_{k-1}^2 |p_{k-1} q_n -
    # q_{k-1} p_n|^2 cancelled here (5.1389e17 against 5.1241e17 exact)
    want = alpha_sq_partial(CONSTANT, 2, exact_complex(0, 1), 45, 60).to_complex()
    assert abs(alpha_sq_partial(CONSTANT, 2, 1j, 45, 60) - want) <= 1e-12 * abs(want)


def test_alpha_terms_past_a_squared_lambda_beyond_the_float_range_match_exact_mode():
    # lambda_512 = 2^512 of the paper family fits in a float, its square
    # does not; the float alpha_513 terms are stepped from the anchor and
    # never square it
    from treejacobi.deficiency import DeficiencyContext
    floats = alpha_sq_terms(513, DeficiencyContext(PAPER, 2, 1j))
    exact = alpha_sq_terms(513, DeficiencyContext(PAPER, 2, exact_complex(0, 1)))
    for _ in range(6):
        want = float(next(exact))
        assert next(floats) == pytest.approx(want, rel=1e-12)


@settings(max_examples=40)
@given(coeffs=st.sampled_from(TABLE_FAMILIES), d=st.sampled_from([2, 3, 4]),
       z=st.sampled_from(TABLE_ZS), k=st.integers(0, 60), n_terms=st.integers(1, 20))
def test_float_alpha_partial_sums_match_exact_mode(coeffs, d, z, k, n_terms):
    # wherever the exact partial sum fits in a float
    try:
        want = alpha_sq_partial(coeffs, d, z, k, n_terms).to_complex().real
    except OverflowError:
        return
    got = alpha_sq_partial(coeffs, d, z.to_complex(), k, n_terms)
    assert abs(got - want) <= 1e-12 * want


def test_float_p_q_past_an_off_diagonal_beyond_the_float_range_match_exact_mode():
    # paper at d = 4: scale * lambda_1023 = 2 * 2^1023 is no float, and
    # dividing by it once gave p_1024 = q_1024 = 0; the stepper divides by
    # lambda_1023, then by the scale
    float_table = compute_polys(PAPER, 2.0, 1j, 1024)
    exact_table = compute_polys(PAPER, exact_sqrt(4), exact_complex(0, 1), 1024)
    for got, want in ((float_table.p[1024], exact_table.p[1024]),
                      (float_table.q[1024], exact_table.q[1024])):
        want = want.to_complex()
        assert want != 0 and abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("z", [1j, exact_complex(0, 1)], ids=["float", "exact"])
def test_levels_below_their_first_are_empty(z):
    # hi < lo reads no level in either arithmetic, however far the table holds
    from treejacobi.deficiency import DeficiencyContext
    ctx = DeficiencyContext(PAPER, 2, z)
    ctx.anchored_levels(3, 20)
    for n in (3, 2, 1, 0):
        assert ctx.anchored_levels(3, n) == []
        with pytest.raises(ValueError, match=f"anchored values start at level 4, got {n}"):
            ctx.f_anchored(3, n)
    assert ctx.levels(-1, (2, 1), 5, 3) == []


def _held_prefix(read, n: int) -> list:
    """read(m) for m = 0..n, up to the first that leaves the float range."""
    out = []
    for m in range(n + 1):
        try:
            out.append(complex(read(m)))
        except (RecurrenceOverflow, CoefficientOverflow):
            break
    return out


def _assert_close_where_finite(got: list, exact: list) -> None:
    """Each float value within 1e-12 of its exact value, relative to the
    largest exact value so far, wherever both are finite: a decaying term
    of a near-real z (alpha_6 at z = 3 - i/1024, paper, d = 2) keeps only
    that.  A float read may stop only where the exact values leave 2^900,
    which leaves room for the step's products."""
    largest = 0.0
    for n, want in enumerate(exact):
        try:
            want = complex(want.to_complex() if is_exact(want) else float(want))
        except OverflowError:
            return
        if n >= len(got):
            assert not abs(want) < 2.0 ** 900, (n, want)
            return
        largest = max(largest, abs(want))
        if cmath.isfinite(got[n]) and cmath.isfinite(want):
            assert abs(got[n] - want) <= 1e-12 * largest, (n, got[n], want)


@settings(max_examples=60)
@given(coeffs=st.sampled_from(TABLE_FAMILIES), d=st.sampled_from([2, 3, 4]),
       z=st.sampled_from(TABLE_ZS), n=st.integers(1, 60), k=st.integers(0, 59))
def test_every_float_reader_matches_exact_mode(coeffs, d, z, n, k):
    # one float stepper serves p, q, the deficiency values, the alpha terms,
    # the radial levels and the certificate's masses
    from treejacobi.deficiency import DeficiencyContext
    from treejacobi.lambda_tree import esa_certificate, radial_propagate
    k = k % n
    zf = z.to_complex()
    floats, exact = DeficiencyContext(coeffs, d, zf), DeficiencyContext(coeffs, d, z)
    try:
        floats.ensure(n)
    except (RecurrenceOverflow, CoefficientOverflow):
        pass
    exact.ensure(n)
    _assert_close_where_finite(floats.p, exact.p[:n + 1])
    _assert_close_where_finite(floats.q, exact.q[:n + 1])
    _assert_close_where_finite(_held_prefix(floats.f_zero, n),
                               [exact.f_zero(m) for m in range(n + 1)])
    _assert_close_where_finite(_held_prefix(lambda m: floats.f_anchored(k, m + k + 1), n - k - 1),
                               exact.anchored_levels(k, n))
    for j in (0, k + 1):
        terms = alpha_sq_terms(j, floats)
        _assert_close_where_finite(_held_prefix(lambda m: next(terms), n - j),
                                   list(itertools.islice(alpha_sq_terms(j, exact), n - j + 1)))
    radial = radial_propagate(exact_complex(1), z, n, coeffs, d)
    _assert_close_where_finite(_held_prefix(lambda m: radial_propagate(1, zf, m, coeffs, d)[m], n),
                               radial)
    try:
        masses = esa_certificate(coeffs, d, zf, n).level_masses
    except (RecurrenceOverflow, CoefficientOverflow):
        return
    _assert_close_where_finite(masses, [v.abs2() for v in radial])


def _csv_row(n, pv, qv):
    pv, qv = pv.to_complex(), qv.to_complex()
    return f"{n},{pv.real!r},{pv.imag!r},{qv.real!r},{qv.imag!r}"


@pytest.mark.parametrize("scale", [exact_sqrt(2), Fraction(3, 2), exact_complex(0, Fraction(3, 2)),
                                   exact_complex(0, 1) * exact_sqrt(3)], ids=repr)
@pytest.mark.parametrize("z", [exact_complex(0), exact_complex(Fraction(1, 3), Fraction(-1, 2))],
                         ids=repr)
@pytest.mark.parametrize("coeffs", [PAPER, CONSTANT, GEOMETRIC], ids=lambda c: c.family)
def test_exact_csv_is_the_reduced_floats(coeffs, scale, z):
    # signed zeros included, at a negative scale**2 too
    N = 16
    t = compute_polys(coeffs, scale, z, N)
    buf = io.StringIO()
    t.to_csv(buf)
    p, q = _plain_recurrence(coeffs, scale, z, N)
    assert buf.getvalue().splitlines()[1:] == [_csv_row(n, p[n], q[n]) for n in range(N + 1)]


def _float_readings(csv_rows, values):
    """(csv_rows(), the values as complex numbers), or the text of the
    OverflowError of the first value beyond the float range."""
    try:
        return csv_rows(), [as_complex(v) for v in values]
    except OverflowError as exc:
        return str(exc)


NONREAL_ZS = st.builds(exact_complex, SMALL_ANY,
                       SMALL_POSITIVE.flatmap(lambda r: st.sampled_from([r, -r])))


@settings(max_examples=40, deadline=None)
@given(CLOSED_FORMS | st.builds(CoefficientSequence.paper_example, CLOSED_FORMS),
       st.sampled_from([2, 3, 4]), NONREAL_ZS, st.integers(1, 24), st.data())
def test_row_readers_equal_the_reduced_formulas(reductions, coeffs, d, z, N, data):
    from treejacobi.deficiency import DeficiencyContext
    from treejacobi.lambda_tree import radial_propagate
    ctx = DeficiencyContext(coeffs, d, z)
    ctx.ensure(N)
    p, q = _plain_recurrence(coeffs, exact_sqrt(d), z, N)
    # floats and CSV read no part and reduce no value; where a value lies
    # beyond the float range, both refuse it alike
    buf = io.StringIO()
    with reductions() as bits:
        got = _float_readings(lambda: (ctx.to_csv(buf), buf.getvalue().splitlines()[1:])[1],
                              ctx.p + ctx.q)
    assert bits == []
    assert got == _float_readings(lambda: [_csv_row(n, p[n], q[n]) for n in range(N + 1)], p + q)
    # every reader names a solution, read from the rows by one formula
    assert list(itertools.islice(ctx.values(), N + 1)) == p
    assert list(itertools.islice(ctx.values(True), N + 1)) == q
    for n in range(N + 1):
        assert ctx.f_zero(n) == _old_f_zero(p, d, n)
    assert (radial_propagate(exact_complex(1), z, N, coeffs, d)
            == [half_power(d, n) * p[n] for n in range(N + 1)])
    k = data.draw(st.integers(0, N - 1))
    anchored = [_old_f_anchored(coeffs, p, q, d, k, n) for n in range(k + 1, N + 1)]
    assert [ctx.f_anchored(k, n) for n in range(k + 1, N + 1)] == anchored
    assert ctx.anchored_levels(k, N) == anchored
    k = data.draw(st.integers(0, N // 2))
    n_terms = N + 1 - k
    p, q = _plain_recurrence(coeffs, exact_sqrt(d), z, k + n_terms)
    assert (alpha_sq_partial(coeffs, d, z, k, n_terms)
            == _old_alpha_sq_partial(coeffs, p, q, k, n_terms))


@pytest.mark.parametrize("coeffs", FAMILIES, ids=lambda c: c.family)
def test_float_recurrence_fetches_each_lambda_once(coeffs, monkeypatch):
    calls = Counter()
    for name in ("lam", "lam_exact"):
        original = getattr(CoefficientSequence, name)

        def counting(self, n, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, n)
        monkeypatch.setattr(CoefficientSequence, name, counting)
    N = 200
    compute_polys(coeffs, math.sqrt(2), 1j, N)
    assert calls["lam"] <= N + 1
    assert calls["lam_exact"] == 0


def test_degenerate_parameters_rejected():
    for scale, z in [(0.0, 1j), (math.inf, 1j), (1.0, complex(math.nan, 1)),
                     (1.0, complex(math.inf, 1)), (0, exact_complex(0, 1))]:
        with pytest.raises(ValueError):
            PolyCache(PAPER, scale, z).ensure(0)
    with pytest.raises(ValueError):
        alpha_series(PAPER, 2, complex(math.nan, 1), 1)
    from treejacobi.deficiency import DeficiencyContext
    with pytest.raises(ValueError):
        DeficiencyContext(PAPER, 2, complex(math.nan, 1)).f_zero(1)
    with pytest.raises(ValueError, match="n_max must be at least 1, got 0"):
        sum_series(iter([1.0]), n_max=0)
    with pytest.raises(ValueError, match="an exact weight is the scale or a rational"):
        PolyCache(PAPER, exact_sqrt(2), exact_complex(0, 1)).levels(-1, (exact_sqrt(3), 1), 0, 0)

# -- alpha norms ------------------------------------------------------------

def test_alpha_requires_nonreal():
    with pytest.raises(RealSpectralParameter):
        alpha_series(PAPER, 2, 1.0, 2)
    with pytest.raises(RealSpectralParameter):
        alpha_sq_partial(PAPER, 2, 1.0, 0, 3)
    with pytest.raises(RealSpectralParameter):
        alpha_sq_partial(PAPER, 2, exact_complex(1), 0, 3)


def test_alpha_paper_family_frozen():
    a = alpha_series(PAPER, 2, 1j, 4)
    assert a.status == "converged"
    frozen = [2.1481825270054005, 1.849340998796991, 1.6881343806286802,
              1.6468533010827013, 1.6364630337956938]
    for got, want in zip(a.alphas, frozen):
        assert got == pytest.approx(want, rel=1e-9)
    assert all(v > 0 for v in a.alphas)


def test_alpha_total_is_partial_plus_tail():
    a = alpha_series(PAPER, 2, 1j, 2)
    for k in range(3):
        assert a.alphas[k] ** 2 == pytest.approx(a.alpha_sqs[k], rel=1e-12)


@pytest.mark.parametrize("coeffs, d, n_max, status, error, message", [
    # scale 1: determinate classical case
    (CONSTANT, 1, 100_000, "diverged", DivergedSeries, "alpha_0 series diverged at z = 1j"),
    # no criterion: no budget gives a verdict
    (CoefficientSequence.paper_example(CoefficientSequence.power(1, 2)), 2, 5,
     "inconclusive", InconclusiveSeries,
     "no criterion decides the family, so alpha_0 at z = 1j has no verdict"),
], ids=["diverged", "inconclusive"])
def test_alpha_divergent_family(coeffs, d, n_max, status, error, message, monkeypatch):
    monkeypatch.setattr(orthopoly, "SERIES_N_MAX", n_max)
    a = alpha_series(coeffs, d, 1j, 0)
    assert a.statuses[0] == status
    with pytest.raises(error, match=message):
        a.alpha(0)


@pytest.mark.parametrize("read", [lambda a: a.alpha(-1), lambda a: a.alpha(2)],
                         ids=["below", "above"])
def test_alpha_index_outside_the_table_is_refused(read):
    # alpha(-1) read alpha_1 from the end of the list, alpha(2) raised IndexError
    table = alpha_series(PAPER, 2, 1j, 1)
    with pytest.raises(ValueError, match=r"alpha index must lie in 0\.\.1, got -?\d"):
        read(table)


def test_alpha_table_of_a_negative_k_max_is_refused():
    # it returned an empty table with status "converged"
    with pytest.raises(ValueError, match="k_max must be nonnegative, got -1"):
        DeficiencyContext(PAPER, 2, 1j).alphas(-1)


def test_alpha_first_term_dominates_lower_bound():
    partial = alpha_sq_partial(PAPER, 2, 1j, 0, 1)
    assert partial == 1.0  # |p_0|^2


def test_alpha_sq_partial_exact_matches_float():
    exact = alpha_sq_partial(PAPER, 2, exact_complex(0, 1), 1, 12)
    approx = alpha_sq_partial(PAPER, 2, 1j, 1, 12)
    assert abs(exact.to_complex() - approx) <= 1e-12 * abs(approx)


def test_alpha_terms_match_deficiency_level_masses():
    # the j-th term of the alpha_k series equals d^j-weighted squared
    # f-values produced by the deficiency module
    from treejacobi.deficiency import DeficiencyContext
    ctx = DeficiencyContext(PAPER, 2, 1j)
    gen = alpha_sq_terms(0, DeficiencyContext(PAPER, 2, 1j))
    for j in range(20):
        term = next(gen)
        mass = 2 ** j * abs(ctx.f_zero(j)) ** 2
        assert term == pytest.approx(mass, rel=1e-12)
    gen = alpha_sq_terms(2, DeficiencyContext(PAPER, 2, 1j))
    for offset in range(15):
        n = 2 + offset
        term = next(gen)
        mass = 2 ** (n - 2) * abs(ctx.f_anchored(1, n)) ** 2
        assert term == pytest.approx(mass, rel=1e-12)
