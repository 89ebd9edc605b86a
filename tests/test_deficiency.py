"""Deficiency basis functions, residuals, norms, classifier, projections."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treejacobi.coefficients import CoefficientSequence, TreeConfig, _criterion
from treejacobi import orthopoly
from treejacobi.deficiency import (BasisFunction, DeficiencyContext,
                                   DeficiencyElement, _Profile, classify, classify_by_series,
                                   deficiency_residual, element_max_abs,
                                   element_residual, f_value, project_full,
                                   project_onto_Ax)
from treejacobi.errors import (CoefficientIndexError, InconclusiveSeries, NotInSubtree,
                               PatchTooLarge, RealSpectralParameter, RecurrenceOverflow)
from treejacobi.exactnum import as_complex, exact_complex, exact_sqrt, is_exact, is_zero
from treejacobi.operator import JacobiOperator
from treejacobi.orthopoly import alpha_series, alpha_sq_partial
from treejacobi.treecore import LambdaPatch, SparseFunction, inner, subtree_vertices

PAPER = CoefficientSequence.paper_example()
D = 2
CTX = DeficiencyContext(PAPER, D, 1j)
ALPHA = alpha_series(PAPER, D, 1j, 6)
EXACT_I = exact_complex(0, 1)
CTX_EXACT = DeficiencyContext(PAPER, D, EXACT_I)


def test_real_z_rejected():
    with pytest.raises(RealSpectralParameter):
        DeficiencyContext(PAPER, D, 1.5)


def test_alphas_read_a_float_table():
    assert CTX.alphas(6).alphas == ALPHA.alphas
    with pytest.raises(ValueError, match="float table"):
        CTX_EXACT.alphas(1)


def test_f_values_at_normalization_points():
    assert CTX.f_zero(0) == 1.0
    # value 1 at the first support level, for every anchor level
    for k in range(5):
        assert abs(CTX.f_anchored(k, k + 1) - 1) < 1e-12
    v = CTX_EXACT.f_anchored(3, 4)
    assert v == exact_complex(1)


@pytest.mark.parametrize("d, levels, anchored", [
    (2, (5, 30, 1030, 2048), ((0, 12), (3, 1100))),
    (3, (5, 30, 1300, 2040), ((0, 12), (3, 1400))),
])
def test_float_values_past_the_float_power_match_exact(d, levels, anchored):
    # d**(n//2) exceeds the float range from n = 2048 (d = 2) and n = 1294
    # (d = 3) on, before p_n does
    coeffs = CoefficientSequence.constant(1)
    floats = DeficiencyContext(coeffs, d, 1j)
    exact = DeficiencyContext(coeffs, d, exact_complex(0, 1))
    pairs = [(floats.f_zero(n), exact.f_zero(n)) for n in levels]
    pairs += [(floats.f_anchored(k, n), exact.f_anchored(k, n)) for k, n in anchored]
    for value, want in pairs:
        assert abs(value - want.to_complex()) <= 1e-12 * abs(want)


def test_f_value_dispatch():
    assert f_value("zero", 0, 2, CTX) == CTX.f_zero(2)
    assert f_value("anchored", 1, 3, CTX) == CTX.f_anchored(1, 3)
    with pytest.raises(ValueError):
        f_value("other", 0, 0, CTX)


def test_frozen_f_values():
    assert complex(CTX.f_anchored(1, 3)) == pytest.approx(-0.75 + 0.125j)
    assert complex(CTX.f_zero(3)) == pytest.approx(0.1875 + 0.25j)


def test_element_requires_zero_sum():
    with pytest.raises(ValueError):
        DeficiencyElement((1,), (1.0, -0.5), 1j)
    DeficiencyElement((1,), (1.0, -1.0), 1j)  # fine


@pytest.mark.parametrize("coefficients", [(1.0, 1.0, -2.0), (0.0,)],
                         ids=["three-at-degree-2", "one-at-degree-2"])
def test_anchored_element_needs_d_coefficients(coefficients):
    from treejacobi.boundary import paired_step

    elem = DeficiencyElement((1,), coefficients, 1j)  # sums to zero, so accepted
    for use in (lambda: elem.materialize(CTX, 4),
                lambda: element_residual([elem], CTX, 4),
                lambda: element_max_abs([elem], CTX, 4),
                lambda: elem.value_at((1, 1), CTX),
                lambda: elem.norm(ALPHA),
                lambda: paired_step(elem, D, ALPHA)):
        with pytest.raises(ValueError, match="takes 2 coefficients"):
            use()


def test_materialize_radial_root_only():
    elem = DeficiencyElement(None, (1.0,), 1j)
    f = elem.materialize(CTX, 0)
    assert f.entries == {(): 1.0}


def test_materialize_anchored_values():
    elem = DeficiencyElement((), (1.0, -1.0), 1j)
    f = elem.materialize(CTX, 3)
    assert f.value((1,)) == pytest.approx(1.0)
    assert f.value((2,)) == pytest.approx(-1.0)
    assert f.value((1, 2)) == pytest.approx(complex(CTX.f_anchored(0, 2)))
    assert f.value(()) == 0


def test_materialize_budget_guard():
    elem = DeficiencyElement(None, (1.0,), 1j)
    with pytest.raises(PatchTooLarge):
        elem.materialize(CTX, 25)


def test_level_sums_vanish_exactly():
    # anchored elements sum to zero on every level, in exact arithmetic
    for anchor, coeffs in [((), (1, -1)), ((1,), (2, -2)), ((2, 1), (1, -1))]:
        exact_coeffs = tuple(exact_complex(c) for c in coeffs)
        elem = DeficiencyElement(anchor, exact_coeffs, EXACT_I)
        f = elem.materialize(CTX_EXACT, len(anchor) + 4)
        sums = {}
        for x, v in f.entries.items():
            sums[len(x)] = sums.get(len(x), exact_complex(0)) + v
        for lvl, s in sums.items():
            assert is_zero(s), f"level {lvl} sum {s!r}"


def test_residual_of_basis_functions():
    for elem in (DeficiencyElement(None, (1.0,), 1j),
                 DeficiencyElement((), (1.0, -1.0), 1j),
                 DeficiencyElement((1, 2), (0.3, -0.3), 1j)):
        r = element_residual([elem], CTX, 25)
        m = element_max_abs([elem], CTX, 25)
        assert r <= 1e-10 * m


def test_residual_matches_brute_force_on_materialized():
    elem = DeficiencyElement((1,), (1.0, -1.0), 1j)
    f = elem.materialize(CTX, 8)
    brute = deficiency_residual(f, 1j, PAPER, D, 8)
    profile = element_residual([elem], CTX, 8)
    assert brute == pytest.approx(profile, abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from([2, 3]),
       st.floats(-2, 2), st.floats(0.2, 2), st.booleans(), st.booleans())
def test_profile_of_a_sum_matches_its_materialized_sum(data, d, re, im, below, project):
    z = complex(re, im if below else -im)
    y = tuple(data.draw(st.lists(st.integers(1, d), max_size=4)))
    depth = data.draw(st.integers(len(y) + 1, 7))
    ctx = DeficiencyContext(PAPER, d, z)
    if project:
        elements = project_full(y, ctx, alpha_series(PAPER, d, z, len(y) + 1))
    else:
        parts = st.floats(-1, 1)
        a = [complex(data.draw(parts), data.draw(parts)) for _ in range(d - 1)]
        elements = [DeficiencyElement(y, a + [-sum(a)], z)]
    total = SparseFunction({})
    for elem in elements:
        total = total + elem.materialize(ctx, depth)
    peak = total.max_abs()
    tol = 1e-12 * max(1.0, peak)
    assert abs(element_max_abs(elements, ctx, depth) - peak) <= tol
    assert abs(element_residual(elements, ctx, depth)
               - deficiency_residual(total, z, PAPER, d, depth)) <= tol


def test_max_abs_counts_only_levels_down_to_depth():
    # at depth 0 the root is the only vertex, deep anchors notwithstanding
    els = project_full((1, 2, 1), CTX, ALPHA)
    at_root = abs(complex(sum(e.value_at((), CTX) for e in els)))
    assert element_max_abs(els, CTX, 0) == at_root


def test_residual_of_delta_is_nonzero():
    f = SparseFunction.delta(())
    r = deficiency_residual(f, 1j, PAPER, D, 5)
    assert r == pytest.approx(abs(1j - PAPER.beta(0)))


def test_residual_vanishes_at_anchor():
    # the anchor equation holds because the coefficients sum to zero
    elem = DeficiencyElement((2,), (0.7, -0.7), 1j)
    f = elem.materialize(CTX, 6)
    # residual at the anchor vertex alone
    residual = JacobiOperator(PAPER, TreeConfig(D)).apply(f) - f.scaled(1j)
    assert abs(residual.value((2,))) < 1e-14


@pytest.mark.parametrize("anchor, coeffs", [(None, (1,)), ((), (1, -1)), ((1,), (1, -1))],
                         ids=["radial", "root", "1"])
def test_residual_of_an_exact_element_is_zero(anchor, coeffs):
    # exact f and z: apply runs in exact arithmetic, so the equation holds exactly
    z = exact_complex(Fraction(1, 3), Fraction(1, 2))
    ctx = DeficiencyContext(PAPER, D, z)
    f = DeficiencyElement(anchor, tuple(map(exact_complex, coeffs)), z).materialize(ctx, 6)
    assert f.entries and all(map(is_exact, f.entries.values()))
    assert deficiency_residual(f, z, PAPER, D, 6) == 0.0
    # a float z reads the exact values in floats
    assert deficiency_residual(f, as_complex(z), PAPER, D, 6) < 1e-13


def test_residual_refuses_a_patch_function():
    f = SparseFunction.delta((), kind=LambdaPatch(2, D))
    with pytest.raises(NotInSubtree):
        deficiency_residual(f, 1j, PAPER, D, 2)


def test_norm_identity_direct_vs_series():
    # sum over the tree to depth L of |f|^2 = L-term alpha^2 partial sum
    L = 16
    direct = sum(abs(complex(CTX.f_zero(n))) ** 2 * D ** n for n in range(L))
    partial = alpha_sq_partial(PAPER, D, 1j, 0, L)
    assert direct == pytest.approx(partial, rel=1e-12)
    # anchored case, norm index 2 (anchor level 1), branch count d
    k = 2
    terms = L
    direct = sum(abs(complex(CTX.f_anchored(k - 1, n))) ** 2 * D ** (n - k)
                 for n in range(k, k + terms))
    partial = alpha_sq_partial(PAPER, D, 1j, k, terms)
    assert direct == pytest.approx(partial, rel=1e-12)


def test_norm_identity_exact_bitwise():
    L = 10
    vals = [CTX_EXACT.f_zero(n) for n in range(L)]
    direct = None
    for n, v in enumerate(vals):
        t = v.abs2() * (D ** n)
        direct = t if direct is None else direct + t
    partial = alpha_sq_partial(PAPER, D, EXACT_I, 0, L)
    assert direct == partial


def test_element_norm_formula():
    # branch supports are disjoint, so the norm splits into per-branch
    # masses; sum those to depth 80 and compare with the alpha formula
    rng = random.Random(5)
    branch_mass = sum(abs(complex(CTX.f_anchored(1, n))) ** 2 * D ** (n - 2)
                      for n in range(2, 80))
    for _ in range(5):
        a1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        predicted = ALPHA.alpha(2) * math.sqrt(2 * abs(a1) ** 2)
        direct = math.sqrt(2 * abs(a1) ** 2 * branch_mass)
        assert direct == pytest.approx(predicted, rel=1e-9)


def test_pairwise_orthogonality_exact_truncated():
    e1 = DeficiencyElement((), (exact_complex(1),
                                exact_complex(-1)), EXACT_I)
    e2 = DeficiencyElement((1,), (exact_complex(1),
                                  exact_complex(-1)), EXACT_I)
    f1 = e1.materialize(CTX_EXACT, 6)
    f2 = e2.materialize(CTX_EXACT, 6)
    v = inner(f1, f2)
    assert is_zero(v) or abs(v) == 0


def test_pairwise_orthogonality_float():
    e1 = DeficiencyElement((2,), (1.0, -1.0), 1j)
    e2 = DeficiencyElement((2, 1), (1.0, -1.0), 1j)
    f1 = e1.materialize(CTX, 10)
    f2 = e2.materialize(CTX, 10)
    assert abs(complex(inner(f1, f2))) <= 1e-12 * f1.norm() * f2.norm()


# -- classifier -------------------------------------------------------------

def test_classify_paper_not_esa():
    rep = classify(PAPER, 2)
    assert (rep.verdict, rep.criterion) == ("not_essentially_selfadjoint", "perron")
    assert rep.series_p_status == rep.series_q_status == "not_run"
    rep = classify_by_series(PAPER, 2)
    assert rep.verdict == "not_essentially_selfadjoint"
    assert rep.series_p_status == rep.series_q_status == "converged"


def test_classify_classical_paper_esa_at_zero():
    rep = classify(PAPER, 2, z=0j, scale=1.0)
    assert rep.verdict == "essentially_selfadjoint"


def test_classify_free_family_esa():
    rep = classify(CoefficientSequence.constant(1), 2)
    assert rep.verdict == "essentially_selfadjoint"


def test_classify_period_two_series_not_esa():
    # the q-series terms alternate between two decay phases here
    rep = classify_by_series(CoefficientSequence.geometric(3, Fraction(7, 2)), 2,
                             z=0.3 + 1.7j)
    assert rep.verdict == "not_essentially_selfadjoint"
    assert rep.criterion is None


def test_series_huge_z_reports_the_overflow():
    # |p_1|^2 overflows: the series reports it instead of raising
    rep = classify_by_series(CoefficientSequence.constant(1), 2, z=1e308j)
    assert "overflowed" in rep.diagnostics


def test_classify_exact_z_runs_on_exact_sqrt():
    rep = classify(PAPER, 2, z=EXACT_I)
    assert rep.verdict == "not_essentially_selfadjoint"
    assert rep.scale == math.sqrt(2)
    with pytest.raises(ValueError):
        classify(PAPER, 2, z=EXACT_I, scale=math.sqrt(2))


def test_classify_accepts_exact_scale():
    rep = classify(PAPER, 2, z=EXACT_I, scale=exact_sqrt(2))
    assert rep.verdict == "not_essentially_selfadjoint"
    assert rep.scale == math.sqrt(2)
    assert classify(PAPER, 2, z=EXACT_I, scale=1).scale == 1.0


@pytest.mark.parametrize("scale, want", [
    (1j, 1j), (1 + 1j, 1 + 1j), (EXACT_I * exact_sqrt(2), complex(0, math.sqrt(2))),
    (Fraction(3, 2), 1.5)], ids=["i", "1+i", "exact i sqrt2", "real"])
def test_a_report_names_the_scale_its_series_ran_at(scale, want):
    # a non-real scale was reported as its real part, 0.0 or 1.0
    z = EXACT_I if is_exact(scale) else 1j
    for run in (classify, classify_by_series):
        rep = run(PAPER, 2, z=z, scale=scale, n_max=200)
        assert rep.scale == want and type(rep.scale) is type(want), run


def test_classify_inconclusive_small_budget():
    rep = classify_by_series(PAPER, 2, n_max=5)
    assert rep.verdict == "inconclusive"
    assert "n_max" in rep.diagnostics
    # the criterion needs no budget
    assert classify(PAPER, 2, n_max=5).criterion == "perron"


def test_classify_agrees_with_series_oracle():
    from treejacobi.oracle import series_oracle
    for coeffs in (PAPER, CoefficientSequence.constant(1),
                   CoefficientSequence.geometric(1, 3)):
        rep = classify(coeffs, 2)
        p_terms, q_terms = series_oracle(coeffs, 2, 1j, 400)
        if rep.verdict == "not_essentially_selfadjoint":
            assert sum(p_terms) < 1e6 and p_terms[-1] < 1e-12 * sum(p_terms)
        elif rep.verdict == "essentially_selfadjoint":
            assert sum(p_terms) > 100 or sum(q_terms) > 100


# -- criteria ahead of the series -------------------------------------------

# c over 2**(+-20) and 3**(+-10): multiplying every lambda_n and beta_n by c
# multiplies the operator by c, which changes no verdict
SCALE_FACTORS = st.one_of(st.integers(-20, 20).map(lambda k: Fraction(2) ** k),
                          st.integers(-10, 10).map(lambda k: Fraction(3) ** k))

# (family with lambda scaled by c, criterion, verdict)
CRITERION_FAMILIES = [
    (lambda c: CoefficientSequence.constant(c), "bounded", "essentially_selfadjoint"),
    (lambda c: CoefficientSequence.constant(c, -3 * c), "bounded", "essentially_selfadjoint"),
    (lambda c: CoefficientSequence.geometric(c, Fraction(1, 3)), "bounded",
     "essentially_selfadjoint"),
    (lambda c: CoefficientSequence.geometric(c, 1), "bounded", "essentially_selfadjoint"),
    (lambda c: CoefficientSequence.power(c, -1), "carleman", "essentially_selfadjoint"),
    (lambda c: CoefficientSequence.power(c, 0.5), "carleman", "essentially_selfadjoint"),
    (lambda c: CoefficientSequence.power(c, 1), "carleman", "essentially_selfadjoint"),
    (lambda c: CoefficientSequence.geometric(c, Fraction(5, 4)), "berezanskii",
     "not_essentially_selfadjoint"),
    (lambda c: CoefficientSequence.geometric(c, Fraction(7, 2)), "berezanskii",
     "not_essentially_selfadjoint"),
    (lambda c: CoefficientSequence.power(c, 2), "berezanskii", "not_essentially_selfadjoint"),
    (lambda c: CoefficientSequence.power(c, 1.5), "berezanskii",
     "not_essentially_selfadjoint"),
]


@settings(max_examples=60, deadline=None)
@given(c=SCALE_FACTORS, family=st.sampled_from(CRITERION_FAMILIES),
       d=st.integers(2, 5), scale=st.sampled_from([None, 1.0, -2.5, 1e-9, exact_sqrt(3)]),
       z=st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))
def test_criterion_verdict_ignores_the_scale_and_runs_no_step(c, family, d, scale, z):
    make, criterion, verdict = family
    if is_exact(scale):
        z = exact_complex(Fraction(z.real), Fraction(z.imag))
    def no_step(*args):
        raise AssertionError("a recurrence step ran")
        yield  # a generator, like both steppers: making one steps nothing

    with pytest.MonkeyPatch.context() as mp:
        # any recurrence step would raise: exact rows, or the one float stepper
        mp.setattr(orthopoly, "poly_pairs", no_step)
        mp.setattr(orthopoly.PolyCache, "solution", no_step)
        rep = classify(make(c), d, z=z, scale=scale)
    assert (rep.verdict, rep.criterion) == (verdict, criterion)
    assert rep.terms_used == (0, 0)
    assert rep.series_p_status == rep.series_q_status == "not_run"


@settings(max_examples=30, deadline=None)
@given(c=SCALE_FACTORS, paper=st.booleans(), d=st.integers(2, 3))
def test_series_verdict_ignores_the_scale(c, paper, d):
    def family(base):
        lam = CoefficientSequence.geometric(base, 2)
        return CoefficientSequence.paper_example(lam) if paper else lam
    assert (classify_by_series(family(c), d).verdict
            == classify_by_series(family(1), d).verdict == "not_essentially_selfadjoint")


@pytest.mark.parametrize("coeffs", [
    CoefficientSequence.power(Fraction(1, 10 ** 6), 2),
    CoefficientSequence.geometric(Fraction(1, 2 ** 20), Fraction(5, 4)),
], ids=["power:1/1000000:2", "geometric:2^-20:5/4"])
def test_series_verdict_on_small_berezanskii_families(coeffs):
    # the squared terms leave the float range before they decay, which
    # decides no limit; the criterion decides the family
    rep = classify_by_series(coeffs, 2)
    assert rep.verdict == "inconclusive"
    assert "float range" in rep.diagnostics
    rep = classify(coeffs, 2)
    assert (rep.verdict, rep.criterion) == ("not_essentially_selfadjoint", "berezanskii")


@pytest.mark.parametrize("coeffs", [CoefficientSequence.constant(1),
                                    CoefficientSequence.power(1, 2), PAPER],
                         ids=["constant", "power", "paper"])
@pytest.mark.parametrize("kwargs", [
    dict(tol=0.0), dict(tol=-1.0), dict(tol=math.nan), dict(n_max=0), dict(scale=0.0),
    dict(scale=math.inf), dict(z=math.nan + 1j), dict(z=EXACT_I, scale=math.sqrt(2)),
    dict(z=1j, scale=exact_sqrt(2)),
], ids=lambda kw: ",".join(f"{k}={v!r}" for k, v in kw.items()))
def test_classify_rejects_what_the_series_rejects(coeffs, kwargs):
    with pytest.raises(ValueError):
        classify_by_series(coeffs, 2, **kwargs)
    with pytest.raises(ValueError):
        classify(coeffs, 2, **kwargs)


def test_a_decided_family_reads_no_coefficient(monkeypatch):
    def refuse(self, n):
        raise AssertionError(f"coefficient {n} read")

    for name in ("lam", "beta", "lam_exact", "beta_exact"):
        monkeypatch.setattr(CoefficientSequence, name, refuse)
    for d in (2, 3):
        assert classify(PAPER, d).criterion == "perron"
        assert classify(PAPER, d, z=EXACT_I).criterion == "perron"
    assert classify(PAPER, 2, scale=1.0).criterion == "alternation"
    for coeffs in (CoefficientSequence.constant(1), CoefficientSequence.geometric(1, 1),
                   CoefficientSequence.geometric(2, Fraction(1, 2)),
                   CoefficientSequence.power(1, 1), CoefficientSequence.power(3, 0.5)):
        assert classify(coeffs, 2).criterion in ("bounded", "carleman")
        table = alpha_series(coeffs, 3, 0.5 + 1j, 3)
        assert table.statuses == ["diverged"] * 4 and table.terms_used == [0] * 4


def test_series_statuses_name_no_criterion():
    # a paper family over a power with exponent above 1 goes to the series
    coeffs = CoefficientSequence.paper_example(CoefficientSequence.power(1, 2))
    assert classify(coeffs, 2).criterion is None
    assert alpha_series(coeffs, 2, 1j, 1, n_max=2000).criterion is None


def test_a_converged_alpha_past_the_float_range_has_no_value():
    # Berezanskii decides the family; its float terms leave the float range
    # after 66-67 terms, and the sum is past what a float holds
    table = alpha_series(CoefficientSequence.geometric(Fraction(1, 1000), Fraction(21, 20)),
                         3, 1.664 + 0.957j, 2)
    assert table.criterion == "berezanskii" and table.status == "converged"
    assert table.statuses == ["converged"] * 3 and table.alpha_sqs == [math.inf] * 3
    assert all(map(math.isnan, table.alphas))
    with pytest.raises(RecurrenceOverflow, match="float range"):
        table.alpha(0)
    # a budget that runs out is no float-range fault
    table = alpha_series(PAPER, 2, 1j, 1, n_max=5)
    assert table.statuses == ["converged"] * 2 and table.alpha_sqs == [math.inf] * 2
    with pytest.raises(InconclusiveSeries, match="n_max = 5"):
        table.alpha(1)


# families that a criterion decides at every scale sqrt(d)
DECIDED_FAMILIES = [
    CoefficientSequence.constant(1), CoefficientSequence.constant(2, -1),
    CoefficientSequence.geometric(1, Fraction(1, 2)), CoefficientSequence.geometric(3, 1),
    CoefficientSequence.power(1, 1), CoefficientSequence.power(2, 0.5),
    CoefficientSequence.geometric(1, Fraction(3, 2)), CoefficientSequence.geometric(2, 3),
    CoefficientSequence.power(1, 2), PAPER,
    CoefficientSequence.paper_example(CoefficientSequence.geometric(Fraction(1, 2), 3)),
    CoefficientSequence.paper_example(CoefficientSequence.constant(1)),
    CoefficientSequence.paper_example(CoefficientSequence.power(1, 1)),
]
NONREAL_Z = st.builds(complex, st.floats(-3, 3),
                      st.floats(0.2, 3) | st.floats(-3, -0.2))


@settings(max_examples=40)
@given(coeffs=st.sampled_from(DECIDED_FAMILIES), d=st.integers(2, 4), z=NONREAL_Z,
       k_max=st.integers(0, 2))
def test_alpha_statuses_follow_the_criterion(coeffs, d, z, k_max):
    rep = classify(coeffs, d, z=z)
    table = alpha_series(coeffs, d, z, k_max, n_max=2000)  # a power law decays slowly
    assert table.criterion == rep.criterion is not None
    expected = "diverged" if rep.verdict == "essentially_selfadjoint" else "converged"
    assert table.statuses == [expected] * (k_max + 1)


_GROWING_BASES = [CoefficientSequence.geometric(1, 2), CoefficientSequence.geometric(2, 3),
                  CoefficientSequence.geometric(Fraction(1, 2), Fraction(5, 4))]
_OTHER_BASES = [CoefficientSequence.geometric(1, Fraction(1, 2)),
                CoefficientSequence.geometric(2, 1), CoefficientSequence.constant(1),
                CoefficientSequence.constant(3), CoefficientSequence.power(1, 1),
                CoefficientSequence.power(1, 2)]
# (lambda family, real scale): Perron at |s| != 1, alternation at |s| = 1
PAPER_RULE_CASES = (
    st.tuples(st.sampled_from(_GROWING_BASES),
              st.sampled_from([0.5, -0.8, 1.25, math.sqrt(2), -2.0, Fraction(3, 2)]))
    | st.tuples(st.sampled_from(_GROWING_BASES + _OTHER_BASES),
                st.sampled_from([1.0, -1.0, 1, Fraction(-1)])))


@settings(max_examples=40)
@given(case=PAPER_RULE_CASES, z=NONREAL_Z)
def test_paper_rules_never_contradict_a_series_verdict(case, z):
    base, scale = case
    coeffs = CoefficientSequence.paper_example(base)
    criterion, verdict, _ = _criterion(coeffs, scale)
    assert criterion == ("alternation" if abs(scale) == 1 else "perron")
    assert classify_by_series(coeffs, 2, z=z, scale=scale, n_max=600).verdict in (
        verdict, "inconclusive")


@pytest.mark.parametrize("g, d, scale", [(Fraction(3, 2), 3, None), (2, 3, None),
                                         (3, 3, None), (2, 2, 1.2), (2, 2, 3.0)])
def test_series_call_no_paper_family_over_a_power_esa(g, d, scale):
    # at |s| > 1 and g > 1 every solution decays like n^(-g/2), so it is
    # l^2 and the matrix is not ESA; the series' terms decay too slowly for
    # the block-ratio rule, and no finite run of them shows a divergence
    coeffs = CoefficientSequence.paper_example(CoefficientSequence.power(1, g))
    rep = classify_by_series(coeffs, d, scale=scale, n_max=20_000)
    assert rep.verdict in ("not_essentially_selfadjoint", "inconclusive")


@pytest.mark.parametrize("coeffs, kw, notes", [
    (PAPER, {"z": 0j, "scale": 1.0, "n_max": 1000},
     ["no verdict after 1000 terms", "no verdict after 1000 terms"]),
    (CoefficientSequence.explicit([1] * 300), {"n_max": 100},
     ["no verdict after 100 terms", "no verdict after 100 terms"]),
    (CoefficientSequence.constant(1), {"z": 1e308j}, ["term overflowed the float range"] * 2),
])
def test_an_inconclusive_diagnostics_prints_each_note_once(coeffs, kw, notes):
    rep = classify_by_series(coeffs, 2, **kw)
    assert rep.verdict == "inconclusive"
    assert rep.diagnostics == (f"no verdict within n_max={kw.get('n_max', 100_000)}: "
                               f"p-series inconclusive ({notes[0]}), "
                               f"q-series inconclusive ({notes[1]})")
    for note in set(notes):
        assert rep.diagnostics.count(note) == notes.count(note)


def test_a_paper_family_over_a_list_is_refused_with_the_list_it_reads():
    coeffs = CoefficientSequence.paper_example(CoefficientSequence.explicit([1, 2, 3]))
    refusal = "^a 3-entry explicit list cannot decide {}: "
    with pytest.raises(CoefficientIndexError, match=refusal.format("essential selfadjointness")):
        classify(coeffs, 2)
    with pytest.raises(CoefficientIndexError, match=refusal.format("alpha_0")):
        alpha_series(coeffs, 2, 1j, 0)


# -- projections ------------------------------------------------------------

def test_projection_zero_anchor_at_root():
    elem = project_onto_Ax((), None, CTX, ALPHA)
    a0 = ALPHA.alpha(0)
    assert complex(elem.coefficients[0]) == pytest.approx(1 / a0 ** 2)


def test_projection_coefficients_sum_to_zero():
    elem = project_onto_Ax((1, 2, 1), (1,), CTX, ALPHA)
    assert abs(sum(complex(c) for c in elem.coefficients)) < 1e-15
    assert elem.anchor == (1,)


def test_projection_self_consistency():
    # <g, delta_y> = <g, projection(delta_y)> for g in the branch space
    rng = random.Random(9)
    y = (1, 2, 2)
    anchor = (1,)
    k = len(anchor)
    proj = project_onto_Ax(y, anchor, CTX, ALPHA)
    # both functions live on the two branch subtrees with the shared radial
    # profile, so the depth-80 inner product is a closed sum over levels
    branch_mass = sum(abs(complex(CTX.f_anchored(k, n))) ** 2 * D ** (n - k - 1)
                      for n in range(k + 1, 80))
    for _ in range(10):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        g = DeficiencyElement(anchor, (a, -a), 1j)
        lhs = complex(g.value_at(y, CTX))
        cross = sum(complex(ga) * complex(pb).conjugate()
                    for ga, pb in zip(g.coefficients, proj.coefficients))
        rhs = cross * branch_mass
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_project_full_structure():
    els = project_full((), CTX, ALPHA)
    assert len(els) == 1 and els[0].anchor is None
    els = project_full((1, 2), CTX, ALPHA)
    assert len(els) == 3
    assert els[0].anchor is None
    assert els[1].anchor == ()
    assert els[2].anchor == (1,)


def test_project_full_residual():
    els = project_full((1, 2), CTX, ALPHA)
    assert element_residual(els, CTX, 25) <= 1e-7


def test_basis_function_values():
    f0 = BasisFunction(())
    assert f0.value_at((1, 2), CTX) == CTX.f_zero(2)
    fx = BasisFunction((1, 2))
    assert fx.value_at((1, 2), CTX) == pytest.approx(1.0)
    assert fx.value_at((2, 1), CTX) == 0
    assert fx.value_at((1, 2, 1), CTX) == CTX.f_anchored(1, 3)
    # the norm of the function rooted at x is alpha_k with k = len(x)
    below = subtree_vertices((1, 2), 7, D)
    assert (sum(fx.value_at(y, CTX_EXACT).abs2() for y in below)
            == alpha_sq_partial(PAPER, D, EXACT_I, 2, 8))


def _value_by_value_max(profile):
    """The maximum one value at a time, as abs of each complex."""
    try:
        return repr(max(abs(as_complex(v)) for values in profile.values.values() for v in values))
    except OverflowError as exc:
        return OverflowError, str(exc)


def _profile_max(profile):
    try:
        return repr(profile.max_abs())
    except OverflowError as exc:
        return OverflowError, str(exc)


@pytest.mark.parametrize("ctx", [CTX, CTX_EXACT], ids=["float", "exact"])
@pytest.mark.parametrize("anchor", [None, (), (2,), (1, 2)])
def test_profile_max_is_the_value_by_value_max(ctx, anchor):
    coeffs = (1,) if anchor is None else (1, -1)
    for depth in (0, 3, 9, 40):
        profile = _Profile([DeficiencyElement(anchor, coeffs, ctx.z)], ctx, depth)
        assert _profile_max(profile) == _value_by_value_max(profile)


PARTS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1.7e308]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.builds(complex, PARTS, PARTS), min_size=1, max_size=6),
                min_size=1, max_size=4))
def test_profile_max_over_the_float_range_is_abs_bit_for_bit(classes):
    # np.hypot agrees with abs of a complex; where finite parts have no
    # finite modulus, abs raises and np.hypot reads inf, and the profile
    # raises as abs does; nan and inf order as in max
    profile = _Profile([], CTX, 0)
    profile.values = {(i,): values for i, values in enumerate(classes)}
    assert _profile_max(profile) == _value_by_value_max(profile)


def test_profile_max_raises_where_abs_overflows():
    import numpy as np

    profile = _Profile([], CTX, 0)
    profile.values = {(): [1j], (1,): [complex(1.5e308, 1.5e308), complex(2, 0)]}
    with np.errstate(over="ignore"):
        assert np.hypot(1.5e308, 1.5e308) == math.inf
    with pytest.raises(OverflowError):
        profile.max_abs()
    profile.values[(1,)][0] = complex(math.inf, 1.5e308)
    assert profile.max_abs() == math.inf
