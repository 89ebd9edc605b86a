"""Boundary measure, step functions, isometry, Poisson kernel."""
import itertools
import math
import random
from fractions import Fraction

import pytest

from treejacobi import boundary
from treejacobi.boundary import (CylinderSet, PoissonKernelRepr, StepFunction, apply_U,
                                 bx_element, inner_boundary, integrate,
                                 kernel_by_class, paired_step, plain_integral,
                                 poisson_kernel, relative_position,
                                 reproducing_check, u_isometry_basis)
from treejacobi.coefficients import CoefficientSequence
from treejacobi.deficiency import DeficiencyContext, DeficiencyElement
from treejacobi.errors import AmbiguousPrefix
from treejacobi.exactnum import exact_complex, is_zero
from treejacobi.orthopoly import alpha_series

PAPER = CoefficientSequence.paper_example()
D = 2
CTX = DeficiencyContext(PAPER, D, 1j)
ALPHA = alpha_series(PAPER, D, 1j, 7)


def test_cylinder_measure():
    for d in (2, 3):
        for depth in range(5):
            base = (1,) * depth
            assert CylinderSet(base).measure(d) == Fraction(1, d ** depth)


def test_integrate_whole_boundary():
    assert integrate(StepFunction.indicator(2, (), 1)) == 1


def test_integrate_cylinder_exact():
    for depth in range(5):
        F = StepFunction.indicator(2, (1,) * depth, 1)
        assert integrate(F) == Fraction(1, 2 ** depth)


def test_bx_element_integrates_to_zero():
    G = bx_element(2, (1,), [3.0, -3.0])
    assert integrate(G) == 0
    with pytest.raises(ValueError):
        bx_element(2, (1,), [1.0, 1.0])


def test_zero_sum_rule_is_scale_free():
    # a value that is small in absolute terms but not against the others
    with pytest.raises(ValueError):
        DeficiencyElement((), (1e-20, 0), 1j)
    with pytest.raises(ValueError):
        bx_element(2, (1,), [1e-20, 0])
    for k in range(-40, 41):
        for c in (2.0 ** k, exact_complex(Fraction(2) ** k)):
            DeficiencyElement((), (c, -c), 1j)
            assert is_zero(integrate(bx_element(2, (1,), [c, -c])))


def test_canonicalization_preserves_integral():
    F = StepFunction(2, [((), 1.0), ((1,), 2.0), ((1, 2), -4.0)])
    depth, cells = F.canonical()
    assert depth == 2
    total = sum(v * Fraction(1, 2 ** depth) for v in cells.values())
    assert total == integrate(F)


def test_inner_boundary_conjugates_second_argument():
    F = StepFunction.indicator(2, (), 1j)
    G = StepFunction.indicator(2, (), 1j)
    assert inner_boundary(F, G) == 1
    assert plain_integral(F, G) == -1


def test_bx_pairwise_orthogonality_exact():
    rng = random.Random(2)
    anchors = [(), (1,), (2,), (1, 2)]
    for a, b in itertools.combinations(anchors, 2):
        for _ in range(3):
            va = rng.uniform(-2, 2)
            vb = rng.uniform(-2, 2)
            Ga = bx_element(2, a, [va, -va])
            Gb = bx_element(2, b, [vb, -vb])
            assert inner_boundary(Ga, Gb) == 0


def test_isometry_basis_norms():
    F0, f0 = u_isometry_basis((), 2, ALPHA)
    assert f0.root == ()
    assert F0.norm() == pytest.approx(ALPHA.alpha(0), rel=1e-12)
    for x in [(1,), (2, 1), (1, 2, 2)]:
        F, f = u_isometry_basis(x, 2, ALPHA)
        assert F.norm() == pytest.approx(ALPHA.alpha(len(x)), rel=1e-12)
        assert f.root == x


def test_isometry_sibling_cylinders_orthogonal():
    F1, _ = u_isometry_basis((1,), 2, ALPHA)
    F2, _ = u_isometry_basis((2,), 2, ALPHA)
    assert inner_boundary(F1, F2) == 0


@pytest.mark.parametrize("elem", [DeficiencyElement((1,), (0.5, -0.5), 1j),
                                  DeficiencyElement(None, (0.5 - 2j,), 1j)],
                         ids=["anchored", "radial"])
def test_isometry_norm_matches_tree_norm(elem):
    # boundary norm of the paired step function equals the alpha-series
    # tree norm of the deficiency element
    G = paired_step(elem, 2, ALPHA)
    assert G.norm() == pytest.approx(elem.norm(ALPHA), rel=1e-12)


def test_relative_position_cases():
    assert relative_position((1, 2), (1, 2)) == (2, 0)
    assert relative_position((1, 2), (2, 1)) == (0, 2)
    assert relative_position((1, 2, 1), (1, 1, 2)) == (1, 2)
    with pytest.raises(AmbiguousPrefix):
        relative_position((1, 2), (1,))


def test_kernel_at_root_is_constant():
    k = poisson_kernel((), CTX, ALPHA)
    depth, cells = k.step.canonical()
    assert depth == 0
    assert complex(cells[()]) == pytest.approx(1 / ALPHA.alpha(0))


def test_kernel_constant_per_position_class():
    for y in [(1,), (1, 2), (2, 1, 1)]:
        classes = kernel_by_class(poisson_kernel(y, CTX, ALPHA))
        for pos, values in classes.items():
            assert len(values) == 1, f"class {pos} has values {values}"


def test_kernel_class_structure_exhaustive():
    # depth <= 5 cells against all y with |y| <= 3: value depends only on
    # the relative position
    seen = {}
    for ylen in range(4):
        for y in itertools.product((1, 2), repeat=ylen):
            classes = kernel_by_class(poisson_kernel(y, CTX, ALPHA))
            for pos, values in classes.items():
                v = values.pop()
                if pos in seen:
                    assert abs(seen[pos] - v) < 1e-12, f"class {pos}"
                else:
                    seen[pos] = v


def test_apply_U_recovers_radial_function():
    F0 = StepFunction.indicator(2, (), ALPHA.alpha(0))
    for y in [(), (1,), (1, 2), (2, 1, 2), (1,) * 6]:
        got = complex(apply_U(F0, y, CTX, ALPHA))
        want = complex(CTX.f_zero(len(y)))
        assert abs(got - want) < 1e-10


def test_apply_U_recovers_branch_elements():
    elem = DeficiencyElement((1,), (1.0, -1.0), 1j)
    G = paired_step(elem, 2, ALPHA)
    for y in [(1, 1), (1, 2), (1, 1, 2), (2, 1), ()]:
        got = complex(apply_U(G, y, CTX, ALPHA))
        want = complex(elem.value_at(y, CTX))
        assert abs(got - want) <= 1e-7 * max(1.0, abs(want))


def test_apply_U_linearity():
    F = StepFunction.indicator(2, (1,), 1.0 + 1j)
    G = StepFunction.indicator(2, (2, 1), -2.0)
    y = (1, 2)
    a, b = 2.0 - 1j, 0.5j
    lhs = complex(apply_U(F.scaled(a) + G.scaled(b), y, CTX, ALPHA))
    rhs = a * complex(apply_U(F, y, CTX, ALPHA)) + b * complex(apply_U(G, y, CTX, ALPHA))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_reproducing_property_sweep():
    # anchors up to level 3, evaluation vertices up to level 5
    rng = random.Random(4)
    anchors = [None, (), (1,), (2,), (1, 2), (2, 1, 1)]
    for anchor in anchors:
        if anchor is None:
            elem = DeficiencyElement(None, (0.8 - 0.3j,), 1j)
            ys = [(), (1,), (2, 2), (1, 2, 1, 2, 1)]
        else:
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            elem = DeficiencyElement(anchor, (a, -a), 1j)
            ys = [anchor + (1,), anchor + (2, 1), anchor + (1, 2)]
            ys = [y for y in ys if len(y) <= 5]
        for y in ys:
            chk = reproducing_check(elem, y, CTX, ALPHA)
            scale = max(1.0, abs(complex(elem.value_at(y, CTX))))
            assert chk.residual_plain <= 1e-7 * scale, (anchor, y)
            assert chk.matching_convention in ("plain", "conjugated")


def test_reproducing_convention_reported():
    elem = DeficiencyElement((1,), (1.0 + 0.5j, -1.0 - 0.5j), 1j)
    chk = reproducing_check(elem, (1, 2), CTX, ALPHA)
    assert chk.matching_convention == "plain"


@pytest.mark.parametrize("reading, convention", [
    (complex.conjugate, "conjugated"), (lambda v: 2 * v, "neither")], ids=["conjugated", "neither"])
def test_reproducing_check_reports_the_convention_a_kernel_meets(reading, convention,
                                                                 monkeypatch):
    # a kernel with conjugated cell values reproduces g only under the
    # conjugated integral; one with doubled values under neither
    def kernel(y, ctx, alpha):
        k = poisson_kernel(y, ctx, alpha)
        _, cells = k.step.canonical()
        return PoissonKernelRepr(k.y, k.z, StepFunction(
            ctx.d, [(w, reading(complex(v))) for w, v in cells.items()]))

    monkeypatch.setattr(boundary, "poisson_kernel", kernel)
    elem = DeficiencyElement((1,), (1.0 + 0.5j, -1.0 - 0.5j), 1j)
    # at y = 1.2 the paired step reads only K(1.2) - K(1.1) = 2/alpha_2, which
    # is real; one level down the kernel difference is not
    chk = reproducing_check(elem, (1, 2, 1), CTX, ALPHA)
    assert chk.matching_convention == convention
    assert chk.residual_plain > 1e-3
