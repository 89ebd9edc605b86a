"""Operator application, averaging projections, moments, membership."""
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treejacobi.coefficients import CoefficientSequence, TreeConfig
from treejacobi.errors import NotInSubtree, PatchTooLarge
from treejacobi.exactnum import exact_complex
from treejacobi.operator import (JacobiOperator, hx_membership, moments,
                                 radial_average_E, subtree_average_Ex)
from treejacobi.oracle import build_radial_block
from treejacobi.treecore import (APEX_SUCCESSOR, GAMMA, LambdaPatch, SparseFunction, inner,
                                 level_indicator, subtree_vertices)

PAPER = CoefficientSequence.paper_example()
CONSTANT = CoefficientSequence.constant(1)
J2 = JacobiOperator(PAPER, TreeConfig(2))


def random_sparse(rng, d=2, max_level=4, size=6) -> SparseFunction:
    entries = {}
    for _ in range(size):
        lvl = rng.randrange(max_level + 1)
        addr = tuple(rng.randrange(1, d + 1) for _ in range(lvl))
        entries[addr] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return SparseFunction(entries)


def test_apply_to_root_delta():
    f = J2.apply(SparseFunction.delta(()))
    assert f.value(()) == PAPER.beta(0)
    assert f.value((1,)) == PAPER.lam(0)
    assert f.value((2,)) == PAPER.lam(0)
    assert len(f.entries) == 3


def test_apply_interior_delta():
    f = J2.apply(SparseFunction.delta((1, 2)))
    assert f.value((1,)) == PAPER.lam(1)
    assert f.value((1, 2)) == PAPER.beta(2)
    assert f.value((1, 2, 1)) == PAPER.lam(2)
    assert f.value((1, 2, 2)) == PAPER.lam(2)


def test_lambda_apply_level_zero():
    patch = LambdaPatch(2, 2)
    J = JacobiOperator(PAPER, TreeConfig(2), patch=patch)
    # a patch leaf sits at tree level 0: no downward couplings
    f = J.apply(SparseFunction.delta((1, 1), kind=patch))
    assert f.value((1, 1)) == PAPER.beta(0)
    assert f.value((1,)) == PAPER.lam(0)
    assert len(f.entries) == 2


def test_lambda_apply_apex_reaches_virtual_successor():
    patch = LambdaPatch(1, 2)
    J = JacobiOperator(PAPER, TreeConfig(2), patch=patch)
    f = J.apply(SparseFunction.delta((), kind=patch))
    assert f.value(APEX_SUCCESSOR) == PAPER.lam(1)
    assert f.value((1,)) == PAPER.lam(0)


def test_operator_degree_must_match_its_patch():
    with pytest.raises(ValueError, match="degree-2 patch"):
        JacobiOperator(PAPER, TreeConfig(3), patch=LambdaPatch(2, 2))


PATCH = LambdaPatch(1, 2)
J_PATCH = JacobiOperator(PAPER, TreeConfig(2), patch=PATCH)


@pytest.mark.parametrize("call, error, message", [
    (lambda: J_PATCH.apply(SparseFunction.delta(APEX_SUCCESSOR, kind=PATCH)), PatchTooLarge,
     "support reached the virtual successor; enlarge the patch"),
    (lambda: moments(J2, -1), ValueError, "N must be nonnegative"),
    (lambda: moments(J_PATCH, 1), ValueError, "moments are defined for the rooted-tree operator"),
    (lambda: moments(J2, 1, route="dense"), ValueError, "unknown moment route 'dense'"),
    (lambda: radial_average_E(SparseFunction.delta((), kind=PATCH), 2), NotInSubtree,
     "radial averaging is defined on the rooted tree"),
    (lambda: subtree_average_Ex(SparseFunction.delta((), kind=PATCH), (), 2), NotInSubtree,
     "subtree averaging is defined on the rooted tree"),
], ids=["apex-successor", "moments-n", "moments-patch", "moments-route", "average-patch",
        "subtree-average-patch"])
def test_operator_inputs_are_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_apply_symmetry_random():
    rng = random.Random(7)
    for _ in range(50):
        f, g = random_sparse(rng), random_sparse(rng)
        lhs = complex(inner(J2.apply(f), g))
        rhs = complex(inner(f, J2.apply(g)))
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_moments_basic_values():
    m = moments(J2, 2)
    b0, l0 = PAPER.beta_exact(0), PAPER.lam_exact(0)
    assert m[0] == 1
    assert m[1] == b0
    assert m[2] == b0 ** 2 + 2 * l0 ** 2


def test_moments_routes_agree():
    # the matrix route computes a triangle whose edge depends on the parity of N
    explicit = CoefficientSequence.explicit([Fraction(k + 2, 2 * k + 3) for k in range(10)],
                                            [Fraction(k - 3, k + 5) for k in range(11)])
    for coeffs in (PAPER, CONSTANT, explicit):
        for d, sizes in ((2, (9, 10)), (3, (5, 6))):
            J = JacobiOperator(coeffs, TreeConfig(d))
            for N in sizes:
                assert moments(J, N, route="matrix") == moments(J, N, route="tree")


def _fraction_triangle(J, N):
    """moments(J, N) by the triangle on Fractions, as the matrix route ran
    before it went fraction-free."""
    lam = [J.coeffs.lam_exact(n) for n in range(N)]
    beta = [J.coeffs.beta_exact(n) for n in range(N + 1)]
    v = [Fraction(1)]
    out = [Fraction(1)]
    for s in range(1, N + 1):
        u = v + [0, 0]
        v = [beta[j] * u[j] + (J.d * lam[j - 1] * u[j - 1] if j else 0) + lam[j] * u[j + 1]
             for j in range(min(s, N - s) + 1)]
        out.append(v[0])
    return out


FRACTION_FREE_FAMILIES = {
    "paper": PAPER,
    "geometric:1/3:3/2": CoefficientSequence.geometric(Fraction(1, 3), Fraction(3, 2)),
    "constant:1:1/3": CoefficientSequence.constant(1, Fraction(1, 3)),
    "explicit": CoefficientSequence.explicit(
        [Fraction(2 * k + 3, 3 * k + 4) for k in range(40)],
        [Fraction(5 - 2 * k, 7 + k) for k in range(41)]),
}


@pytest.mark.parametrize("name", FRACTION_FREE_FAMILIES)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_fraction_free_moments_are_the_fraction_triangle(name, d):
    J = JacobiOperator(FRACTION_FREE_FAMILIES[name], TreeConfig(d))
    for N in (0, 1, 2, 7, 20, 39, 40):
        got = moments(J, N, route="matrix")
        assert got == _fraction_triangle(J, N)
        assert all(type(m) is Fraction for m in got)
    for N in range(6 if d == 2 else 4):
        assert moments(J, N, route="matrix") == moments(J, N, route="tree")


def test_moments_frozen_paper():
    m = moments(J2, 6)
    assert [str(v) for v in m] == ["1", "1", "3", "11", "57", "377", "3291"]


def test_radial_matrix_entries():
    rm = build_radial_block(PAPER, J2.d, 0, 2).matrix
    assert rm[0, 0] == PAPER.beta(0)
    assert rm[0, 1] == pytest.approx(math.sqrt(2) * PAPER.lam(0))
    rm1 = build_radial_block(PAPER, J2.d, 1, 1).matrix
    assert rm1[0, 0] == PAPER.beta(1)


def test_radial_matrix_against_mu_basis():
    # <J mu_n, mu_{n+1}> = sqrt(d) lam_n
    for n in range(8):
        mu_n = level_indicator(n, 2, normalized=True)
        mu_n1 = level_indicator(n + 1, 2, normalized=True)
        v = complex(inner(J2.apply(mu_n), mu_n1))
        assert v.real == pytest.approx(math.sqrt(2) * PAPER.lam(n), rel=1e-12)
        assert v.imag == pytest.approx(0.0, abs=1e-12)


def test_E_delta_spreads_level():
    f = SparseFunction.delta((1, 2))
    ef = radial_average_E(f, 2)
    assert len(ef.entries) == 4
    for x in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert ef.value(x) == pytest.approx(0.25)


def test_E_idempotent_symmetric_contractive():
    rng = random.Random(11)
    for _ in range(100):
        f = random_sparse(rng)
        g = random_sparse(rng)
        ef = radial_average_E(f, 2)
        eef = radial_average_E(ef, 2)
        diff = (eef - ef).norm()
        assert diff <= 1e-12 * max(1.0, ef.norm())
        lhs = complex(inner(ef, g))
        rhs = complex(inner(f, radial_average_E(g, 2)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        assert ef.norm() <= f.norm() + 1e-12


def test_E_norm_equality_iff_radial():
    radial = level_indicator(3, 2).scaled(0.7) + level_indicator(1, 2)
    assert radial_average_E(radial, 2).norm() == pytest.approx(radial.norm())
    lopsided = SparseFunction.delta((1,))
    assert radial_average_E(lopsided, 2).norm() < lopsided.norm() - 1e-3


def test_Ex_fixes_radial_and_leaves_outside_alone():
    x = (1,)
    f = SparseFunction({(1, 1): 2.0, (1, 2): 2.0, (2, 1): 5.0})
    ex = subtree_average_Ex(f, x, 2)
    assert ex.value((1, 1)) == pytest.approx(2.0)
    assert ex.value((2, 1)) == 5.0
    g = SparseFunction({(1, 1): 1.0, (1, 2): 3.0})
    exg = subtree_average_Ex(g, x, 2)
    assert exg.value((1, 1)) == pytest.approx(2.0)
    assert exg.value((1, 2)) == pytest.approx(2.0)


def test_Ex_drops_a_level_that_averages_to_zero():
    # the values below (1,) cancel on level 2 and not on level 3
    f = SparseFunction({(1, 1): 1.5, (1, 2): -1.5, (1, 1, 2): 4.0, (2,): 7.0})
    ex = subtree_average_Ex(f, (1,), 2)
    assert ex.entries == {(2,): 7.0, (1, 1, 1): 1.0, (1, 1, 2): 1.0,
                          (1, 2, 1): 1.0, (1, 2, 2): 1.0}


def test_Ex_single_vertex_level():
    f = SparseFunction.delta((1,))
    assert subtree_average_Ex(f, (1,), 2).entries == f.entries


def test_Ex_contraction():
    rng = random.Random(3)
    for _ in range(30):
        entries = {}
        for _ in range(6):
            tail = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(4)))
            entries[(1,) + tail] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = SparseFunction(entries)
        assert subtree_average_Ex(f, (1,), 2).norm() <= f.norm() + 1e-12


# -- branch-space membership -----------------------------------------------

def random_hx_member(rng, x, d=2, depth=3) -> SparseFunction:
    """c_i * profile(level) on each child subtree, sum c_i = 0."""
    cs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d - 1)]
    cs.append(-sum(cs))
    profile = [1.0] + [rng.uniform(-2, 2) for _ in range(depth - 1)]
    entries = {}
    for i in range(1, d + 1):
        child = x + (i,)
        for y in subtree_vertices(child, depth - 1, d):
            entries[y] = cs[i - 1] * profile[len(y) - len(child)]
    return SparseFunction(entries)


def test_membership_basic_cases():
    x = (1,)
    f = SparseFunction({(1, 1): 1.0, (1, 2): -1.0})
    assert hx_membership(f, x, 2).ok
    g = SparseFunction.delta(x)
    rep = hx_membership(g, x, 2)
    assert not rep.ok and "support" in rep.reason


def test_membership_rejects_bad_sum():
    f = SparseFunction({(1, 1): 1.0, (1, 2): -0.5})
    rep = hx_membership(f, (1,), 2)
    assert not rep.ok and "sum" in rep.reason


def test_membership_rejects_nonradial_branch():
    f = SparseFunction({(1, 1): 1.0, (1, 2): -1.0,
                        (1, 1, 1): 1.0, (1, 1, 2): 2.0})
    rep = hx_membership(f, (1,), 2)
    assert not rep.ok


def test_membership_rejects_nonproportional():
    f = SparseFunction({(1, 1): 1.0, (1, 2): -1.0,
                        (1, 1, 1): 2.0, (1, 1, 2): 2.0,
                        (1, 2, 1): -3.0, (1, 2, 2): -3.0})
    rep = hx_membership(f, (1,), 2)
    assert not rep.ok


def test_membership_radial_anchor():
    radial = level_indicator(2, 2) + level_indicator(0, 2).scaled(3.0)
    assert hx_membership(radial, None, 2).ok
    assert not hx_membership(SparseFunction.delta((1,)), None, 2).ok


def test_membership_invariant_under_J():
    rng = random.Random(23)
    for anchor in [(), (2,), (1, 2)]:
        for _ in range(20):
            f = random_hx_member(rng, anchor)
            assert hx_membership(f, anchor, 2).ok
            jf = J2.apply(f)
            rep = hx_membership(jf, anchor, 2)
            assert rep.ok, rep.reason


def member_from_levels(x, d, levels) -> SparseFunction:
    """The function equal to levels[n][i - 1] on level n of the subtree
    below x + (i,), for n < len(levels)."""
    entries = {}
    for i in range(1, d + 1):
        for y in subtree_vertices(x + (i,), len(levels) - 1, d):
            entries[y] = levels[len(y) - len(x) - 1][i - 1]
    return SparseFunction(entries)


GAUSSIAN = st.builds(complex, st.integers(-5, 5), st.integers(-5, 5))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from([2, 3, 4]), anchor_level=st.integers(0, 2),
       depth=st.integers(2, 3))
def test_branch_space_is_linear_and_J_invariant(data, d, anchor_level, depth):
    x = tuple(data.draw(st.lists(st.integers(1, d), min_size=anchor_level,
                                 max_size=anchor_level)))

    def zero_sum_levels():
        levels = []
        for _ in range(depth):
            v = data.draw(st.lists(GAUSSIAN, min_size=d - 1, max_size=d - 1))
            levels.append(v + [-sum(v)])
        return levels

    levels = zero_sum_levels()
    f = member_from_levels(x, d, levels)
    g = member_from_levels(x, d, zero_sum_levels())
    c = complex(data.draw(st.floats(-1e6, 1e6)), data.draw(st.floats(-1e6, 1e6)))
    for h in (f, g, f + g, f.scaled(c), g - f.scaled(c)):
        rep = hx_membership(h, x, d)
        assert rep.ok, rep.reason
    J = JacobiOperator(PAPER, TreeConfig(d))
    rep = hx_membership(J.apply(f), x, d)
    assert rep.ok, rep.reason
    exact = SparseFunction({y: exact_complex(int(v.real), int(v.imag))
                            for y, v in f.entries.items()})
    rep = hx_membership(J.apply(exact), x, d)
    assert rep.ok, rep.reason

    # one level of one branch moved off the zero sum
    n = data.draw(st.integers(0, depth - 1))
    b = data.draw(st.integers(1, d))
    nudged = [list(row) for row in levels]
    nudged[n][b - 1] += 1
    rep = hx_membership(member_from_levels(x, d, nudged), x, d)
    assert not rep.ok and "sum" in rep.reason
    # one vertex of one branch moved off the branch's level value
    n = data.draw(st.integers(1, depth - 1))
    y = x + (b,) + tuple(data.draw(st.lists(st.integers(1, d), min_size=n, max_size=n)))
    rep = hx_membership(f + SparseFunction({y: 1.0}), x, d)
    assert not rep.ok and "radial" in rep.reason


def test_branch_space_sums_of_members():
    # two members whose profiles are not proportional; each is accepted
    # alone, and so is their sum
    d2 = [member_from_levels((), 2, [[1.0, -1.0], [1.0, -1.0]]),
          member_from_levels((), 2, [[-1.0, 1.0], [1.0, -1.0]])]
    d3 = [member_from_levels((), 3, [[1.0, -1.0, 0.0], [1.0, -1.0, 0.0]]),
          member_from_levels((), 3, [[0.0, 1.0, -1.0], [0.0, 2.0, -2.0]])]
    for d, (f, g) in ((2, d2), (3, d3)):
        assert hx_membership(f, (), d).ok and hx_membership(g, (), d).ok
        rep = hx_membership(f + g, (), d)
        assert rep.ok, rep.reason
        rep = hx_membership(JacobiOperator(PAPER, TreeConfig(d)).apply(f + g), (), d)
        assert rep.ok, rep.reason


def test_membership_edge_inputs():
    rep = hx_membership(SparseFunction.delta((), kind=LambdaPatch(1, 2)), None, 2)
    assert (rep.ok, rep.reason) == (False, "not a rooted-tree function")
    # a deep radial test reads the listed entries, not the 2^40 vertices
    rep = hx_membership(SparseFunction({(1,) * 40: 1.0}), None, 2)
    assert not rep.ok and "level 40" in rep.reason
    # index 0 and an index above d are no vertices of the degree-2 tree
    for f in (SparseFunction({(1, 0): 1.0, (1, 1): -1.0}),
              SparseFunction({(1, 3): 1.0, (1, 1): -1.0})):
        rep = hx_membership(f, (1,), 2)
        assert not rep.ok and "outside 1..2" in rep.reason
    # (c, -c) at any scale, in float and in exact arithmetic
    for k in range(-40, 41):
        for c in (2.0 ** k, exact_complex(Fraction(2) ** k)):
            f = SparseFunction({(1, 1): c, (1, 2): -c, (1, 1, 1): c, (1, 1, 2): c,
                                (1, 2, 1): -c, (1, 2, 2): -c})
            rep = hx_membership(f, (1,), 2)
            assert rep.ok, rep.reason
