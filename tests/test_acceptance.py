"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines."""
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from treejacobi.boundary import (bx_element, inner_boundary, integrate,
                                 kernel_by_class, paired_step, poisson_kernel,
                                 reproducing_check, u_isometry_basis,
                                 StepFunction)
from treejacobi.coefficients import CoefficientSequence, TreeConfig
from treejacobi.deficiency import (DeficiencyContext, DeficiencyElement,
                                   classify, classify_by_series, element_max_abs,
                                   element_residual)
from treejacobi.exactnum import exact_complex, exact_sqrt, is_zero
from treejacobi.lambda_tree import (build_eigenpairs, dimension_audit,
                                    eigen_residual)
from treejacobi.operator import (JacobiOperator, hx_membership, moments,
                                 radial_average_E)
from treejacobi.oracle import (build_gamma_patch, build_radial_block,
                               dense_eigensolve)
from treejacobi.orthopoly import (alpha_series, alpha_sq_partial,
                                  compute_polys, poly_roots, sum_series,
                                  wronskian_residual, wronskian_scale)
from treejacobi.treecore import (SparseFunction, inner, subtree_vertices)

PAPER = CoefficientSequence.paper_example()
FAMILIES = {
    "paper": PAPER,
    "constant": CoefficientSequence.constant(1),
    "geometric": CoefficientSequence.geometric(1, Fraction(3, 2)),
    "power": CoefficientSequence.power(1, 1),
}


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_worked_example_reproduction():
    start = time.perf_counter()
    table = compute_polys(PAPER, exact_complex(1), exact_complex(0), 200)
    alternation = all(table.p[n] == exact_complex((-1) ** n) for n in range(201))

    scaled = classify_by_series(PAPER, 2, z=1j)
    both_converged = (scaled.series_p_status == "converged"
                      and scaled.series_q_status == "converged")
    from treejacobi.oracle import series_oracle
    p_terms, q_terms = series_oracle(PAPER, 2, 1j, 80)
    geometric_decay = all(
        terms[n + 8] <= 0.9 * terms[n] + 1e-300
        for terms in (p_terms, q_terms) for n in range(8, 70))

    # the unscaled verdict is the alternation argument, not a finite series
    classical = classify(PAPER, 2, z=0j, scale=1.0)
    classical_series = classify_by_series(PAPER, 2, z=0j, scale=1.0, n_max=1000)
    verdicts = (classical.verdict == "essentially_selfadjoint"
                and classical.criterion == "alternation"
                and classical_series.verdict == "inconclusive"
                and scaled.verdict == "not_essentially_selfadjoint")
    # the criterion gives the scaled verdict from the family's parameters too
    criteria = classify(PAPER, 2, z=1j).verdict == scaled.verdict
    elapsed = time.perf_counter() - start
    ok = alternation and both_converged and geometric_decay and verdicts \
        and criteria and elapsed < 5.0
    report(1, "worked-example reproduction", ok,
           f"alternation={alternation} converged={both_converged} "
           f"decay={geometric_decay} verdicts={verdicts} criteria={criteria} "
           f"time={elapsed:.2f}s")


def test_criterion_2_wronskian_identity():
    worst_exact = 0
    worst_float = 0.0
    exact_zs = [exact_complex(0), exact_complex(0, 1), exact_complex(1, 1)]
    float_zs = [0j, 1j, 1 + 1j]
    for coeffs in FAMILIES.values():
        for z in exact_zs:
            t = compute_polys(coeffs, exact_sqrt(2), z, 200)
            worst_exact = max(worst_exact, max(wronskian_residual(t)))
        for z in float_zs:
            t = compute_polys(coeffs, math.sqrt(2), z, 100)
            rel = max(r / s for r, s in
                      zip(wronskian_residual(t), wronskian_scale(t)))
            worst_float = max(worst_float, rel)
    ok = worst_exact == 0 and worst_float <= 1e-9
    report(2, "Wronskian identity", ok,
           f"exact_max={worst_exact} float_rel_max={worst_float:.3e}")


def test_criterion_3_deficiency_construction():
    ctx = DeficiencyContext(PAPER, 2, 1j)
    rng = random.Random(31)
    elements = [DeficiencyElement(None, (1.0,), 1j),
                DeficiencyElement((), (1.0, -1.0), 1j)]
    for anchor in [(), (1,), (2,), (2, 1), (1, 2, 2)]:
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        elements.append(DeficiencyElement(anchor, (a, -a), 1j))
    worst = 0.0
    for elem in elements:
        r = element_residual([elem], ctx, 25)
        m = element_max_abs([elem], ctx, 25)
        worst = max(worst, r / m)

    ctx_exact = DeficiencyContext(PAPER, 2, exact_complex(0, 1))
    sums_vanish = True
    for anchor in [(), (1,), (2, 1)]:
        elem = DeficiencyElement(
            anchor, (exact_complex(2),
                     exact_complex(-2)), exact_complex(0, 1))
        f = elem.materialize(ctx_exact, len(anchor) + 5)
        level_sums = {}
        for x, v in f.entries.items():
            level_sums[len(x)] = level_sums.get(
                len(x), exact_complex(0)) + v
        sums_vanish &= all(is_zero(s) for s in level_sums.values())
    ok = worst <= 1e-10 and sums_vanish
    report(3, "deficiency construction", ok,
           f"max_rel_residual={worst:.3e} exact_level_sums_vanish={sums_vanish}")


def test_criterion_4_norm_agreement():
    # exact: bitwise equality of the two routes
    ctx_exact = DeficiencyContext(PAPER, 2, exact_complex(0, 1))
    exact_ok = True
    for k, L in [(0, 12), (1, 12), (2, 10)]:
        if k == 0:
            direct = None
            for n in range(L):
                t = ctx_exact.f_zero(n).abs2() * (2 ** n)
                direct = t if direct is None else direct + t
        else:
            direct = None
            for n in range(k, k + L):
                t = ctx_exact.f_anchored(k - 1, n).abs2() * (2 ** (n - k))
                direct = t if direct is None else direct + t
        partial = alpha_sq_partial(PAPER, 2, exact_complex(0, 1), k, L)
        exact_ok &= (direct == partial)

    ctx = DeficiencyContext(PAPER, 2, 1j)
    float_worst = 0.0
    for k, L in [(0, 20), (1, 20), (3, 18)]:
        if k == 0:
            direct = sum(abs(complex(ctx.f_zero(n))) ** 2 * 2 ** n
                         for n in range(L))
        else:
            direct = sum(abs(complex(ctx.f_anchored(k - 1, n))) ** 2
                         * 2 ** (n - k) for n in range(k, k + L))
        partial = alpha_sq_partial(PAPER, 2, 1j, k, L)
        float_worst = max(float_worst, abs(direct - partial) / abs(partial))
    ok = exact_ok and float_worst <= 1e-12
    report(4, "norm agreement", ok,
           f"exact_bitwise={exact_ok} float_rel_max={float_worst:.3e}")


def test_criterion_5_boundary_machinery():
    d = 2
    ctx = DeficiencyContext(PAPER, d, 1j)
    alpha = alpha_series(PAPER, d, 1j, 7)

    measure_ok = all(
        integrate(StepFunction.indicator(d, x, 1)) == Fraction(1, d ** len(x))
        for x in [(), (1,), (2, 1), (1, 1, 2, 2)])

    rng = random.Random(41)
    anchors = [(), (1,), (2,), (1, 2)]
    bx_ok = True
    for a, b in itertools.combinations(anchors, 2):
        va, vb = rng.uniform(-2, 2), rng.uniform(-2, 2)
        bx_ok &= inner_boundary(bx_element(d, a, [va, -va]),
                                bx_element(d, b, [vb, -vb])) == 0

    isometry_worst = 0.0
    for x in [(), (1,), (2, 1), (1, 2, 2)]:
        F, _ = u_isometry_basis(x, d, alpha)
        isometry_worst = max(isometry_worst,
                             abs(F.norm() - alpha.alpha(len(x))))

    reproducing_worst = 0.0
    all_anchors = [None] + [x for n in range(4)
                            for x in itertools.product((1, 2), repeat=n)]
    for anchor in all_anchors:
        if anchor is None:
            elem = DeficiencyElement(None, (0.7 - 0.2j,), 1j)
            ys = [y for n in range(6)
                  for y in itertools.product((1, 2), repeat=n)]
        else:
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            elem = DeficiencyElement(anchor, (a, -a), 1j)
            ys = [anchor + t for n in range(1, 6 - len(anchor))
                  for t in itertools.product((1, 2), repeat=n)]
        for y in ys:
            chk = reproducing_check(elem, y, ctx, alpha)
            scale = max(1.0, abs(complex(elem.value_at(y, ctx))))
            reproducing_worst = max(reproducing_worst,
                                    chk.residual_plain / scale)

    class_ok = True
    for n in range(5):
        for y in itertools.product((1, 2), repeat=n):
            for values in kernel_by_class(poisson_kernel(y, ctx, alpha)).values():
                class_ok &= len(values) == 1

    ok = (measure_ok and bx_ok and isometry_worst <= 1e-9
          and reproducing_worst <= 1e-7 and class_ok)
    report(5, "boundary machinery", ok,
           f"measure={measure_ok} bx_orth={bx_ok} "
           f"isometry_dev={isometry_worst:.3e} "
           f"reproducing_max={reproducing_worst:.3e} classes={class_ok}")


def test_criterion_6_lambda_spectrum():
    start = time.perf_counter()
    families = [FAMILIES["paper"], FAMILIES["constant"], FAMILIES["geometric"]]
    counts_ok = True
    residual_worst = 0.0
    gram_worst = 1.0
    for coeffs in families:
        for d in (2, 3):
            for n in range(1, 7):
                pairs = build_eigenpairs(n, coeffs, d)
                counts_ok &= len(pairs) == n * (d - 1)
                for p in pairs:
                    r = eigen_residual(p, coeffs, d) / p.eigenfunction.norm()
                    residual_worst = max(residual_worst, r)
                if len(pairs) > 1:
                    fs = [p.eigenfunction for p in pairs]
                    norms = [f.norm() for f in fs]
                    G = np.array([[complex(inner(a, b)) / (na * nb)
                                   for b, nb in zip(fs, norms)]
                                  for a, na in zip(fs, norms)])
                    s = np.linalg.svd(G, compute_uv=False)
                    gram_worst = min(gram_worst, s[-1] / s[0])

    dims_ok = all(dimension_audit(n, d).identity_holds
                  for n in range(1, 13) for d in range(2, 6))

    roots_worst = 0.0
    for coeffs in families:
        for d in (2, 3):
            for n in (3, 5, 6):
                roots = poly_roots(coeffs, math.sqrt(d), n)
                vals, _ = dense_eigensolve(build_radial_block(coeffs, d, 0, n))
                roots_worst = max(roots_worst,
                                  float(np.max(np.abs(np.sort(roots)
                                                      - np.sort(vals)))))
    elapsed = time.perf_counter() - start
    ok = (counts_ok and residual_worst <= 1e-10 and gram_worst > 1e-8
          and dims_ok and roots_worst <= 1e-8 and elapsed < 30.0)
    report(6, "one-ended spectrum", ok,
           f"counts={counts_ok} residual_max={residual_worst:.3e} "
           f"gram_min_ratio={gram_worst:.3e} dims={dims_ok} "
           f"roots_dev={roots_worst:.3e} time={elapsed:.2f}s")


def test_criterion_7_oracle_coherence():
    rng = random.Random(53)
    J = JacobiOperator(PAPER, TreeConfig(2))
    T = build_gamma_patch(PAPER, 2, 5)
    interior = T.interior()
    dense_ok = True
    for _ in range(100):
        x = interior[rng.randrange(len(interior))]
        col = T.matrix[:, T.index[x]]
        applied = J.apply(SparseFunction.delta(x))
        dense_ok &= all(col[i] == applied.value(y)
                        for y, i in T.index.items())

    m_matrix = moments(J, 10, route="matrix")
    m_tree = moments(J, 10, route="tree")
    b0, l0 = PAPER.beta_exact(0), PAPER.lam_exact(0)
    moments_ok = (m_matrix == m_tree and m_matrix[0] == 1
                  and m_matrix[1] == b0
                  and m_matrix[2] == b0 ** 2 + 2 * l0 ** 2)
    ok = dense_ok and moments_ok
    report(7, "oracle coherence", ok,
           f"dense_vs_sparse={dense_ok} moments_exact={moments_ok}")


def test_criterion_8_operator_algebra():
    rng = random.Random(61)
    J = JacobiOperator(PAPER, TreeConfig(2))

    def random_sparse():
        entries = {}
        for _ in range(6):
            lvl = rng.randrange(5)
            addr = tuple(rng.randrange(1, 3) for _ in range(lvl))
            entries[addr] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return SparseFunction(entries)

    e_worst = 0.0
    for _ in range(100):
        f, g = random_sparse(), random_sparse()
        ef = radial_average_E(f, 2)
        idem = (radial_average_E(ef, 2) - ef).norm() / max(1.0, ef.norm())
        sym = abs(complex(inner(ef, g)) - complex(inner(f, radial_average_E(g, 2))))
        sym /= max(1.0, f.norm() * g.norm())
        contract = max(0.0, ef.norm() - f.norm())
        e_worst = max(e_worst, idem, sym, contract)

    hx_ok = True
    for anchor in [(), (1,), (2, 1)]:
        for _ in range(20):
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            profile = [1.0] + [rng.uniform(-2, 2) for _ in range(2)]
            entries = {}
            for i in (1, 2):
                sign = c if i == 1 else -c
                child = anchor + (i,)
                for y in subtree_vertices(child, 2, 2):
                    entries[y] = sign * profile[len(y) - len(child)]
            f = SparseFunction(entries)
            hx_ok &= hx_membership(f, anchor, 2).ok
            hx_ok &= hx_membership(J.apply(f), anchor, 2).ok
    ok = e_worst <= 1e-12 and hx_ok
    report(8, "operator algebra", ok,
           f"E_max_residual={e_worst:.3e} hx_invariant={hx_ok}")
