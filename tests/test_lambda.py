"""One-ended tree: propagation, certificate, eigenpairs, dimensions,
spectrum."""
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from treejacobi.cli import dump_json
from treejacobi.coefficients import CoefficientSequence
from treejacobi.errors import RealSpectralParameter
from treejacobi.exactnum import exact_complex, is_zero
from treejacobi.lambda_tree import (build_eigenpairs, dimension_audit,
                                    eigen_residual, esa_certificate,
                                    radial_propagate, spectrum_enumerate)
from treejacobi.oracle import build_lambda_patch_matrix, dense_eigensolve
from treejacobi.treecore import LambdaPatch, inner

PAPER = CoefficientSequence.paper_example()
CONSTANT = CoefficientSequence.constant(1)
GEOMETRIC = CoefficientSequence.geometric(1, Fraction(3, 2))
FAMILIES = [PAPER, CONSTANT, GEOMETRIC]


def test_propagate_initial_levels():
    vals = radial_propagate(2.0, 1j, 3, PAPER, 2)
    assert vals[0] == 2.0
    expected = (1j - PAPER.beta(0)) / PAPER.lam(0) * 2.0
    assert abs(vals[1] - expected) < 1e-12


def test_propagate_exact_satisfies_recurrence():
    # eigen equation at a level-k vertex, with v_k the per-vertex value:
    # z v_k = lam_{k-1} * (sum over d predecessors) + beta_k v_k
    #         + lam_k v_{k+1}
    z = exact_complex(1, 1)
    vals = radial_propagate(exact_complex(1), z, 10, PAPER, 2)
    d = 2
    for k in range(1, 10):
        lam_k = exact_complex(PAPER.lam_exact(k))
        beta_k = exact_complex(PAPER.beta_exact(k))
        lam_km1 = exact_complex(PAPER.lam_exact(k - 1))
        lhs = z * vals[k]
        rhs = beta_k * vals[k] + lam_k * vals[k + 1] \
            + lam_km1 * vals[k - 1] * exact_complex(d)
        assert is_zero(lhs - rhs), (k, lhs - rhs)


def test_certificate_nonzero_values():
    for coeffs in FAMILIES:
        cert = esa_certificate(coeffs, 2, 1j, 50)
        assert cert.all_nonzero
        assert cert.min_abs_p > 0


def test_certificate_rejects_real_z():
    with pytest.raises(RealSpectralParameter):
        esa_certificate(PAPER, 2, 2.0, 10)


def test_certificate_of_a_negative_k_max_is_refused():
    # it failed with "min() arg is an empty sequence"
    with pytest.raises(ValueError, match="k_max must be nonnegative, got -1"):
        esa_certificate(PAPER, 2, 1j, -1)


def test_certificate_free_family_floor():
    cert = esa_certificate(CONSTANT, 2, 1j, 50)
    assert cert.min_abs_p >= 0.4


def test_certificate_past_the_float_range_of_d_to_the_k():
    # the radial level values grow like 2^k and leave the float range near
    # k = 1024, their squares near k = 512, and p_k = 2^(-k/2) times them
    # near k = 2048; the masses and |p_k| read inf from there on, and JSON
    # writes inf as null
    cert = esa_certificate(CONSTANT, 2, 1j, 2100)
    assert cert.all_nonzero and cert.min_abs_p > 0
    assert cert.level_masses[1000:] == [math.inf] * 1101
    obj = json.loads(dump_json(vars(cert) | {"z": [cert.z.real, cert.z.imag]}))
    assert obj["level_masses"] == [m if math.isfinite(m) else None
                                   for m in cert.level_masses]
    assert (obj["z"], obj["k_max"], obj["all_nonzero"]) == ([0.0, 1.0], 2100, True)
    assert obj["min_abs_p"] == cert.min_abs_p


def test_smallest_eigenpair():
    pairs = build_eigenpairs(1, PAPER, 2)
    assert len(pairs) == 1
    p = pairs[0]
    assert p.eigenvalue == pytest.approx(PAPER.beta(0))
    assert p.eigenfunction.value((1,)) == pytest.approx(1.0)
    assert p.eigenfunction.value((2,)) == pytest.approx(-1.0)
    assert p.eigenfunction.value(()) == 0


def test_eigenpair_counts():
    for n, d in [(3, 3), (2, 2), (4, 2)]:
        coeffs = CONSTANT
        assert len(build_eigenpairs(n, coeffs, d)) == n * (d - 1)


def test_eigen_residuals_all_families():
    for coeffs in FAMILIES:
        for n, d in [(2, 2), (4, 2), (6, 2), (2, 3), (3, 3)]:
            for pair in build_eigenpairs(n, coeffs, d):
                r = eigen_residual(pair, coeffs, d)
                assert r <= 1e-10 * pair.eigenfunction.norm(), (n, d, pair.eigenvalue)


def test_eigenfunction_vanishes_at_apex_and_off_branches():
    pairs = build_eigenpairs(3, PAPER, 3)
    for p in pairs:
        f = p.eigenfunction
        assert f.value(()) == 0
        used = {w[0] for w in f.entries}
        assert used == {1, p.branch}


def test_eigenfunction_gram_full_rank():
    for coeffs in FAMILIES:
        for n, d in [(3, 2), (4, 2), (2, 3)]:
            pairs = build_eigenpairs(n, coeffs, d)
            fs = [p.eigenfunction for p in pairs]
            norms = [f.norm() for f in fs]
            G = np.array([[complex(inner(a, b)) / (na * nb)
                           for b, nb in zip(fs, norms)]
                          for a, na in zip(fs, norms)])
            s = np.linalg.svd(G, compute_uv=False)
            assert s[-1] / s[0] > 1e-8


def test_dimension_audit_small_cases():
    a = dimension_audit(1, 2)
    assert (a.dim_Mx, a.dim_Vx, a.radial_count) == (3, 1, 2)
    a = dimension_audit(2, 2)
    assert (a.dim_Mx, a.dim_Vx) == (7, 4)
    a = dimension_audit(3, 3)
    assert a.dim_Vx == 36


@pytest.mark.parametrize("call, message", [
    (lambda: radial_propagate(1, 1j, -1, PAPER, 2), "k_max must be nonnegative"),
    (lambda: dimension_audit(0, 2), "n must be at least 1"),
    (lambda: spectrum_enumerate(PAPER, 2, 0), "n_max must be at least 1"),
], ids=["propagate-k-max", "audit-n", "spectrum-n-max"])
def test_sizes_below_their_range_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_dimension_audit_refuses_a_degree_below_two():
    # d = 1 divided by d - 1 = 0
    with pytest.raises(ValueError, match="branching degree must be at least 2, got 1"):
        dimension_audit(1, 1)


def test_dimension_identity_full_range():
    for n in range(1, 13):
        for d in range(2, 6):
            assert dimension_audit(n, d).identity_holds


def test_spectrum_enumerate_basic():
    s = spectrum_enumerate(PAPER, 2, 1)
    assert len(s.points) == 1
    assert s.points[0] == pytest.approx(PAPER.beta(0))
    s = spectrum_enumerate(CONSTANT, 2, 6)
    # beta = 0 makes the root set symmetric under negation
    for t in s.points:
        assert any(abs(t + u) < 1e-8 for u in s.points)


def test_spectrum_roots_match_dense_block():
    from treejacobi.oracle import build_radial_block
    from treejacobi.orthopoly import poly_roots
    for coeffs in FAMILIES:
        for n in (3, 5):
            roots = poly_roots(coeffs, math.sqrt(2), n)
            vals, _ = dense_eigensolve(build_radial_block(coeffs, 2, 0, n))
            assert np.max(np.abs(np.sort(roots) - np.sort(vals))) < 1e-8


def test_eigenvalues_reappear_in_dense_patch_section():
    # project the dense patch matrix onto the span of the built
    # eigenfunctions: its eigenvalues are exactly the roots
    n, d = 3, 2
    pairs = build_eigenpairs(n, PAPER, d)
    T = build_lambda_patch_matrix(PAPER, d, n)
    vecs = []
    for p in pairs:
        v = np.zeros(T.size)
        for w, val in p.eigenfunction.entries.items():
            v[T.index[w]] = val.real if isinstance(val, complex) else float(val)
        vecs.append(v / np.linalg.norm(v))
    B = np.array(vecs).T  # columns span V
    Q, _ = np.linalg.qr(B)
    M = Q.T @ T.matrix @ Q
    got = np.sort(np.linalg.eigvalsh(M))
    from treejacobi.orthopoly import poly_roots
    want = np.sort(poly_roots(PAPER, math.sqrt(2), n))
    # each root appears with multiplicity d-1 = 1 here
    assert np.max(np.abs(got - want)) < 1e-8
