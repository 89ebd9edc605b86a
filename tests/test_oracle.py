"""Dense finite sections and raw series terms as brute-force validators."""
import math
import random

import numpy as np
import pytest

from treejacobi.coefficients import CoefficientSequence, TreeConfig
from treejacobi import oracle
from treejacobi.errors import PatchTooLarge
from treejacobi.operator import JacobiOperator
from treejacobi.oracle import (build_gamma_patch, build_lambda_patch_matrix,
                               build_radial_block, dense_eigensolve,
                               series_oracle)
from treejacobi.orthopoly import poly_roots
from treejacobi.treecore import LambdaPatch, SparseFunction

PAPER = CoefficientSequence.paper_example()
CONSTANT = CoefficientSequence.constant(1)


def test_gamma_patch_small_matrix():
    T = build_gamma_patch(PAPER, 2, 1)
    b0, b1, l0 = PAPER.beta(0), PAPER.beta(1), PAPER.lam(0)
    want = np.array([[b0, l0, l0], [l0, b1, 0.0], [l0, 0.0, b1]])
    assert T.addresses == [(), (1,), (2,)]
    assert np.array_equal(T.matrix, want)


def test_radial_block_matches_scaled_entries():
    T = build_radial_block(PAPER, 2, 0, 2)
    s = math.sqrt(2)
    assert T.matrix[0, 0] == PAPER.beta(0)
    assert T.matrix[0, 1] == s * PAPER.lam(0)
    assert T.matrix[1, 1] == PAPER.beta(1)


def test_sections_exactly_symmetric():
    for T in (build_gamma_patch(PAPER, 2, 3),
              build_radial_block(PAPER, 2, 1, 6),
              build_lambda_patch_matrix(PAPER, 2, 3)):
        assert np.array_equal(T.matrix, T.matrix.T)


def test_row_cap():
    with pytest.raises(PatchTooLarge):
        build_gamma_patch(PAPER, 2, 13)


@pytest.mark.parametrize("d, depth", [(2, -1), (1, 3)], ids=["negative-depth", "degree-one"])
def test_gamma_patch_edge_inputs_are_value_errors(d, depth):
    with pytest.raises(ValueError):
        build_gamma_patch(CONSTANT, d, depth)


def test_tree_sections_refused_before_enumerating(monkeypatch):
    # 2^13 - 1 rows: the closed-form count refuses before any word is built
    def no_walk(*args):
        raise AssertionError("the section enumerated its vertices")
    monkeypatch.setattr(oracle, "subtree_vertices", no_walk)
    with pytest.raises(PatchTooLarge):
        build_gamma_patch(CONSTANT, 2, 12)
    with pytest.raises(PatchTooLarge):
        build_lambda_patch_matrix(CONSTANT, 2, 12)


def test_dense_agrees_with_sparse_apply_interior():
    rng = random.Random(17)
    J = JacobiOperator(PAPER, TreeConfig(2))
    T = build_gamma_patch(PAPER, 2, 5)
    interior = T.interior()
    for _ in range(100):
        x = interior[rng.randrange(len(interior))]
        col = T.matrix[:, T.index[x]]
        applied = J.apply(SparseFunction.delta(x))
        for y, i in T.index.items():
            assert col[i] == applied.value(y), (x, y)


def test_lambda_dense_agrees_with_sparse_apply():
    rng = random.Random(19)
    patch = LambdaPatch(3, 2)
    J = JacobiOperator(PAPER, TreeConfig(2), patch=patch)
    T = build_lambda_patch_matrix(PAPER, 2, 3)
    interior = T.interior()
    for _ in range(30):
        w = interior[rng.randrange(len(interior))]
        applied = J.apply(SparseFunction.delta(w, kind=patch))
        col = T.matrix[:, T.index[w]]
        for y, i in T.index.items():
            assert col[i] == applied.value(y), (w, y)


@pytest.mark.parametrize("offset", [0, 1, 3])
def test_radial_block_interior_rows_are_whole_rows_of_the_radial_matrix(offset):
    # an interior row couples only to rows inside the block; a block that
    # starts below level 0 leaves its first row's upward entry outside
    size = 5
    T = build_radial_block(PAPER, 2, offset, size)
    full = build_radial_block(PAPER, 2, 0, offset + size + 1).matrix
    rows = [j for (j,) in T.interior()]
    assert rows == list(range(1 if offset else 0, size - 1))
    for j in rows:
        inside = full[offset + j, offset:offset + size]
        assert np.array_equal(inside, T.matrix[j])
        assert np.count_nonzero(full[offset + j]) == np.count_nonzero(inside)


def test_one_by_one_block():
    T = build_radial_block(PAPER, 2, 0, 1)
    vals, _ = dense_eigensolve(T)
    assert vals[0] == PAPER.beta(0)


def test_block_eigenvalues_are_poly_roots():
    for coeffs in (PAPER, CONSTANT):
        for n in (2, 4, 7):
            T = build_radial_block(coeffs, 2, 0, n)
            vals, vecs = dense_eigensolve(T)
            roots = poly_roots(coeffs, math.sqrt(2), n)
            assert np.max(np.abs(np.sort(vals) - np.sort(roots))) < 1e-8
            # residual bound of the eigensolve itself
            for j in range(n):
                r = np.linalg.norm(T.matrix @ vecs[:, j] - vals[j] * vecs[:, j])
                assert r <= 1e-9 * np.linalg.norm(T.matrix, 2)


def test_series_oracle_terms():
    p_terms, q_terms = series_oracle(PAPER, 2, 1j, 60)
    assert p_terms[0] == 1.0
    assert q_terms[0] == 0.0
    # geometric decay of the worked example: terms bounded by C * 2^-n
    C = max(t * 2 ** n for n, t in enumerate(p_terms))
    assert all(t <= C * 2 ** -n + 1e-30 for n, t in enumerate(p_terms))
    # determinate family: partial sums keep growing
    p_free, _ = series_oracle(CONSTANT, 2, 1j, 400)
    assert sum(p_free) > 100


def test_series_oracle_single_term():
    p_terms, q_terms = series_oracle(PAPER, 2, 1j, 1)
    assert p_terms == [1.0] and q_terms == [0.0]
