"""Brute-force validators: dense finite sections of the operators, their
eigensolves, and raw series term lists for auditing classifier verdicts."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from .coefficients import CoefficientSequence
from .errors import ConvergenceFailure, PatchTooLarge
from .orthopoly import PolyCache, _tridiagonal
from .treecore import Address, LambdaPatch, subtree_size, subtree_vertices

if TYPE_CHECKING:
    import numpy as np

MAX_DENSE_ROWS = 4096


@dataclass
class DenseTruncation:
    """Dense symmetric finite section of one of the operators.

    kind is ("gamma_patch", depth), ("radial_block", offset, size), or
    ("lambda_patch", apex_level).  Rows of boundary-layer vertices simply
    omit couplings that leave the section (Dirichlet-style); cross-checks
    restrict to interior vertices where no convention leaks in."""

    kind: Tuple
    matrix: np.ndarray
    addresses: List[Address]
    index: Dict[Address, int]

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def interior(self) -> List[Address]:
        """Vertices whose full neighborhood lies inside the section."""
        if self.kind[0] == "gamma_patch":
            depth = self.kind[1]
            return [x for x in self.addresses if len(x) < depth]
        if self.kind[0] == "lambda_patch":
            # the apex couples upward to the virtual successor, outside
            return [x for x in self.addresses if x != ()]
        # a radial block: the last row couples down, and past level 0 the first up
        _, offset, n = self.kind
        return [(j,) for j in range(1 if offset else 0, n - 1)]


def _check_rows(count: int) -> None:
    if count > MAX_DENSE_ROWS:
        raise PatchTooLarge(
            f"dense section would have {count} rows, over the cap of {MAX_DENSE_ROWS}")


def _tree_section(coeffs: CoefficientSequence, d: int, depth: int,
                  level: Callable[[Address], int]):
    """Matrix, sorted addresses and index of the section on all words of
    length at most depth, word x sitting on tree level level(x): beta on
    the diagonal, lam_n on each edge between levels n and n + 1.  The row
    count is checked, in closed form, before any word is built."""
    import numpy as np

    _check_rows(subtree_size(depth, d))
    addresses = sorted(subtree_vertices((), depth, d))
    index = {x: i for i, x in enumerate(addresses)}
    M = np.zeros((len(addresses), len(addresses)))
    for x, i in index.items():
        n = level(x)
        M[i, i] = coeffs.beta(n)
        if len(x) < depth:
            lam = coeffs.lam(min(n, level(x + (1,))))
            for c in range(1, d + 1):
                j = index[x + (c,)]
                M[i, j] = lam
                M[j, i] = lam
    return M, addresses, index


def build_gamma_patch(coeffs: CoefficientSequence, d: int,
                      depth: int) -> DenseTruncation:
    """Finite section of the rooted-tree operator on all vertices to the
    given depth.  Built symmetrically from parent-child pairs."""
    return DenseTruncation(("gamma_patch", depth),
                           *_tree_section(coeffs, d, depth, len))


def build_radial_block(coeffs: CoefficientSequence, d: int, offset: int,
                       size: int) -> DenseTruncation:
    """The size-by-size tridiagonal block starting at beta_offset, with
    off-diagonal sqrt(d) * lam (orthopoly._tridiagonal)."""
    import numpy as np

    _check_rows(size)
    diag, off = _tridiagonal(coeffs, math.sqrt(d), offset, size)
    M = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    addresses = [(j,) for j in range(size)]
    index = {x: i for i, x in enumerate(addresses)}
    return DenseTruncation(("radial_block", offset, size), M, addresses, index)


def build_lambda_patch_matrix(coeffs: CoefficientSequence, d: int,
                              apex_level: int) -> DenseTruncation:
    """Finite section of the one-ended operator on a level-`apex_level`
    patch; the apex's coupling to its virtual successor is omitted."""
    patch = LambdaPatch(apex_level, d)
    return DenseTruncation(("lambda_patch", apex_level),
                           *_tree_section(coeffs, d, apex_level, patch.level))


def dense_eigensolve(T: DenseTruncation) -> Tuple[np.ndarray, np.ndarray]:
    """Full spectrum of the section, ascending, with eigenvectors in
    columns."""
    import numpy as np

    try:
        vals, vecs = np.linalg.eigh(T.matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolve failed: {exc}") from exc
    return vals, vecs


def series_oracle(coeffs: CoefficientSequence, d: int, z,
                  n_max: int) -> Tuple[List[float], List[float]]:
    """Raw term lists |p_n(z)|^2 and |q_n(z)|^2 for the sqrt(d)-scaled
    recurrence, for independent inspection of classifier verdicts."""
    table = PolyCache(coeffs, math.sqrt(d), complex(z))
    table.ensure(n_max - 1)
    return [abs(p) ** 2 for p in table.p], [abs(q) ** 2 for q in table.q]
