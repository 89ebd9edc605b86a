"""The one-ended homogeneous tree: radial solution propagation, the
essential-selfadjointness certificate, finitely supported eigenfunctions
from polynomial roots, dimension counts, and spectrum enumeration."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List

from .coefficients import CoefficientSequence, TreeConfig
from .errors import RecurrenceOverflow
from .exactnum import matching_sqrt
from .operator import JacobiOperator
from .orthopoly import DeficiencyContext, PolyCache, poly_roots
from .treecore import LambdaPatch, SparseFunction, subtree_size, subtree_vertices


def radial_propagate(v0, z, k_max: int, coeffs: CoefficientSequence,
                     d: int) -> List:
    """Level values of the radial solution below one vertex: the value on
    level k is d^(k/2) * p_k(z) * v0, the solution anchored at level -1 at
    weights (1, d) (PolyCache.solution).

    Any square-summable solution of the eigenvalue equation restricted to
    the subtree under a vertex is forced into this form."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    cache = PolyCache(coeffs, matching_sqrt(d, z, v0), z)
    return [v * v0 for v in cache.levels(-1, (1, d), 0, k_max)]


@dataclass
class EsaCertificate:
    z: complex
    k_max: int
    min_abs_p: float
    level_masses: List[float]  # d^k * |p_k(z)|^2, the l2 mass per unit vertex
    all_nonzero: bool


def esa_certificate(coeffs: CoefficientSequence, d: int, z,
                    k_max: int) -> EsaCertificate:
    """Evidence that the one-ended operator has no square-summable
    eigenvalue-equation solution at non-real z: every p_k(z) is nonzero
    (all roots are real), so any solution is a nonzero multiple of the
    radial profile on each subtree — and each level of the tree has
    infinitely many vertices carrying that mass.  The masses are the
    squared radial level values (radial_propagate).  Each |p_k| and each
    mass reads inf from the level where its value leaves the float range:
    such a value is not zero."""
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    ctx = DeficiencyContext(coeffs, d, complex(z))
    abs_p = _in_the_float_range(ctx.values(), k_max, abs)
    masses = _in_the_float_range(ctx.solution(-1, (1, d), 0), k_max,
                                 lambda v: v.real * v.real + v.imag * v.imag)
    return EsaCertificate(ctx.z, k_max, min(abs_p), masses,
                          all(a > 0 for a in abs_p))


def _in_the_float_range(values, k_max: int, measure) -> List[float]:
    """measure(v) of levels 0..k_max of values, inf from the first level
    whose value left the float range."""
    out: List[float] = []
    try:
        for v in itertools.islice(values, k_max + 1):
            out.append(measure(v))
    except RecurrenceOverflow:
        out += [math.inf] * (k_max + 1 - len(out))
    return out


@dataclass
class EigenPair:
    """Finitely supported eigenfunction of the one-ended operator.

    Supported on two of the d branches below the apex of a level-n patch:
    the radial profile d^(k/2) p_k(t) on branch 1, negated on branch i.
    Vanishes at the apex, so the apex equation holds with eigenvalue t."""

    eigenvalue: float
    eigenfunction: SparseFunction
    apex_level: int
    branch: int
    root_index: int


def build_eigenpairs(n: int, coeffs: CoefficientSequence, d: int) -> List[EigenPair]:
    """All n*(d-1) eigenpairs of a level-n patch: one per (root t_j of p_n,
    branch i in 2..d), ordered by (root index, branch)."""
    if n < 1:
        raise ValueError("the apex level must be at least 1")
    patch = LambdaPatch(n, d)
    roots = poly_roots(coeffs, math.sqrt(d), n)
    out: List[EigenPair] = []
    for j, t in enumerate(roots):
        profile = [v.real for v in radial_propagate(1, complex(t), n - 1, coeffs, d)]
        plus = {w: profile[patch.level(w)] for w in subtree_vertices((1,), n - 1, d)}
        for i in range(2, d + 1):
            entries = dict(plus)
            for w in subtree_vertices((i,), n - 1, d):
                entries[w] = -profile[patch.level(w)]
            out.append(EigenPair(float(t), SparseFunction(entries, patch),
                                 n, i, j))
    return out


def eigen_residual(pair: EigenPair, coeffs: CoefficientSequence,
                   d: int) -> float:
    """||J f - t f|| over the patch plus the virtual successor ring."""
    patch = LambdaPatch(pair.apex_level, d)
    J = JacobiOperator(coeffs, TreeConfig(d), patch=patch)
    diff = J.apply(pair.eigenfunction) - pair.eigenfunction.scaled(pair.eigenvalue)
    return diff.norm()


@dataclass
class DimensionAudit:
    n: int
    d: int
    dim_Mx: int
    dim_Vx: int
    dim_Vx_sum_form: int
    radial_count: int

    @property
    def identity_holds(self) -> bool:
        return (self.dim_Mx == self.dim_Vx + self.radial_count
                and self.dim_Vx == self.dim_Vx_sum_form)


def dimension_audit(n: int, d: int) -> DimensionAudit:
    """Both closed forms of the eigenfunction-span dimension below a level-n
    apex, and the patch dimension they decompose:

    dim M = 1 + d + ... + d^n,  dim V = dim M - (n + 1),
    dim V = (d - 1) * sum_{k=1..n} k * d^(n-k)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    dim_m = subtree_size(n, d)  # refuses d < 2
    dim_v = dim_m - (n + 1)
    dim_v_sum = (d - 1) * sum(k * d ** (n - k) for k in range(1, n + 1))
    return DimensionAudit(n, d, dim_m, dim_v, dim_v_sum, n + 1)


ROOT_MERGE_TOL = 1e-10


@dataclass
class SpectrumApproximation:
    points: List[float]
    per_degree_counts: List[int]


def spectrum_enumerate(coeffs: CoefficientSequence, d: int,
                       n_max: int) -> SpectrumApproximation:
    """Finite approximation of the (pure point) spectrum: the union of the
    roots of p_1..p_{n_max}, merged within an absolute tolerance, sorted."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    scale = math.sqrt(d)
    all_roots: List[float] = []
    counts: List[int] = []
    for n in range(1, n_max + 1):
        r = poly_roots(coeffs, scale, n)
        counts.append(len(r))
        all_roots.extend(float(t) for t in r)
    all_roots.sort()
    merged: List[float] = []
    for t in all_roots:
        if merged and abs(t - merged[-1]) <= ROOT_MERGE_TOL:
            continue
        merged.append(t)
    return SpectrumApproximation(merged, counts)
