"""Deficiency-space basis functions on the rooted tree, their norms, the
projections onto the branch spaces, and the selfadjointness classifier."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .coefficients import CoefficientSequence, TreeConfig, _criterion
from .exactnum import conj, is_exact, matching_sqrt, sums_to_zero
from .operator import JacobiOperator
from .orthopoly import (SERIES_N_MAX, SERIES_TOL, AlphaTable, DeficiencyContext, PolyCache,
                        check_recurrence_inputs, check_series_limits, float_scale,
                        sum_square_series)
from .treecore import (GAMMA, Address, SparseFunction, check_budget,
                       format_address, subtree_size, subtree_vertices)


def f_value(kind: str, k: int, n: int, ctx: DeficiencyContext):
    """Scalar value of a basis function on level n of its support.

    kind "zero": the radial function, value p_n/d^(n/2) (k ignored).
    kind "anchored": anchor at level k, value defined for n >= k + 1."""
    if kind == "zero":
        return ctx.f_zero(n)
    if kind == "anchored":
        return ctx.f_anchored(k, n)
    raise ValueError(f"unknown kind {kind!r}")


@dataclass
class DeficiencyElement:
    """An element of the deficiency space attached to one anchor.

    anchor None: a scalar multiple of the radial basis function
    (coefficients = (a,)).  anchor x: sum a_i f over the d child subtrees of
    x, with the a_i summing to zero."""

    anchor: Optional[Address]
    coefficients: Tuple
    z: object

    def __post_init__(self):
        self.coefficients = tuple(self.coefficients)
        if self.anchor is None:
            if len(self.coefficients) != 1:
                raise ValueError("the radial element takes a single scalar")
        elif not sums_to_zero(self.coefficients, 1e-14):
            raise ValueError(f"coefficients must sum to zero, got {self.coefficients!r}")

    def check_degree(self, d: int) -> None:
        """Raise ValueError unless an anchored element has d coefficients,
        one per child subtree of its anchor."""
        if self.anchor is not None and len(self.coefficients) != d:
            raise ValueError(f"an anchored element at degree {d} takes {d} coefficients, "
                             f"got {len(self.coefficients)}")

    def _coefficient_on(self, x: Address):
        """The coefficient at x and on the subtree below x: the radial scalar,
        a_i inside the anchor's i-th child subtree, 0 elsewhere."""
        if self.anchor is None:
            return self.coefficients[0]
        k = len(self.anchor)
        if len(x) <= k or x[:k] != self.anchor:
            return 0
        return self.coefficients[x[k] - 1]

    def _level_values(self, ctx: DeficiencyContext, depth: int) -> list:
        """The basis function on levels 0..depth, 0 above the anchor: one slice
        of the solution anchored at the anchor's level, -1 when radial."""
        k = -1 if self.anchor is None else len(self.anchor)
        if depth <= k:
            return [0] * (depth + 1)
        return [0] * (k + 1) + ctx.anchored_levels(k, depth)

    def value_at(self, y: Address, ctx: DeficiencyContext):
        self.check_degree(ctx.d)
        a = self._coefficient_on(y)  # 0 at and above the anchor
        k = -1 if self.anchor is None else len(self.anchor)
        return a * ctx.f_anchored(k, len(y)) if a else 0

    def materialize(self, ctx: DeficiencyContext, depth: int) -> SparseFunction:
        """Sparse function with all values down to tree level `depth`: the
        element's profile broadcast onto the subtrees where it is nonzero.

        Refuses (PatchTooLarge) rather than silently truncating support."""
        if self.anchor is not None and depth <= len(self.anchor):
            raise ValueError(f"depth {depth} does not reach the anchor's "
                             f"children at level {len(self.anchor) + 1}")
        d = ctx.d
        classes = []
        for top, values in _Profile([self], ctx, depth).values.items():
            kept = [v or None for v in values]  # one test per level
            if kept.count(None) < len(kept):
                classes.append((top, kept))
        check_budget(sum(subtree_size(len(kept) - 1, d) for _, kept in classes),
                     f"materializing to depth {depth}")
        entries: Dict[Address, object] = {}
        for top, kept in classes:
            base = len(top)
            for x in subtree_vertices(top, len(kept) - 1, d):
                v = kept[len(x) - base]
                if v is not None:
                    entries[x] = v
        f = SparseFunction(kind=GAMMA)
        f.entries = entries  # holds no zero: each level was tested once
        return f

    def norm(self, alpha: AlphaTable) -> float:
        """alpha_{k+1} * sqrt(sum |a_i|^2) for an anchor at level k, and
        |a| * alpha_0 for the radial element."""
        if self.anchor is None:
            return abs(self.coefficients[0]) * alpha.alpha(0)
        self.check_degree(alpha.d)
        s = sum(abs(a) ** 2 for a in self.coefficients)
        return alpha.alpha(len(self.anchor) + 1) * math.sqrt(s)


@dataclass(frozen=True)
class BasisFunction:
    """A single deficiency basis function, identified by its root vertex.

    root (): the radial function f_e, value p_n/d^(n/2) on level n.
    root x_i with |x_i| = k + 1: supported on the subtree below x_i,
    value lam_k (p_k q_n - q_k p_n)/d^((n-k-1)/2) on level n >= k + 1,
    normalized to 1 at x_i itself.  Either way its norm is alpha_k with
    k = len(root)."""

    root: Address

    def value_at(self, y: Address, ctx: DeficiencyContext):
        if y[:len(self.root)] != self.root:
            return 0
        return ctx.f_anchored(len(self.root) - 1, len(y))


# ---------------------------------------------------------------------------
# residual of the eigenvalue equation
# ---------------------------------------------------------------------------

def deficiency_residual(f: SparseFunction, z, coeffs: CoefficientSequence,
                        d: int, depth: int) -> float:
    """Max |(J f - z f)(x)| over the vertices x above level `depth`, from
    JacobiOperator.apply: exact when f and z are, in floats otherwise.

    The level-`depth` equation is excluded: it needs values one level
    further down."""
    if not (is_exact(z) and all(map(is_exact, f.entries.values()))):
        f, z = f.to_complex(), complex(z)
    r = JacobiOperator(coeffs, TreeConfig(d)).apply(f) - f.scaled(z)
    return max((abs(v) for x, v in r.entries.items() if len(x) < depth),
               default=0.0)


class _Profile:
    """A sum of deficiency elements by vertex class and level.

    Each element is radial on every branch subtree, so the sum takes one
    value at each anchor path vertex p, and one value per level below each
    branch root b = p + (i,) that is not a path vertex.  `values` maps each
    class root on levels 0..depth to its values from its own level down:
    one for a path vertex, levels len(b)..depth for a branch root."""

    def __init__(self, elements: Sequence[DeficiencyElement],
                 ctx: DeficiencyContext, depth: int):
        if depth < 0:
            raise ValueError(f"depth must be nonnegative, got {depth}")
        self.ctx, self.depth = ctx, depth
        for e in elements:
            e.check_degree(ctx.d)
        anchors = [e.anchor for e in elements if e.anchor is not None]
        self.paths = {()} | {a[:j] for a in anchors for j in range(min(len(a), depth) + 1)}
        roots = list(self.paths) + [p + (i,) for p in self.paths if len(p) < depth
                                    for i in range(1, ctx.d + 1) if p + (i,) not in self.paths]
        check_budget(sum(1 if r in self.paths else depth + 1 - len(r) for r in roots),
                     f"a profile to depth {depth}")
        tables = [e._level_values(ctx, depth) for e in elements]
        self.values: Dict[Address, list] = {}
        for r in roots:
            levels = range(len(r), len(r) + 1 if r in self.paths else depth + 1)
            total = None
            for elem, table in zip(elements, tables):
                a = elem._coefficient_on(r)
                if a:
                    part = [a * table[n] for n in levels]
                    total = part if total is None else [u + v for u, v in zip(total, part)]
            self.values[r] = total or [0] * len(levels)

    def residual(self) -> float:
        """Eigenvalue-equation residual below the depth: the three-term
        equation at each path vertex, and vectorized along each branch
        chain, whose head has a path vertex as parent and each vertex d
        equal children."""
        import numpy as np

        ctx, depth = self.ctx, self.depth
        lam = np.array([ctx.coeffs.lam(n) for n in range(depth)])
        lam_up = np.concatenate(([0.0], lam[:-1]))
        shift = complex(ctx.z) - np.array([ctx.coeffs.beta(n) for n in range(depth)])
        head = lambda x: complex(self.values[x][0])
        worst = 0.0
        for top, values in self.values.items():
            if len(top) == depth:
                continue
            n, f = len(top), np.array(values, dtype=complex)
            if top in self.paths:
                below = np.array([sum(head(top + (i,)) for i in range(1, ctx.d + 1))])
            else:
                below = ctx.d * f[1:]
            m = n + len(below)
            above = np.concatenate(([head(top[:-1]) if top else 0j], f[:m - n - 1]))
            r = shift[n:m] * f[:m - n] - lam_up[n:m] * above - lam[n:m] * below
            worst = max(worst, float(np.abs(r).max()))
        return worst

    def max_abs(self) -> float:
        """Max |value| over levels 0..depth, as np.hypot of each class's
        parts, which is abs of each complex bit for bit.  Where a class's
        maximum is not finite, the maximum is taken again value by value:
        abs raises OverflowError where finite parts have no finite modulus,
        and max orders nan and inf as it did."""
        import numpy as np

        with np.errstate(over="ignore"):  # abs raises below instead
            peaks = [float(np.hypot(f.real, f.imag).max()) for f in
                     (np.array(values, dtype=complex) for values in self.values.values())]
        if all(map(math.isfinite, peaks)):
            return max(peaks)
        return max(abs(v) for values in self.values.values() for v in values)


def element_residual(elements: Sequence[DeficiencyElement],
                     ctx: DeficiencyContext, depth: int) -> float:
    """Eigenvalue-equation residual of a sum of elements below `depth`, from
    its profile (_Profile.residual)."""
    return _Profile(elements, ctx, depth).residual()


def element_max_abs(elements: Sequence[DeficiencyElement],
                    ctx: DeficiencyContext, depth: int) -> float:
    """Max |value| of a sum of elements over levels 0..depth, from its profile."""
    return _Profile(elements, ctx, depth).max_abs()


def _residual_and_max_abs(elements: Sequence[DeficiencyElement],
                         ctx: DeficiencyContext, depth: int) -> tuple:
    """(element_residual, element_max_abs) of a sum of elements, from one profile."""
    profile = _Profile(elements, ctx, depth)
    return profile.residual(), profile.max_abs()


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

@dataclass
class ClassificationReport:
    verdict: str  # "essentially_selfadjoint" | "not_essentially_selfadjoint" | "inconclusive"
    series_p_status: str  # a SeriesResult status, or "not_run" when a criterion decided
    series_q_status: str
    terms_used: Tuple[int, int]
    z: complex
    scale: float | complex  # the scale the series ran at, real when it is (float_scale)
    diagnostics: str = ""
    # "bounded" | "carleman" | "berezanskii" | "perron" | "alternation"; None: the series decided
    criterion: Optional[str] = None


def classify(coeffs: CoefficientSequence, d: int, z=1j, tol: float = SERIES_TOL,
             n_max: int = SERIES_N_MAX, scale=None) -> ClassificationReport:
    """Essential-selfadjointness verdict for the scaled tridiagonal matrix
    (default scale sqrt(d), the radial restriction of the tree operator).

    A `constant`, `geometric` or `power` family at a real scale is decided
    from its exact parameters by the bounded, Carleman or Berezanskii
    criterion, and a `paper` family over one of them by alternation (|s| =
    1), its base's criterion or Perron's theorem (_criterion), with no
    recurrence step: the report names the criterion, its series statuses
    read "not_run" and terms_used is (0, 0).  Every other input goes to
    classify_by_series.  Both routes reject the same tol, n_max, scale and
    z."""
    if scale is None:
        scale = matching_sqrt(d, z)
    check_series_limits(tol, n_max)
    check_recurrence_inputs(coeffs, scale, z)
    decided = _criterion(coeffs, scale)
    if decided is None:
        return classify_by_series(coeffs, d, z, tol, n_max, scale)
    criterion, verdict, hypotheses = decided
    return ClassificationReport(verdict, "not_run", "not_run", (0, 0), complex(z),
                                float_scale(scale), hypotheses, criterion)


def classify_by_series(coeffs: CoefficientSequence, d: int, z=1j, tol: float = SERIES_TOL,
                       n_max: int = SERIES_N_MAX, scale=None) -> ClassificationReport:
    """Essential-selfadjointness test for the scaled tridiagonal matrix from
    the square series of its recurrence solutions.

    Sums |p_n(z)|^2 and |q_n(z)|^2 with off-diagonal scale * lambda_n
    (default scale sqrt(d), the radial restriction of the tree operator,
    exact when z is).  Both series converging by sum_series' block-ratio
    rule means nontrivial deficiency spaces: not essentially selfadjoint.
    Anything else is inconclusive, since no finite run of terms shows that a
    series diverges; essential selfadjointness is left to a criterion
    (classify)."""
    if scale is None:
        scale = matching_sqrt(d, z)
    cache = PolyCache(coeffs, scale, z)

    def terms(values: Iterator):
        return (a * a for a in map(abs, values))

    decides = "essential selfadjointness"
    res_p = sum_square_series(terms(cache.values()), tol, n_max, coeffs, decides)
    res_q = sum_square_series(terms(cache.values(True)), tol, n_max, coeffs, decides)
    if res_p.status == "converged" and res_q.status == "converged":
        verdict = "not_essentially_selfadjoint"
        diag = "both series converged: nontrivial deficiency spaces"
    else:
        verdict = "inconclusive"
        diag = (f"no verdict within n_max={n_max}: "
                f"p-series {res_p.status} ({res_p.note or 'ok'}), "
                f"q-series {res_q.status} ({res_q.note or 'ok'})")
    return ClassificationReport(verdict, res_p.status, res_q.status,
                                (res_p.terms_used, res_q.terms_used),
                                complex(z), float_scale(scale), diag)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def project_onto_Ax(y: Address, anchor: Optional[Address], ctx: DeficiencyContext,
                    alpha: AlphaTable) -> DeficiencyElement:
    """The projection of the point mass at y onto the branch space at the
    given anchor (anchor None: the one-dimensional radial space)."""
    if anchor is None:
        a0 = alpha.alpha(0)
        coeff = conj(ctx.f_zero(len(y))) / (a0 * a0)
        return DeficiencyElement(None, (coeff,), ctx.z)
    k = len(anchor)
    if len(y) <= k or y[:k] != anchor:
        raise ValueError(
            f"{format_address(y)} is not strictly below the anchor "
            f"{format_address(anchor)}")
    ak = alpha.alpha(k + 1)
    base = conj(ctx.f_anchored(k, len(y))) / (ak * ak)
    d = ctx.d
    coeffs = (base * (1 - 1 / d) if j == y[k] else -base / d for j in range(1, d + 1))
    return DeficiencyElement(anchor, tuple(coeffs), ctx.z)


def project_full(y: Address, ctx: DeficiencyContext,
                 alpha: AlphaTable) -> List[DeficiencyElement]:
    """Projection of the point mass at y onto the full deficiency space:
    one element per path vertex strictly above y, plus the radial one."""
    return [project_onto_Ax(y, anchor, ctx, alpha)
            for anchor in [None] + [y[:j] for j in range(len(y))]]
