"""Cylinder sets and the product measure on the tree boundary, boundary step
functions, the isometry onto the deficiency space, and the Poisson kernel."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .deficiency import AlphaTable, BasisFunction, DeficiencyContext, DeficiencyElement
from .errors import AmbiguousPrefix
from .exactnum import conj, sums_to_zero
from .treecore import Address, check_budget, format_address, level_vertices


@dataclass(frozen=True)
class CylinderSet:
    """All boundary paths passing through the base vertex."""

    base: Address

    @property
    def depth(self) -> int:
        return len(self.base)

    def measure(self, d: int) -> Fraction:
        return Fraction(1, d ** self.depth)


class StepFunction:
    """Boundary function that is a finite combination of cylinder
    indicators: sum of value * 1_{cylinder(base)} over the pieces.

    The canonical form refines every piece to the maximum piece depth and
    merges overlaps; it is computed lazily and cached."""

    def __init__(self, d: int, pieces: Sequence[Tuple[Address, object]] = ()):
        if d < 2:
            raise ValueError("branching degree must be at least 2")
        self.d = d
        self.pieces: Tuple[Tuple[Address, object], ...] = tuple(
            (tuple(base), value) for base, value in pieces if value)
        self._canonical: Optional[Tuple[int, Dict[Address, object]]] = None

    @staticmethod
    def indicator(d: int, base: Address, value=1) -> "StepFunction":
        return StepFunction(d, [(base, value)])

    def canonical(self) -> Tuple[int, Dict[Address, object]]:
        """(depth, {word of that depth: value}) with zero words omitted."""
        if self._canonical is None:
            depth = max((len(base) for base, _ in self.pieces), default=0)
            self._canonical = (depth, self._refine(self.pieces, depth))
        return self._canonical

    def refined(self, depth: int) -> Dict[Address, object]:
        """Cell values at the requested depth (>= canonical depth)."""
        own_depth, cells = self.canonical()
        if depth < own_depth:
            raise ValueError(f"cannot coarsen from depth {own_depth} to {depth}")
        if depth == own_depth:
            return cells
        return self._refine(cells.items(), depth)

    def _refine(self, pieces, depth: int) -> Dict[Address, object]:
        """Sum of the pieces' values on each word of the given depth that
        lies below their bases, zero words omitted."""
        check_budget(self.d ** depth, f"refinement to depth {depth}")
        cells: Dict[Address, object] = {}
        for base, value in pieces:
            for w in level_vertices(depth - len(base), self.d):
                cells[base + w] = cells.get(base + w, 0) + value
        return {w: v for w, v in cells.items() if v}

    def __add__(self, other: "StepFunction") -> "StepFunction":
        if self.d != other.d:
            raise ValueError("step functions on different boundaries")
        return StepFunction(self.d, self.pieces + other.pieces)

    def scaled(self, c) -> "StepFunction":
        return StepFunction(self.d, [(b, c * v) for b, v in self.pieces])

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self + other.scaled(-1)

    def norm(self) -> float:
        return math.sqrt(abs(inner_boundary(self, self)))


def integrate(F: StepFunction):
    """Integral against the product measure; exact rational weights."""
    total = None
    for base, value in F.pieces:
        term = value * Fraction(1, F.d ** len(base))
        total = term if total is None else total + term
    return 0 if total is None else total


def _cell_integral(F: StepFunction, G: StepFunction, g_map):
    """Integral of F * g_map(G), cell by cell at the common refinement."""
    if F.d != G.d:
        raise ValueError("step functions on different boundaries")
    depth = max(F.canonical()[0], G.canonical()[0])
    fc, gc = F.refined(depth), G.refined(depth)
    weight = Fraction(1, F.d ** depth)
    total = None
    for w in (fc if len(fc) <= len(gc) else gc):
        if w in fc and w in gc:
            term = fc[w] * g_map(gc[w]) * weight
            total = term if total is None else total + term
    return 0 if total is None else total


def inner_boundary(F: StepFunction, G: StepFunction):
    """<F, G> = integral of F * conj(G); the second argument is conjugated,
    matching the tree inner product."""
    return _cell_integral(F, G, conj)


def plain_integral(F: StepFunction, G: StepFunction):
    """Integral of the plain product F * G (no conjugation)."""
    return _cell_integral(F, G, lambda v: v)


def bx_element(d: int, anchor: Address, values: Sequence) -> StepFunction:
    """Element of the boundary branch space at an anchor: sum b_i over the
    child cylinders, with the b_i summing to zero."""
    if len(values) != d:
        raise ValueError(f"need {d} child values, got {len(values)}")
    if not sums_to_zero(values, 1e-14):
        raise ValueError(f"child values must sum to zero, got {list(values)!r}")
    return StepFunction(d, [(anchor + (i + 1,), v) for i, v in enumerate(values)])


def u_isometry_basis(x: Address, d: int, alpha: AlphaTable
                     ) -> Tuple[StepFunction, BasisFunction]:
    """The paired basis elements of the boundary-to-deficiency isometry.

    x = root: (alpha_0 * 1_Omega, radial basis function).
    |x| = k: (alpha_k * d^(k/2) * 1_{cylinder(x)}, basis function at x);
    both sides have norm alpha_k."""
    k = len(x)
    coeff = alpha.alpha(k) * d ** (k / 2)
    return StepFunction.indicator(d, x, coeff), BasisFunction(x)


def paired_step(elem: DeficiencyElement, d: int, alpha: AlphaTable) -> StepFunction:
    """The boundary step function the isometry sends to the given element."""
    elem.check_degree(d)
    if elem.anchor is None:
        return StepFunction(d, [((), elem.coefficients[0] * alpha.alpha(0))])
    k = len(elem.anchor)
    coeff = alpha.alpha(k + 1) * d ** ((k + 1) / 2)
    pieces = [(elem.anchor + (i + 1,), a * coeff)
              for i, a in enumerate(elem.coefficients)]
    return StepFunction(d, pieces)


@dataclass
class PoissonKernelRepr:
    """P_z(y, .) as a step function of depth |y|."""

    y: Address
    z: complex
    step: StepFunction


def poisson_kernel(y: Address, ctx: DeficiencyContext,
                   alpha: AlphaTable) -> PoissonKernelRepr:
    """The reproducing kernel at y, as printed:

    P = f_e(y)/alpha_0 * 1_Omega
        + sum over path vertices y_i (i = 1..|y|) of
          f_{y_i}(y)/alpha_i * d^(i/2) * [1_{cyl(y_i)} - (1/d) 1_{cyl(y_{i-1})}]
    """
    d = ctx.d
    n = len(y)
    pieces: List[Tuple[Address, object]] = []
    pieces.append(((), ctx.f_zero(n) / alpha.alpha(0)))
    for i in range(1, n + 1):
        fv = ctx.f_anchored(i - 1, n)
        c = fv / alpha.alpha(i) * d ** (i / 2)
        pieces.append((y[:i], c))
        pieces.append((y[:i - 1], -c / d))
    return PoissonKernelRepr(y, complex(ctx.z), StepFunction(d, pieces))


def relative_position(y: Address, omega_prefix: Address) -> Tuple[int, int]:
    """(m, n): m = length of the common prefix of y and the boundary path,
    n = |y| - m.  The prefix must be long enough to pin m down."""
    m = 0
    while m < len(y) and m < len(omega_prefix) and y[m] == omega_prefix[m]:
        m += 1
    if m == len(omega_prefix) and m < len(y):
        raise AmbiguousPrefix(
            f"prefix {format_address(omega_prefix)} is a prefix of "
            f"{format_address(y)}; extend it to at least depth {len(y)}")
    return m, len(y) - m


def kernel_by_class(repr_: PoissonKernelRepr) -> Dict[Tuple[int, int], set]:
    """Kernel cell values grouped by the relative position (m, n) of the
    cell's base against y."""
    _, cells = repr_.step.canonical()
    out: Dict[Tuple[int, int], set] = {}
    for w, v in cells.items():
        pos = relative_position(repr_.y, w + (0,) * max(0, len(repr_.y) - len(w)))
        out.setdefault(pos, set()).add(complex(v))
    return out


def apply_U(F: StepFunction, y: Address, ctx: DeficiencyContext,
            alpha: AlphaTable):
    """(UF)(y): the value at y of the deficiency-space function carried by
    F, computed as the plain-product boundary integral against the kernel."""
    kernel = poisson_kernel(y, ctx, alpha)
    return plain_integral(kernel.step, F)


@dataclass
class ReproducingCheck:
    residual_plain: float
    residual_conjugated: float
    matching_convention: str  # "plain" | "conjugated" | "neither"


def reproducing_check(elem: DeficiencyElement, y: Address,
                      ctx: DeficiencyContext, alpha: AlphaTable) -> ReproducingCheck:
    """Compare g(y) against the boundary integral of the kernel times the
    paired step function, under both conjugation conventions.

    Reports which convention satisfies the reproducing identity; the
    ambiguity is inherent to the two ways the kernel formula can be read."""
    G = paired_step(elem, ctx.d, alpha)
    kernel = poisson_kernel(y, ctx, alpha)
    lhs = complex(elem.value_at(y, ctx))
    plain = complex(plain_integral(kernel.step, G))
    conjugated = complex(inner_boundary(G, kernel.step))
    r_plain = abs(lhs - plain)
    r_conj = abs(lhs - conjugated)
    tol = 1e-7 * max(1.0, abs(lhs))
    if r_plain <= tol:
        which = "plain"
    elif r_conj <= tol:
        which = "conjugated"
    else:
        which = "neither"
    return ReproducingCheck(r_plain, r_conj, which)
