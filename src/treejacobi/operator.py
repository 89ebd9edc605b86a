"""The Jacobi operator on both trees, radial averaging projections,
moments, and the branch-space membership test.

The branch space H_x below a vertex x holds the functions supported below
x but not at x that are radial on each child subtree of x and whose d
branch values sum to zero on every level; the radial functions and these
spaces split l^2 of the tree into pieces that J maps into themselves."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .coefficients import CoefficientSequence, TreeConfig, _accessors
from .errors import NotInSubtree, PatchTooLarge
from .exactnum import exact_complex, is_exact, sums_to_zero
from .treecore import (APEX_SUCCESSOR, GAMMA, Address, LambdaPatch,
                       SparseFunction, check_budget, children, format_address,
                       level_vertices)


@dataclass(frozen=True)
class JacobiOperator:
    """J on the rooted tree, or on a one-ended patch when one is given (the
    patch supplies levels).

    Rooted tree:   J d_x = lam_{n-1} d_parent + beta_n d_x + lam_n sum d_child
    One-ended:     J d_x = lam_{n-1} sum d_below + beta_n d_x + lam_n d_above
    with n the tree level of x and lam_{-1} = 0.
    """

    coeffs: CoefficientSequence
    tree: TreeConfig
    patch: Optional[LambdaPatch] = None

    def __post_init__(self):
        if self.patch is not None and self.patch.d != self.tree.d:
            raise ValueError(f"a degree-{self.tree.d} operator cannot act on "
                             f"a degree-{self.patch.d} patch")

    @property
    def d(self) -> int:
        return self.tree.d

    @property
    def kind(self) -> str:
        return "gamma" if self.patch is None else "lambda"

    def apply(self, f: SparseFunction) -> SparseFunction:
        """J f, in exact arithmetic when any value of f is an ExactComplex.
        The value is the left operand of each coefficient product, so an
        exact value skips Fraction's reflected-operand detour."""
        if f.kind != self.patch:
            raise NotInSubtree(
                f"function on {f.kind or 'the rooted tree'} cannot be fed to a "
                f"{self.kind} operator")
        lam, beta = _accessors(
            self.coeffs, any(is_exact(v) for v in f.entries.values()))
        out: Dict[Address, object] = {}

        def acc(x: Address, v) -> None:
            out[x] = out.get(x, 0) + v

        if self.patch is None:
            for x, v in f.entries.items():
                n = len(x)
                if n > 0:
                    acc(x[:-1], v * lam(n - 1))
                acc(x, v * beta(n))
                down = v * lam(n)
                for c in children(x, self.d):
                    acc(c, down)
        else:
            patch = self.patch
            for x, v in f.entries.items():
                if x == APEX_SUCCESSOR:
                    raise PatchTooLarge(
                        "support reached the virtual successor; enlarge the patch")
                n = patch.level(x)
                if n > 0:
                    down = v * lam(n - 1)
                    for i in range(1, self.d + 1):
                        acc(x + (i,), down)
                acc(x, v * beta(n))
                up = APEX_SUCCESSOR if not x else x[:-1]
                acc(up, v * lam(n))
        return SparseFunction(out, f.kind)


def moments(J: JacobiOperator, N: int, route: str = "matrix") -> List[Fraction]:
    """m_n = <J^n delta_root, delta_root> for n = 0..N, exact rationals.

    The matrix route iterates the radial tridiagonal matrix on the root
    vector, computing only the triangle that reaches the root: after step s
    the vector is zero past index s, and an entry past N - s cannot reach
    the root in the N - s steps left, so step s computes the entries
    j <= min(s, N - s).  It runs fraction-free: with D the lcm of the
    denominators of lam_0..lam_{N-1} and beta_0..beta_N, the matrix D*M has
    integer entries, and m_s is the root entry of (D*M)^s over D^s.  The
    tree route applies J on the tree directly (exponential in N, kept for
    cross-checks)."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if J.kind != "gamma":
        raise ValueError("moments are defined for the rooted-tree operator")
    if route == "matrix":
        # The radial matrix (off-diagonal sqrt(d) * lam_j) conjugated by
        # diag(d^(j/2)): lam_j above the diagonal, d * lam_j below it.  The
        # root entry of each power is unchanged and every entry is rational.
        lam = [J.coeffs.lam_exact(n) for n in range(N)]
        beta = [J.coeffs.beta_exact(n) for n in range(N + 1)]
        D = math.lcm(*(c.denominator for c in lam + beta))
        up, diag = ([int(D * c) for c in cs] for cs in (lam, beta))  # D lam_j, D beta_j
        down = [J.d * u for u in up]
        v = [1]
        out = [Fraction(1)]
        for s in range(1, N + 1):
            u = v + [0, 0]  # entries the previous step did not compute are 0
            v = [diag[j] * u[j] + (down[j - 1] * u[j - 1] if j else 0) + up[j] * u[j + 1]
                 for j in range(min(s, N - s) + 1)]
            out.append(Fraction(v[0], D ** s))
        return out
    if route == "tree":
        check_budget(J.d ** N, f"tree-route moment m_{N}")
        f = SparseFunction.delta((), value=exact_complex(1))
        out = [Fraction(1)]
        for _ in range(N):
            f = J.apply(f)
            m = f.entries.get((), exact_complex(0))
            out.append(m.re)
        return out
    raise ValueError(f"unknown moment route {route!r}")


def radial_average_E(f: SparseFunction, d: int) -> SparseFunction:
    """Ef: value at each level-k vertex is the average of f over level k."""
    if f.kind != GAMMA:
        raise NotInSubtree("radial averaging is defined on the rooted tree")
    return subtree_average_Ex(f, (), d)


def subtree_average_Ex(f: SparseFunction, x: Address, d: int) -> SparseFunction:
    """Per-level averaging within the subtree below x; values outside that
    subtree are left unchanged."""
    if f.kind != GAMMA:
        raise NotInSubtree("subtree averaging is defined on the rooted tree")
    k = len(x)
    inside_sums: Dict[int, object] = {}
    out: Dict[Address, object] = {}
    for y, v in f.entries.items():
        if y[:k] == x:
            rel = len(y) - k
            inside_sums[rel] = inside_sums.get(rel, 0) + v
        else:
            out[y] = v
    for rel, s in inside_sums.items():
        words = level_vertices(rel, d)  # refuses an oversized level, zero or not
        avg = s / d ** rel
        if not avg:
            continue
        for w in words:
            out[x + w] = avg
    return SparseFunction(out, GAMMA)


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


RADIALITY_RTOL = 1e-10


def _level_values(entries: List[Tuple[int, object]], d: int) -> Dict[int, object]:
    """The value on each level of a subtree, read from its listed entries
    (level below the subtree's top, value), or None on a level where they
    differ.  A level listing fewer than its d^n vertices has an unlisted
    vertex at 0, so there each listed value is compared with 0."""
    by_level: Dict[int, List] = {}
    for n, v in entries:
        by_level.setdefault(n, []).append(v)
    values: Dict[int, object] = {}
    for n, vals in sorted(by_level.items()):
        ref = vals[0] if len(vals) == d ** n else 0
        same = all(sums_to_zero((v, -ref), RADIALITY_RTOL) for v in vals)
        values[n] = ref if same else None
    return values


def hx_membership(f: SparseFunction, x: Optional[Address], d: int) -> MembershipReport:
    """Whether f belongs to the branch space H_x, a linear space that J
    maps into itself.

    Anchor None: f is radial on the whole tree.  Anchor x: the support lies
    in the subtree below x without touching x, f is radial on each child
    subtree of x, and on every level the d branch values sum to zero."""
    if f.kind != GAMMA:
        return MembershipReport(False, "not a rooted-tree function")
    top = () if x is None else x
    k = len(top)
    branches: Dict[Address, List[Tuple[int, object]]] = {}
    for y, v in f.entries.items():
        if y[:k] != top or (x is not None and len(y) == k):
            return MembershipReport(
                False, f"support touches {format_address(y)} outside the "
                       f"punctured subtree below {format_address(top)}")
        if not all(1 <= i <= d for i in y[k:]):
            return MembershipReport(
                False, f"address {format_address(y)} has an index outside 1..{d}")
        root = top if x is None else y[:k + 1]
        branches.setdefault(root, []).append((len(y) - len(root), v))
    profiles = []
    for root, entries in branches.items():
        levels = _level_values(entries, d)
        bad = next((n for n, v in levels.items() if v is None), None)
        if bad is not None:
            if x is None:
                return MembershipReport(False, f"not radial at level {bad}")
            return MembershipReport(
                False, f"branch {root[k]} not radial at relative level {bad}")
        profiles.append(levels)
    if x is None:
        return MembershipReport(True)
    for n in sorted(set().union(*profiles)):
        if not sums_to_zero([p.get(n, 0) for p in profiles], RADIALITY_RTOL):
            return MembershipReport(
                False, f"branch values do not sum to zero at relative level {n}")
    return MembershipReport(True)
