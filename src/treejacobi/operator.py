"""The Jacobi operator on both trees, radial averaging projections,
moments, and the branch-space membership test."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .coefficients import CoefficientSequence, TreeConfig, _accessors
from .errors import NotInSubtree, PatchTooLarge
from .exactnum import as_complex, exact_complex, is_exact, is_zero
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
        """J f, in exact arithmetic when any value of f is an ExactComplex."""
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
                    acc(x[:-1], lam(n - 1) * v)
                acc(x, beta(n) * v)
                down = lam(n) * v
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
                    down = lam(n - 1) * v
                    for i in range(1, self.d + 1):
                        acc(x + (i,), down)
                acc(x, beta(n) * v)
                up = APEX_SUCCESSOR if not x else x[:-1]
                acc(up, lam(n) * v)
        return SparseFunction(out, f.kind)


def moments(J: JacobiOperator, N: int, route: str = "matrix") -> List[Fraction]:
    """m_n = <J^n delta_root, delta_root> for n = 0..N, exact rationals.

    The matrix route iterates the radial tridiagonal matrix on the root
    vector, computing only the triangle that reaches the root: after step s
    the vector is zero past index s, and an entry past N - s cannot reach
    the root in the N - s steps left, so step s computes the entries
    j <= min(s, N - s).  The tree route applies J on the tree directly
    (exponential in N, kept for cross-checks)."""
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
        v = [Fraction(1)]
        out = [Fraction(1)]
        for s in range(1, N + 1):
            u = v + [0, 0]  # entries the previous step did not compute are 0
            v = [beta[j] * u[j] + (J.d * lam[j - 1] * u[j - 1] if j else 0) + lam[j] * u[j + 1]
                 for j in range(min(s, N - s) + 1)]
            out.append(v[0])
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
        if is_zero(avg):
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


def _values_equal(a, b, scale: float) -> bool:
    if is_exact(a) and is_exact(b):
        return (a - b).is_zero
    return abs(as_complex(a) - as_complex(b)) <= RADIALITY_RTOL * max(scale, 1e-300)


def hx_membership(f: SparseFunction, x: Optional[Address], d: int) -> MembershipReport:
    """Whether f belongs to the branch space anchored at x.

    Anchored at x: support inside the subtree below x but not touching x,
    the child values sum to zero, f is radial on each child subtree, and the
    per-level profiles of different child subtrees are proportional with
    ratios f(x_i) : f(x_j).  Anchor None selects the radial subspace of the
    whole tree."""
    if f.kind != GAMMA:
        return MembershipReport(False, "not a rooted-tree function")
    if x is None:
        by_level: Dict[int, List] = {}
        for y, v in f.entries.items():
            by_level.setdefault(len(y), []).append(v)
        for lvl, vals in by_level.items():
            if len(vals) < d ** lvl:
                vals = vals + [0] * (d ** lvl - len(vals))
            scale = max(abs(as_complex(v)) for v in vals)
            ref = vals[0]
            for v in vals[1:]:
                if not _values_equal(v, ref, scale):
                    return MembershipReport(False, f"not radial at level {lvl}")
        return MembershipReport(True)

    k = len(x)
    # per-branch, per-relative-level values
    branch_levels: List[Dict[int, List]] = [dict() for _ in range(d)]
    for y, v in f.entries.items():
        if y[:k] != x or len(y) == k:
            return MembershipReport(
                False, f"support touches {format_address(y)} outside the "
                       f"punctured subtree below {format_address(x)}")
        branch = y[k] - 1
        rel = len(y) - k - 1
        branch_levels[branch].setdefault(rel, []).append(v)

    # radiality within each branch
    profiles: List[Dict[int, object]] = []
    for b in range(d):
        prof: Dict[int, object] = {}
        for rel, vals in branch_levels[b].items():
            if len(vals) < d ** rel:
                vals = vals + [0] * (d ** rel - len(vals))
            scale = max(abs(as_complex(v)) for v in vals)
            ref = vals[0]
            for v in vals[1:]:
                if not _values_equal(v, ref, scale):
                    return MembershipReport(
                        False, f"branch {b + 1} not radial at relative level {rel}")
            prof[rel] = ref
        profiles.append(prof)

    # zero child sum
    child_vals = [profiles[b].get(0, 0) for b in range(d)]
    total = sum(as_complex(v) for v in child_vals)
    scale = max((abs(as_complex(v)) for v in child_vals), default=0.0)
    if all(is_exact(v) or v == 0 for v in child_vals):
        exact_total = None
        for v in child_vals:
            exact_total = v if exact_total is None else exact_total + v
        if not is_zero(exact_total):
            return MembershipReport(False, "child values do not sum to zero")
    elif abs(total) > RADIALITY_RTOL * max(scale, 1e-300):
        return MembershipReport(False, "child values do not sum to zero")

    # cross-branch proportionality with ratios given by the child values
    ref_b = next((b for b in range(d) if not is_zero(child_vals[b])
                  and abs(as_complex(child_vals[b])) == max(
                      abs(as_complex(c)) for c in child_vals)), None)
    if ref_b is None:
        ref_b = next((b for b in range(d) if not is_zero(child_vals[b])), None)
    if ref_b is None:
        if any(prof for prof in profiles):
            return MembershipReport(
                False, "all child values vanish but deeper levels do not")
        return MembershipReport(True)
    c_ref = child_vals[ref_b]
    levels = sorted(set().union(*[prof.keys() for prof in profiles]))
    for rel in levels:
        v_ref = profiles[ref_b].get(rel, 0)
        for b in range(d):
            if b == ref_b:
                continue
            v_b = profiles[b].get(rel, 0)
            lhs = v_b * c_ref
            rhs = child_vals[b] * v_ref
            scale = max(abs(as_complex(lhs)), abs(as_complex(rhs)))
            if not _values_equal(lhs, rhs, scale):
                return MembershipReport(
                    False, f"branch {b + 1} profile not proportional at "
                           f"relative level {rel}")
    return MembershipReport(True)
