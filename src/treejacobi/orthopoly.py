"""Three-term recurrences: first/second-kind values p_n(z), q_n(z), their
roots, the deficiency-space table at scale sqrt(d) and its norm series
alpha_k(z)."""
from __future__ import annotations

import cmath
import csv
import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .coefficients import (ESA, NOT_ESA, CoefficientSequence, _accessors, _criterion,
                           check_positive)
from .errors import (CoefficientOverflow, ConvergenceFailure, DivergedSeries,
                     InconclusiveSeries, RealSpectralParameter, RecurrenceOverflow)
from .exactnum import ExactComplex, exact_complex, is_exact, matching_sqrt, unreduced

if TYPE_CHECKING:
    import numpy as np

RATIO_CEILING = 0.99
CONVERGENCE_WINDOW = 8
# the relative tolerance of every series, and the alpha series' term budget
SERIES_TOL = 1e-12
SERIES_N_MAX = 100_000


def _wants_exact(scale, z) -> bool:
    return is_exact(scale) or is_exact(z)


def float_scale(scale):
    """The scale a float table runs at: its real part when it is real, else
    the complex value."""
    value = complex(scale)
    return value.real if value.imag == 0 else value


def poly_pairs(coeffs: CoefficientSequence, scale, z) -> Iterator[tuple]:
    """Yield (n, p_n(z), q_n(z), row) indefinitely, where row is the
    integer row (A_n, B_n, T_n, W_n) the exact values were built from, with
    the witness W_n of the step that built it (see _IntegerRecurrence), and
    None in float mode.  Exact values are ExactComplex over their rows,
    not in lowest terms: nothing reduces them before arithmetic reads them.

    Off-diagonal entries are scale*lambda_n; initial data p_0 = 1,
    p_1 = (z - beta_0)/(scale*lambda_0), q_0 = 0, q_1 = 1/lambda_0.
    Runs in exact arithmetic when scale or z is an ExactComplex; the other
    must then be exact too (an int, a Fraction or an ExactComplex), z a
    Gaussian rational and scale**2 a nonzero rational (see
    _IntegerRecurrence).  In float mode z and scale must be finite and
    scale nonzero, and the values are read from a PolyCache of their own
    (PolyCache.solution, the one float stepper).
    """
    if _wants_exact(scale, z):
        yield from _IntegerRecurrence(coeffs, scale, z).pairs()
    else:
        yield from PolyCache(coeffs, scale, z)._gen


def check_recurrence_inputs(coeffs: CoefficientSequence, scale, z) -> None:
    """Raise the ValueError that PolyCache(coeffs, scale, z) raises when it
    is made (floats: scale and z finite, scale nonzero; exact: see
    _IntegerRecurrence), without running a step."""
    if _wants_exact(scale, z):
        _IntegerRecurrence(coeffs, scale, z)
        return
    scale, z = complex(scale), complex(z)
    if not (cmath.isfinite(scale) and cmath.isfinite(z)):
        raise ValueError(f"scale and z must be finite, got scale={scale}, z={z}")
    if scale == 0:
        raise ValueError("scale must be nonzero")


def _exact_number(value) -> ExactComplex:
    if is_exact(value):
        return value
    if isinstance(value, Rational):
        return exact_complex(value)
    raise ValueError(f"exact mode takes int, Fraction or ExactComplex values, got {value!r}")


class _IntegerRecurrence:
    """The exact recurrence run fraction-free on integers (after Bareiss 1968).

    With sigma = scale**2 and Pi_n = lambda_0 ... lambda_{n-1}, the monic
    values P_n = scale**n Pi_n p_n and Q_n = scale**(n-1) Pi_n q_n both obey

        X_{n+1} = (z - beta_n) X_n - sigma lambda_{n-1}**2 X_{n-1}

    from P_0 = 1, P_1 = z - beta_0 and Q_0 = 0, Q_1 = 1, and their
    Casoratian P_n Q_{n+1} - P_{n+1} Q_n is sigma**n Pi_n**2.  Row n holds
    Gaussian integers A_n, B_n over one positive integer D_n: P_n = A_n/D_n,
    Q_n = B_n/D_n.  With z - beta_n = G_n/E_n in lowest terms,
    lambda_k = l_k/l'_k and sigma = s/s', a step is

        A_{n+1} = (L_n/g_n) G_n A_n - (c_n/g_n) A_{n-1},
        D_{n+1} = D_n R_{n+1},  R_{n+1} = E_n L_n/g_n,

    with L_n = s' l'_{n-1}**2, c_n = s l_{n-1}**2 E_n R_n and
    g_n = gcd(L_n, c_n).  Dividing by g_n removes the squared lambda
    denominators that D_n already holds, which a plain product D_n E_n L_n
    would carry again at every step (for geometric families about 1.6-1.8
    times the bits of the reduced values).  Each gcd of a step has a small
    operand, a product of coefficient parts of O(n) bits, so the rows are
    never reduced as a whole.  D_n itself is not kept: the rows carry
    T_n = D_n Pi_n, which the edge divides by, as an integer pair
    (t, t_den) with T_{n+1} = T_n R_{n+1} lambda_n; each new factor is
    cancelled against the other side of the pair by a gcd with a small
    operand.  The values p_n, q_n are ExactComplex over their edge rows
    (edge), built without a gcd, so the only gcds of two large operands are
    those of the arithmetic a reader does with them.

    Row n >= 2 carries the step's small multipliers W_n = ((L_{n-1}/g)
    G_{n-1}, c_{n-1}/g) as a witness for wronskian_residual.

    Domain: z a Gaussian rational and sigma a nonzero rational, so that
    scale is r, i*r, r*sqrt(m) or i*r*sqrt(m) for a rational r.
    """

    def __init__(self, coeffs: CoefficientSequence, scale, z):
        scale, z = _exact_number(scale), _exact_number(z)
        sigma = scale * scale
        if z.m != 1:
            raise ValueError(f"exact mode needs a Gaussian-rational z, got {z!r}")
        if sigma.im:
            raise ValueError(f"exact mode needs a scale whose square is rational, got {scale!r}")
        if not sigma:
            raise ValueError("scale must be nonzero")
        self.coeffs = coeffs
        self.z = z.ints
        self.sigma = sigma.re
        # scale = (u + i*v)/w * sqrt(m), the factor of an odd power
        self.unit = scale.ints + (scale.m,)

    def pairs(self) -> Iterator[tuple]:
        """Yield (n, p_n, q_n, (A_n, B_n, T_n, W_n)), the values as
        ExactComplex over their edge rows, not in lowest terms."""
        for n, a, b, t, w in self.rows():
            yield n, _EdgeValue(self, a, t, n), _EdgeValue(self, b, t, n - 1), (a, b, t, w)

    def rows(self) -> Iterator[tuple]:
        """Yield (n, A_n, B_n, T_n, W_n) indefinitely: Gaussian integers
        (re, im), the integer pair T_n = D_n Pi_n and the witness (u, v) of
        X_n = u X_{n-1} - v X_{n-2} (None for n < 2)."""
        lam, beta = _accessors(self.coeffs, True)
        zr, zi, zd = self.z
        s, s_den = self.sigma.numerator, self.sigma.denominator
        a_prev, a = (0, 0), (1, 0)
        b_prev, b = (0, 0), (0, 0)
        t, t_den = 1, 1
        w = None
        n = 0
        while True:
            yield n, a, b, (t, t_den), w
            beta_n = beta(n)
            lam_n = lam(n)
            e = zd * beta_n.denominator
            g_re = zr * beta_n.denominator - beta_n.numerator * zd
            g_im = zi * beta_n.denominator
            h = math.gcd(e, g_re, g_im)
            e, g_re, g_im = e // h, g_re // h, g_im // h
            if n == 0:
                a_next, b_next, big_r = (g_re, g_im), (e, 0), e
            else:
                big_l = s_den * lam_prev.denominator ** 2
                c = s * lam_prev.numerator ** 2 * e * big_r
                g = math.gcd(big_l, c)
                big_l, c = big_l // g, c // g
                lg_re, lg_im = big_l * g_re, big_l * g_im
                a_next = (lg_re * a[0] - lg_im * a[1] - c * a_prev[0],
                          lg_re * a[1] + lg_im * a[0] - c * a_prev[1])
                b_next = (lg_re * b[0] - lg_im * b[1] - c * b_prev[0],
                          lg_re * b[1] + lg_im * b[0] - c * b_prev[1])
                big_r = e * big_l
                w = ((lg_re, lg_im), c)
            up, down = big_r * lam_n.numerator, lam_n.denominator
            k = math.gcd(t_den, up)
            t, t_den = t * (up // k), t_den // k
            k = math.gcd(t, down)
            t, t_den = t // k, t_den * (down // k)
            a_prev, a, b_prev, b = a, a_next, b, b_next
            lam_prev = lam_n
            n += 1

    def edge(self, x: tuple, t: tuple, k: int) -> tuple:
        """(x/T) / scale**k as integers (re, im, den) for the value
        (re + i*im)/den * sqrt(m), not in lowest terms, with den > 0 and m
        the radicand of scale when k is odd (1 otherwise).  k = -1 comes
        only with x = Q_0 = 0."""
        half = (k + 1) // 2  # 1/scale**k = (s'/s)**half, times scale if k is odd
        up = self.sigma.denominator ** half * t[1]
        den = t[0] * self.sigma.numerator ** half
        re, im = x
        if k % 2:
            u, v, w, _ = self.unit
            re, im = re * u - im * v, re * v + im * u
            den *= w
        if den < 0:  # sigma < 0
            up, den = -up, -den
        return re * up, im * up, den


class _EdgeValue(ExactComplex):
    """A value p_n or q_n of an exact table, (x/T) / scale**k for the entry
    x of its row: an ExactComplex whose integers are the edge, not in lowest
    terms and computed each time they are read, so that the table holds no
    integers but its rows."""

    __slots__ = ("_row",)

    def __init__(self, engine: _IntegerRecurrence, x: tuple, t: tuple, k: int):
        self._row = (engine, x, t, k)
        self.m = engine.unit[3] if k % 2 and (x[0] or x[1]) else 1

    @property
    def ints(self) -> tuple:
        engine, x, t, k = self._row
        return engine.edge(x, t, k)


def _row_cross(row: tuple, other: tuple) -> tuple:
    """The Gaussian integer A B' - A' B of rows (A, B, ...) and (A', B', ...)."""
    (ar, ai), (br, bi), _, _ = row
    (ar1, ai1), (br1, bi1), _, _ = other
    return (ar * br1 - ai * bi1 - ar1 * br + ai1 * bi,
            ar * bi1 + ai * br1 - ar1 * bi - ai1 * br)


def _casoratian_starts(lam_0: Fraction, row: tuple, next_row: tuple) -> bool:
    """Whether rows 0 and 1 satisfy A_0 B_1 - A_1 B_0 = T_0 T_1 / lambda_0,
    by integer cross-multiplication: the Wronskian identity at 0 for the
    values the rows give (_IntegerRecurrence)."""
    re, im = _row_cross(row, next_row)
    (t, t_den), (t1, t1_den) = row[2], next_row[2]
    return im == 0 and re * t_den * t1_den * lam_0.numerator == t * t1 * lam_0.denominator


def _casoratian_steps(sigma: Fraction, lam_prev: Fraction, lam_n: Fraction, prev: tuple,
                      row: tuple, next_row: tuple) -> bool:
    """Whether the rows at n - 1, n, n + 1 carry the identity from n - 1 to
    n >= 1.  With next_row's witness (u, v), X_{n+1} + v X_{n-1} = u X_n
    for X = A, B gives C_n = v C_{n-1} for C_n = A_n B_{n+1} - A_{n+1} B_n,
    and sigma T_{n+1} lambda_{n-1} = v T_{n-1} lambda_n gives the same
    factor on the right-hand side.  Every product has a small operand."""
    a0, b0, (t0, t0_den), _ = prev
    a, b, _, _ = row
    a1, b1, (t1, t1_den), ((ur, ui), v) = next_row
    return (all(x1[0] + v * x0[0] == ur * x[0] - ui * x[1]
                and x1[1] + v * x0[1] == ur * x[1] + ui * x[0]
                for x0, x, x1 in ((a0, a, a1), (b0, b, b1)))
            and t1 * (sigma.numerator * lam_prev.numerator * lam_n.denominator * t0_den)
            == t0 * (v * sigma.denominator * lam_n.numerator * lam_prev.denominator * t1_den))


class PolyCache:
    """The table of p_n(z), q_n(z) at off-diagonal scale * lambda_n,
    extended on demand; every reader of the recurrence reads one, and only
    this class steps it.

    The arithmetic is fixed here, from the types of scale and z, and so is
    `lam`, the lambda accessor of that arithmetic.  Every reader names a
    solution of the recurrence (solution, levels), and both arithmetics
    answer it: a float table steps it (the one float stepper), an exact
    table reads it from its integer rows.  p and q (ensure) read one
    (n, p_n, q_n, row) stream made with the table: values() for a float
    table, poly_pairs for an exact one, which keeps each integer row with
    the two values it built from it, for wronskian_residual and the exact
    solutions.  Exact values are not in lowest terms: exact arithmetic on
    p[n] or q[n] reduces only its result, and complex() (to_csv) reads it
    without a gcd.  Once the recurrence fails, every later extension past
    the last index held raises that same error; the indices held are still
    served, so readers can share one table."""

    def __init__(self, coeffs: CoefficientSequence, scale, z):
        self.coeffs, self.scale, self.z = coeffs, scale, z
        self.exact = _wants_exact(scale, z)
        self.lam, _ = _accessors(coeffs, self.exact)
        self._error: Optional[Exception] = None
        self.p: list = []
        self.q: list = []
        self._rows: list = []  # exact: (p_n, q_n, (A_n, B_n, T_n, W_n)) as built
        self._coeff_rows: list = []  # float: (z - beta_m, lambda_m), read by every table
        self._solutions: dict = {}  # float: (k, weights) -> [x values, carry, first error]
        if self.exact:
            self._engine = _IntegerRecurrence(coeffs, scale, z)  # its sigma and edge
            self._gen = poly_pairs(coeffs, scale, z)
        else:
            check_recurrence_inputs(coeffs, scale, z)
            scale, self._z = float_scale(scale), complex(z)
            self._gen = zip(itertools.count(), self.values(), self.values(True),
                            itertools.repeat(None))
        self._weights = (scale, scale)  # those of p and lambda_0 q (values)

    @property
    def N(self) -> int:
        """The last index the table holds."""
        return len(self.p) - 1

    def ensure(self, n: int) -> None:
        if n < len(self.p):
            return
        if self._error is not None:
            raise self._error
        try:
            while len(self.p) <= n:
                _, pv, qv, row = next(self._gen)
                self.p.append(pv)
                self.q.append(qv)
                if row is not None:
                    self._rows.append((pv, qv, row))
        except Exception as exc:
            self._error = exc
            raise

    def values(self, q: bool = False, lo: int = 0) -> Iterator:
        """Yield p_n, or q_n when q, for n >= lo: x(n) of the solution
        anchored at level -1 at weights (scale, scale), or that anchored at
        level 0 over lambda_0, read as far as they are read."""
        values = self.solution(int(q) - 1, self._weights, lo)
        if q:
            lam_0 = self.lam(0)
            values = (v / lam_0 for v in values)
        yield from values

    def solution(self, k: int, weights: tuple, lo: int) -> Iterator:
        """x(lo), x(lo + 1), ... (0 <= lo, k <= lo), read as far as they are
        read, of the solution of

            up lam_m x(m+1) = (z - beta_m) x(m) - down lam_{m-1} x(m-1)

        from x(k) = 0, x(k + 1) = 1 at weights (up, down), with up * down =
        scale**2, in the arithmetic of the table: stepped by the one float
        stepper (_float_solution), or read from the integer rows
        (_exact_solution).  Weights (scale, scale) give p and lambda_0 q
        (values) and the alpha terms, (d, 1) the deficiency values, (1, d)
        d^(n/2) p_n."""
        if self.exact:
            return self._exact_solution(k, weights[0], lo)
        return self._float_solution(k, weights, lo)

    def _float_solution(self, k: int, weights: tuple, lo: int) -> Iterator[complex]:
        """solution() of a float table.  Each (k, weights) has one table,
        stepped as far as it is read, and all tables share one list of rows
        (z - beta_m, lam_m).  A step divides by lam_m, then by up, and
        carries down * lam_m.  A table's first error is raised again past
        the levels it holds."""
        table = self._solutions.get((k, weights))
        if table is None:
            table = self._solutions[k, weights] = [[0j, 1 + 0j], 0, None]
        x = table[0]
        up, down = weights
        rows, lam, beta = self._coeff_rows, self.coeffs.lam, self.coeffs.beta
        for i in itertools.count(lo - k):
            while len(x) <= i:  # step the table from the last level held
                if table[2] is not None:
                    raise table[2]
                m = k + len(x) - 1
                try:
                    while len(rows) <= m:
                        j = len(rows)
                        lam_j = lam(j)
                        if lam_j == 0:
                            raise CoefficientOverflow(f"lambda_{j} underflows to 0.0 in a float")
                        rows.append((self._z - beta(j), lam_j))
                    shift, lam_m = rows[m]
                    value = (shift * x[-1] - table[1] * x[-2]) / lam_m / up
                    if not cmath.isfinite(value):
                        if up * lam_m == 0:
                            raise CoefficientOverflow(
                                f"{up:.6g} * lambda_{m} underflows to 0.0 in a float")
                        raise RecurrenceOverflow(
                            f"the solution anchored at level {k} (weights {up:.6g}, "
                            f"{down:.6g}) left the float range at level {m + 1}; "
                            "switch to exact mode or rescale")
                except Exception as exc:
                    table[2] = exc
                    raise
                x.append(value)
                table[1] = down * lam_m
            yield x[i]

    def levels(self, k: int, weights: tuple, lo: int, hi: int) -> list:
        """[x(lo), ..., x(hi)] of solution(k, weights, lo), or the error of
        the first level that fails; float values are one slice of their
        table, which still serves the levels it holds after it failed."""
        if hi < lo:
            return []
        if self.exact:
            return list(itertools.islice(self.solution(k, weights, lo), hi - lo + 1))
        table = self._solutions.get((k, weights))
        if table is None or len(table[0]) <= hi - k:
            next(self.solution(k, weights, hi))
            table = self._solutions[k, weights]
        return table[0][lo - k:hi - k + 1]

    def _exact_solution(self, k: int, up, lo: int) -> Iterator[ExactComplex]:
        """solution() of an exact table, each x(m) read from rows k and m and
        built from integers by one unreduced, without a gcd:

            A_m / T_m / up**m                                     (k = -1)
            lam_k (A_k B_m - B_k A_m) / (T_k T_m sigma**k) / up**(m-k-1)

        with sigma = scale**2.  up is either the scale, which
        _IntegerRecurrence.edge divides by, or a rational."""
        engine = self._engine
        if k >= 0:
            lam = self.lam(k)
            self.ensure(k)
            anchor, sigma = self._rows[k][2], engine.sigma
            (tk, tk_den), mul = anchor[2], lam.numerator
            t_mul = tk * lam.denominator * sigma.numerator ** k
            t_den_mul = tk_den * sigma.denominator ** k
        by_edge = is_exact(up)
        if by_edge and up != _exact_number(self.scale):
            raise ValueError(f"an exact weight is the scale or a rational, got {up!r}")
        for m in itertools.count(lo):
            self.ensure(m)
            row = self._rows[m][2]
            x, (t, t_den) = row[0], row[2]
            if k >= 0:
                re, im = _row_cross(anchor, row)
                x, t, t_den = (re * mul, im * mul), t * t_mul, t_den * t_den_mul
            j = m - k - 1
            if by_edge:
                yield unreduced(*engine.edge(x, (t, t_den), j), engine.unit[3] if j % 2 else 1)
                continue
            t_den *= up.denominator ** j
            yield unreduced(x[0] * t_den, x[1] * t_den, t * up.numerator ** j)

    def to_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["n", "Re p", "Im p", "Re q", "Im q"])
        for n in range(self.N + 1):
            pv, qv = complex(self.p[n]), complex(self.q[n])
            writer.writerow([n, repr(pv.real), repr(pv.imag), repr(qv.real), repr(qv.imag)])


def compute_polys(coeffs: CoefficientSequence, scale, z, N: int) -> PolyCache:
    """Tabulate p_n(z), q_n(z) up to index N.

    Exact mode is selected by passing ExactComplex values for scale or z
    (see exact_sqrt / exact_complex).
    """
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    table = PolyCache(coeffs, scale, z)
    table.ensure(N)
    return table


def wronskian_residual(table: PolyCache) -> list:
    """|p_n q_{n+1} - p_{n+1} q_n - 1/lambda_n| for each n < N.

    Exact tables give exact zeros.  The identity is certified on an exact
    table's integer rows by induction, at n = 0 (_casoratian_starts) and
    then step by step (_casoratian_steps), in time linear in the rows.
    From the first failed link on, and where p[n], q[n], p[n+1] or q[n+1]
    is not the very value built from its row (ExactComplex is immutable),
    the residual is computed in ExactComplex arithmetic."""
    p, q, lam, rows = table.p, table.q, table.lam, table._rows
    certified = []
    if rows:
        sigma = table._engine.sigma
        held = [pv is p[n] and qv is q[n] for n, (pv, qv, _) in enumerate(rows)]
        rows = [row for _, _, row in rows]
        lams = [lam(n) for n in range(len(rows) - 1)]
        chain = True
        for n, lam_n in enumerate(lams):
            chain = chain and (_casoratian_steps(sigma, lams[n - 1], lam_n, *rows[n - 1:n + 2])
                               if n else _casoratian_starts(lam_n, *rows[:2]))
            certified.append(chain and held[n] and held[n + 1])
    return [0.0 if n < len(certified) and certified[n]
            else abs(p[n] * q[n + 1] - p[n + 1] * q[n] - 1 / lam(n))
            for n in range(table.N)]


def wronskian_scale(table: PolyCache) -> list:
    """Magnitude scale max(1, |p_n q_{n+1}| + |p_{n+1} q_n|, 1/lambda_n) per n,
    for relative residual checks of a float table."""
    if table.exact:
        raise ValueError("wronskian_scale is a float scale; an exact table's residuals "
                         "(wronskian_residual) are exact")
    p, q = table.p, table.q
    return [max(1.0, abs(p[n]) * abs(q[n + 1]) + abs(p[n + 1]) * abs(q[n]),
                1.0 / table.coeffs.lam(n))
            for n in range(table.N)]


def _tridiagonal(coeffs: CoefficientSequence, scale: float, offset: int,
                 size: int) -> tuple:
    """(diag, off): the size-by-size section of the radial matrix starting
    at index offset, with diagonal beta_k and off-diagonal scale*lambda_k.
    The one place that writes the tridiagonal's entries."""
    import numpy as np

    return (np.array([coeffs.beta(k) for k in range(offset, offset + size)]),
            np.array([scale * coeffs.lam(k) for k in range(offset, offset + size - 1)]))


def poly_roots(coeffs: CoefficientSequence, scale: float, n: int) -> np.ndarray:
    """The n real simple roots of p_n, ascending.

    Computed as eigenvalues of the leading n-by-n tridiagonal block with
    diagonal beta_k and off-diagonal scale*lambda_k, by LAPACK bisection
    (stebz).  An absolute tolerance of twice the underflow threshold gives
    every root, small and zero ones included, to small relative error
    (Barlow & Demmel 1990).
    """
    import numpy as np
    from scipy.linalg import eigh_tridiagonal  # the CLI's other subcommands never load scipy

    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    diag, off = _tridiagonal(coeffs, scale, 0, n)
    try:
        return eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="stebz",
                                tol=2 * np.finfo(float).tiny)
    except Exception as exc:  # pragma: no cover - scipy failure path
        raise ConvergenceFailure(f"tridiagonal eigensolve failed: {exc}") from exc


# ---------------------------------------------------------------------------
# series summation with a three-valued verdict
# ---------------------------------------------------------------------------

@dataclass
class SeriesResult:
    status: str  # "converged" | "inconclusive"; "diverged" only from a criterion
    partial_sum: float
    terms_used: int
    tail_estimate: float = 0.0
    ratio: Optional[float] = None
    note: str = ""


def check_series_limits(n_max: int) -> None:
    """Raise ValueError unless n_max is at least 1."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")


def sum_series(terms: Iterable[float], n_max: int = SERIES_N_MAX) -> SeriesResult:
    """Sum nonnegative terms until a convergence verdict.

    Converged: the last CONVERGENCE_WINDOW terms are all below SERIES_TOL *
    partial_sum and their sum is below RATIO_CEILING**CONVERGENCE_WINDOW
    times the sum of the CONVERGENCE_WINDOW terms before them.  Comparing
    block sums, not single-step ratios, certifies terms that alternate
    between two decay phases, and multiplying all terms by a positive
    constant changes no verdict.  With R the ratio of the two block sums,
    the reported ratio is R**(1/CONVERGENCE_WINDOW) and the geometric tail
    is newer_block * R / (1 - R).

    Otherwise inconclusive, never "diverged", since no finite run of terms
    shows that a series diverges: n_max terms gave no verdict (no term past
    the n_max-th is read), or a term leaves the float range or the terms
    raise RecurrenceOverflow, since a value past the float range says
    nothing about the limit (partial_sum is the sum of the terms before it).
    n_max must be at least 1 (check_series_limits).
    """
    check_series_limits(n_max)
    tol = SERIES_TOL  # a local: the loop compares every term with it
    s = 0.0
    recent: deque = deque(maxlen=2 * CONVERGENCE_WINDOW)
    count = 0
    try:
        for t in itertools.islice(terms, n_max):
            if not math.isfinite(t):
                return SeriesResult("inconclusive", s, count,
                                    note="term overflowed the float range")
            s += t
            count += 1
            recent.append(t)

            if (t < tol * s and count >= 2 * CONVERGENCE_WINDOW
                    and recent[-CONVERGENCE_WINDOW] < tol * s):
                last = list(reversed(recent))
                newer = sum(last[:CONVERGENCE_WINDOW])
                older = sum(last[CONVERGENCE_WINDOW:])
                if all(v < tol * s for v in last[:CONVERGENCE_WINDOW]) and (
                        newer < RATIO_CEILING ** CONVERGENCE_WINDOW * older
                        or newer == older == 0):
                    big_r = newer / older if older > 0 else 0.0
                    tail_est = newer * big_r / (1.0 - big_r)
                    return SeriesResult("converged", s, count, tail_est,
                                        big_r ** (1.0 / CONVERGENCE_WINDOW))
    except RecurrenceOverflow:
        return SeriesResult("inconclusive", s, count,
                            note="recurrence overflow: terms left the float range")
    return SeriesResult("inconclusive", s, count,
                        note=f"no verdict after {count} terms")


def alpha_sq_terms(k: int, ctx: DeficiencyContext) -> Iterator:
    """Terms of the alpha_k(z)^2 series, in the arithmetic of ctx:
    |g_{k-1}(n)|^2 for n >= k, where g_{k-1} is the solution anchored at
    level k - 1 at weights (sqrt(d), sqrt(d)) (PolyCache.solution): g_{-1}
    is p_n and g_0 is lambda_0 q_n.  An exact term is one Fraction, built
    from the integers of its value."""
    values = ctx.solution(k - 1, ctx._weights, k)
    if ctx.exact:
        for v in values:
            x, y, den = v.ints
            yield Fraction((x * x + y * y) * v.m, den * den)
    else:
        for v in values:
            yield v.real * v.real + v.imag * v.imag


@dataclass
class AlphaTable:
    """Norm coefficients alpha_0..alpha_K at a fixed non-real z.  criterion
    names the theorem that set every status (_criterion), None where no
    theorem applies and every status is "inconclusive"."""

    z: complex
    d: int
    k_max: int
    alphas: list
    alpha_sqs: list
    statuses: list
    terms_used: list
    status: str
    criterion: Optional[str] = None

    def alpha(self, k: int) -> float:
        """alpha_k, refused unless the criterion says its series converges
        and the float sum gave a value: a diverging series raises
        DivergedSeries, no criterion InconclusiveSeries, and a converging
        series without a float value (alpha_sqs inf) RecurrenceOverflow, or
        InconclusiveSeries where the SERIES_N_MAX terms ran out."""
        if not 0 <= k <= self.k_max:
            raise ValueError(f"alpha index must lie in 0..{self.k_max}, got {k}")
        if self.statuses[k] == "diverged":
            raise DivergedSeries(f"alpha_{k} series diverged at z = {self.z}")
        if self.statuses[k] != "converged":
            raise InconclusiveSeries(f"no criterion decides the family, so alpha_{k} at "
                                     f"z = {self.z} has no verdict: no finite run of its "
                                     "series decides a limit")
        if not math.isfinite(self.alpha_sqs[k]):
            where = (f"alpha_{k} converges at z = {self.z} ({self.criterion}), "
                     "but its float series gave no value")
            if self.terms_used[k] >= SERIES_N_MAX:
                raise InconclusiveSeries(f"{where} within n_max = {SERIES_N_MAX} terms")
            raise RecurrenceOverflow(f"{where} in the float range after "
                                     f"{self.terms_used[k]} terms")
        return self.alphas[k]


class DeficiencyContext(PolyCache):
    """The recurrence table at scale sqrt(d) and a non-real z, with the
    degree d: the values every deficiency-space object reads, and their norms
    alpha_k (float series).  Every such table is one of these."""

    def __init__(self, coeffs: CoefficientSequence, d: int, z):
        if complex(z).imag == 0:
            raise RealSpectralParameter(
                f"deficiency-space values need a non-real z, got {z}")
        super().__init__(coeffs, matching_sqrt(d, z), z)
        self.d = d

    def f_zero(self, n: int):
        """Value on level n of the radial basis function (anchor at the root
        level of the whole tree): p_n(z) / d^(n/2), f_anchored(-1, n)."""
        return self.f_anchored(-1, n)

    def f_anchored(self, k: int, n: int):
        """Value on level n >= k + 1 inside one child subtree of an anchor
        at level k >= 0: lam_k (p_k q_n - q_k p_n) / d^((n-k-1)/2), which
        is 1 at n = k + 1 (discrete Wronskian); k = -1 gives f_zero.  The
        solution anchored at level k at weights (d, 1), which cancels
        nothing in floats."""
        if n < k + 1:
            raise ValueError(f"anchored values start at level {k + 1}, got {n}")
        return self.levels(k, (self.d, 1), n, n)[0]

    def anchored_levels(self, k: int, n: int) -> list:
        """f_anchored(k, m) for m = k + 1..n, with the error of the first
        level that fails."""
        return self.levels(k, (self.d, 1), k + 1, n)

    def alphas(self, k_max: int) -> AlphaTable:
        """alpha_k(z) for k = 0..k_max, with per-k verdicts, each summed within
        SERIES_N_MAX terms over this table, which must be a float table.

        Every status comes from the theorem that decides the sqrt(d)-scaled
        matrix from the family's exact parameters (_criterion), since each
        series sums the squares of a solution of that recurrence: ESA, every
        series diverges and none is summed (terms_used 0, alpha_sqs inf);
        not ESA, every series converges, and its value is the float sum, or
        inf in alpha_sqs where the float series gives none.  Where no
        theorem applies, every status is "inconclusive" and no series is
        summed (alpha_sqs nan); a lambda_n that is not positive is refused
        first (check_positive)."""
        if self.exact:
            raise ValueError("the alpha series are float series: read them from a float table")
        if k_max < 0:
            raise ValueError(f"k_max must be nonnegative, got {k_max}")
        criterion, verdict, _ = _criterion(self.coeffs, self.scale) or (None, None, None)
        status = {ESA: "diverged", NOT_ESA: "converged"}.get(verdict, "inconclusive")
        if verdict == NOT_ESA:
            runs = [sum_series(alpha_sq_terms(k, self), SERIES_N_MAX) for k in range(k_max + 1)]
        else:  # none is summed
            if verdict is None:
                check_positive(self.coeffs)
            unsummed = SeriesResult(status, math.inf if verdict == ESA else math.nan, 0)
            runs = [unsummed] * (k_max + 1)
        # a converging series that the float sum leaves undecided has no value: inf
        totals = [r.partial_sum + r.tail_estimate if r.status == status else math.inf
                  for r in runs]
        return AlphaTable(complex(self.z), self.d, k_max,
                          [math.sqrt(t) if math.isfinite(t) else math.nan for t in totals],
                          totals, [status] * (k_max + 1), [r.terms_used for r in runs],
                          status, criterion)


def alpha_series(coeffs: CoefficientSequence, d: int, z, k_max: int) -> AlphaTable:
    """alpha_k(z) for k = 0..k_max, with per-k verdicts, on a float
    DeficiencyContext of its own at complex(z) (DeficiencyContext.alphas)."""
    return DeficiencyContext(coeffs, d, complex(z)).alphas(k_max)


def alpha_sq_partial(coeffs: CoefficientSequence, d: int, z, k: int, n_terms: int):
    """Partial sum of the alpha_k^2 series with exactly n_terms terms, at a
    non-real z.  Exact when z is an ExactComplex (the scale is then the
    exact sqrt(d))."""
    ctx = DeficiencyContext(coeffs, d, z)
    return sum(itertools.islice(alpha_sq_terms(k, ctx), n_terms),
               0 * ctx.scale)  # 0 in the run's arithmetic
