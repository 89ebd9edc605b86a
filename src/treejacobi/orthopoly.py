"""Three-term recurrences: first/second-kind values p_n(z), q_n(z), their
roots, and the norm series alpha_k(z)."""
from __future__ import annotations

import cmath
import csv
import itertools
import math
import statistics
from collections import deque
from dataclasses import dataclass
from numbers import Rational
from typing import Iterable, Iterator, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .coefficients import CoefficientSequence, _accessors
from .errors import ConvergenceFailure, RealSpectralParameter, RecurrenceOverflow
from .exactnum import (ExactComplex, abs2, as_complex, is_exact, is_zero,
                       matching_sqrt)

RATIO_CEILING = 0.99
CONVERGENCE_WINDOW = 8
STALL_WINDOW = 64


def _wants_exact(scale, z) -> bool:
    return is_exact(scale) or is_exact(z)


def poly_pairs(coeffs: CoefficientSequence, scale, z) -> Iterator[tuple]:
    """Yield (n, p_n(z), q_n(z)) indefinitely.

    Off-diagonal entries are scale*lambda_n; initial data p_0 = 1,
    p_1 = (z - beta_0)/(scale*lambda_0), q_0 = 0, q_1 = 1/lambda_0.
    Runs in exact arithmetic when scale or z is an ExactComplex; the other
    must then be exact too (an int, a Fraction or an ExactComplex).  In
    float mode z and scale must be finite; scale must be nonzero.  Each
    step fetches lambda_n and beta_n once.
    """
    exact = _wants_exact(scale, z)
    lam, beta = _accessors(coeffs, exact)

    def number(v):
        if not exact:
            return complex(v)
        if is_exact(v):
            return v
        if isinstance(v, Rational):
            return ExactComplex.from_rational(v)
        raise ValueError(f"exact mode takes int, Fraction or ExactComplex values, got {v!r}")

    scale, z, one, zero = number(scale), number(z), number(1), number(0)
    if not exact and not (cmath.isfinite(scale) and cmath.isfinite(z)):
        raise ValueError(f"scale and z must be finite, got scale={scale}, z={z}")
    if is_zero(scale):
        raise ValueError("scale must be nonzero")

    p_prev, p_cur = zero, one
    q_prev, q_cur = zero, zero
    n = 0
    while True:
        yield n, p_cur, q_cur
        shift = z - beta(n)
        lam_n = lam(n)
        off_n = scale * lam_n
        if n == 0:
            p_next = shift / off_n
            q_next = one / lam_n
        else:
            p_next = (shift * p_cur - off_prev * p_prev) / off_n
            q_next = (shift * q_cur - off_prev * q_prev) / off_n
        if not exact and not (cmath.isfinite(p_next) and cmath.isfinite(q_next)):
            raise RecurrenceOverflow(
                f"recurrence value left the float range at index {n + 1}; "
                "switch to exact mode or rescale")
        p_prev, p_cur = p_cur, p_next
        q_prev, q_cur = q_cur, q_next
        off_prev = off_n
        n += 1


@dataclass
class PolyTable:
    """Values p_0..p_N and q_0..q_N at a fixed spectral parameter."""

    coeffs: CoefficientSequence
    scale: object
    z: object
    N: int
    p: list
    q: list
    exact_mode: bool

    def to_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["n", "Re p", "Im p", "Re q", "Im q"])
        for n in range(self.N + 1):
            pv, qv = as_complex(self.p[n]), as_complex(self.q[n])
            writer.writerow([n, repr(pv.real), repr(pv.imag), repr(qv.real), repr(qv.imag)])


def compute_polys(coeffs: CoefficientSequence, scale, z, N: int) -> PolyTable:
    """Tabulate p_n(z), q_n(z) up to index N.

    Exact mode is selected by passing ExactComplex values for scale or z
    (see exact_sqrt / exact_complex).
    """
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    p, q = [], []
    for n, pv, qv in poly_pairs(coeffs, scale, z):
        p.append(pv)
        q.append(qv)
        if n == N:
            break
    return PolyTable(coeffs, scale, z, N, p, q, _wants_exact(scale, z))


def wronskian_residual(table: PolyTable) -> list:
    """|p_n q_{n+1} - p_{n+1} q_n - 1/lambda_n| for each n < N.

    Exact tables give exact zeros."""
    lam, _ = _accessors(table.coeffs, table.exact_mode)
    p, q = table.p, table.q
    return [abs(p[n] * q[n + 1] - p[n + 1] * q[n] - 1 / lam(n)) for n in range(table.N)]


def wronskian_scale(table: PolyTable) -> list:
    """Magnitude scale max(1, |p_n q_{n+1}| + |p_{n+1} q_n|, 1/lambda_n) per n,
    for relative residual checks."""
    out = []
    for n in range(table.N):
        out.append(max(1.0,
                       abs(as_complex(table.p[n])) * abs(as_complex(table.q[n + 1]))
                       + abs(as_complex(table.p[n + 1])) * abs(as_complex(table.q[n])),
                       1.0 / table.coeffs.lam(n)))
    return out


def poly_roots(coeffs: CoefficientSequence, scale: float, n: int) -> np.ndarray:
    """The n real simple roots of p_n, ascending.

    Computed as eigenvalues of the leading n-by-n tridiagonal block with
    diagonal beta_k and off-diagonal scale*lambda_k, by LAPACK bisection
    (stebz).  An absolute tolerance of twice the underflow threshold gives
    every root, small and zero ones included, to small relative error
    (Barlow & Demmel 1990).
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    diag = np.array([coeffs.beta(k) for k in range(n)])
    off = np.array([scale * coeffs.lam(k) for k in range(n - 1)])
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
    status: str  # "converged" | "diverged" | "inconclusive"
    partial_sum: float
    terms_used: int
    tail_estimate: float = 0.0
    ratio: Optional[float] = None
    note: str = ""


def sum_series(terms: Iterable[float], tol: float = 1e-12, n_max: int = 100_000,
               window: int = CONVERGENCE_WINDOW,
               stall_window: int = STALL_WINDOW) -> SeriesResult:
    """Sum nonnegative terms until a convergence or divergence verdict.

    Converged: the last `window` terms are all below tol * partial_sum and
    the sum of the last `window` terms is below RATIO_CEILING**window times
    the sum of the `window` terms before them.  Comparing block sums, not
    single-step ratios, certifies terms that alternate between two decay
    phases.  With R the ratio of the two block sums, the reported ratio is
    R**(1/window) and the geometric tail is newer_block * R / (1 - R).

    Diverged: the partial sum exceeds 1/tol, a term leaves the float range,
    or the terms stop decreasing (the median of the last `stall_window`
    terms is no smaller than the median of the preceding block).

    Otherwise inconclusive after n_max terms.  tol must be finite and
    positive, n_max at least 1.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    s = 0.0
    recent: deque = deque(maxlen=2 * max(window, stall_window))
    count = 0
    for t in terms:
        if count >= n_max:
            break
        if not math.isfinite(t):
            return SeriesResult("diverged", s, count, note="term overflowed the float range")
        s += t
        count += 1
        recent.append(t)

        if s > 1.0 / tol:
            return SeriesResult("diverged", s, count, note="partial sum exceeded 1/tol")

        if t < tol * s and count >= 2 * window:
            last = list(itertools.islice(reversed(recent), 2 * window))
            newer, older = sum(last[:window]), sum(last[window:])
            if all(v < tol * s for v in last[:window]) and (
                    newer < RATIO_CEILING ** window * older or newer == older == 0):
                big_r = newer / older if older > 0 else 0.0
                tail_est = newer * big_r / (1.0 - big_r)
                return SeriesResult("converged", s, count, tail_est,
                                    big_r ** (1.0 / window))

        if count % stall_window == 0 and count >= 2 * stall_window:
            block = list(recent)[-2 * stall_window:]
            older = statistics.median(block[:stall_window])
            newer = statistics.median(block[stall_window:])
            if newer >= older and newer > 0:
                return SeriesResult(
                    "diverged", s, count,
                    note=f"terms stopped decreasing over {stall_window} consecutive terms")
    return SeriesResult("inconclusive", s, count,
                        note=f"no verdict after {count} terms")


class PolyCache:
    """Lazily extended p/q tables shared by the series computations.

    The arithmetic is fixed here, from the types of scale and z.  Once the
    recurrence fails, every later extension raises that same error."""

    def __init__(self, coeffs: CoefficientSequence, scale, z):
        self.exact = _wants_exact(scale, z)
        self._gen = poly_pairs(coeffs, scale, z)
        self._error: Optional[Exception] = None
        self.p: list = []
        self.q: list = []

    def ensure(self, n: int) -> None:
        if self._error is not None:
            raise self._error
        try:
            while len(self.p) <= n:
                _, pv, qv = next(self._gen)
                self.p.append(pv)
                self.q.append(qv)
        except Exception as exc:
            self._error = exc
            raise


def alpha_sq_terms(coeffs: CoefficientSequence, k: int, cache: PolyCache) -> Iterator:
    """Terms of the alpha_k(z)^2 series, in the arithmetic of the cache.

    k = 0: |p_n|^2 for n >= 0.
    k >= 1: lambda_{k-1}^2 |p_{k-1} q_n - q_{k-1} p_n|^2 for n >= k.
    """
    if k == 0:
        n = 0
        while True:
            cache.ensure(n)
            yield abs2(cache.p[n])
            n += 1
    else:
        cache.ensure(k)
        lam, _ = _accessors(coeffs, cache.exact)
        lam2 = lam(k - 1) ** 2
        pk, qk = cache.p[k - 1], cache.q[k - 1]
        n = k
        while True:
            cache.ensure(n)
            yield lam2 * abs2(pk * cache.q[n] - qk * cache.p[n])
            n += 1


@dataclass
class AlphaTable:
    """Norm coefficients alpha_0..alpha_K at a fixed non-real z."""

    z: complex
    d: int
    k_max: int
    alphas: list
    alpha_sqs: list
    statuses: list
    terms_used: list
    tail_estimates: list
    status: str
    tol: float
    n_max: int

    def alpha(self, k: int) -> float:
        from .errors import DivergedSeries, InconclusiveSeries
        if self.statuses[k] == "diverged":
            raise DivergedSeries(f"alpha_{k} series diverged at z = {self.z}")
        if self.statuses[k] != "converged":
            raise InconclusiveSeries(f"alpha_{k} series inconclusive at z = {self.z}")
        return self.alphas[k]


def alpha_series(coeffs: CoefficientSequence, d: int, z: complex, k_max: int,
                 tol: float = 1e-12, n_max: int = 100_000) -> AlphaTable:
    """alpha_k(z) for k = 0..k_max, with per-k series verdicts.

    Requires non-real z; uses the sqrt(d)-scaled recurrence."""
    zc = complex(z)
    if zc.imag == 0:
        raise RealSpectralParameter(f"alpha series needs a non-real z, got {z}")
    cache = PolyCache(coeffs, math.sqrt(d), zc)
    alphas, alpha_sqs, statuses, used, tails = [], [], [], [], []
    for k in range(k_max + 1):
        try:
            res = sum_series(alpha_sq_terms(coeffs, k, cache), tol=tol, n_max=n_max)
        except RecurrenceOverflow:
            res = SeriesResult("diverged", math.inf, len(cache.p),
                               note="recurrence overflow while summing")
        total = res.partial_sum + res.tail_estimate
        alphas.append(math.sqrt(total) if res.status == "converged" else math.nan)
        alpha_sqs.append(total)
        statuses.append(res.status)
        used.append(res.terms_used)
        tails.append(res.tail_estimate)
    if all(s == "converged" for s in statuses):
        overall = "converged"
    elif any(s == "diverged" for s in statuses):
        overall = "diverged"
    else:
        overall = "inconclusive"
    return AlphaTable(zc, d, k_max, alphas, alpha_sqs, statuses, used, tails,
                      overall, tol, n_max)


def alpha_sq_partial(coeffs: CoefficientSequence, d: int, z, k: int, n_terms: int):
    """Partial sum of the alpha_k^2 series with exactly n_terms terms.

    Exact when z is an ExactComplex (the scale is then the exact sqrt(d))."""
    scale = matching_sqrt(d, z)
    terms = alpha_sq_terms(coeffs, k, PolyCache(coeffs, scale, z))
    return sum(itertools.islice(terms, n_terms), 0 * scale)  # 0 in the run's arithmetic
