"""Reference values, computed without treejacobi and outside every timed
region.

* Verdicts come from theory: bounded lambda gives essential selfadjointness
  (ESA); Carleman (sum 1/lambda_n infinite) gives ESA; Berezanskii
  (beta = 0, lambda log-concave, sum 1/lambda_n finite) gives not ESA; the
  paper settles its own example at d = 2.
* Exact tables come from the monic recurrence over the Gaussian rationals,
  P_{n+1} = (z - beta_n) P_n - s^2 lam_{n-1}^2 P_{n-1}, which needs no
  sqrt(d): p_n = P_n / (s^n prod_{k<n} lam_k), and q_n likewise from the
  solution with R_0 = 0, R_1 = 1 and one power of s less.
* Moments iterate the radial matrix after the diagonal similarity that
  turns its off-diagonal pair (s lam, s lam) into (s^2 lam^2, 1).
* Roots are eigenvalues from mpmath eigsy at 40 digits more than the
  largest matrix entry has, so even the smallest root is accurate; they are
  cached on disk because they cost seconds.
* Float deficiency quantities use the recurrence in mpmath at 50 digits."""
from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import mpmath

MP_DPS = 50
CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".cache")


# ---------------------------------------------------------------------------
# coefficient families, read from the CLI spec independently of treejacobi
# ---------------------------------------------------------------------------

class Family:
    def __init__(self, spec: str):
        self.spec = spec
        parts = spec.split(":")
        self.name = parts[0]
        if self.name == "paper":
            self.params = ()
        elif self.name == "constant":
            self.params = (Fraction(parts[1]), Fraction(parts[2]) if len(parts) > 2 else Fraction(0))
        elif self.name in ("geometric", "power"):
            self.params = (Fraction(parts[1]), Fraction(parts[2]))
        else:
            raise ValueError(f"no reference for family {spec!r}")

    def lam(self, n: int) -> Fraction:
        if self.name == "paper":
            return Fraction(2) ** n
        if self.name == "constant":
            return self.params[0]
        base, x = self.params
        if self.name == "geometric":
            return base * x ** n
        return base * Fraction(n + 1) ** int(x)

    def beta(self, n: int) -> Fraction:
        if self.name == "paper":
            return self.lam(0) if n == 0 else self.lam(n) + self.lam(n - 1)
        if self.name == "constant":
            return self.params[1]
        return Fraction(0)

    def esa(self, d: int, unscaled: bool = False) -> bool:
        """Whether the sqrt(d)-scaled (or unscaled) radial matrix is
        essentially selfadjoint."""
        if self.name == "constant":
            return True                          # bounded
        if self.name == "geometric":
            return self.params[1] <= 1           # bounded, else Berezanskii
        if self.name == "power":
            return self.params[1] <= 1           # Carleman, else Berezanskii
        if unscaled:
            return True                          # p_n(0) = (-1)^n
        if d == 2:
            return False                         # the paper's worked example
        raise ValueError(f"no theory verdict for {self.spec} at d = {d}")


# ---------------------------------------------------------------------------
# exact recurrence over Q(i), values returned as (ar, ai, br, bi, m)
# ---------------------------------------------------------------------------

def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _gscale(a, c):
    return (a[0] * c, a[1] * c)


def _over_power(x, s2: int, j: int, radical: bool) -> tuple:
    """x / s^j as (ar, ai, br, bi, m) where s = sqrt(s2) (radical) or s2 = 1."""
    if not radical:
        return (x[0], x[1], Fraction(0), Fraction(0), 1)
    if j % 2 == 0:
        c = Fraction(1, s2 ** (j // 2))
        return (x[0] * c, x[1] * c, Fraction(0), Fraction(0), s2)
    c = Fraction(1, s2 ** ((j + 1) // 2))         # x / s^j = x s / s2^((j+1)/2)
    return (Fraction(0), Fraction(0), x[0] * c, x[1] * c, s2)


def exact_pq(spec: str, d, z, N: int):
    """Exact p_0..p_N and q_0..q_N at Gaussian-rational z = (re, im), with
    scale sqrt(d) (d = None: scale 1)."""
    fam = Family(spec)
    radical = d is not None
    s2 = d if radical else 1
    P = [(Fraction(1), Fraction(0)), _gsub(z, (fam.beta(0), Fraction(0)))]
    R = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]
    lam = [fam.lam(n) for n in range(N + 1)]
    for n in range(1, N):
        shift = _gsub(z, (fam.beta(n), Fraction(0)))
        c = s2 * lam[n - 1] ** 2
        P.append(_gsub(_gmul(shift, P[n]), _gscale(P[n - 1], c)))
        R.append(_gsub(_gmul(shift, R[n]), _gscale(R[n - 1], c)))
    p, q, prod = [], [], Fraction(1)
    for n in range(N + 1):
        p.append(_over_power(_gscale(P[n], 1 / prod), s2, n, radical))
        q.append(_over_power(_gscale(R[n], 1 / prod), s2, n - 1, radical)
                 if n else (Fraction(0),) * 4 + (1,))
        prod *= lam[n]
    return p, q


# a + b sqrt(m) with Gaussian a, b, as the 5-tuples above

def _radical(v):
    return (v[0], v[1]), (v[2], v[3])


def qmul(u, v, m: int):
    a1, b1 = _radical(u)
    a2, b2 = _radical(v)
    a = _gsub(_gmul(a1, a2), _gscale(_gmul(b1, b2), -m))
    b = _gsub(_gmul(a1, b2), _gscale(_gmul(b1, a2), -1))
    return (a[0], a[1], b[0], b[1], m)


def qsub(u, v, m: int):
    return tuple(x - y for x, y in zip(u[:4], v[:4])) + (m,)


def qadd(u, v, m: int):
    return tuple(x + y for x, y in zip(u[:4], v[:4])) + (m,)


def qscale(u, c, m: int):
    """u * c for a Gaussian rational c = (re, im)."""
    a, b = _radical(u)
    a, b = _gmul(a, c), _gmul(b, c)
    return (a[0], a[1], b[0], b[1], m)


def qabs2(u, m: int):
    a, b = _radical(u)
    na = a[0] ** 2 + a[1] ** 2 + m * (b[0] ** 2 + b[1] ** 2)
    cross = 2 * (a[0] * b[0] + a[1] * b[1])
    return (na, Fraction(0), cross, Fraction(0), m)


def qover_sqrt_power(u, d: int, j: int):
    """u / d^(j/2)."""
    for _ in range(j // 2):
        u = tuple(x / d for x in u[:4]) + (d,)
    if j % 2:
        u = (u[2], u[3], u[0] / d, u[1] / d, d)    # (A + B rt)/rt = B + (A/d) rt
    return u


def exact_alpha_sq(spec: str, d: int, z, k: int, n_terms: int):
    """Exact partial sum of the alpha_k^2 series with n_terms terms."""
    p, q = exact_pq(spec, d, z, k + n_terms)
    total = (Fraction(0),) * 4 + (d,)
    if k == 0:
        for n in range(n_terms):
            total = qadd(total, qabs2(p[n], d), d)
        return total
    lam2 = Family(spec).lam(k - 1) ** 2
    for n in range(k, k + n_terms):
        w = qsub(qmul(p[k - 1], q[n], d), qmul(q[k - 1], p[n], d), d)
        total = qadd(total, qabs2(w, d), d)
    return tuple(x * lam2 for x in total[:4]) + (d,)


def exact_materialize(spec: str, d: int, z, anchor, coeffs, depth: int) -> list:
    """(address, value) of a materialized anchored element, sorted."""
    k = len(anchor)
    p, q = exact_pq(spec, d, z, depth)
    lam = Family(spec).lam(k)
    values = {}
    for n in range(k + 1, depth + 1):
        w = qsub(qmul(p[k], q[n], d), qmul(q[k], p[n], d), d)
        values[n] = qover_sqrt_power(tuple(x * lam for x in w[:4]) + (d,), d, n - k - 1)
    out = []

    def walk(x):
        out.append(x)
        if len(x) < depth:
            for i in range(1, d + 1):
                walk(x + (i,))
    for i, c in enumerate(coeffs, start=1):
        if c[0] or c[1]:
            start = len(out)
            walk(tuple(anchor) + (i,))
            out[start:] = [(x, qscale(values[len(x)], (Fraction(c[0]), Fraction(c[1])), d))
                           for x in out[start:]]
    return sorted(out)


def exact_moments(spec: str, d: int, N: int) -> list:
    fam = Family(spec)
    beta = [fam.beta(j) for j in range(N + 1)]
    upper = [d * fam.lam(j) ** 2 for j in range(N)]
    v = [Fraction(1)] + [Fraction(0)] * N
    out = [Fraction(1)]
    for _ in range(N):
        v = [beta[j] * v[j] + (upper[j] * v[j + 1] if j < N else 0)
             + (v[j - 1] if j > 0 else 0) for j in range(N + 1)]
        out.append(v[0])
    return out


# ---------------------------------------------------------------------------
# roots of p_n: mpmath eigsy on the leading n-by-n block, cached on disk
# ---------------------------------------------------------------------------

def mpq(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def roots(spec: str, d: int, n: int) -> list:
    """The n roots of p_n (scale sqrt(d)) as mpf, ascending."""
    path = os.path.join(CACHE_DIR, f"roots-{spec.replace(':', '_').replace('/', '-')}-{d}-{n}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return [mpmath.mpf(s) for s in json.load(fh)]
    except (OSError, ValueError):
        pass
    fam = Family(spec)
    top = max([abs(fam.beta(k)) for k in range(n)] + [fam.lam(k) * d for k in range(n)])
    dps = 40 + max(0, int(math.log10(float(top) + 1)) + 1)
    with mpmath.workdps(dps):
        A = mpmath.zeros(n, n)
        s = mpmath.sqrt(d)
        for k in range(n):
            A[k, k] = mpq(fam.beta(k))
            if k + 1 < n:
                A[k, k + 1] = A[k + 1, k] = s * mpq(fam.lam(k))
        values = sorted(mpmath.eigsy(A, eigvals_only=True))
        text = [mpmath.nstr(v, dps) for v in values]
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(text, fh)
    os.replace(tmp, path)
    return [mpmath.mpf(t) for t in text]


# ---------------------------------------------------------------------------
# float deficiency quantities at non-real z, in mpmath
# ---------------------------------------------------------------------------

class MpSeries:
    """p_n, q_n at complex z with scale sqrt(d), extended on demand."""

    def __init__(self, spec: str, d: int, z: complex):
        self.fam, self.d = Family(spec), d
        with mpmath.workdps(MP_DPS):
            self.s = mpmath.sqrt(d)
            self.z = mpmath.mpc(z.real, z.imag)
            lam0 = mpq(self.fam.lam(0))
            self.p = [mpmath.mpc(1), (self.z - mpq(self.fam.beta(0))) / (self.s * lam0)]
            self.q = [mpmath.mpc(0), 1 / lam0]

    def extend(self, n: int) -> None:
        with mpmath.workdps(MP_DPS):
            while len(self.p) <= n:
                m = len(self.p) - 1
                a = self.s * mpq(self.fam.lam(m))
                b = self.s * mpq(self.fam.lam(m - 1))
                c = self.z - mpq(self.fam.beta(m))
                self.p.append((c * self.p[m] - b * self.p[m - 1]) / a)
                self.q.append((c * self.q[m] - b * self.q[m - 1]) / a)

    def f_zero(self, n: int):
        self.extend(n)
        with mpmath.workdps(MP_DPS):
            return self.p[n] / mpmath.power(self.d, mpmath.mpf(n) / 2)

    def f_anchored(self, k: int, n: int):
        self.extend(n)
        with mpmath.workdps(MP_DPS):
            w = self.p[k] * self.q[n] - self.q[k] * self.p[n]
            return mpq(self.fam.lam(k)) * w / mpmath.power(self.d, mpmath.mpf(n - k - 1) / 2)

    def alpha_sq(self, k: int, max_terms: int = 20000):
        """alpha_k^2, or None when the terms do not decay geometrically."""
        with mpmath.workdps(MP_DPS):
            total, n, tail = mpmath.mpf(0), k, []
            lam2 = mpq(self.fam.lam(k - 1)) ** 2 if k else 1
            while n < k + max_terms:
                self.extend(n)
                if k == 0:
                    t = abs(self.p[n]) ** 2
                else:
                    t = lam2 * abs(self.p[k - 1] * self.q[n] - self.q[k - 1] * self.p[n]) ** 2
                total += t
                tail.append(t)
                n += 1
                if len(tail) > 40:
                    tail.pop(0)
                    # geometric tail bound over a window of 20 steps
                    r = (tail[-1] + tail[-2]) / (tail[-21] + tail[-22] + mpmath.mpf(10) ** -300)
                    if r < 0.5 and t < mpmath.mpf(10) ** -30 * total:
                        return total
            return None
