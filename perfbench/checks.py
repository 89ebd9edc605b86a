"""Check every output against its reference.

A check returns (defect, detail): defect None means the output is right.
Known defects of treejacobi are named, so a run lists them apart from
anything new; every failed request counts, whatever its class.

Tolerances are fixed here, before any run, from the arithmetic involved:
exact results must match bit for bit; float results get the bounds below."""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import mpmath

import reference as ref
from common import cplx, exact_digest

ROOT_TOL = 1e-12           # normwise, roots and dense spectra
WRONSKIAN_TOL = 1e-9       # relative, float Wronskian identity
RESIDUAL_TOL = 1e-10       # element_residual relative to element_max_abs
EIGEN_TOL = 1e-9           # eigenpair residual relative to ||f|| * ||J||
ALPHA_TOL = 1e-8           # relative, alpha_k and values built from them
VALUE_TOL = 1e-12          # relative, float values of exact tables

OVERFLOW_RAW = "a: OverflowError from CoefficientSequence.lam escapes"
OVERFLOW_AS_DIVERGENCE = "b: float overflow of the recurrence reported as divergence"
DEAD_CACHE = ("c: after a recurrence overflow the next series over the same PolyCache "
              "raises RuntimeError (generator raised StopIteration)")
UNKNOWN = "new: wrong answer or unexpected error"
KNOWN_DEFECTS = (OVERFLOW_RAW, OVERFLOW_AS_DIVERGENCE, DEAD_CACHE)


class Refs:
    """Per-run memo of reference values."""

    def __init__(self):
        self.roots = {}
        self.series = {}

    def roots_of(self, spec, d, n):
        key = (spec, d, n)
        if key not in self.roots:
            self.roots[key] = ref.roots(spec, d, n)
        return self.roots[key]

    def mp_series(self, spec, d, z):
        key = (spec, d, z)
        if key not in self.series:
            self.series[key] = ref.MpSeries(spec, d, z)
        return self.series[key]

    def alpha_sq(self, spec, d, z, k):
        return self.mp_series(spec, d, z).alpha_sq(k)


def _error_defect(error):
    if error["type"] == "OverflowError" and error["where"] == "coefficients.lam":
        return OVERFLOW_RAW, error["message"]
    if error["type"] == "RuntimeError" and "generator raised StopIteration" in error["message"]:
        return DEAD_CACHE, f"{error['where']}: {error['message']}"
    return UNKNOWN, f"{error['type']} in {error['where']}: {error['message']}"


def _normwise(values, expected) -> float:
    """max |v - e| / max |e| over paired sorted lists (inf on a count mismatch)."""
    if len(values) != len(expected):
        return math.inf
    scale = max((abs(e) for e in expected), default=1) or 1
    return float(max((abs(mpmath.mpf(v) - e) for v, e in zip(values, expected)),
                     default=0) / scale)


def max_rel_err(values, expected) -> float:
    """Largest rootwise relative error; a root below 1e-12 of the largest
    (a root at 0) is measured against 1e-12 of the largest."""
    floor = max(abs(e) for e in expected) * mpmath.mpf("1e-12")
    return float(max(abs(mpmath.mpf(v) - e) / max(abs(e), floor)
                     for v, e in zip(values, expected)))


def _rel(a: complex, b, floor: float = 1e-300) -> float:
    return abs(a - complex(b)) / max(abs(complex(b)), floor)


def _merged(points, tol=1e-10):
    out = []
    for t in sorted(points):
        if not out or abs(t - out[-1]) > tol:
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def verdict_defect(esa: bool, verdict: str, diagnostics: str):
    if verdict == "inconclusive" or (verdict == "essentially_selfadjoint") == esa:
        return None, ""
    if "overflow" in diagnostics:
        return OVERFLOW_AS_DIVERGENCE, f"{verdict}: {diagnostics}"
    return UNKNOWN, f"{verdict} contradicts theory: {diagnostics}"


def check_classify(req, s, refs):
    esa = ref.Family(req["spec"]).esa(req["d"], unscaled=req.get("scale") == 1.0)
    return verdict_defect(esa, s["verdict"], s["diagnostics"])


def alpha_defect(esa: bool, s):
    expected = "diverged" if esa else "converged"
    for k, status in enumerate(s["statuses"]):
        if status in ("inconclusive", expected):
            continue
        if status == "diverged" and s["alpha_sqs"][k] == "inf":
            return OVERFLOW_AS_DIVERGENCE, f"alpha_{k}: diverged on recurrence overflow"
        return UNKNOWN, f"alpha_{k}: {status}, theory says {expected}"
    return None, ""


def check_alpha(req, s, refs):
    return alpha_defect(ref.Family(req["spec"]).esa(req["d"]), s)


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def _flag(argv, name, default=None):
    for i, token in enumerate(argv):
        if token == name:
            return argv[i + 1]
        if token.startswith(name + "="):
            return token[len(name) + 1:]
    return default


def _z(argv):
    re, im = _flag(argv, "--z", "0,1").split(",")
    return re, im


def check_cli(req, s, refs):
    argv = req["argv"]
    if s["code"] != 0:
        return UNKNOWN, f"exit code {s['code']}: {s['err']}"
    command = argv[0]
    spec = _flag(argv, "--coeffs", "paper")
    d = int(_flag(argv, "--d", "2"))
    if command == "polys":
        return _check_polys_csv(spec, d, argv, s["out"])
    out = json.loads(s["out"])
    if command == "classify":
        esa = ref.Family(spec).esa(d)
        return verdict_defect(esa, out["verdict"], out["diagnostics"])
    if command == "paper-example":
        bad = [name for name, c in out["checks"].items() if not c["pass"]]
        return (None, "") if out["overall_pass"] and not bad else (UNKNOWN, f"failed {bad}")
    if command == "lambda":
        return _check_lambda(spec, d, int(_flag(argv, "--n")), out, refs)
    if command == "poisson":
        if out["matching_convention"] == "neither":
            return UNKNOWN, "reproducing identity holds under neither convention"
        return None, ""
    if command == "deficiency":
        return _check_deficiency_cli(spec, d, argv, out, refs)
    if command == "oracle":
        return _check_oracle_cli(spec, d, int(_flag(argv, "--n")), out, refs)
    return UNKNOWN, f"no check for {command}"


def _check_polys_csv(spec, d, argv, text):
    n = int(_flag(argv, "--n"))
    re, im = _z(argv)
    p, q = ref.exact_pq(spec, d, (Fraction(re), Fraction(im)), n)
    rows = list(csv.reader(io.StringIO(text)))[1:]
    if len(rows) != n + 1:
        return UNKNOWN, f"{len(rows)} rows for n = {n}"
    root = mpmath.sqrt(d)
    got_p, got_q = [], []
    for row, pe, qe in zip(rows, p, q):
        gp, gq = complex(float(row[1]), float(row[2])), complex(float(row[3]), float(row[4]))
        for got, e in ((gp, pe), (gq, qe)):
            want = complex(ref.mpq(Fraction(e[0])) + ref.mpq(Fraction(e[2])) * root,
                           ref.mpq(Fraction(e[1])) + ref.mpq(Fraction(e[3])) * root)
            if abs(got - want) > VALUE_TOL * abs(want) + 1e-300:
                return UNKNOWN, f"row {row[0]}: {got} != {want}"
        got_p.append(gp)
        got_q.append(gq)
    fam = ref.Family(spec)
    for k in range(n):
        lam_inv = 1.0 / float(fam.lam(k))
        w = got_p[k] * got_q[k + 1] - got_p[k + 1] * got_q[k]
        scale = max(1.0, abs(got_p[k]) * abs(got_q[k + 1]) + abs(got_p[k + 1]) * abs(got_q[k]),
                    lam_inv)
        if abs(w - lam_inv) > WRONSKIAN_TOL * scale:
            return UNKNOWN, f"float Wronskian off at n = {k}: {w} vs {lam_inv}"
    return None, ""


def _check_roots(values, spec, d, n, refs, what="roots"):
    err = _normwise(values, refs.roots_of(spec, d, n))
    if not err <= ROOT_TOL:
        return UNKNOWN, f"{what} of p_{n}: normwise error {err:.3g}"
    return None, ""


def _check_spectrum(points, spec, d, n_max, refs):
    expected = _merged([r for n in range(1, n_max + 1) for r in refs.roots_of(spec, d, n)])
    err = _normwise(points, expected)
    if not err <= ROOT_TOL:
        return UNKNOWN, f"spectrum to n_max = {n_max}: normwise error {err:.3g}"
    return None, ""


def _check_eigenpairs(values, residuals, norms, spec, d, n, refs):
    if len(values) != n * (d - 1):
        return UNKNOWN, f"{len(values)} eigenpairs, expected {n * (d - 1)}"
    roots = refs.roots_of(spec, d, n)
    err = _normwise(sorted(values), sorted(roots * (d - 1)))
    if not err <= ROOT_TOL:
        return UNKNOWN, f"eigenvalues: normwise error {err:.3g} against the roots of p_{n}"
    fam = ref.Family(spec)
    size = max(abs(float(r)) for r in roots) + max(
        float(fam.lam(k)) for k in range(n + 1)) * (d + 1)
    for r, nrm in zip(residuals, norms):
        if not r <= EIGEN_TOL * size * nrm:
            return UNKNOWN, f"eigenpair residual {r:.3g} for norm {nrm:.3g}"
    return None, ""


def _check_lambda(spec, d, n, out, refs):
    if not out["dimension"]["identity_holds"]:
        return UNKNOWN, "dimension identity fails"
    pairs = out["eigenpairs"]
    norms = [math.sqrt(sum(v["re"] ** 2 + v["im"] ** 2 for v in p["values"])) for p in pairs]
    defect, detail = _check_eigenpairs([p["eigenvalue"] for p in pairs],
                                       [p["residual"] for p in pairs], norms,
                                       spec, d, n, refs)
    if defect:
        return defect, detail
    return _check_spectrum(out["spectrum_points"], spec, d, n, refs)


def _check_deficiency_cli(spec, d, argv, out, refs):
    if not out["residual"] <= RESIDUAL_TOL * out["max_abs"]:
        return UNKNOWN, f"residual {out['residual']:.3g} of max {out['max_abs']:.3g}"
    if out["alpha_status"] != "converged":
        return UNKNOWN, f"alpha series {out['alpha_status']}"
    re, im = _z(argv)
    z = complex(float(re), float(im))
    for k, a in enumerate(out["alphas"]):
        want = refs.alpha_sq(spec, d, z, k)
        if want is None or _rel(a, mpmath.sqrt(want)) > ALPHA_TOL:
            return UNKNOWN, f"alpha_{k} = {a}, reference {want}"
    return None, ""


def _check_oracle_cli(spec, d, n, out, refs):
    for what in ("roots", "block_eigenvalues"):
        defect, detail = _check_roots(sorted(out[what]), spec, d, n, refs, what)
        if defect:
            return defect, detail
    want = [str(m) for m in ref.exact_moments(spec, d, min(n, 10))]
    if not (out["moments_agree"] and out["moments_matrix"] == want
            and out["moments_tree"] == want):
        return UNKNOWN, "moments differ from the reference"
    return None, ""


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def _fz(req):
    return (Fraction(req["z"][0]), Fraction(req["z"][1]))


def check_wronskian(req, s, refs):
    p, q = ref.exact_pq(req["spec"], req["d"], _fz(req), req["N"])
    if s["p"] != exact_digest(p) or s["q"] != exact_digest(q):
        return UNKNOWN, "exact table differs from the reference"
    if not s["residual_zero"]:
        return UNKNOWN, "exact Wronskian residual is not zero"
    return None, ""


def check_alternation(req, s, refs):
    n = req["N"]
    want = [(Fraction((-1) ** k), 0, 0, 0, 1) for k in range(n + 1)]
    if s["p"] != exact_digest(want):
        return UNKNOWN, "p_n(0) is not (-1)^n"
    return None, ""


def check_alpha_sq(req, s, refs):
    want = ref.exact_alpha_sq(req["spec"], req["d"], _fz(req), req["k"], req["n_terms"])
    if s["digest"] != exact_digest([want]):
        return UNKNOWN, "partial sum differs from the reference"
    return None, ""


def check_moments(req, s, refs):
    want = [str(m) for m in ref.exact_moments(req["spec"], req["d"], req["N"])]
    if s["moments"] != want:
        return UNKNOWN, f"{req['route']}-route moments differ from the reference"
    return None, ""


def check_materialize_exact(req, s, refs):
    want = ref.exact_materialize(req["spec"], req["d"], _fz(req), req["anchor"],
                                 req["coeffs"], req["depth"])
    if s["count"] != len(want) or s["digest"] != exact_digest(v for _, v in want):
        return UNKNOWN, "materialized values differ from the reference"
    if not s["level_sums_zero"]:
        return UNKNOWN, "level sums do not cancel"
    return None, ""


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def check_roots(req, s, refs):
    return _check_roots(s["roots"], req["spec"], req["d"], req["n"], refs)


def check_spectrum(req, s, refs):
    if s["counts"] != list(range(1, req["n_max"] + 1)):
        return UNKNOWN, f"per-degree counts {s['counts']}"
    return _check_spectrum(s["points"], req["spec"], req["d"], req["n_max"], refs)


def check_eigenpairs(req, s, refs):
    return _check_eigenpairs(s["eigenvalues"], s["residuals"], s["norms"],
                             req["spec"], req["d"], req["n"], refs)


def check_dense(req, s, refs):
    """The radial block's eigenvalues are eigenvalues of the whole section."""
    vals = s["eigenvalues"]
    d, depth = req["d"], req["depth"]
    if len(vals) != (d ** (depth + 1) - 1) // (d - 1):
        return UNKNOWN, f"{len(vals)} eigenvalues"
    scale = max(abs(v) for v in vals)
    for r in refs.roots_of(req["spec"], d, depth + 1):
        gap = min(abs(v - float(r)) for v in vals)
        if not gap <= ROOT_TOL * scale:
            return UNKNOWN, f"radial eigenvalue {float(r)} missing (gap {gap:.3g})"
    return None, ""


def _session_ref(req, refs):
    return refs.mp_series(req["spec"], req["d"], cplx(req["z"]))


def check_s_alpha(req, s, refs):
    if s["status"] != "converged":
        return UNKNOWN, f"alpha series {s['status']}"
    z = cplx(req["z"])
    for k, a in enumerate(s["alphas"]):
        want = refs.alpha_sq(req["spec"], req["d"], z, k)
        if want is None or _rel(a, mpmath.sqrt(want)) > ALPHA_TOL:
            return UNKNOWN, f"alpha_{k} = {a}, reference {want}"
    return None, ""


def check_s_residual(req, s, refs):
    if not s["residual"] <= RESIDUAL_TOL * s["max_abs"]:
        return UNKNOWN, f"residual {s['residual']:.3g} of max {s['max_abs']:.3g}"
    return None, ""


def check_s_materialize(req, s, refs):
    d, y, depth = req["d"], req["y"], req["depth"]
    k = len(y) - 1
    coeffs = [cplx(c) for c in req["coeffs"]]
    per_branch = (d ** (depth - k) - 1) // (d - 1)
    if s["count"] != per_branch * sum(1 for c in coeffs if c != 0):
        return UNKNOWN, f"{s['count']} entries"
    series = _session_ref(req, refs)
    peak = max(abs(cplx(v)) for v in s["profile"].values())
    for key, v in s["profile"].items():
        branch, level = map(int, key.split(":"))
        want = complex(coeffs[branch - 1] * series.f_anchored(k, level))
        if abs(cplx(v) - want) > ALPHA_TOL * peak:
            return UNKNOWN, f"value at branch {branch}, level {level}: {v} vs {want}"
    if s["radial_spread"] > VALUE_TOL * peak:
        return UNKNOWN, "values are not radial on a branch"
    return None, ""


def check_s_poisson(req, s, refs):
    """The kernel integrates to f_e(y) / alpha_0."""
    series = _session_ref(req, refs)
    want = series.f_zero(len(req["y"])) / mpmath.sqrt(series.alpha_sq(0))
    if _rel(cplx(s["integral"]), want) > ALPHA_TOL:
        return UNKNOWN, f"kernel integral {s['integral']} vs {complex(want)}"
    return None, ""


def check_s_reproduce(req, s, refs):
    if s["convention"] == "neither":
        return UNKNOWN, "reproducing identity holds under neither convention"
    return None, ""


def check_s_project(req, s, refs):
    """An orthogonal projection P has <P delta_y, delta_y> = ||P delta_y||^2."""
    if s["count"] != len(req["y"]) + 1:
        return UNKNOWN, f"{s['count']} elements"
    if _rel(cplx(s["value_at_y"]), s["norm_sq"]) > ALPHA_TOL:
        return UNKNOWN, f"value at y {s['value_at_y']} vs squared norm {s['norm_sq']}"
    return None, ""


CHECKS = {
    "classify": check_classify, "alpha": check_alpha, "cli": check_cli,
    "wronskian": check_wronskian, "alternation": check_alternation,
    "alpha_sq": check_alpha_sq, "fvalue_sum": check_alpha_sq,
    "moments": check_moments, "materialize_exact": check_materialize_exact,
    "roots": check_roots, "spectrum": check_spectrum, "eigenpairs": check_eigenpairs,
    "dense": check_dense, "s_alpha": check_s_alpha, "s_residual": check_s_residual,
    "s_materialize": check_s_materialize, "s_poisson": check_s_poisson,
    "s_reproduce": check_s_reproduce, "s_project": check_s_project,
}


def check(req, result, refs):
    """(defect, detail) of one request's result."""
    if result["error"] is not None:
        return _error_defect(result["error"])
    return CHECKS[req["op"]](req, result["summary"], refs)


def precompute(requests, refs) -> None:
    """Fill the reference memo before the timed passes."""
    for req in requests:
        op, spec, d = req["op"], req.get("spec"), req.get("d")
        if op == "roots":
            refs.roots_of(spec, d, req["n"])
        elif op == "spectrum":
            for n in range(1, req["n_max"] + 1):
                refs.roots_of(spec, d, n)
        elif op == "eigenpairs":
            refs.roots_of(spec, d, req["n"])
        elif op == "dense":
            refs.roots_of(spec, d, req["depth"] + 1)
        elif op == "cli" and req["argv"][0] in ("lambda", "oracle"):
            argv = req["argv"]
            spec, d, n = _flag(argv, "--coeffs", "paper"), int(_flag(argv, "--d", "2")), int(_flag(argv, "--n"))
            for m in range(1, n + 1):
                refs.roots_of(spec, d, m)
