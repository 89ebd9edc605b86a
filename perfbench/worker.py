"""Workload process: runs a request list against treejacobi in a closed loop
(one client, one request at a time) and reports each request's latency and
a JSON summary of its output.

Reads {"requests", "warmup", "passes", "trace", "spans_path"} as JSON on
stdin and prints one JSON object on stdout.  The warm-up requests run first
and untimed.  Each request is timed alone; turning its
output into a summary happens after the clock stops."""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy  # noqa: E402
import scipy  # noqa: E402
import treejacobi as tj  # noqa: E402
from treejacobi import cli  # noqa: E402
from treejacobi.exactnum import abs2, as_complex, is_zero  # noqa: E402

from common import SpeedClock, cplx, exact_digest  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def coeffs_of(req):
    return cli.parse_coeffs(req["spec"])


def exact_z(req):
    return tj.exact_complex(Fraction(req["z"][0]), Fraction(req["z"][1]))


def components(v):
    return (v.ar, v.ai, v.br, v.bi, v.m)


def finite(x: float):
    return x if math.isfinite(x) else repr(x)


def pair(v) -> list:
    c = as_complex(v)
    return [c.real, c.imag]


# ---------------------------------------------------------------------------
# operations: run(req, state) -> raw output, summarize(raw, req) -> JSON
# ---------------------------------------------------------------------------

def run_classify(req, state):
    return tj.classify(coeffs_of(req), req["d"], z=cplx(req["z"]), scale=req.get("scale"))


def sum_classify(r, req):
    return {"verdict": r.verdict, "p": r.series_p_status, "q": r.series_q_status,
            "terms": list(r.terms_used), "diagnostics": r.diagnostics}


def run_alpha(req, state):
    return tj.alpha_series(coeffs_of(req), req["d"], cplx(req["z"]), req["k_max"])


def sum_alpha(t, req):
    return {"status": t.status, "statuses": t.statuses, "terms": t.terms_used,
            "alphas": [finite(a) for a in t.alphas],
            "alpha_sqs": [finite(a) for a in t.alpha_sqs]}


def run_cli(req, state):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(req["argv"]))
    return code, out.getvalue(), err.getvalue()


def sum_cli(r, req):
    code, out, err = r
    return {"code": code, "out": out, "err": err[-500:]}


def run_wronskian(req, state):
    table = tj.compute_polys(coeffs_of(req), tj.exact_sqrt(req["d"]), exact_z(req), req["N"])
    return table, tj.wronskian_residual(table)


def sum_wronskian(r, req):
    table, residual = r
    return {"p": exact_digest(map(components, table.p)),
            "q": exact_digest(map(components, table.q)),
            "residual_zero": all(x == 0 for x in residual), "n": len(residual)}


def run_alternation(req, state):
    return tj.compute_polys(tj.CoefficientSequence.paper_example(), tj.exact_complex(1),
                            tj.exact_complex(0), req["N"])


def sum_alternation(table, req):
    return {"p": exact_digest(map(components, table.p))}


def run_alpha_sq(req, state):
    return tj.alpha_sq_partial(coeffs_of(req), req["d"], exact_z(req), req["k"],
                               req["n_terms"])


def run_fvalue_sum(req, state):
    """The alpha_k^2 partial sum by the f-value route: each level-n value of
    the basis function times the d^(n-k) vertices carrying it."""
    d, k = req["d"], req["k"]
    ctx = tj.DeficiencyContext(coeffs_of(req), d, exact_z(req))
    total = None
    for n in range(k, k + req["n_terms"]):
        if k == 0:
            term = abs2(tj.f_value("zero", 0, n, ctx)) * d ** n
        else:
            term = abs2(tj.f_value("anchored", k - 1, n, ctx)) * d ** (n - k)
        total = term if total is None else total + term
    return total


def sum_exact_value(v, req):
    return {"digest": exact_digest([components(v)])}


def run_moments(req, state):
    J = tj.JacobiOperator(coeffs_of(req), tj.TreeConfig(req["d"]))
    return tj.moments(J, req["N"], route=req["route"])


def sum_moments(ms, req):
    return {"moments": [str(m) for m in ms]}


def run_materialize_exact(req, state):
    z = exact_z(req)
    ctx = tj.DeficiencyContext(coeffs_of(req), req["d"], z)
    coefficients = tuple(tj.exact_complex(a, b) for a, b in req["coeffs"])
    elem = tj.DeficiencyElement(tuple(req["anchor"]), coefficients, z)
    f = elem.materialize(ctx, req["depth"])
    sums = {}
    for x, v in f.entries.items():
        sums[len(x)] = sums[len(x)] + v if len(x) in sums else v
    return f, sums


def sum_materialize_exact(r, req):
    f, sums = r
    return {"count": len(f.entries),
            "level_sums_zero": all(is_zero(s) for s in sums.values()),
            "digest": exact_digest(components(f.entries[x]) for x in sorted(f.entries))}


def run_roots(req, state):
    return tj.poly_roots(coeffs_of(req), math.sqrt(req["d"]), req["n"])


def sum_roots(r, req):
    return {"roots": [float(t) for t in r]}


def run_spectrum(req, state):
    return tj.spectrum_enumerate(coeffs_of(req), req["d"], req["n_max"])


def sum_spectrum(s, req):
    return {"points": s.points, "counts": s.per_degree_counts}


def run_eigenpairs(req, state):
    coeffs, d = coeffs_of(req), req["d"]
    pairs = tj.build_eigenpairs(req["n"], coeffs, d)
    return pairs, [tj.eigen_residual(p, coeffs, d) for p in pairs]


def sum_eigenpairs(r, req):
    pairs, residuals = r
    return {"eigenvalues": [p.eigenvalue for p in pairs], "residuals": residuals,
            "norms": [p.eigenfunction.norm() for p in pairs]}


def run_dense(req, state):
    return tj.dense_eigensolve(tj.build_gamma_patch(coeffs_of(req), req["d"], req["depth"]))


def sum_dense(r, req):
    return {"eigenvalues": r[0].tolist()}


# -- deficiency/boundary sessions: one context and alpha table per session --

def session(req, state):
    return state[req["session"]]


def run_s_alpha(req, state):
    coeffs, d, z = coeffs_of(req), req["d"], cplx(req["z"])
    ctx = tj.DeficiencyContext(coeffs, d, z)
    alpha = tj.alpha_series(coeffs, d, z, k_max=len(req["y"]) + 1)
    elem = tj.DeficiencyElement(tuple(req["y"][:-1]), tuple(map(cplx, req["coeffs"])), z)
    state[req["session"]] = (ctx, alpha, elem)
    return alpha


def run_s_residual(req, state):
    ctx, _, elem = session(req, state)
    return (tj.element_residual([elem], ctx, req["depth"]),
            tj.element_max_abs([elem], ctx, req["depth"]))


def sum_s_residual(r, req):
    return {"residual": r[0], "max_abs": r[1]}


def run_s_materialize(req, state):
    ctx, _, elem = session(req, state)
    return elem.materialize(ctx, req["depth"])


def sum_s_materialize(f, req):
    """Per (branch, level) values; the element is radial on each branch."""
    k = len(req["y"]) - 1
    profile, spread = {}, 0.0
    for x, v in f.entries.items():
        key = f"{x[k]}:{len(x)}"
        c = as_complex(v)
        if key in profile:
            spread = max(spread, abs(c - cplx(profile[key])))
        else:
            profile[key] = [c.real, c.imag]
    return {"count": len(f.entries), "profile": profile, "radial_spread": spread}


def run_s_poisson(req, state):
    ctx, alpha, _ = session(req, state)
    return tj.poisson_kernel(tuple(req["y"]), ctx, alpha)


def sum_s_poisson(kernel, req):
    return {"integral": pair(tj.integrate(kernel.step)), "pieces": len(kernel.step.pieces)}


def run_s_reproduce(req, state):
    ctx, alpha, elem = session(req, state)
    return tj.reproducing_check(elem, tuple(req["y"]), ctx, alpha)


def sum_s_reproduce(c, req):
    return {"plain": c.residual_plain, "conjugated": c.residual_conjugated,
            "convention": c.matching_convention}


def run_s_project(req, state):
    """Project the point mass at y; the projection's value at y must equal
    its squared norm."""
    ctx, alpha, _ = session(req, state)
    y = tuple(req["y"])
    elements = tj.project_full(y, ctx, alpha)
    value = sum(as_complex(e.value_at(y, ctx)) for e in elements)
    return len(elements), value, sum(e.norm(alpha) ** 2 for e in elements)


def sum_s_project(r, req):
    count, value, norm_sq = r
    return {"count": count, "value_at_y": [value.real, value.imag], "norm_sq": norm_sq}


OPS = {
    "classify": (run_classify, sum_classify),
    "alpha": (run_alpha, sum_alpha),
    "cli": (run_cli, sum_cli),
    "wronskian": (run_wronskian, sum_wronskian),
    "alternation": (run_alternation, sum_alternation),
    "alpha_sq": (run_alpha_sq, sum_exact_value),
    "fvalue_sum": (run_fvalue_sum, sum_exact_value),
    "moments": (run_moments, sum_moments),
    "materialize_exact": (run_materialize_exact, sum_materialize_exact),
    "roots": (run_roots, sum_roots),
    "spectrum": (run_spectrum, sum_spectrum),
    "eigenpairs": (run_eigenpairs, sum_eigenpairs),
    "dense": (run_dense, sum_dense),
    "s_alpha": (run_s_alpha, sum_alpha),
    "s_residual": (run_s_residual, sum_s_residual),
    "s_materialize": (run_s_materialize, sum_s_materialize),
    "s_poisson": (run_s_poisson, sum_s_poisson),
    "s_reproduce": (run_s_reproduce, sum_s_reproduce),
    "s_project": (run_s_project, sum_s_project),
}


def describe(exc: BaseException) -> dict:
    """Exception type and the innermost treejacobi frame that raised it."""
    where = None
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        if f"{os.sep}treejacobi{os.sep}" in frame.filename:
            where = f"{os.path.basename(frame.filename)[:-3]}.{frame.name}"
            break
    return {"type": type(exc).__name__, "where": where, "message": str(exc)[:300]}


# A request shorter than this is timed REPEATS times and keeps its fastest
# time: at the millisecond scale the processor's speed jitters by about 10 %.
# Session requests are timed once, since a repeat would find the session's
# recurrence table already extended.
REPEAT_BELOW_S = 0.25
REPEATS = 2


def timed(run, req, state, clock, tracer):
    """(raw output, error, nominal s, raw s) of one execution."""
    raw = error = None
    clock.start()
    try:
        if tracer is not None:
            with tracer.span("request"):
                raw = run(req, state)
        else:
            raw = run(req, state)
    except Exception as exc:  # a failed request is a result, not a crash
        error = describe(exc)
    nominal, elapsed = clock.stop()
    return raw, error, nominal, elapsed


def run_pass(requests, tracer=None) -> dict:
    state, results, wall, raw_wall = {}, [], 0.0, 0.0
    clock = SpeedClock()
    for req in requests:
        run, summarize = OPS[req["op"]]
        if tracer is not None:
            tracer.request_id = req["id"]
        raw, error, nominal, elapsed = timed(run, req, state, clock, tracer)
        if elapsed < REPEAT_BELOW_S and tracer is None and "session" not in req:
            for _ in range(REPEATS - 1):
                repeat = timed(run, req, state, clock, None)
                if repeat[2] < nominal:
                    nominal, elapsed = repeat[2], repeat[3]
        raw_wall += elapsed
        wall += nominal
        summary = None
        if error is None:
            try:
                summary = summarize(raw, req)
            except Exception as exc:  # an unreadable output fails the request
                error = describe(exc)
        results.append({"id": req["id"], "ms": nominal * 1e3, "raw_ms": elapsed * 1e3,
                        "summary": summary, "error": error})
        del raw
    clock.close()
    return {"wall_s": wall, "raw_wall_s": raw_wall, "results": results}


def layer_metrics(tracer: Tracer) -> dict:
    s, calls, c = tracer.self_s, tracer.calls, tracer.counters
    coefficient_names = [f"coefficients.{a}" for a in ("lam", "lam_exact", "beta", "beta_exact")]
    classified = c["deficiency.classify.calls"]
    out = {
        "coefficients.lam.calls": calls["coefficients.lam"],
        "coefficients.lam_exact.calls": calls["coefficients.lam_exact"],
        "coefficients.self_s": sum(s[n] for n in coefficient_names),
        "exactnum.ops": calls["exactnum.op"],
        "exactnum.self_s": s["exactnum.op"],
        "orthopoly.recurrence_steps": calls["orthopoly.recurrence"],
        "orthopoly.recurrence.self_s": s["orthopoly.recurrence"],
        "orthopoly.sum_series.terms": c["orthopoly.sum_series.terms"],
        "orthopoly.poly_roots.warnings": c["orthopoly.poly_roots.warnings"],
        "deficiency.classify.definite_frac":
            c["deficiency.classify.definite"] / classified if classified else 1.0,
        "deficiency.materialize.entries": c["deficiency.materialize.entries"],
        "operator.apply.calls": calls["operator.apply"],
        "treecore.vertices_enumerated": c["treecore.vertices_enumerated"],
    }
    for name in ("orthopoly.sum_series", "orthopoly.compute_polys",
                 "orthopoly.wronskian_residual", "orthopoly.poly_roots",
                 "orthopoly.alpha_series", "deficiency.classify",
                 "deficiency.element_residual", "deficiency.materialize",
                 "boundary.poisson_kernel", "boundary.reproducing_check",
                 "lambda_tree.spectrum_enumerate", "lambda_tree.build_eigenpairs",
                 "operator.moments_matrix", "operator.moments_tree",
                 "oracle.build_gamma_patch", "oracle.dense_eigensolve", "cli.main"):
        out[f"{name}.self_s"] = s[name]
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, name, start, end, parent, request, own in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                 "end": end, "parent": parent, "request": request,
                                 "self_s": own}) + "\n")


def main() -> int:
    job = json.load(sys.stdin)
    requests = job["requests"]
    run_pass(job["warmup"])
    passes = [run_pass(requests) for _ in range(job["passes"])]
    traced = None
    if job["trace"]:
        tracer = Tracer()
        install(tracer)
        traced_pass = run_pass(requests, tracer)
        tracer.restore()
        write_spans(tracer, job["spans_path"])
        traced = {"pass": traced_pass, "layers": layer_metrics(tracer)}
    out = {
        "passes": passes,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "treejacobi": tj.__version__},
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
