"""Command-line surface: wires configs to the library and writes JSON/CSV
artifacts.

Subcommands: polys, classify, deficiency, poisson, lambda, oracle,
paper-example.  Options may come from an INI config file (section [run])
with command-line flags taking precedence.  Exit codes: 0 success, 2
validation error, 3 numeric failure, 4 inconclusive: a verdict without a
criterion under --strict, or an alpha_k that poisson needs and that has
no value (no criterion decides the family, or its float series ran out of
the orthopoly.SERIES_N_MAX terms)."""
from __future__ import annotations

import argparse
import cmath
import configparser
import functools
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from .coefficients import CoefficientSequence
from .deficiency import (DeficiencyContext, DeficiencyElement, _residual_and_max_abs,
                         classify, classify_by_series)
from .errors import (CoefficientOverflow, ConvergenceFailure, DivergedSeries,
                     InconclusiveSeries, PatchTooLarge, RecurrenceOverflow,
                     TreeJacobiError)
from .exactnum import exact_complex, matching_sqrt
from .boundary import poisson_kernel, reproducing_check
from .lambda_tree import (build_eigenpairs, dimension_audit, eigen_residual,
                          spectrum_enumerate)
from .operator import JacobiOperator, moments
from .coefficients import TreeConfig
from .oracle import build_radial_block, dense_eigensolve
from .orthopoly import SERIES_N_MAX, alpha_series, check_series_limits, compute_polys, poly_roots
from .treecore import (SparseFunction, check_budget, format_address, parse_address,
                       validate_address)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 4


class ValidationError(ValueError):
    pass


# family: (fewest, most) fields after its name
_SPEC_FIELDS = {"paper": (0, 0), "constant": (1, 2), "geometric": (2, 2), "power": (2, 2),
                "explicit": (1, 2)}


def _exponent(text: str):
    """A power exponent: an int for an integer literal or an integer-valued
    p/q, else a float (0.5, 1e-3, 3/2); a p/q past the float range reads as
    an infinite float, as a decimal past it does."""
    if "/" in text:
        exp = Fraction(text)
        if exp.denominator == 1:
            return int(exp)
        try:
            return float(exp)
        except OverflowError:
            return math.inf if exp > 0 else -math.inf
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_coeffs(spec: str) -> CoefficientSequence:
    """Family spec strings:
    paper | constant:LAM[:BETA] | geometric:BASE:RATIO | power:BASE:EXP |
    explicit:l0,l1,...[:b0,b1,...]; a spec with more or fewer fields is
    refused."""
    name, *fields = spec.split(":")
    if name not in _SPEC_FIELDS:
        raise ValidationError(f"unknown coefficient family {name!r}")
    fewest, most = _SPEC_FIELDS[name]
    if not fewest <= len(fields) <= most:
        counts = " or ".join(map(str, sorted({fewest, most})))
        raise ValidationError(f"bad coefficient spec {spec!r}: {name} takes {counts} "
                              f"fields after its name, got {len(fields)}")
    try:
        if name == "paper":
            return CoefficientSequence.paper_example()
        if name == "constant":
            return CoefficientSequence.constant(*map(Fraction, fields))
        if name == "geometric":
            return CoefficientSequence.geometric(Fraction(fields[0]), Fraction(fields[1]))
        if name == "power":
            return CoefficientSequence.power(Fraction(fields[0]), _exponent(fields[1]))
        lams, *betas = [[Fraction(v) for v in f.split(",")] for f in fields]
        return CoefficientSequence.explicit(lams, *betas)
    except ZeroDivisionError:
        raise ValidationError(f"bad coefficient spec {spec!r}: zero denominator") from None
    except ValueError as exc:
        raise ValidationError(f"bad coefficient spec {spec!r}: {exc}") from None


def _float_part(text: str) -> float:
    """A part of a float z: read through a Fraction when written p/q."""
    return float(Fraction(text)) if "/" in text else float(text)


def parse_z(text: str, mode: str):
    try:
        re_text, im_text = text.split(",")
    except ValueError:
        raise ValidationError(f"z must be RE,IM, got {text!r}") from None
    if mode == "exact":
        try:
            return exact_complex(Fraction(re_text), Fraction(im_text))
        except ZeroDivisionError:
            raise ValidationError(f"exact z has a zero denominator, got {text!r}") from None
        except ValueError as exc:
            raise ValidationError(f"bad exact z {text!r}: {exc}") from None
    try:
        z = complex(_float_part(re_text), _float_part(im_text))
    except ZeroDivisionError:
        raise ValidationError(f"z has a zero denominator, got {text!r}") from None
    except OverflowError:  # a p/q past the float range
        raise ValidationError(f"z must be finite, got {text!r}") from None
    except ValueError as exc:
        raise ValidationError(f"bad z {text!r}: {exc}") from None
    if not cmath.isfinite(z):
        raise ValidationError(f"z must be finite, got {text!r}")
    return z


def parse_nonreal_z(text: str, mode: str):
    """parse_z for the deficiency-space subcommands, which refuse a real z
    by the text it was given as."""
    z = parse_z(text, mode)
    if complex(z).imag == 0:
        raise ValidationError(f"deficiency-space values need a non-real z, got {text!r}")
    return z


def parse_scale(text: str, mode: str):
    """The --scale value: a rational, exact in exact mode and otherwise a
    float, which must not leave the float range."""
    try:
        scale = Fraction(text)
    except ZeroDivisionError:
        raise ValidationError(f"scale has a zero denominator, got {text!r}") from None
    if mode == "exact":
        return exact_complex(scale)
    try:
        return float(scale)
    except OverflowError:
        raise ValidationError(f"scale must fit in a float, got {text!r}") from None


def parse_vertex(text: str, d: int):
    """A vertex address whose every index lies in 1..d."""
    x = parse_address(text)
    validate_address(x, d)
    return x


def emit(args, content: str) -> None:
    if not args.out:
        sys.stdout.write(content)
        return
    tmp = ""  # no temporary file yet
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(args.out)),
                                   prefix=".tmp-treejacobi-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, args.out)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # such as a missing directory, or a directory
            raise ValidationError(f"cannot write {args.out!r}: {exc.strerror or exc}") from None
        raise


def _finite_or_null(obj):
    """obj with each non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(map(_finite_or_null, obj))
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def dump_json(obj) -> str:
    """Compact JSON with sorted keys, a non-finite float written null: JSON
    (RFC 8259) has neither NaN nor infinity.  A SparseFunction is written as
    its own text (SparseFunction.to_json), spliced in where json.dumps wrote
    a marker for it."""
    held = []

    def hold(f):
        if not isinstance(f, SparseFunction):
            raise TypeError(f"Object of type {type(f).__name__} is not JSON serializable")
        held.append(f)
        return "\x00"  # written "\u0000", which no held text contains

    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False, default=hold)
    except ValueError:  # a non-finite float: only then is obj walked
        held.clear()
        text = json.dumps(_finite_or_null(obj), sort_keys=True, allow_nan=False, default=hold)
    pieces = text.split('"\\u0000"')
    assert len(pieces) == len(held) + 1, "a marker string outside a SparseFunction"
    texts = [f.to_json() for f in held] + ["\n"]
    return "".join(t for pair in zip(pieces, texts) for t in pair)


def _pair(value) -> list:
    """[re, im] of a float, complex or exact number."""
    c = complex(value)
    return [c.real, c.imag]


def _probe(anchor, d: int, z) -> DeficiencyElement:
    """The element deficiency prints and poisson checks: the radial element
    1 without an anchor, else f at the anchor's first child minus f at its
    second.  Integer coefficients serve both arithmetics."""
    if anchor is None:
        return DeficiencyElement(None, (1,), z)
    return DeficiencyElement(anchor, (1, -1) + (0,) * (d - 2), z)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_polys(args) -> int:
    coeffs = parse_coeffs(args.coeffs)
    z = parse_z(args.z, args.mode)
    scale = matching_sqrt(args.d, z) if args.scale is None else parse_scale(args.scale, args.mode)
    table = compute_polys(coeffs, scale, z, args.n)
    buf = io.StringIO()
    table.to_csv(buf)
    emit(args, buf.getvalue())
    return EXIT_OK


def cmd_classify(args) -> int:
    coeffs = parse_coeffs(args.coeffs)
    z = parse_z(args.z, "float")
    scale = parse_scale(args.scale, "float") if args.scale is not None else None
    report = classify(coeffs, args.d, z=z, scale=scale)
    emit(args, dump_json(vars(report) | {"z": _pair(report.z)}))
    if args.strict and report.verdict == "inconclusive":
        print(f"inconclusive: {report.diagnostics}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_deficiency(args) -> int:
    coeffs = parse_coeffs(args.coeffs)
    z = parse_nonreal_z(args.z, args.mode)
    ctx = DeficiencyContext(coeffs, args.d, z)
    anchor = parse_vertex(args.anchor, args.d) if args.anchor else None
    elem = _probe(anchor, args.d, z)
    residual, peak = _residual_and_max_abs([elem], ctx, args.depth)
    alpha = alpha_series(coeffs, args.d, z, 0 if anchor is None else len(anchor) + 1)
    f = elem.materialize(ctx, min(args.depth, args.materialize_depth))
    obj = {
        "element": {"anchor": None if anchor is None else format_address(anchor),
                    "coefficients": [_pair(a) for a in elem.coefficients],
                    "z": _pair(z)},
        "residual": residual,
        "max_abs": peak,
        "depth": args.depth,
        "alpha_status": alpha.status,
        "alpha_criterion": alpha.criterion,
        "alphas": alpha.alphas,
        "values": f,
    }
    emit(args, dump_json(obj))
    return EXIT_OK


def cmd_poisson(args) -> int:
    coeffs = parse_coeffs(args.coeffs)
    z = parse_nonreal_z(args.z, "float")
    y = parse_vertex(args.y, args.d)
    # the printed kernel is refined to depth |y|: refuse it before any series
    check_budget(args.d ** len(y), f"refinement to depth {len(y)}")
    ctx = DeficiencyContext(coeffs, args.d, z)
    alpha = ctx.alphas(len(y))
    kernel = poisson_kernel(y, ctx, alpha)
    check = reproducing_check(_probe(y[:-1] if y else None, args.d, z), y, ctx, alpha)
    _, cells = kernel.step.canonical()
    obj = {
        "kernel": {"y": format_address(y), "z": _pair(kernel.z),
                   "pieces": [{"base_address": format_address(w), "re": complex(v).real,
                               "im": complex(v).imag} for w, v in sorted(cells.items())]},
        "reproducing_residual_plain": check.residual_plain,
        "reproducing_residual_conjugated": check.residual_conjugated,
        "matching_convention": check.matching_convention,
        "alpha_criterion": alpha.criterion,
    }
    emit(args, dump_json(obj))
    return EXIT_OK


def cmd_lambda(args) -> int:
    coeffs = parse_coeffs(args.coeffs)
    pairs = build_eigenpairs(args.n, coeffs, args.d)
    audit = dimension_audit(args.n, args.d)
    spectrum = spectrum_enumerate(coeffs, args.d, args.n)
    obj = {
        "apex_level": args.n,
        "d": args.d,
        "count": len(pairs),
        "eigenpairs": [
            {"eigenvalue": p.eigenvalue,
             "branch": p.branch,
             "root_index": p.root_index,
             "residual": eigen_residual(p, coeffs, args.d),
             "values": p.eigenfunction}
            for p in pairs
        ],
        "dimension": {"dim_Mx": audit.dim_Mx, "dim_Vx": audit.dim_Vx,
                      "radial_count": audit.radial_count,
                      "identity_holds": audit.identity_holds},
        "spectrum_points": spectrum.points,
    }
    emit(args, dump_json(obj))
    return EXIT_OK


def cmd_oracle(args) -> int:
    import numpy as np

    coeffs = parse_coeffs(args.coeffs)
    block = build_radial_block(coeffs, args.d, 0, args.n)
    vals, _ = dense_eigensolve(block)
    roots = poly_roots(coeffs, math.sqrt(args.d), args.n)
    max_dev = float(np.max(np.abs(vals - roots)))
    J = JacobiOperator(coeffs, TreeConfig(args.d))
    m_matrix = moments(J, min(args.n, 10), route="matrix")
    m_tree = moments(J, min(args.n, 10), route="tree")
    obj = {
        "block_size": args.n,
        "roots": [float(t) for t in roots],
        "block_eigenvalues": [float(v) for v in vals],
        "max_root_deviation": max_dev,
        "moments_matrix": [str(m) for m in m_matrix],
        "moments_tree": [str(m) for m in m_tree],
        "moments_agree": m_matrix == m_tree,
    }
    emit(args, dump_json(obj))
    return EXIT_OK


def cmd_paper_example(args) -> int:
    """The worked example: degree 2, lam_n = 2^n, beta_n = lam_n + lam_{n-1}
    with beta_0 = lam_0.  The unscaled matrix is essentially selfadjoint
    (p_n(0) alternates between +1 and -1, so p(0) is not square-summable:
    classify's alternation criterion, with the alternation itself checked
    in exact arithmetic) while the sqrt(2)-scaled radial matrix is not
    (both square series converge geometrically at z = i, the series' own
    verdict by classify_by_series, reproducing the paper's computation) —
    hence neither is the tree operator."""
    check_series_limits(args.n_max)  # before the exact table reads n_max
    coeffs = CoefficientSequence.paper_example()
    checks = {}

    n_alt = min(200, args.n_max)
    table = compute_polys(coeffs, exact_complex(1), exact_complex(0), n_alt)
    alternating = all(
        table.p[n] == exact_complex((-1) ** n) for n in range(n_alt + 1))
    checks["exact_alternation"] = {
        "pass": bool(alternating), "n": n_alt,
        "detail": "p_n(0) = (-1)^n in exact arithmetic"}

    scaled = classify_by_series(coeffs, 2, z=1j, n_max=args.n_max)
    checks["scaled_series"] = {
        "pass": scaled.verdict == "not_essentially_selfadjoint",
        "series_p_status": scaled.series_p_status,
        "series_q_status": scaled.series_q_status,
        "verdict": scaled.verdict,
        "detail": "sqrt(2)-scaled matrix: both square series converge at z = i"}

    classical = classify(coeffs, 2, z=0, scale=1.0)
    checks["classical_series"] = {
        "pass": classical.verdict == "essentially_selfadjoint",
        "series_p_status": classical.series_p_status,
        "series_q_status": classical.series_q_status,
        "verdict": classical.verdict,
        "detail": "unscaled matrix: p_n(0) = (-1)^n is not square-summable (alternation)"}

    failed = [name for name, c in checks.items() if not c["pass"]]
    undecided = [name for name, c in checks.items() if c.get("verdict") == "inconclusive"]
    emit(args, dump_json({"overall_pass": not failed, "checks": checks}))
    if args.strict and undecided:
        print(f"inconclusive: paper-example checks without a verdict: {', '.join(undecided)}",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    if failed:
        print(f"numeric failure: paper-example checks failed: {', '.join(failed)}",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

_SHARED = {
    "--d": dict(type=int, default=2, help="branching degree"),
    "--coeffs": dict(default="paper", help="coefficient family spec (see parse_coeffs)"),
    "--z": dict(default="0,1", help="spectral parameter RE,IM"),
    "--n-max": dict(type=int, default=SERIES_N_MAX),
    "--mode": dict(choices=["float", "exact"], default="float"),
    "--strict": dict(action="store_true", help="exit 4 when a verdict is inconclusive"),
    "--scale": dict(help="off-diagonal scale (default sqrt(d))"),
}


def _add_shared(p: argparse.ArgumentParser, *flags: str) -> None:
    """--config, --out and those shared flags that the subcommand reads."""
    p.add_argument("--config", help="INI config file; flags override it")
    p.add_argument("--out", help="output file (atomic write); stdout if absent")
    for flag in flags:
        p.add_argument(flag, **_SHARED[flag])


@functools.cache  # built once per process: parsing never changes it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treejacobi",
        description="Jacobi operators on homogeneous trees: selfadjointness, "
                    "deficiency spaces, boundary kernel, pure-point spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polys", help="tabulate p_n, q_n as CSV")
    _add_shared(p, "--d", "--coeffs", "--z", "--mode", "--scale")
    p.add_argument("--n", type=int, default=50, help="max index")
    p.set_defaults(func=cmd_polys)

    p = sub.add_parser("classify", help="essential-selfadjointness verdict")
    _add_shared(p, "--d", "--coeffs", "--z", "--strict", "--scale")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("deficiency", help="materialize a deficiency element")
    _add_shared(p, "--d", "--coeffs", "--z", "--mode")
    p.add_argument("--anchor", default="", help="anchor address; empty = radial")
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--materialize-depth", dest="materialize_depth",
                   type=int, default=8)
    p.set_defaults(func=cmd_deficiency)

    p = sub.add_parser("poisson", help="Poisson kernel at a vertex")
    _add_shared(p, "--d", "--coeffs", "--z")
    p.add_argument("--y", default="1.2", help="vertex address")
    p.set_defaults(func=cmd_poisson)

    p = sub.add_parser("lambda", help="one-ended tree eigenpairs and spectrum")
    _add_shared(p, "--d", "--coeffs")
    p.add_argument("--n", type=int, default=3, help="apex level")
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("oracle", help="dense cross-checks")
    _add_shared(p, "--d", "--coeffs")
    p.add_argument("--n", type=int, default=6, help="block size")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("paper-example", help="one-command worked example")
    _add_shared(p, "--n-max", "--strict")
    p.set_defaults(func=cmd_paper_example)
    return parser


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  argv) -> argparse.Namespace:
    """Re-parse with each [run] entry as a flag placed before the command
    line's own, so argparse checks config values as it checks flags and a
    flag given on the command line wins."""
    if not args.config:
        return args
    cp = configparser.ConfigParser()
    try:
        if not cp.read(args.config):
            raise ValidationError(f"config file {args.config!r} not found")
        if not cp.has_section("run"):
            raise ValidationError(f"config file {args.config!r} has no [run] section")
        entries = cp.items("run")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"bad config file {args.config!r}: {exc}") from None
    flags = []
    for key, value in entries:
        dest = key.replace("-", "_")
        if not hasattr(args, dest):
            raise ValidationError(f"config key {key!r} is not a known option")
        flag = "--" + key.replace("_", "-")
        if not isinstance(getattr(args, dest), bool):
            flags.append(f"{flag}={value}")
        elif value.lower() not in cp.BOOLEAN_STATES:
            raise ValidationError(f"bad config file {args.config!r}: {key}: not a boolean")
        elif cp.BOOLEAN_STATES[value.lower()]:
            flags.append(flag)
    return parser.parse_args(argv[:1] + flags + argv[1:])


def _exact_hint(args, exc: OverflowError) -> str:
    """The hint to rerun in exact mode, where it can be followed: polys ran
    float mode through --mode, exc is a coefficient too large for a float
    (a CoefficientOverflow raised from the conversion's OverflowError, not
    an underflow), and the family has exact values.  Elsewhere exact mode
    fails alike: its values leave the float range when printed, or the
    subcommand reads float coefficients in either mode."""
    if not (args.command == "polys" and args.mode == "float"
            and isinstance(exc.__cause__, OverflowError)):
        return ""
    try:
        parse_coeffs(args.coeffs).lam_exact(0)
    except TreeJacobiError:
        return ""
    return "\nhint: try --mode exact"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args, parser, argv)
        if "d" in args:
            TreeConfig(args.d)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RecurrenceOverflow, CoefficientOverflow) as exc:
        print(f"numeric failure: {exc}{_exact_hint(args, exc)}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConvergenceFailure, DivergedSeries, PatchTooLarge, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InconclusiveSeries as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except TreeJacobiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
