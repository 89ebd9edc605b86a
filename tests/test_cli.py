"""CLI subcommands, config handling, exit codes, artifact files."""
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import treejacobi
from treejacobi.boundary import poisson_kernel
from treejacobi.cli import ValidationError, build_parser, dump_json, main, parse_coeffs, parse_z
from treejacobi.deficiency import classify
from treejacobi import orthopoly
from treejacobi.orthopoly import DeficiencyContext, PolyCache


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_coeffs_families():
    assert parse_coeffs("paper").family == "paper"
    c = parse_coeffs("constant:2:1")
    assert c.lam(5) == 2.0 and c.beta(0) == 1.0
    c = parse_coeffs("geometric:1:3")
    assert c.lam(2) == 9.0
    c = parse_coeffs("power:1:2")
    assert c.lam(2) == 9.0
    c = parse_coeffs("explicit:1,2,3:0,0,0")
    assert c.lam(2) == 3.0
    with pytest.raises(ValidationError):
        parse_coeffs("unknown:1")
    with pytest.raises(ValidationError):
        parse_coeffs("geometric:1")


@pytest.mark.parametrize("text, exponent", [("2", 2), ("-3", -3), ("0.5", 0.5), ("1e-3", 0.001),
                                             ("2e0", 2.0), ("-1.5E+2", -150.0), ("4/2", 2),
                                             ("3/2", 1.5)])
def test_power_exponent_is_int_only_for_an_integer_literal(text, exponent, capsys):
    # only an int exponent has exact values; an integer-valued p/q is an int
    assert repr(parse_coeffs(f"power:1:{text}").params[1]) == repr(exponent)
    code, out, err = run(["classify", "--coeffs", f"power:1:{text}"], capsys)
    assert code == 0, err
    assert json.loads(out)["criterion"] is not None


@pytest.mark.parametrize("spec", ["paper:power:1:2", "constant:1:0:9", "geometric:1:2:junk",
                                  "power:1:2:3", "explicit:1,2:0,0:5"])
def test_a_spec_with_a_field_too_many_is_refused(spec, capsys):
    # each last field was dropped: paper:power:1:2 ran plain paper
    with pytest.raises(ValidationError, match="fields after its name, got 3"):
        parse_coeffs(spec)
    code, out, err = run(["classify", "--coeffs", spec], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad coefficient spec {spec!r}: ")


@pytest.mark.parametrize("rational, decimal", [("4/2", "2"), ("3/2", "1.5")])
def test_a_rational_power_exponent_reads_as_its_value(rational, decimal, capsys):
    assert (parse_coeffs(f"power:1:{rational}").describe()
            == parse_coeffs(f"power:1:{decimal}").describe())
    assert run(["classify", "--coeffs", f"power:1:{rational}"], capsys) == run(
        ["classify", "--coeffs", f"power:1:{decimal}"], capsys)


_HUGE = "9" * 400


@pytest.mark.parametrize("spec, reason", [
    ("power:1:1/0", "zero denominator"), ("constant:1/0", "zero denominator"),
    ("explicit:1,1/0", "zero denominator"), ("geometric:1:2/0", "zero denominator"),
    (f"power:1:{_HUGE}/2", "power exponent must be finite, got inf"),
    (f"power:1:-{_HUGE}/2", "power exponent must be finite, got -inf"),
    ("power:1:1e400", "power exponent must be finite, got inf")])
def test_a_spec_value_without_a_float_is_refused(spec, reason, capsys):
    # a p/q exponent past the float range reads as the decimal past it does
    assert run(["classify", "--coeffs", spec], capsys) == (
        2, "", f"error: bad coefficient spec {spec!r}: {reason}\n")


@pytest.mark.parametrize("command", ["classify", "deficiency"])
def test_a_rational_float_z_reads_as_its_value(command, capsys):
    code, out, err = run([command, "--z", "1/2,1"], capsys)
    assert (code, err) == (0, "")
    assert (code, out, err) == run([command, "--z", "0.5,1"], capsys)


def test_parse_z():
    assert parse_z("0,1", "float") == 1j
    exact = parse_z("1/2,-1/3", "exact")
    from fractions import Fraction
    assert exact.ar == Fraction(1, 2) and exact.ai == Fraction(-1, 3)
    with pytest.raises(ValidationError):
        parse_z("1", "float")


def test_polys_exact_alternation(capsys):
    code, out, err = run(["polys", "--coeffs", "paper", "--scale", "1",
                          "--z", "0,0", "--mode", "exact", "--n", "6"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,Re p,Im p,Re q,Im q"
    ps = [float(line.split(",")[1]) for line in lines[1:]]
    assert ps == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0]


def test_polys_writes_file_atomically(tmp_path, capsys):
    out_file = tmp_path / "polys.csv"
    code, _, _ = run(["polys", "--n", "4", "--z", "0,1",
                      "--out", str(out_file)], capsys)
    assert code == 0
    assert out_file.exists()
    assert out_file.read_text().startswith("n,Re p")
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp")]


@pytest.mark.parametrize("where, reason", [
    ("no-such-dir/x.json", "No such file or directory"), ("", "Is a directory"),
], ids=["missing-directory", "a-directory"])
def test_an_unwritable_out_is_a_validation_error(where, reason, tmp_path, capsys):
    path = str(tmp_path / where)
    assert run(["classify", "--out", path], capsys) == (
        2, "", f"error: cannot write {path!r}: {reason}\n")
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp")]


def test_classify_verdict_json(capsys):
    code, out, _ = run(["classify", "--coeffs", "paper", "--d", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "not_essentially_selfadjoint"


@pytest.mark.parametrize("argv", [
    "--coeffs paper --d 2", "--coeffs constant:1 --d 3 --z 0.5,2",
    "--coeffs geometric:1:3/2 --d 2 --scale 3", "--coeffs paper --d 2 --scale 1",
    "--coeffs explicit:1,2,4,8,16,32,64,128 --d 2",
])
def test_classify_prints_the_report_fields(argv, capsys):
    # one key per ClassificationReport field, z as [re, im]
    code, out, err = run(["classify", *argv.split()], capsys)
    assert code == 0, err
    args = build_parser().parse_args(["classify", *argv.split()])
    rep = classify(parse_coeffs(args.coeffs), args.d, z=parse_z(args.z, "float"),
                   scale=None if args.scale is None else float(args.scale))
    want = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
    want.update(z=[rep.z.real, rep.z.imag], terms_used=list(rep.terms_used))
    assert json.loads(out) == want


@pytest.mark.parametrize("argv, criterion, verdict", [
    ("--d 2", "perron", "not_essentially_selfadjoint"),
    ("--d 3", "perron", "not_essentially_selfadjoint"),
    ("--d 2 --scale 1", "alternation", "essentially_selfadjoint"),
    ("--d 2 --scale 1/2", "perron", "essentially_selfadjoint"),
])
def test_classify_paper_by_its_criterion(argv, criterion, verdict, capsys):
    code, out, _ = run(["classify", "--coeffs", "paper"] + argv.split(), capsys)
    assert code == 0
    obj = json.loads(out)
    assert (obj["criterion"], obj["verdict"], obj["terms_used"]) == (criterion, verdict, [0, 0])


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON (RFC 8259)."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("coeffs", ["constant:1", "power:1:2"])
def test_alpha_without_a_float_value_prints_null(coeffs, capsys):
    code, out, _ = run(["deficiency", "--coeffs", coeffs, "--depth", "5"], capsys)
    assert code == 0
    assert _strict_json(out)["alphas"] == [None]
    assert dump_json({"x": [math.nan, math.inf, -math.inf, 1.5, (2.0, "NaN")]}) == (
        '{"x": [null, null, null, 1.5, [2.0, "NaN"]]}\n')


@pytest.mark.parametrize("coeffs, criterion, status", [
    ("paper", "perron", "converged"), ("constant:1", "bounded", "diverged"),
    ("geometric:1:3/2", "berezanskii", "converged"),
])
def test_alpha_criterion_printed(coeffs, criterion, status, capsys):
    code, out, _ = run(["deficiency", "--coeffs", coeffs, "--depth", "4"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert (obj["alpha_criterion"], obj["alpha_status"]) == (criterion, status)
    code, out, _ = run(["poisson", "--coeffs", coeffs], capsys)
    if status == "converged":
        assert code == 0 and json.loads(out)["alpha_criterion"] == criterion
    else:  # the kernel needs every alpha_k
        assert code == 3


def test_classify_strict_inconclusive_exit_code(capsys):
    # no criterion decides an explicit list
    code, out, err = run(["classify", "--coeffs", "explicit:1,2,4,8,16,32,64,128", "--d", "2",
                          "--strict"], capsys)
    assert code == 4
    assert json.loads(out)["verdict"] == "inconclusive"
    assert err == f"inconclusive: {json.loads(out)['diagnostics']}\n"
    # the paper family is decided from its parameters
    code, out, _ = run(["classify", "--coeffs", "paper", "--d", "2", "--strict"], capsys)
    assert code == 0
    assert json.loads(out)["criterion"] == "perron"


def test_explicit_overrun_is_validation_error(capsys):
    code, _, err = run(["polys", "--coeffs", "explicit:1,2:0,0",
                        "--z", "0,1", "--n", "10"], capsys)
    assert code == 2
    assert "2" in err  # names the failing index range


def test_recurrence_overflow_is_numeric_error_without_hint(capsys):
    # exact mode fails alike: p_n then leaves the float range when printed
    code, _, err = run(["polys", "--coeffs", "geometric:1:1/4",
                        "--z", "0,1", "--n", "3000"], capsys)
    assert code == 3
    assert err.startswith("numeric failure: the solution anchored at level -1 (weights "
                          "1.41421, 1.41421) left the float range at level 33;")
    assert "hint:" not in err


@pytest.mark.parametrize("command", ["polys", "oracle"])
def test_coefficient_overflow_is_numeric_error(command, capsys):
    # lambda_1024 = 2**1024 of the paper family does not fit in a float;
    # oracle has no --mode, so only polys hints at exact mode
    code, _, err = run([command, "--coeffs", "paper", "--n", "1100"], capsys)
    assert code == 3
    assert "float" in err
    assert ("--mode exact" in err) == (command == "polys")


@pytest.mark.parametrize("argv", [
    "poisson --coeffs power:1:-2000",
    "polys --coeffs power:1:-2000.5 --n 3",
    "polys --coeffs power:1:-2000 --n 3",
    "polys --coeffs geometric:1:1/4 --z 0,1 --n 3000",
    "deficiency --coeffs power:1:-2000",
    "polys --coeffs power:1:400.5 --n 10",
])
def test_no_exact_hint_where_it_cannot_be_followed(argv, capsys):
    # poisson takes no --mode, and a non-integer power has no exact values:
    # following the hint would exit 2; on a lambda_n that underflows, or a
    # recurrence that leaves the float range, exact mode exits 3 alike
    code, _, err = run(argv.split(), capsys)
    assert code == 3
    assert "hint" not in err and "--mode exact" not in err


@pytest.mark.parametrize("argv", [
    "polys --mode exact --coeffs geometric:1:1/3 --n 40",
    "deficiency --mode exact --coeffs geometric:1:1/3 --depth 60",
    "deficiency --mode exact --coeffs geometric:1:1/3 --depth 60 --anchor 1",
])
def test_exact_value_beyond_float_range_is_numeric_error(argv, capsys):
    # p_n grows like 3**(n*n/2); printing it needs a float
    code, _, err = run(argv.split(), capsys)
    assert code == 3
    assert "does not fit in a float" in err
    assert "--mode exact" not in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "polys --coeffs power:1:-2000 --n 3",
    "polys --coeffs power:1:-2000.5 --n 3",
    "poisson --coeffs power:1:-2000",
    "deficiency --coeffs power:1:-2000",
    "polys --coeffs geometric:1:1/2 --n 1100 --z 0,0 --scale 1",
    "polys --coeffs constant:1e-300 --scale 1e-300 --n 3",
])
def test_lambda_underflow_is_numeric_error(argv, capsys):
    # a positive scale * lambda_n rounds to 0.0 in a float: 2**-2000,
    # 2**-1075 at n = 1075, or 1e-300 * 1e-300
    code, _, err = run(argv.split(), capsys)
    assert code == 3
    assert "underflows to 0.0" in err and "Traceback" not in err


def _forbid_recurrence_steps(monkeypatch) -> None:
    def no_step(*args):
        raise AssertionError("a recurrence step ran")
        yield  # a generator, like both steppers: making one steps nothing
    monkeypatch.setattr(orthopoly, "poly_pairs", no_step)  # the exact rows
    monkeypatch.setattr(PolyCache, "solution", no_step)  # every solution, either arithmetic


def test_deficiency_over_budget_refused_before_any_recurrence_step(monkeypatch, capsys):
    _forbid_recurrence_steps(monkeypatch)
    code, _, err = run(["deficiency", "--depth", "2000000"], capsys)
    assert code == 3
    assert "budget" in err and "Traceback" not in err


@pytest.mark.parametrize("levels", [22, 400, 1500])
def test_poisson_over_budget_refused_before_any_recurrence_step(levels, monkeypatch, capsys):
    # the printed kernel has d^|y| cells; at 1500 levels the alpha series
    # would first fail on lambda_1024
    _forbid_recurrence_steps(monkeypatch)
    code, _, err = run(["poisson", "--y", ".".join(["1"] * levels)], capsys)
    assert code == 3
    assert f"refinement to depth {levels} needs" in err and "budget" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "deficiency --depth 100000",
    "deficiency --d 2 --anchor=1 --depth 2000",
    "deficiency --d 2 --anchor=1 --depth 1025 --mode exact",
])
def test_deep_deficiency_overflow_hints_no_exact_mode_that_fails_alike(argv, capsys):
    # the paper family's coefficients leave the float range at index 1024;
    # the residual reads float coefficients in exact mode too (ROADMAP
    # direction 3), so exact mode fails at the same index
    code, _, err = run(argv.split(), capsys)
    assert code == 3
    assert "_1024 does not fit in a float" in err
    assert "hint" not in err and "--mode exact" not in err


_POWERS_OF_4 = "explicit:" + ",".join(str(4 ** k) for k in range(60))


@pytest.mark.parametrize("coeffs, entries", [
    ("explicit:1,2,3", 3), ("explicit:1,2,4,8", 4), (_POWERS_OF_4, 60),
    ("explicit:" + ",".join(["1"] * 300), 300),
], ids=["3", "4", "60 powers of 4", "300 ones"])
def test_classify_says_a_finite_list_decides_no_limit(coeffs, entries, capsys):
    # no criterion decides a list, so its length changes no answer
    code, out, err = run(["classify", "--coeffs", coeffs, "--d", "2"], capsys)
    assert code == 0, err
    assert json.loads(out) | {"diagnostics": None} == {
        "criterion": None, "diagnostics": None, "scale": math.sqrt(2),
        "series_p_status": "not_run", "series_q_status": "not_run", "terms_used": [0, 0],
        "verdict": "inconclusive", "z": [0.0, 1.0]}
    assert json.loads(out)["diagnostics"] == (
        f"no criterion decides explicit({entries} terms) at scale {math.sqrt(2)}, "
        "and no finite run of terms decides the limit")
    code, out, err = run(["deficiency", "--coeffs", coeffs, "--depth", "2"], capsys)
    assert code == 0, err
    obj = _strict_json(out)
    assert (obj["alpha_status"], obj["alpha_criterion"], obj["alphas"]) == (
        "inconclusive", None, [None])
    code, out, err = run(["poisson", "--coeffs", coeffs], capsys)
    assert (code, out) == (4, "")
    assert err == ("inconclusive: no criterion decides the family, so alpha_0 at z = 1j has "
                   "no verdict: no finite run of its series decides a limit\n")


def test_deep_float_deficiency_reads_past_the_recurrence_overflow(capsys):
    # p_n leaves the float range at n = 2049 for d = 2; the level values,
    # stepped from the root, stay near 2/3
    code, out, err = run(["deficiency", "--coeffs", "constant:1", "--z", "0,1",
                          "--depth", "3000"], capsys)
    assert code == 0, err
    assert json.loads(out)["max_abs"] == pytest.approx(1.0, rel=1e-12)


def test_poisson_at_a_deep_vertex_sums_alpha_and_stops_on_the_budget(capsys):
    # the alpha_600 series of the paper family sums past lambda_512 = 2^512,
    # whose square is not a float; the depth-600 kernel is over the budget
    y = ".".join(["1"] * 600)
    code, _, err = run(["poisson", "--coeffs", "paper", "--y", y], capsys)
    assert code == 3
    assert err.startswith("numeric failure: refinement to depth 600 needs ")
    assert err.endswith(" entries, over the budget of 2000000\n")


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_deficiency_sums_alpha_past_a_squared_lambda_beyond_the_float_range(mode, capsys):
    # the alpha series are float series in both modes: the alpha_521
    # series of the paper family steps past lambda_512 = 2^512
    anchor = ".".join(["1"] * 520)
    code, out, err = run(["deficiency", "--coeffs", "paper", f"--anchor={anchor}",
                          "--depth", "530", "--materialize-depth", "521", "--mode", mode],
                         capsys)
    assert code == 0, err
    obj = json.loads(out)
    assert obj["alpha_status"] == "converged"
    assert (obj["max_abs"], obj["residual"]) == (1.0, 0.0)


def _values(obj) -> dict:
    return {r["address"]: complex(r["re"], r["im"]) for r in obj["values"]}


@pytest.mark.parametrize("argv", [
    f"deficiency --coeffs {spec} --d {d} --anchor={anchor}"
    for spec in ("paper", "constant:1") for d in (2, 3) for anchor in ("", "e", "1", "1.2")
] + [
    "deficiency --coeffs constant:1 --z 0,1 --depth 60 --materialize-depth 41 --anchor="
    + ".".join(["1"] * 40),
    "deficiency --coeffs geometric:3:9/10 --z 3,-0.0009765625 --depth 60 "
    "--materialize-depth 31 --anchor=" + ".".join(["1"] * 30),
])
def test_float_deficiency_agrees_with_exact_mode(argv, capsys):
    # the last two read max_abs 1.00006 and 1.1e62 from the difference
    # formula, where exact mode reads 1.0 and 9.5e50
    code, out, err = run(argv.split(), capsys)
    assert code == 0, err
    floats = json.loads(out)
    code, out, err = run(argv.split() + ["--mode", "exact"], capsys)
    assert code == 0, err
    exact = json.loads(out)
    got, want = _values(floats), _values(exact)
    assert got.keys() == want.keys()
    peak = max(abs(v) for v in want.values())
    assert max(abs(got[x] - want[x]) for x in want) <= 1e-12 * peak
    assert abs(floats["max_abs"] - exact["max_abs"]) <= 1e-12 * exact["max_abs"]
    assert floats["residual"] <= 1e-12 * floats["max_abs"]


def test_classify_huge_z_gives_a_verdict(capsys):
    # the bounded criterion decides before |p_1|^2 could overflow
    code, out, err = run(["classify", "--coeffs", "constant:1", "--z", "0,1e308"], capsys)
    assert code == 0
    assert "Traceback" not in err
    obj = json.loads(out)
    assert obj["criterion"] == "bounded" and "bounded" in obj["diagnostics"]


@pytest.mark.parametrize("spec", ["geometric:1/1000:2", "geometric:1/10000000:2",
                                  "power:1/1000000:2"])
def test_classify_small_berezanskii_families_are_not_esa(spec, capsys):
    code, out, _ = run(["classify", "--coeffs", spec, "--d", "2"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["verdict"] == "not_essentially_selfadjoint"
    assert obj["criterion"] == "berezanskii" and "Berezanskii" in obj["diagnostics"]


def test_poisson_on_a_small_geometric_base(capsys):
    # the alpha series converge; no absolute partial-sum rule stops them
    code, out, err = run(["poisson", "--coeffs", "geometric:1/1000:2", "--y", "1.2",
                          "--z", "0,1"], capsys)
    assert code == 0, err
    assert json.loads(out)["matching_convention"] != "neither"


def test_deficiency_artifact(tmp_path, capsys):
    out_file = tmp_path / "elem.json"
    code, _, _ = run(["deficiency", "--anchor", "1", "--depth", "12",
                      "--z", "0,1", "--out", str(out_file)], capsys)
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["residual"] <= 1e-10 * obj["max_abs"]
    assert obj["alpha_status"] == "converged"


def test_deficiency_exact_mode_matches_float(capsys):
    argv = ["deficiency", "--anchor", "1", "--depth", "10", "--z", "0,1"]
    code, out, _ = run(argv + ["--mode", "exact"], capsys)
    assert code == 0
    exact = json.loads(out)
    code, out, _ = run(argv, capsys)
    assert code == 0
    floats = json.loads(out)
    assert exact["residual"] <= 1e-10 * exact["max_abs"]
    assert exact["max_abs"] == pytest.approx(floats["max_abs"], rel=1e-12)


@pytest.mark.parametrize("argv, digest", [
    ("deficiency --mode exact --depth 150",
     "eb89c70af520574461da6882322b3fe05796c0f9bdedc911220e644ee2ea3c6e"),
    ("deficiency --mode exact --depth 150 --anchor 1",
     "ef29156740230beadb23e6dcb4a061cf259c0d2ffa06d384f172355bc56c1064"),
])
def test_deep_exact_deficiency_stdout_is_frozen(argv, digest, capsys):
    # SHA-256 of the stdout that reduced every value to lowest terms before
    # printing its float, which had no alpha_criterion key
    code, out, err = run(argv.split(), capsys)
    assert code == 0, err
    obj = json.loads(out)
    assert obj.pop("alpha_criterion") == "perron"
    assert hashlib.sha256(dump_json(obj).encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    # the four deficiency argv of the spectra benchmark at seed 7
    ("deficiency --d 2 --anchor= --z=-1.1558306506874048,0.8191696885187176 --depth 20",
     "bff1d6146948bee764bfb28480a4aea930413f3b2e8fd17a7d29460156bc7431"),
    ("deficiency --d 3 --anchor=2 --z=1.3367799857578775,-1.8650255844733348 --depth 30",
     "bd8ebb2c6943baf8cbe4851afbcc25cb5bdc9804b524817470b22aa356177b31"),
    ("deficiency --d 2 --anchor=1.2 --z=1.1060246283742154,-1.6640584483650005 --depth 40",
     "abe692e9b62ea8277f9d69a6645b009323e7663a97173bae521cb0da73d16475"),
    ("deficiency --d 3 --anchor= --z=-1.5186535550214164,-0.9889732265732961 --depth 50",
     "d3bad710f2288fededff98808b5e7cb9b7c8484a73e6effa21722c7129ac834c"),
    ("lambda --coeffs paper --d 3 --n 3",
     "7dfe6f03a79865e067ecea2c864c596e61bf69ada6305ade9899f959c7d6e29b"),
    ("lambda --coeffs geometric:7/4:3/2 --d 2 --n 4",
     "f9df502825d46bd7792930058a44668bc935db11d901030e329de3c316fb3c91"),
])
def test_float_stdout_is_frozen(argv, digest, capsys):
    # SHA-256 of the stdout written through one dict per vertex record and
    # the json encoder, before SparseFunction wrote its own JSON text
    code, out, err = run(argv.split(), capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    "deficiency --mode exact --depth 40",
    "deficiency --mode exact --depth 40 --anchor 1 --d 3",
    "polys --mode exact --coeffs geometric:1:3/2 --d 3 --n 30 --z 1/3,-1/2",
])
def test_exact_floats_reduce_nothing(argv, reductions, capsys):
    # residual, max_abs, the printed values and the CSV read each exact
    # value by one int / int per part and never bring it to lowest terms:
    # the only values reduced are the parsed z and scale and scale**2
    with reductions() as bits:
        code, _, err = run(argv.split(), capsys)
    assert code == 0, err
    assert max(bits) < 16


def _tables_stepped(argv, monkeypatch, capsys) -> tuple:
    """(exact, rows yielded) for each exact recurrence table the run steps,
    and (anchor level, weights, levels stepped) for each float solution
    table of the run's recurrence caches (PolyCache.solution), sorted."""
    stepped, caches, real = [], [], orthopoly.poly_pairs
    made = PolyCache.__init__

    def counting(coeffs, scale, z):
        # a generator: a table counts once it takes its first value
        stepped.append([orthopoly._wants_exact(scale, z), 0])
        for item in real(coeffs, scale, z):
            stepped[-1][1] += 1
            yield item

    def recorded(self, *args):
        made(self, *args)
        caches.append(self)

    monkeypatch.setattr(orthopoly, "poly_pairs", counting)
    monkeypatch.setattr(PolyCache, "__init__", recorded)
    code, _, err = run(argv, capsys)
    assert code == 0, err
    levels = sorted((k, weights, len(table[0]) - 2) for cache in caches
                    for (k, weights), table in cache._solutions.items())
    return [tuple(t) for t in stepped], levels


R2 = (math.sqrt(2), math.sqrt(2))  # the alpha weights, and those of p and lambda_0 q


@pytest.mark.parametrize("argv, tables, levels", [
    ("poisson --coeffs paper --z 0.3,1 --y 1.2", [],
     [(-1, R2, 48), (-1, (2, 1), 2), (0, R2, 47), (0, (2, 1), 1), (1, R2, 45),
      (1, (2, 1), 0)]),
    ("deficiency --z 0.3,1 --anchor 1 --depth 40", [],
     [(-1, R2, 48), (0, R2, 47), (1, R2, 45), (1, (2, 1), 38)]),
    ("deficiency --mode exact --z 0,1 --anchor 1 --depth 10", [(True, 11)],
     [(-1, R2, 48), (0, R2, 47), (1, R2, 45)]),
    ("polys --coeffs geometric:1:3/2 --z 0.3,1 --n 30", [],
     [(-1, R2, 30), (0, R2, 29)]),
])
def test_a_session_steps_one_table_per_arithmetic(argv, tables, levels, monkeypatch, capsys):
    # a float session steps no table twice: its values, its alpha series
    # and p, q read one table per anchor level and weights, each held by one
    # cache and stepped once; exact mode sums the alpha series on a float
    # context beside its exact table
    assert _tables_stepped(argv.split(), monkeypatch, capsys) == (tables, levels)


def test_poisson_artifact(capsys):
    code, out, _ = run(["poisson", "--y", "1.2", "--z", "0,1"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["kernel"]["pieces"]) == 4  # depth-2 cells, d = 2
    assert obj["reproducing_residual_plain"] <= 1e-7
    assert obj["matching_convention"] in ("plain", "conjugated")


def test_poisson_pieces_are_the_kernel_cells_in_address_order(capsys):
    # one {"base_address", "re", "im"} record per canonical cell of the
    # kernel, sorted by address
    code, out, err = run(["poisson", "--d", "3", "--y", "2.1", "--z", "0.3,1"], capsys)
    assert code == 0, err
    ctx = DeficiencyContext(parse_coeffs("paper"), 3, 0.3 + 1j)
    _, cells = poisson_kernel((2, 1), ctx, ctx.alphas(2)).step.canonical()
    pieces = [{"base_address": f"{w[0]}.{w[1]}", "re": v.real, "im": v.imag}
              for w, v in sorted(cells.items())]
    assert len(pieces) == 9
    assert json.loads(out)["kernel"] == {"y": "2.1", "z": [0.3, 1.0], "pieces": pieces}


def test_poisson_at_the_root_checks_the_radial_element(capsys):
    # y = e: the kernel is one cell, the whole boundary, and the probe is the
    # radial element, whose norm is alpha_0
    code, out, err = run(["poisson", "--y", "e", "--z", "0.3,1"], capsys)
    assert code == 0, err
    obj = json.loads(out)
    assert [p["base_address"] for p in obj["kernel"]["pieces"]] == ["e"]
    assert obj["kernel"]["y"] == "e"
    assert obj["matching_convention"] == "plain"
    assert obj["reproducing_residual_plain"] <= 1e-12


@pytest.mark.parametrize("anchor, k", [("e", 0), ("1", 1), ("1.2", 2)])
def test_deficiency_prints_alpha_up_to_the_element_norm(anchor, k, capsys):
    # an element anchored at level k has norm alpha_{k+1}: alpha_0..alpha_{k+1}
    code, out, err = run(["deficiency", f"--anchor={anchor}", "--depth", "6"], capsys)
    assert code == 0, err
    obj = json.loads(out)
    assert obj["element"]["anchor"] == anchor
    assert len(obj["alphas"]) == k + 2
    code, out, _ = run(["deficiency", "--depth", "6"], capsys)
    assert json.loads(out)["element"]["anchor"] is None
    assert len(json.loads(out)["alphas"]) == 1


def test_poisson_rejects_out_of_range_vertex(capsys):
    code, out, err = run(["poisson", "--y", "1.5", "--d", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "1.5" in err and "1..2" in err


def test_deficiency_rejects_out_of_range_anchor(capsys):
    code, out, err = run(["deficiency", "--anchor", "7", "--d", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "7" in err and "1..2" in err


def test_lambda_artifact(capsys):
    code, out, _ = run(["lambda", "--n", "3", "--d", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 3
    assert obj["dimension"]["identity_holds"]
    for p in obj["eigenpairs"]:
        assert p["residual"] <= 1e-8


def test_oracle_artifact(capsys):
    code, out, _ = run(["oracle", "--n", "6"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["max_root_deviation"] < 1e-8
    assert obj["moments_agree"]
    assert obj["moments_matrix"][:3] == ["1", "1", "3"]


def test_paper_example_report(capsys):
    # the scaled series converge within 100 terms; the classical verdict
    # needs no series
    for argv in (["paper-example"], ["paper-example", "--n-max", "100"]):
        code, out, _ = run(argv, capsys)
        assert code == 0, argv
        obj = json.loads(out)
        assert obj["overall_pass"]
        assert obj["checks"]["exact_alternation"]["pass"]
        assert obj["checks"]["scaled_series"]["verdict"] == "not_essentially_selfadjoint"
        assert obj["checks"]["classical_series"]["verdict"] == "essentially_selfadjoint"


def test_paper_example_small_budget_honest(capsys):
    code, out, err = run(["paper-example", "--n-max", "5", "--strict"], capsys)
    assert code == 4
    obj = json.loads(out)
    assert obj["checks"]["scaled_series"]["verdict"] == "inconclusive"
    assert err == "inconclusive: paper-example checks without a verdict: scaled_series\n"
    # without --strict the check fails: the same stdout, exit 3
    assert run(["paper-example", "--n-max", "5"], capsys) == (
        3, out, "numeric failure: paper-example checks failed: scaled_series\n")


@pytest.mark.parametrize("n_max", ["0", "-5"])
def test_paper_example_refuses_n_max_below_one_by_its_name(n_max, capsys):
    # the exact table's own bound said "N must be at least 1"
    assert run(["paper-example", "--n-max", n_max], capsys) == (
        2, "", f"error: n_max must be at least 1, got {n_max}\n")


COLD_START = """
import contextlib, io, sys
from treejacobi.cli import main

def run(*argvs):
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv

def loaded(package):
    return sorted(name for name in sys.modules if name.split(".")[0] == package)

run(["classify"], ["polys"], ["polys", "--mode", "exact"], ["poisson"], ["paper-example"])
print(loaded("numpy"))
run(["deficiency"])
print(loaded("scipy"))
"""


def test_subcommands_without_roots_never_import_scipy():
    # scipy and numpy are most of the import time: only the root-finding
    # subcommands need scipy, and only those that build arrays need numpy
    src = os.path.dirname(os.path.dirname(treejacobi.__file__))
    proc = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    numpy_modules, scipy_modules = proc.stdout.split("\n")[:2]
    assert numpy_modules == "[]"
    assert scipy_modules == "[]"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\ncoeffs = constant:1\nd = 2\nz = 0.5,1\n")
    code, out, _ = run(["classify", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "essentially_selfadjoint"
    assert json.loads(out)["z"] == [0.5, 1.0]
    # flag wins over the config value
    code, out, _ = run(["classify", "--config", str(cfg),
                        "--coeffs", "paper"], capsys)
    assert json.loads(out)["verdict"] == "not_essentially_selfadjoint"


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nnonsense = 1\n")
    code, _, err = run(["classify", "--config", str(cfg)], capsys)
    assert code == 2
    assert "nonsense" in err


def test_missing_config_rejected(capsys):
    code, _, err = run(["classify", "--config", "/nonexistent.ini"], capsys)
    assert code == 2


def test_config_value_fails_like_the_same_flag(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nmode = exactly\n")
    with pytest.raises(SystemExit) as from_config:
        main(["polys", "--config", str(cfg)])
    config_err = capsys.readouterr().err
    with pytest.raises(SystemExit) as from_flag:
        main(["polys", "--mode", "exactly"])
    assert from_config.value.code == from_flag.value.code == 2
    assert config_err == capsys.readouterr().err
    assert "invalid choice: 'exactly'" in config_err


def test_config_value_may_start_with_a_minus(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nz = -1,2\nn = 5\n")
    code, out, _ = run(["polys", "--config", str(cfg)], capsys)
    assert code == 0
    assert out == run(["polys", "--z=-1,2", "--n", "5"], capsys)[1]


@pytest.mark.parametrize("text, message", [
    ("[run]\ncoeffs = 50%\n", "bad config file {cfg!r}: '%' must be followed by '%' or '('"),
    ("coeffs = paper\n", "bad config file {cfg!r}: File contains no section headers."),
    ("[run]\nstrict = maybe\n", "bad config file {cfg!r}: strict: not a boolean"),
    ("[other]\nd = 3\n", "config file {cfg!r} has no [run] section"),
    (b"[run]\nz = \xff\n", "bad config file {cfg!r}: 'utf-8' codec can't decode byte 0xff"),
], ids=["interpolation", "no-section-header", "not-a-boolean", "no-run-section", "not-utf-8"])
def test_malformed_config_is_validation_error(tmp_path, text, message, capsys):
    cfg = tmp_path / "bad.ini"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    else:
        cfg.write_text(text)
    code, _, err = run(["classify", "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("error: " + message.format(cfg=str(cfg)))
    assert "Traceback" not in err


@pytest.mark.parametrize("value, code", [("true", 4), ("false", 0)])
def test_config_strict_is_read_as_the_flag(tmp_path, value, code, capsys):
    # a list, which no criterion decides: --strict turns its verdict into exit 4
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nstrict = {value}\n")
    argv = ["classify", "--coeffs", "explicit:1,2"]
    from_config = run(argv + ["--config", str(cfg)], capsys)
    assert from_config == run(argv + ["--strict"] * (value == "true"), capsys)
    assert from_config[0] == code


@pytest.mark.parametrize("argv", [
    [command, *coeffs, *option]
    for coeffs in ([], ["--coeffs", "constant:1"], ["--coeffs", "power:1:2"])
    for command, option in [
        ("classify", o) for o in (["--z", "nan,1"], ["--z", "inf,1"], ["--scale", "0"])]
] + [
    ["polys", "--scale", "0"],
    ["polys", "--mode", "exact", "--scale", "0"],
    ["polys", "--d", "0"],
    ["deficiency", "--d", "1"],
    ["classify", "--d", "-1"],
    ["poisson", "--d", "0"],
    ["deficiency", "--depth", "-1"],
    ["deficiency", "--materialize-depth", "-1"],
    ["classify", "--coeffs", "power:1:1.5e400"],
    ["classify", "--coeffs", "power:1:-1.5e400"],
    ["classify", "--scale", "1/0"],
    ["classify", "--scale", "1e400"],
    ["polys", "--scale", "1/0"],
    ["polys", "--mode", "exact", "--scale", "1/0"],
    ["polys", "--scale=-1e400"],
    ["polys", "--mode", "exact", "--z", "1/0,1"],
    ["deficiency", "--mode", "exact", "--z", "1/0,1"],
], ids=" ".join)
def test_bad_numeric_option_is_validation_error(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    ("deficiency --mode exact --z=0,0", "deficiency-space values need a non-real z, got '0,0'"),
    ("deficiency --z=0,0", "deficiency-space values need a non-real z, got '0,0'"),
    ("deficiency --mode exact --z=1/2,0", "deficiency-space values need a non-real z, got '1/2,0'"),
    ("poisson --z=1,0", "deficiency-space values need a non-real z, got '1,0'"),
    ("polys --mode exact --z=1/0,1", "exact z has a zero denominator, got '1/0,1'"),
    ("polys --mode exact --z=1,-2/0", "exact z has a zero denominator, got '1,-2/0'"),
    ("deficiency --mode exact --z=1/0,1", "exact z has a zero denominator, got '1/0,1'"),
    ("polys --mode exact --z=a,1", "bad exact z 'a,1': "),
    ("classify --z=1/0,1", "z has a zero denominator, got '1/0,1'"),
    ("deficiency --z=1,-2/0", "z has a zero denominator, got '1,-2/0'"),
    ("classify --z=1/3,1e400", "z must be finite, got '1/3,1e400'"),
    ("classify --z=" + "9" * 400 + "/1,1", "z must be finite, got '" + "9" * 400 + "/1,1'"),
])
def test_z_errors_name_the_value_as_written(argv, message, capsys):
    code, _, err = run(argv.split(), capsys)
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert "ExactComplex" not in err and "Fraction(" not in err


@pytest.mark.parametrize("argv", [
    "classify --mode exact",
    "classify --tol 1e-6",
    "classify --n-max 400",
    "deficiency --tol 1e-6",
    "poisson --tol 1e-6",
    "paper-example --tol 1e-6",
    "poisson --mode exact",
    "polys --tol nan",
    "deficiency --strict",
    "lambda --n-max -5",
    "oracle --z 0,1",
    "paper-example --coeffs paper",
    "deficiency --n-max 5",
    "poisson --n-max 5",
] + [f"{command} --n-max -5{coeffs}" for coeffs in ("", " --coeffs constant:1",
                                                    " --coeffs power:1:2")
     for command in ("deficiency", "poisson")])
def test_flag_the_subcommand_does_not_read_is_rejected(argv, tmp_path, capsys):
    command, flag, *value = argv.split()
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    # the same option as a config key
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\n{flag[2:]} = {value[0] if value else 'true'}\n")
    code, _, err = run([command, "--config", str(cfg), *value[1:]], capsys)
    assert code == 2
    assert flag[2:] in err


# Generated argv for every subcommand.  Sizes are capped, and given even
# where they are optional, so that no case can exhaust memory or run long:
# d <= 5, n <= 4, depth <= 40, materialize depth <= 4, n_max <= 2000 and
# addresses of at most 5 levels.  Half the n_max draws come from 1..40 and
# three quarters of the --strict draws are set: short budgets and --strict
# reach the exits that a budget or an undecided verdict sets (paper-example's
# failed and inconclusive checks, poisson's alpha without a value).  A budget
# drawn for deficiency or poisson, which take no --n-max, is set as
# orthopoly.SERIES_N_MAX, the alpha series' budget.
_NUMBERS = st.sampled_from(["0", "1", "-1", "0.5", "-2.5", "1/3", "1/0", "1e308", "nan", "inf",
                            "x"])
_ADDRESS = st.one_of(
    st.lists(st.integers(0, 6), max_size=5).map(lambda x: ".".join(map(str, x)) or "e"),
    st.sampled_from(["", "1..2", "-1", "a"]))
_SHARED = {
    "d": st.integers(-1, 5),
    "coeffs": st.sampled_from([
        "paper", "constant:1", "constant:2:1", "constant:0", "geometric:1:1/2",
        "geometric:3/2:5/4", "geometric:1", "power:1:2", "power:1:0.5",
        "power:1:1/2", "power:1:-2000", "explicit:1,2,3", "explicit:1,-1:0",
        "explicit:" + ",".join(["1"] * 200), "bogus"]),
    "z": st.one_of(st.builds("{},{}".format, _NUMBERS, _NUMBERS),
                   st.sampled_from(["1", "a,b", ""])),
    "mode": st.sampled_from(["float", "exact", "fast"]),
    "strict": st.just(True) | st.booleans(),
}
_BUDGET = st.integers(1, 40) | st.integers(-2, 2000)
_N_MAX = {"n-max": _BUDGET}
_SCALE = st.sampled_from(["1", "2", "1/2", "1.5", "0", "-1", "1/0", "1e400", "x"])
_N = st.integers(-1, 4)


def _shared(*names):
    return {name: _SHARED[name] for name in names}


# subcommand: (its capped sizes, its other options), each an option the
# subcommand takes
_COMMANDS = {
    "polys": ({"n": _N}, {"scale": _SCALE, **_shared("d", "coeffs", "z", "mode")}),
    "classify": ({}, {"scale": _SCALE, **_shared("d", "coeffs", "z", "strict")}),
    "deficiency": ({"depth": st.integers(-1, 40), "materialize-depth": st.integers(-1, 4)},
                   {"anchor": _ADDRESS, **_shared("d", "coeffs", "z", "mode")}),
    "poisson": ({}, {"y": _ADDRESS, **_shared("d", "coeffs", "z")}),
    "lambda": ({"n": _N}, _shared("d", "coeffs")),
    "oracle": ({"n": _N}, _shared("d", "coeffs")),
    "paper-example": (_N_MAX, _shared("strict")),
}


def _argv(command, options):
    flags = [f"--{k}" if v is True else f"--{k}={v}"
             for k, v in options.items() if v is not False]
    return [command] + flags


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_generated_argv_keeps_the_exit_contract(command, data):
    sizes, optional = _COMMANDS[command]
    options = data.draw(st.fixed_dictionaries(sizes, optional=optional))
    budget = (data.draw(_BUDGET) if command in ("deficiency", "poisson")
              else orthopoly.SERIES_N_MAX)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(orthopoly, "SERIES_N_MAX", budget)
        try:
            code = main(_argv(command, options))
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    # every nonzero exit says why
    assert code == 0 or err.getvalue().strip()
    if code == 0:
        if command == "polys":
            rows = list(csv.reader(io.StringIO(out.getvalue())))
            assert rows[0][0] == "n" and all(len(r) == len(rows[0]) for r in rows)
            return
        obj = _strict_json(out.getvalue())
        # no limit verdict without a criterion, and no series behind one
        if command == "classify" and obj["verdict"] != "inconclusive":
            assert obj["criterion"] is not None and obj["terms_used"] == [0, 0]
        if command == "deficiency" and obj["alpha_status"] == "diverged":
            assert obj["alpha_criterion"] is not None
