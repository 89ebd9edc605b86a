"""Paired benchmark runs of a change against its parent, written as one
BENCH_*.json file.

    python3 tools/bench_pairs.py --parent REV --out BENCH_N.json --describe TEXT \
        [--claim WORKLOAD:METRIC] [--extra-argv FILE]

Run from the root of the repository.  Each side runs from its own checkout
in a temporary directory, removed afterwards: the parent from
`git archive REV`, the change from a copy of the working tree (tracked and
untracked files that git does not ignore), so that an uncommitted change
can be measured.  For every workload of BENCHMARK.json:

* one untimed run per side at seed 100 fills that checkout's reference cache;
* the sides alternate over seeds 101-110 (odd seeds parent first, even
  seeds change first), each run
  `python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0`;
* one held-out seed, 531, runs change first;
* one --trace 1 run per side at seed 7 gives the per-layer metrics.

The summary gives, per workload and end-to-end metric of BENCHMARK.json,
each side's median and quartiles (statistics.quantiles, inclusive method)
over the pairs and the number of pairs in which the change reads better
(ties count for neither).  A claim is met when the change is better in at
least 9 of the 10 pairs, the medians differ in its favour by more than the
parent's interquartile range, and the held-out seed agrees.

The output identity runs every argv of identity_argv (and the lines of
--extra-argv, each split as a shell would) in-process through cli.main, one
process per side, and lists each argv whose exit code, stdout sha256 or
stderr differ."""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

WARM_SEED = 100
PAIR_SEEDS = range(101, 111)
TRACE_SEED = 7
HELD_OUT_SEED = 531
BENCH = "python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0"
SIDES = ("parent", "change")

# The argv set of the output identity: families, spectral parameters,
# anchors and vertices that the CLI's artifacts are compared over.
IDENTITY_FAMILIES = ["paper", "constant:1", "geometric:1:3/2", "geometric:3:9/10", "power:1:1",
                     "power:1/3:2", "constant:3/2:-1/2"]
IDENTITY_Z = ["0,1", "0.3,1", "-1.5,0.2"]

IDENTITY_CODE = """
import contextlib, hashlib, io, json, sys
from treejacobi import cli
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(json.loads(line))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded, so that both sides are compared
            code = "exception " + repr(exc)
    text = out.getvalue()
    print(json.dumps({"exit": code, "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
                      "stderr": err.getvalue(), "stdout": text[:4000]}))
"""


def git(*args) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def archive(rev: str, dest: str) -> None:
    with tempfile.TemporaryFile() as fh:
        fh.write(git("archive", rev))
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest)


def copy_worktree(dest: str) -> None:
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        path = name.decode()
        if path and os.path.isfile(path):
            os.makedirs(os.path.join(dest, os.path.dirname(path)), exist_ok=True)
            shutil.copy2(path, os.path.join(dest, path))


def run_bench(root: str, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "10", "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True)
    record = {"workload": workload, "seed": seed, "exit": proc.returncode}
    if proc.returncode != 0:
        return record | {"error": proc.stderr[-2000:]}
    result = json.loads(proc.stdout.splitlines()[-1])
    return record | {"correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def better(a: float, b: float, direction: str) -> bool:
    """Whether a reads better than b."""
    return a < b if direction == "lower" else a > b


def summarize(runs: list, workload: str, metrics: list) -> dict:
    timed = {(r["side"], r["seed"]): r for r in runs
             if r["workload"] == workload and r["seed"] in PAIR_SEEDS}
    ok = [r for r in timed.values() if r["exit"] == 0]
    summary = {"runs": len(timed), "correct_runs": sum(r["correct"] for r in ok),
               "failed_requests": sum(r["failed"] for r in ok)}
    for m in metrics:
        pairs = [(timed[("parent", s)]["metrics"][m["name"]],
                  timed[("change", s)]["metrics"][m["name"]]) for s in PAIR_SEEDS
                 if all(timed[(side, s)]["exit"] == 0 for side in SIDES)]
        if not pairs:
            continue
        parent, change = map(quartiles, zip(*pairs))
        summary[m["name"]] = {
            "parent": parent, "change": change,
            "change_better_pairs": sum(better(c, p, m["better"]) for p, c in pairs),
            "pairs": len(pairs),
            "change_over_parent_median": change["median"] / parent["median"]
            if parent["median"] else None}
    return summary


def claim(summary: dict, held_out: list, workload: str, metric: str, direction: str) -> dict:
    s = summary[workload][metric]
    parent_iqr = s["parent"]["q3"] - s["parent"]["q1"]
    gap = s["parent"]["median"] - s["change"]["median"]
    held = {r["side"]: r["metrics"][metric] for r in held_out
            if r["workload"] == workload and r["exit"] == 0}
    held_agrees = len(held) == 2 and better(held["change"], held["parent"], direction)
    return {"workload": workload, "metric": metric,
            "parent_median": s["parent"]["median"], "change_median": s["change"]["median"],
            "parent_iqr": parent_iqr, "change_better_pairs": s["change_better_pairs"],
            "pairs": s["pairs"], "held_out_seed": HELD_OUT_SEED, "held_out": held,
            "met": (s["change_better_pairs"] >= 9 and held_agrees
                    and (gap if direction == "lower" else -gap) > parent_iqr)}


def identity_argv(perfbench_dir: str) -> list:
    """Deep exact deficiency; per family and d = 2, 3: classify, float
    deficiency and poisson at three z, polys, lambda, oracle and shallow
    exact deficiency; paper-example; then every cli request perfbench
    generates at seeds 7 and 101-110.  Each argv once."""
    argv = [["deficiency", "--mode", "exact", "--depth", str(depth), "--materialize-depth", "4",
             *anchor] for depth in (150, 300, 600) for anchor in ([], ["--anchor=1"])]
    for family in IDENTITY_FAMILIES:
        for d in ("2", "3"):
            base = ["--coeffs", family, "--d", d]
            for z in IDENTITY_Z:
                argv.append(["classify", *base, f"--z={z}"])
                argv += [["deficiency", *base, f"--z={z}", f"--anchor={a}"]
                         for a in ("", "e", "1", "1.2", "2.1.1")]
                argv += [["poisson", *base, f"--z={z}", "--y", y]
                         for y in ("e", "1", "1.2", "2.1.1")]
            argv += [["polys", *base], ["lambda", *base], ["oracle", *base]]
            argv += [["deficiency", *base, "--mode", "exact", "--depth", "30", f"--anchor={a}"]
                     for a in ("", "1", "1.2")]
    argv.append(["paper-example"])
    sys.path.insert(0, perfbench_dir)
    import workloads
    for workload in workloads.GENERATORS:
        for seed in (TRACE_SEED, *PAIR_SEEDS):
            argv += [r["argv"] for r in workloads.generate(workload, seed) if r["op"] == "cli"]
    return list(map(list, dict.fromkeys(map(tuple, argv))))


def run_identity(root: str, argv: list) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", IDENTITY_CODE], cwd=root, env=env, check=True,
                          input="".join(json.dumps(a) + "\n" for a in argv),
                          capture_output=True, text=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def output_identity(roots: dict, argv: list, extra: list) -> dict:
    results = {side: run_identity(roots[side], argv) for side in SIDES}
    changed = []
    for a, p, c in zip(argv, results["parent"], results["change"]):
        key = ("exit", "stdout_sha256", "stderr")
        if [p[k] for k in key] != [c[k] for k in key]:
            changed.append({"argv": shlex.join(a), "extra": a in extra, "parent": p, "change": c})
    return {"argv": len(argv), "extra_argv": [shlex.join(a) for a in extra],
            "counts": {"identical": len(argv) - len(changed), "changed": len(changed)},
            "changed_argv": changed}


def src_lines(root: str) -> int:
    pkg = os.path.join(root, "src", "treejacobi")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def machine() -> dict:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    return {"cpu": cpu, "cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": importlib.metadata.version("numpy")}


def measure(args, spec: dict, roots: dict) -> dict:
    """Every run and the output identity of both checkouts, as the
    BENCH_*.json object."""
    metrics = spec["end_to_end"]
    parent_rev = git("rev-parse", "--short", args.parent).decode().strip()

    def run(side, workload, seed, first, trace=0):
        record = {"side": side, "first": first} | run_bench(roots[side], workload, seed, trace)
        print(f"{workload} seed {seed} {side}: "
              f"{record.get('metrics', record.get('error', ''))}", file=sys.stderr)
        return record

    runs, held_out, traced = [], [], []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        runs += [run(side, workload, WARM_SEED, "warm") for side in SIDES]
        for seed in PAIR_SEEDS:
            order = SIDES if seed % 2 else SIDES[::-1]
            runs += [run(side, workload, seed, order[0]) for side in order]
        held_out += [run(side, workload, HELD_OUT_SEED, "change") for side in SIDES[::-1]]
        traced += [run(side, workload, TRACE_SEED, "parent", trace=1) for side in SIDES]

    summary = {w: summarize(runs, w, metrics) for w in workloads}
    extra = []
    if args.extra_argv:
        with open(args.extra_argv, encoding="utf-8") as fh:
            extra = [shlex.split(line) for line in fh if line.strip()]
    argv = identity_argv(os.path.join(roots["change"], "perfbench"))
    argv += [a for a in extra if a not in argv]
    bench = {
        "benchmark": BENCH, "parent": parent_rev, "change": args.describe,
        "machine": machine(),
        "note": ("Times are scaled to the benchmark's nominal CPU speed by its calibration "
                 "loop; pairs alternate which side runs first (odd seeds parent first); seeds "
                 f"{PAIR_SEEDS[0]}-{PAIR_SEEDS[-1]} for every workload, after one untimed run "
                 f"per side and workload at seed {WARM_SEED} to fill each checkout's reference "
                 f"cache; one held-out pair per workload at seed {HELD_OUT_SEED} (change "
                 "first). summary gives median and quartiles (statistics.quantiles, inclusive "
                 "method) per side and the number of pairs in which the change reads better "
                 "(ties count for neither). Both sides ran from copies outside the repository: "
                 f"the parent from git archive of {parent_rev}, the change from the working "
                 f"tree. Traced runs: every workload at seed {TRACE_SEED}, "
                 "--trace 1, parent then change."),
        "plain_pairs": {"seeds": list(PAIR_SEEDS), "summary": summary, "runs": runs},
        "held_out": held_out,
        "traced": traced,
        "output_identity": output_identity(roots, argv, extra),
        "src_lines": {side: src_lines(roots[side]) for side in SIDES}
                     | {"how": "wc -l src/treejacobi/*.py"},
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        direction = next(m["better"] for m in metrics if m["name"] == metric)
        bench = {**{k: bench[k] for k in ("benchmark", "parent", "change", "machine")},
                 "claim": claim(summary, held_out, workload, metric, direction), **bench}
    return bench


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, help="the JSON file written")
    parser.add_argument("--describe", required=True, help="what the change does")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--extra-argv", help="file of further argv for the output identity, "
                                             "one per line")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as workdir:
        roots = {side: os.path.join(workdir, side) for side in SIDES}
        archive(args.parent, roots["parent"])
        copy_worktree(roots["change"])
        bench = measure(args, spec, roots)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(json.dumps(bench.get("claim", {})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
