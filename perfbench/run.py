"""Benchmark runner for treejacobi.

    python3 perfbench/run.py --workload verdicts|exact|spectra --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The runner generates the
workload's requests from the seed, computes their reference values, times
fresh interpreters importing the package, and hands the requests to a
worker process (perfbench/worker.py) that runs them in a closed loop.  It
then checks every output and prints, as its last line, one JSON object with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

Times are scaled to a nominal processor speed by a calibration loop timed
around and during every request (see common.SpeedClock), because the
processor of a shared machine drifts between speeds for tens of seconds at
a time.  A run makes round(S / PASS_SECONDS[workload]) passes over the
request list, and each request's latency is the fastest of its passes.  With --trace 1
the worker makes one plain pass and then one traced pass, whose spans go to
perfbench/out/.

Exit codes: 0 with a result line; 2 when the checkout has no treejacobi
sources; 1 when the worker fails or overruns."""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from common import calibrate, scaled  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Nominal seconds of one pass over each workload's request list.  A session
# request of spectra is timed once per pass (a repeat would find the shared
# recurrence table extended), so spectra makes two passes per run length.
PASS_SECONDS = {"verdicts": 10, "exact": 10, "spectra": 5}
SETUP_PROBES = 5           # fresh interpreters timed before and again after the passes
IMPORTTIME_PROBES = 3
DEADLINE_S = 170           # the whole run must end within 180 s
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
VERDICT_OPS = ("classify", "alpha", "s_alpha")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, **SINGLE_THREAD)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# The fresh interpreter times the calibration loop itself, just before and
# after the imports, so the speed is that of the processor it ran on; the
# time of those two calibrations is taken out of the process time.
SETUP_CODE = f"""
import sys, time
sys.path.insert(0, {HERE!r})
from common import calibrate
t0 = time.perf_counter(); before = calibrate(); t1 = time.perf_counter()
import treejacobi, treejacobi.cli
t2 = time.perf_counter(); after = calibrate(); t3 = time.perf_counter()
print(before, after, (t1 - t0) + (t3 - t2))
"""


def probe_setup() -> float:
    """Seconds, at the nominal processor speed, for a fresh interpreter to
    start and import treejacobi and its CLI."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          env=child_env(), check=True, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    before, after, calibrating = map(float, proc.stdout.split())
    return scaled(elapsed - calibrating, before, after)


def probe_importtime() -> dict:
    """From ``python -X importtime``: the cumulative time of the outermost
    scipy imports (scipy and everything it pulls in first) and the self
    time of treejacobi's own modules, in seconds at the nominal speed."""
    before = calibrate()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import treejacobi, treejacobi.cli"],
                          cwd=ROOT, env=child_env(), check=True,
                          capture_output=True, text=True)
    speed = scaled(1.0, before, calibrate())
    entries = []
    for line in proc.stderr.splitlines():
        fields = line[len("import time:"):].split("|")
        if line.startswith("import time:") and fields[0].strip().isdigit():
            name = fields[2].rstrip()
            level = len(name) - len(name.lstrip())
            entries.append((level, name.strip(), int(fields[0]), int(fields[1])))
    totals = {"scipy": 0.0, "treejacobi": 0.0}
    ancestors = []
    for level, name, own_us, cumulative_us in reversed(entries):  # parents first
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        top = name.split(".")[0]
        if top == "scipy" and all(a[1] != "scipy" for a in ancestors):
            totals["scipy"] += cumulative_us * 1e-6 * speed
        elif top == "treejacobi":
            totals["treejacobi"] += own_us * 1e-6 * speed
        ancestors.append((level, top))
    return totals


def provenance(seed: int) -> dict:
    head = os.path.join(ROOT, ".git", "HEAD")
    commit = None
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    import mpmath
    return {"commit": commit, "src_sha256": digest.hexdigest(), "seed": seed,
            "nproc": os.cpu_count(), "cpu": cpu, "mpmath": mpmath.__version__,
            "threads": SINGLE_THREAD}


def run_worker(requests, warmup, passes, trace, spans_path, deadline) -> dict:
    job = json.dumps({"requests": requests, "warmup": warmup, "passes": passes,
                      "trace": trace, "spans_path": spans_path})
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(job, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker overran the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def is_inconclusive(req, summary) -> bool:
    if req["op"] == "classify":
        return summary["verdict"] == "inconclusive"
    if req["op"] in ("alpha", "s_alpha"):
        return summary["status"] == "inconclusive"
    return json.loads(summary["out"])["verdict"] == "inconclusive"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "treejacobi", "__init__.py")):
        print(f"error: no treejacobi sources under {SRC}", file=sys.stderr)
        return 2
    import checks
    import workloads
    if args.workload not in workloads.GENERATORS:
        parser.error(f"unknown workload {args.workload!r}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    requests = workloads.generate(args.workload, args.seed)
    by_id = {r["id"]: r for r in requests}
    refs = checks.Refs()
    started = time.perf_counter()
    checks.precompute(requests, refs)
    reference_s = time.perf_counter() - started

    setup = [probe_setup() for _ in range(SETUP_PROBES)]
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{'traced' if args.trace else 'plain'}"
    spans_path = os.path.join(OUT, f"spans-{tag}.jsonl")
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    warmup = [{"id": -1 - i, **req} for i, req in enumerate(workloads.WARMUP[args.workload])]
    started = time.perf_counter()
    job = run_worker(requests, warmup, 1 if args.trace else passes, bool(args.trace),
                     spans_path, deadline)
    worker_s = time.perf_counter() - started
    setup += [probe_setup() for _ in range(SETUP_PROBES)]
    started = time.perf_counter()

    # check every output of every pass
    all_passes = job["passes"] + ([job["traced"]["pass"]] if job["traced"] else [])
    failures, attempted, verdicts, inconclusive = {}, 0, 0, 0
    for p in all_passes:
        for result in p["results"]:
            req = by_id[result["id"]]
            attempted += 1
            defect, detail = checks.check(req, result, refs)
            if defect is not None:
                failures.setdefault(req["id"], {"id": req["id"], "op": req["op"],
                                                "defect": defect, "detail": detail,
                                                "request": req, "times": 0})["times"] += 1
            elif req["op"] in VERDICT_OPS or (req["op"] == "cli" and req["argv"][0] == "classify"):
                verdicts += 1
                inconclusive += is_inconclusive(req, result["summary"])
    failed = sum(f["times"] for f in failures.values())
    check_s = time.perf_counter() - started
    correct = all(f["defect"] in checks.KNOWN_DEFECTS for f in failures.values())

    latency = {}
    for p in job["passes"]:
        for result in p["results"]:
            latency.setdefault(result["id"], []).append(result["ms"])
    fastest = [min(v) for v in latency.values()]
    if args.trace:
        traced = job["traced"]
        layers = dict(traced["layers"])
        speed = traced["pass"]["wall_s"] / traced["pass"]["raw_wall_s"]
        for name in layers:
            if name.endswith("self_s"):
                layers[name] *= speed
        importtime = [probe_importtime() for _ in range(IMPORTTIME_PROBES)]
        layers["setup.scipy_import_s"] = statistics.median(t["scipy"] for t in importtime)
        layers["setup.treejacobi_import_s"] = statistics.median(
            t["treejacobi"] for t in importtime)
        root_errors = [checks.max_rel_err(r["summary"]["roots"],
                                          refs.roots_of(by_id[r["id"]]["spec"],
                                                        by_id[r["id"]]["d"], by_id[r["id"]]["n"]))
                       for r in traced["pass"]["results"]
                       if by_id[r["id"]]["op"] == "roots" and r["summary"]]
        layers["orthopoly.poly_roots.max_rel_err"] = max(root_errors, default=0.0)
        layers["trace.overhead_frac"] = traced["pass"]["wall_s"] / job["passes"][0]["wall_s"] - 1
        wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in wanted}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(fastest) / 1e3,
            "op_p50_ms": statistics.median(fastest),
            "op_p90_ms": p90(fastest),
            "ok_frac": 1 - failed / attempted,
            "decisive_frac": 1 - inconclusive / verdicts if verdicts else 1.0,
            "peak_rss_mb": job["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    record = {"workload": args.workload, "trace": args.trace, "passes": len(job["passes"]),
              "provenance": {**provenance(args.seed), **job["versions"]},
              "reference_s": reference_s, "worker_s": worker_s, "check_s": check_s,
              "setup_probes_s": setup,
              "pass_wall_s": [p["wall_s"] for p in job["passes"]],
              "raw_pass_wall_s": [p["raw_wall_s"] for p in job["passes"]],
              "latency_samples": len(fastest), "metrics": metrics,
              "failures": sorted(failures.values(), key=lambda f: f["id"])}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for f in record["failures"]:
        print(f"failed request {f['id']} ({f['op']}) x{f['times']}: {f['defect']} | {f['detail'][:160]}")
    print(f"{len(fastest)} latency samples, each the fastest of {len(job['passes'])} passes; "
          f"references {reference_s:.1f} s; {len(failures)} failed requests")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
