#!/usr/bin/env python3
"""Builds cs_bench from the checked-out sources and runs the benchmark.

One run of one workload (what BENCHMARK.json's command does):

    python3 bench_suite/run.py --workload steer --seed 1 --seconds 10 --trace 0

builds .bench_build/cs_bench if needed (build output goes to stderr), runs
the workload, and relays its output: the last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}. Full reports and, for
--trace 1, Chrome trace files land in .bench_out/.

Repeatability mode runs every workload (or one) on N consecutive seeds and
prints, per metric and workload, the median, the quartiles and the spread
(q3 - q1) / median against the metric's BENCHMARK.json bound:

    python3 bench_suite/run.py --repeat 10 --seed 1 --out set_a.json

and --compare checks that two such sets agree: every end-to-end median of
the second is within its bound of the first, in the worse direction.

    python3 bench_suite/run.py --compare set_a.json set_b.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "cs_bench")
WORKLOADS = ["steer", "flood", "viz", "media", "ogsa"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds cs_bench; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "cs_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed:", " ".join(step))
            return False
    return True


def git_sha():
    # Only the checkout's own repository: git would otherwise search the
    # directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_once(workload, seed, seconds, trace, sha):
    """Runs cs_bench once; returns (exit code, result object or None,
    the report's unbound rows such as latency_p99_us)."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--out-dir={OUT}",
           f"--git-sha={sha}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None, {}
    report = os.path.join(
        OUT, f"{workload}-seed{seed}{'-trace' if trace else ''}.json")
    with open(report) as f:
        extra = json.load(f)["extra"]
    return 0, json.loads(lines[-1]), extra


def load_bounds():
    """BENCHMARK.json's end-to-end metrics by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def spread_table(runs, bounds):
    """Per (workload, metric): median, quartiles, spread vs bound. The
    report's unbound rows are listed too, with no bound."""
    rows = []
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload and r["result"]]
        if not mine:
            continue
        rows_of = [{**r["extra"], **r["result"]["metrics"]} for r in mine]
        for name in sorted(rows_of[0]):
            values = [row[name]["value"] for row in rows_of]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (median, median, median))
            spread = (q3 - q1) / median if median else None
            bound = bounds.get(name, {}).get("bound")
            rows.append({"workload": workload, "metric": name,
                         "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bound, "runs": len(values)})
    return rows


def print_table(rows):
    log(f"{'workload':8} {'metric':24} {'median':>14} {'q1':>14} "
        f"{'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    for r in rows:
        bound = r["bound"]
        spread = r["spread"]
        if bound is None or spread is None:
            verdict = "-"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "WIDER THAN BOUND"
        log(f"{r['workload']:8} {r['metric']:24} {r['median']:14.4f} "
            f"{r['q1']:14.4f} {r['q3']:14.4f} "
            f"{'-' if spread is None else f'{spread:.4f}':>8} "
            f"{'' if bound is None else bound:>6}  {verdict}")


def repeat(args):
    bounds = load_bounds()
    if not build():
        return 1
    sha = git_sha()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    runs = []
    for workload in workloads:
        for i in range(args.repeat):
            seed = args.seed + i
            code, result, extra = run_once(workload, seed, args.seconds,
                                           args.trace, sha)
            runs.append({"workload": workload, "seed": seed, "exit": code,
                         "result": result, "extra": extra})
            log(f"run.py: {workload} seed={seed} exit={code}")
    rows = spread_table(runs, bounds)
    print_table(rows)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"git_sha": sha, "nproc": os.cpu_count(),
                       "seconds": args.seconds, "trace": args.trace,
                       "runs": runs, "spreads": rows}, f, indent=1)
    return 0 if all(r["exit"] == 0 for r in runs) else 1


def compare(path_a, path_b):
    """Second set's medians within each metric's bound of the first's."""
    bounds = load_bounds()
    with open(path_a) as f:
        a = {(r["workload"], r["metric"]): r for r in json.load(f)["spreads"]}
    with open(path_b) as f:
        b = {(r["workload"], r["metric"]): r for r in json.load(f)["spreads"]}
    ok = True
    log(f"{'workload':8} {'metric':24} {'median A':>14} {'median B':>14} "
        f"{'worse by':>9} {'bound':>6}")
    for key in sorted(a.keys() & b.keys()):
        spec = bounds.get(key[1])
        if spec is None:
            continue
        ma, mb = a[key]["median"], b[key]["median"]
        worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
        flag = "" if worse <= spec["bound"] else "  OUTSIDE BOUND"
        ok = ok and not flag
        log(f"{key[0]:8} {key[1]:24} {ma:14.4f} {mb:14.4f} {worse:9.4f} "
            f"{spec['bound']:6}{flag}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload on this many seeds")
    parser.add_argument("--out", help="repeat mode: write all runs here")
    parser.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.repeat > 0:
        return repeat(args)
    if args.workload == "all":
        parser.error("a single run needs --workload; use --repeat for all")
    if not build():
        return 1
    code, result, _ = run_once(args.workload, args.seed, args.seconds,
                               args.trace, git_sha())
    if result is None:
        return code
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
