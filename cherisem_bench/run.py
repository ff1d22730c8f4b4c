#!/usr/bin/env python3
"""cherisem-bench: build the benchmark, run a workload, check it.

    python3 cherisem_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 cherisem_bench/run.py --steadiness K [--workloads a,b] [--seconds S]
    python3 cherisem_bench/run.py --seed-check [--seeds A,B] [--runs R]
    python3 cherisem_bench/run.py --unit-tests

Run from the repository root.  The benchmark is built from source into
.bench_build/ (CMake, the repository's library sources plus
cherisem_bench/src).  A run prints every metric by name with its unit;
its last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The exit status is 0 only when every
verdict of the run was correct.

--steadiness runs each workload of BENCHMARK.json (or --workloads)
K times with seeds 1..K and prints,
per metric, the median, the quartiles and the spread (interquartile
range / median), with a machine fingerprint; README.md says how the
bounds in BENCHMARK.json follow from it.  --seed-check runs the same
workloads under two seeds and fails when their medians differ by more
than a metric's bound.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "cherisem_bench")
WORKLOADS = ["suite_cold", "eval_kernels"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print("cherisem-bench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_sources():
    for need in ("src/CMakeLists.txt", "tests/suite"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("missing %s: run from a full cherisem checkout" % need)


def build(target="cherisem_bench"):
    check_sources()
    jobs = str(os.cpu_count() or 2)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            fail("build failed: " + " ".join(cmd))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, echo=True):
    """Run one workload; return (exit code, parsed result or None)."""
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--bench-dir", BENCH_DIR,
           "--trace-file",
           os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line)
        sys.stdout.flush()
    if not lines:
        return proc.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return proc.returncode or 1, None
    return proc.returncode, result


def validate(result, trace):
    """Problems with a result's shape, against BENCHMARK.json."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append("result keys %s" % sorted(result))
        return problems
    spec = load_spec()
    if spec:
        group = spec["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in group}
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if want != got:
            problems.append("metrics differ from BENCHMARK.json: %s"
                            % sorted(set(want.items()) ^ set(got.items())))
    if result["attempted"] < 1:
        problems.append("no verdict attempted")
    return problems


def cmd_run(args):
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (one of %s)"
             % (args.workload, ", ".join(WORKLOADS)))
    build()
    code, result = run_once(args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        fail("no result from the benchmark (exit %d)" % code, code or 1)
    problems = validate(result, args.trace)
    if problems:
        fail("; ".join(problems), 1)
    return 0 if code == 0 and result["correct"] else 1


def fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    return {"nproc": os.cpu_count(), "cpu": cpu, "build_type": build_type,
            "git_rev": rev.stdout.strip() if rev.returncode == 0
            else "unknown"}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else math.inf,
            "min": min(values), "max": max(values)}


def collect(workload, seeds, seconds):
    """End-to-end metric values of one run per seed, plus the wall
    time of each run under the key "wall_s"."""
    values = {}
    for seed in seeds:
        start = time.monotonic()
        code, result = run_once(workload, seed, seconds, 0, echo=False)
        values.setdefault("wall_s", []).append(time.monotonic() - start)
        if result is None or code != 0 or not result["correct"]:
            fail("%s seed %d failed (exit %d)" % (workload, seed, code), 1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def spec_seconds(args):
    spec = load_spec()
    return args.seconds if args.seconds else (
        spec["run_seconds"] if spec else 10)


def cmd_steadiness(args):
    build()
    seconds = spec_seconds(args)
    spec = load_spec() or {"end_to_end": []}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"fingerprint": fingerprint(), "seconds": seconds,
              "runs": args.steadiness, "workloads": {}}
    fp = report["fingerprint"]
    print("machine: %d cpus, %s; build %s; rev %s; %s s per run"
          % (fp["nproc"], fp["cpu"], fp["build_type"], fp["git_rev"],
             seconds))
    ok = True
    for w in args.workloads.split(","):
        values = collect(w, range(1, args.steadiness + 1), seconds)
        report["workloads"][w] = {}
        print("%s (%d runs, seeds 1..%d)" % (w, args.steadiness,
                                             args.steadiness))
        for name, vals in values.items():
            s = summarize(vals)
            report["workloads"][w][name] = dict(s, values=vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] > bound:
                flag = "  SPREAD ABOVE BOUND %.2f" % bound
                ok = False
            elif bound is not None and s["spread"] > bound / 3:
                flag = "  (above a third of the bound %.2f)" % bound
            print("  %-18s median %14.6f  q1 %14.6f  q3 %14.6f  "
                  "spread %6.3f%s" % (name, s["median"], s["q1"], s["q3"],
                                      s["spread"], flag))
    out = os.path.join(BUILD_DIR, "steadiness.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print("wrote " + out)
    return 0 if ok else 1


def cmd_seed_check(args):
    build()
    seconds = spec_seconds(args)
    spec = load_spec()
    if not spec:
        fail("BENCHMARK.json not found")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a, b = (int(x) for x in args.seeds.split(","))
    ok = True
    for w in args.workloads.split(","):
        va, vb = {}, {}
        for _ in range(args.runs):
            # Interleave the two seeds so that drift hits both alike.
            for seed, into in ((a, va), (b, vb)):
                for k, v in collect(w, [seed], seconds).items():
                    into.setdefault(k, []).extend(v)
        for name, m in metrics.items():
            ma = statistics.median(va[name])
            mb = statistics.median(vb[name])
            diff = abs(ma - mb) / max(ma, mb)
            agree = diff <= m["bound"]
            ok &= agree
            print("%-14s %-16s seed %d: %14.6f  seed %d: %14.6f  "
                  "differ %.3f (bound %.2f) %s"
                  % (w, name, a, ma, b, mb, diff, m["bound"],
                     "ok" if agree else "DISAGREE"))
    return 0 if ok else 1


def cmd_unit_tests(_args):
    build("cherisem_bench_tests")
    return subprocess.run([os.path.join(BUILD_DIR, "cherisem_bench_tests")],
                          cwd=BUILD_DIR).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="K")
    p.add_argument("--seed-check", action="store_true")
    p.add_argument("--seeds", default="1,2")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--workloads",
                   help="comma-separated; default: BENCHMARK.json's")
    p.add_argument("--unit-tests", action="store_true")
    args = p.parse_args()
    os.chdir(ROOT)
    if not args.workloads:
        spec = load_spec()
        args.workloads = ",".join(
            [w["name"] for w in spec["workloads"]] if spec else WORKLOADS)
    if args.unit_tests:
        return cmd_unit_tests(args)
    if args.steadiness:
        return cmd_steadiness(args)
    if args.seed_check:
        return cmd_seed_check(args)
    if not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec_seconds(args)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
