#!/usr/bin/env python3
"""Runs one workload of the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload discover|ingest_single|ingest_f4 \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the benchmark
(perfbench/CMakeLists.txt, on top of the repository's own libraries) into
.bench_build/perfbench; inputs and stores live under .bench_work/ and are
removed when the run ends.

--trace 0 measures for S seconds and prints the gated end-to-end metrics
named in BENCHMARK.json. --trace 1 measures S seconds untraced and then S
seconds traced on the same inputs, and prints the per-layer metrics, the
traced run's own end-to-end figure and the tracing overhead between the
two. A per-layer metric of a layer the workload never calls reads 0.

    python3 perfbench/run.py --selftest

injects one fault per check family (a corrupted feed record, a dropped
event, a planted GFD that does not hold) into captured outputs and exits
non-zero unless every check turns red.

Human-readable tables come first, then one `REPORT {...}` line with every
figure under its workload-specific name (read by compare.py), and last
one JSON line: {"correct", "attempted", "failed", "metrics"}. The exit
code is non-zero when any output check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("discover", "ingest_single", "ingest_f4")


def fail(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")  # compiler scratch
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, env=env, timeout=840)
        except subprocess.TimeoutExpired:
            fail("build timed out: %s" % " ".join(cmd))
        if p.returncode != 0:
            sys.stderr.write(p.stdout.decode(errors="replace")[-20000:])
            if not os.path.exists(os.path.join(BUILD, "build.ninja")) and \
                    not os.path.exists(os.path.join(BUILD, "Makefile")):
                shutil.rmtree(BUILD, ignore_errors=True)
            fail("build failed: %s" % " ".join(cmd))


def invoke(args, timeout):
    try:
        p = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: perfbench %s" % " ".join(args))
    sys.stdout.write(p.stdout.decode(errors="replace"))
    sys.stderr.write(p.stderr.decode(errors="replace"))
    if p.returncode != 0:
        fail("perfbench %s exited %d" % (args[0], p.returncode))


def measure(workload, seed, work, seconds, trace):
    out = os.path.join(work, "result-%d.json" % trace)
    invoke(["run", "--workload", workload, "--dir", work, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace),
            "--out", out], timeout=150)
    with open(out) as f:
        return json.load(f)


def selftest():
    build()
    work = os.path.join(WORK, "selftest-%d" % os.getpid())
    try:
        code = subprocess.run([BINARY, "selftest", "--dir", work],
                              timeout=170).returncode
    finally:
        cleanup(work)
    sys.exit(code)


def cleanup(work):
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass


def main():
    if sys.argv[1:] == ["--selftest"]:
        selftest()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    work = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed,
                                            os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        invoke(["gen", "--workload", args.workload, "--dir", work,
                "--seed", str(args.seed)], timeout=120)
        if args.trace:
            plain = measure(args.workload, args.seed, work, args.seconds, 0)
            traced = measure(args.workload, args.seed, work, args.seconds, 1)
            runs = [plain, traced]
        else:
            plain = measure(args.workload, args.seed, work, args.seconds, 0)
            runs = [plain]
    finally:
        cleanup(work)

    metrics = {}
    if args.trace:
        base = plain["metrics"]["op_p50_ms"]["value"]
        mine = traced["metrics"]["op_p50_ms"]["value"]
        derived = {
            "trace.op_p50_ms": {"value": mine, "unit": "ms"},
            "trace.overhead_pct": {"value": 100.0 * (mine / base - 1.0),
                                   "unit": "%"},
        }
        for m in spec["per_layer"]:
            name = m["name"]
            if name in derived:
                metrics[name] = derived[name]
            elif name in traced["metrics"]:
                metrics[name] = traced["metrics"][name]
            else:  # a layer this workload never calls
                metrics[name] = {"value": 0, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            if m["name"] not in plain["metrics"]:
                fail("run did not measure %s" % m["name"])
            metrics[m["name"]] = plain["metrics"][m["name"]]
    for name, m in metrics.items():
        unit = next(x["unit"] for x in spec["end_to_end"] + spec["per_layer"]
                    if x["name"] == name)
        if m["unit"] != unit:
            fail("%s measured in %s, declared in %s" % (name, m["unit"], unit))

    correct = all(r["correct"] for r in runs)
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "report": plain["report"]}
    if args.trace:
        report["traced_report"] = traced["report"]
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }, sort_keys=True))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
