#!/usr/bin/env python3
"""Collects and compares sets of benchmark runs.

Collect a set (one saved stdout per run, named <workload>-<seed>[-t].out):

    python3 perfbench/compare.py collect DIR [--seeds 1-10]
        [--workloads discover,ingest_single] [--trace 0|1]

Every run lasts BENCHMARK.json's run_seconds, so sets stay comparable.

Summarise one set -- per workload and metric: median, quartiles and the
spread (Q3 - Q1) / median against the metric's bound in BENCHMARK.json:

    python3 perfbench/compare.py DIR

Compare a baseline set A with a candidate set B -- medians, quartiles,
and a verdict per gated metric: "worse" when B's median is worse than
A's by more than the bound, "unresolved" when a side's spread exceeds
the bound, else "ok" (or "better" when it improved by more than the
bound). A workload whose runs in B fail a larger share of operations
than A's, or where a run of B is incorrect, is "worse" too. Metrics without a bound (the REPORT figures, per-layer metrics)
are listed with their change only. Exits 1 when any verdict is "worse".

    python3 perfbench/compare.py A B

A set that holds both untraced and traced runs also gets the tracing
overhead (traced op_p50_ms against untraced op_p50_ms).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_run(path):
    """(workload, trace, gated metrics, report figures, correct, fail share)."""
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    result = json.loads(lines[-1])
    report = next(json.loads(l[len("REPORT "):]) for l in lines
                  if l.startswith("REPORT "))
    figures = {k: v["value"] for k, v in report["report"].items()}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    share = result["failed"] / max(1, result["attempted"])
    return (report["workload"], report["trace"], metrics, figures,
            result["correct"], share)


def load_set(d):
    runs = {}
    for name in sorted(os.listdir(d)):
        if name.endswith(".out"):
            w, trace, metrics, figures, correct, share = parse_run(
                os.path.join(d, name))
            runs.setdefault((w, trace), []).append(
                {"metrics": metrics, "figures": figures, "correct": correct,
                 "share": share})
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def series(runs, key, name):
    return [r[key][name] for r in runs if name in r[key]]


def collect(args):
    os.makedirs(args.dir, exist_ok=True)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for s in seeds:
            out = os.path.join(args.dir, "%s-%d%s.out" % (
                w, s, "-t" if args.trace else ""))
            cmd = spec["command"] + ["--workload", w, "--seed", str(s),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
            with open(out, "wb") as f:
                f.write(p.stdout)
            last = p.stdout.decode(errors="replace").strip().splitlines()
            print("%-14s seed %-3d exit %d  %s" % (
                w, s, p.returncode, last[-1][:150] if last else "(no output)"))
            sys.stdout.flush()


def summarise(d):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = load_set(d)
    for (w, trace), rs in sorted(runs.items()):
        bad = sum(not r["correct"] for r in rs)
        shares = sorted({r["share"] for r in rs})
        print("%s%s: %d run(s), %d incorrect, failed share(s) %s" % (
            w, " (traced)" if trace else "", len(rs), bad, shares))
        for key in ("metrics", "figures"):
            for n in sorted({n for r in rs for n in r[key]}):
                v = series(rs, key, n)
                q1, med, q3 = quartiles(v)
                b = bounds.get(n) if key == "metrics" and not trace else None
                s = spread(v)
                note = ""
                if b:
                    note = "spread %.3f / bound %.2f %s" % (
                        s, b["bound"], "ok" if s <= b["bound"] / 3 else
                        ("within bound" if s <= b["bound"] else "UNSTEADY"))
                else:
                    note = "spread %.3f" % s
                print("  %-38s med %-12.6g q1 %-12.6g q3 %-12.6g %s" % (
                    n, med, q1, q3, note))
    overhead(runs)


def overhead(runs):
    for (w, trace), rs in sorted(runs.items()):
        if trace != 1 or (w, 0) not in runs:
            continue
        base = statistics.median(series(runs[(w, 0)], "metrics", "op_p50_ms"))
        mine = statistics.median(series(rs, "metrics", "trace.op_p50_ms"))
        print("%s: tracing overhead on op_p50_ms %+.1f%% (%.4g vs %.4g ms)" % (
            w, 100 * (mine / base - 1), mine, base))


def compare(a_dir, b_dir):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better_of = {m["name"]: m["better"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = load_set(a_dir), load_set(b_dir)
    worse = 0
    for key in sorted(set(a) & set(b)):
        w, trace = key
        print("%s%s: A %d run(s), B %d run(s)" % (
            w, " (traced)" if trace else "", len(a[key]), len(b[key])))
        sa = sorted({r["share"] for r in a[key]})
        sb = sorted({r["share"] for r in b[key]})
        if max(sb) > max(sa):
            print("  failed share WORSE: A %s, B %s" % (sa, sb))
            worse += 1
        elif sa != sb:
            print("  failed share differs: A %s, B %s" % (sa, sb))
        bad_b = sum(not r["correct"] for r in b[key])
        if bad_b:
            print("  WORSE: %d run(s) of B incorrect" % bad_b)
            worse += 1
        for field in ("metrics", "figures"):
            names = sorted({n for r in a[key] + b[key] for n in r[field]})
            for n in names:
                va, vb = series(a[key], field, n), series(b[key], field, n)
                if not va or not vb:
                    continue
                qa, qb = quartiles(va), quartiles(vb)
                change = (qb[1] / qa[1] - 1) if qa[1] else 0.0
                verdict = ""
                m = bounds.get(n) if field == "metrics" and not trace else None
                if m:
                    sign = 1 if m["better"] == "lower" else -1
                    rel = sign * change  # > 0 means B is worse
                    if rel > m["bound"]:
                        verdict = "WORSE"
                        worse += 1
                    elif max(spread(va), spread(vb)) > m["bound"]:
                        verdict = "unresolved (spread)"
                    elif rel < -m["bound"]:
                        verdict = "better"
                    else:
                        verdict = "ok"
                    verdict += " (bound %.2f)" % m["bound"]
                elif n in better_of:
                    verdict = "(%s is better)" % better_of[n]
                print("  %-38s A %-11.5g [%-.5g, %-.5g]  B %-11.5g "
                      "[%-.5g, %-.5g]  %+7.1f%%  %s" % (
                          n, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                          100 * change, verdict))
    return 1 if worse else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "collect":
        ap = argparse.ArgumentParser()
        ap.add_argument("verb")
        ap.add_argument("dir")
        ap.add_argument("--seeds", default="1-10")
        ap.add_argument("--workloads", default="")
        ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
        collect(ap.parse_args())
        return 0
    if len(sys.argv) == 2:
        summarise(sys.argv[1])
        return 0
    if len(sys.argv) == 3:
        return compare(sys.argv[1], sys.argv[2])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main())
