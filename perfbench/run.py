#!/usr/bin/env python3
"""Streaming benchmark for pigp: build, run one workload, print the result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload append_local --seed 1 --seconds 10 --trace 0

builds perfbench/ (which compiles the library from src/) into the build
directory, runs one workload and prints a human-readable report followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list.  Exits non-zero when the build fails, an output check
fails, or a declared metric was not measured.

    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl

compares two result sets recorded with --record FILE (see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(out):
    """Configure (once) and build the benchmark; returns the binary path."""
    src = os.path.join(ROOT, "perfbench")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at src/; run from a full checkout")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed")
    return os.path.join(out, "pigp_perfbench")


def run(args):
    spec = load_spec()
    out = build_dir()
    binary = build(out)
    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    raw = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            raw = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if raw is None:
        sys.exit("perfbench: the benchmark printed no result (exit code %d)" % proc.returncode)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = raw["per_layer"] if args.trace else raw["end_to_end"]
    metrics = {}
    for metric in declared:
        got = measured.get(metric["name"])
        if got is None or got["value"] is None:
            sys.exit("perfbench: %s did not measure %s" % (args.workload, metric["name"]))
        if got["unit"] != metric["unit"]:
            sys.exit("perfbench: %s has unit %s, BENCHMARK.json says %s"
                     % (metric["name"], got["unit"], metric["unit"]))
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {"correct": bool(raw["correct"]) and proc.returncode == 0,
              "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
              "metrics": metrics}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# --- compare mode -----------------------------------------------------------

def read_records(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, pairs):
    """Section 8 of the metric guide: a gain needs nine tenths of the pairs
    and a median shift beyond the parent's own quartile spread; a change is
    worse when its median loses by more than the bound (or by the same rule
    as a gain, reversed); anything else is unresolved."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for a, b in pairs if sign * (b - a) > 0)
    lost = sum(1 for a, b in pairs if sign * (b - a) < 0)
    shift = sign * (cm - pm)
    if pairs and won >= 0.9 * len(pairs) and shift > spread:
        return "better", won
    if pairs and lost >= 0.9 * len(pairs) and -shift > spread:
        return "worse", won
    if bound is not None and pm != 0 and -shift > bound * abs(pm) and spread <= bound * abs(pm):
        return "worse", won
    return "unresolved", won


def compare(parent_path, change_path):
    spec = load_spec()
    kinds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = read_records(parent_path), read_records(change_path)
    print("%-14s %-28s %12s %23s %12s %23s %7s  %s" % (
        "workload", "metric", "parent_med", "parent_q1..q3", "change_med",
        "change_q1..q3", "won", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        for name, meta in kinds.items():
            def values(recs):
                return {r["seed"]: r["result"]["metrics"][name]["value"]
                        for r in recs if name in r["result"]["metrics"]}
            a, b = values(parent[workload]), values(change[workload])
            if not a or not b:
                continue
            pairs = [(a[s], b[s]) for s in sorted(set(a) & set(b))]
            pa, pb = sorted(a.values()), sorted(b.values())
            v, won = verdict(pa, pb, meta["better"], meta.get("bound"), pairs)
            q1, m, q3 = quartiles(pa)
            r1, n, r3 = quartiles(pb)
            print("%-14s %-28s %12.6g %11.5g..%-11.5g %12.6g %11.5g..%-11.5g %3d/%-3d  %s" % (
                workload, name, m, q1, q3, n, r1, r3, won, len(pairs), v))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("parent")
        p.add_argument("change")
        a = p.parse_args(sys.argv[2:])
        return compare(a.parent, a.change)
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append this run's result to a JSON-lines file")
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
