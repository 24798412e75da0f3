#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print its metrics.

Run from the repository root:

  python3 perfbench/run.py --workload osd_plan --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --steadiness [--runs 10] [--sets 2] [--seconds 30]

The first form builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload in its own process and prints, as the last line of standard output,
one JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, and the run also prints each
layer's self time from the span log and the tracing overhead.

The second form is the steadiness report: it runs every workload --runs
times per set, alternating the workload order, each run on its own seed, and
prints for every end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median against the metric's bound.  With --sets 2 it repeats the
whole set with the same seeds and also compares the two medians and checks
that delta_mean is bit-identical per seed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("osd_plan", "ostd_swarm", "whatif_service")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build(root):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(root, "src", "core", "fra.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, out_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail("cmake configure failed")
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=log, stderr=log) != 0:
        fail("build failed")
    return build_dir, os.path.join(build_dir, "perfbench")


def run_workload(binary, workload, seed, seconds, trace, spans_out=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result")
    return json.loads(lines[-1])


def self_times(spans_path):
    """Per span name: (calls, total self ms).  Self time is the span's
    duration minus the time its child spans cover."""
    spans = []
    with open(spans_path) as f:
        for line in f:
            spans.append(json.loads(line))
    child_us = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_us[s["parent"]] += s["end_us"] - s["start_us"]
    table = {}
    for s, child in zip(spans, child_us):
        calls, total = table.get(s["name"], (0, 0.0))
        table[s["name"]] = (calls + 1,
                            total + (s["end_us"] - s["start_us"] - child) / 1e3)
    return table


def print_layer_summary(result, spans_path, spec):
    ops = int(result["info"]["traced_ops"])
    print(f"per-layer self time over {ops} traced ops "
          "(span minus child spans; 'op' is the client's own share):")
    table = self_times(spans_path)
    total = sum(t for _, t in table.values()) or 1.0
    for name, (calls, t) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:34s} {calls:7d} calls {t / max(ops, 1):9.3f} ms/op "
              f"{100.0 * t / total:5.1f}%")
    print("per-layer metrics:")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in sorted(result["metrics"].items()):
        print(f"  {name:44s} {value:14.6g} {units.get(name, '')}")
    print(f"tracing overhead: traced/untraced ops_per_s = "
          f"{result['metrics']['trace.overhead_ratio']:.4f}")


def single_run(args, root, spec):
    build_dir, binary = build(root)
    spans_out = None
    if args.trace:
        spans_out = os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    result = run_workload(binary, args.workload, args.seed, args.seconds,
                          args.trace, spans_out)
    print("run: " + json.dumps({"workload": args.workload,
                                **result["info"]}, sort_keys=True))
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        value = result["metrics"].get(m["name"])
        if value is None:
            if args.trace:
                # A layer this workload never enters does no work on it.
                value = 0.0
            else:
                fail(f"{args.workload} did not report {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if args.trace:
        print_layer_summary(result, spans_out, spec)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


def spread(values):
    """q1, median, q3 and the quartile spread as a share of the median."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / abs(q2) if q2 else 0.0


def steadiness(args, root, spec):
    _, binary = build(root)
    workloads = list(WORKLOADS)
    seeds = [args.seed + r for r in range(args.runs)]
    # sets[s][workload][metric] -> values in seed order
    sets = []
    flagged = 0
    for s in range(args.sets):
        values = {w: {} for w in workloads}
        for r, seed in enumerate(seeds):
            order = workloads if (r + s) % 2 == 0 else workloads[::-1]
            for w in order:
                res = run_workload(binary, w, seed, args.seconds, False)
                if not res["correct"]:
                    flagged += 1
                    print(f"  {w} seed {seed}: output check FAILED "
                          f"({res['failed']} of {res['attempted']} ops)")
                for name, v in res["metrics"].items():
                    values[w].setdefault(name, []).append(v)
                print(f"  set {s + 1} run {r + 1}/{args.runs} {w} seed "
                      f"{seed}: ops_per_s {res['metrics']['ops_per_s']:.3f}",
                      flush=True)
        sets.append(values)

    for w in workloads:
        print(f"\n{w}: {args.runs} runs per set, seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':20s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s} {'spr/bnd':>7s}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, values in enumerate(sets):
                vals = values[w][name]
                q1, med, q3, spr = spread(vals)
                medians.append(med)
                flag = ""
                if spr > bound:
                    flag = "  OUTSIDE BOUND"
                    flagged += 1
                elif spr > bound / 3:
                    flag = "  (above bound/3)"
                print(f"  {name:20s} {s + 1:3d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spr:7.4f} {bound:6.3f} "
                      f"{spr / bound:7.3f}{flag}")
            for s in range(1, len(medians)):
                diff = abs(medians[s] - medians[0]) / abs(medians[0])
                if diff > bound:
                    flagged += 1
                    print(f"  {name:20s} set {s + 1} median differs from set "
                          f"1 by {diff:.4f} > bound {bound}  OUTSIDE BOUND")
        if len(sets) > 1:
            same = all(v["delta_mean"] == sets[0][w]["delta_mean"]
                       for v in (values[w] for values in sets[1:]))
            print(f"  delta_mean bit-identical per seed across sets: {same}")
            if not same:
                flagged += 1
    print(f"\n{flagged} finding(s): metrics outside their bound, failed "
          "output checks or delta_mean differing between sets")
    return 1 if flagged else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args()
    root = os.getcwd()
    spec = load_spec(root)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.steadiness:
        return steadiness(args, root, spec)
    if args.workload is None:
        fail("--workload is required")
    return single_run(args, root, spec)


if __name__ == "__main__":
    sys.exit(main())
