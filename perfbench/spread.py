#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way they are judged.

Runs one or more workloads once per seed (untraced), then prints for every
end-to-end metric its median and the distance between the first and third
quartile as a share of the median (statistics.quantiles(values, n=4)),
next to the metric's bound from BENCHMARK.json. A spread above a third of
the bound is flagged. setup_s is shown but judged only on its median.

    python3 perfbench/spread.py --workloads geofence_fleet --seeds 1-5
    python3 perfbench/spread.py --seeds 11-20            # every workload

Each run's JSON line is appended to --log (default
.bench_build/perfbench/spread.jsonl) so two sets can be compared later
with --compare A B, which reports each metric's median shift between the
two sets against its bound.
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


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d):\n%s%s" % (
            workload, seed, proc.returncode, proc.stdout[-2000:],
            proc.stderr[-2000:]))
    return json.loads(lines[-1])


def summarize(spec, rows):
    """rows: list of result objects of one workload. Returns metric ->
    (median, spread, n)."""
    out = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in rows]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
        else:
            spread = 0.0
        out[m["name"]] = (med, spread, len(values))
    return out


def print_table(spec, workload, summary):
    print("\n%s" % workload)
    print("  %-20s %14s %9s %7s  %s" % ("metric", "median", "spread",
                                        "bound", "verdict"))
    ok = True
    for m in spec["end_to_end"]:
        med, spread, n = summary[m["name"]]
        bound = m["bound"]
        if m["name"] == "setup_s":
            verdict = "(median only)"
        elif spread <= bound / 3:
            verdict = "ok"
        else:
            verdict = "WIDE" if spread <= bound else "OVER BOUND"
            ok = False
        print("  %-20s %14.6g %8.2f%% %6.0f%%  %s (n=%d)" % (
            m["name"], med, 100 * spread, 100 * bound, verdict, n))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default="",
                   help="comma list (default: every workload)")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--log", default=os.path.join(
        ROOT, ".bench_build", "perfbench", "spread.jsonl"))
    p.add_argument("--set", default="default",
                   help="label stored with each run (for --compare)")
    p.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    args = p.parse_args()
    spec = load_spec()
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])

    if args.compare:
        with open(args.log) as f:
            runs = [json.loads(line) for line in f if line.strip()]
        ok = True
        for wl in workloads:
            a = [r["result"] for r in runs
                 if r["set"] == args.compare[0] and r["workload"] == wl]
            b = [r["result"] for r in runs
                 if r["set"] == args.compare[1] and r["workload"] == wl]
            if not a or not b:
                continue
            sa, sb = summarize(spec, a), summarize(spec, b)
            print("\n%s: median shift %s -> %s" % (wl, args.compare[0],
                                                  args.compare[1]))
            for m in spec["end_to_end"]:
                ma, mb = sa[m["name"]][0], sb[m["name"]][0]
                worse = (mb - ma) / ma if m["better"] == "lower" else (
                    ma - mb) / ma
                flag = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                ok = ok and worse <= m["bound"]
                print("  %-20s %12.6g -> %12.6g  worse by %+7.2f%% "
                      "(bound %.0f%%) %s" % (m["name"], ma, mb, 100 * worse,
                                             100 * m["bound"], flag))
        return 0 if ok else 1

    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(os.path.dirname(args.log), exist_ok=True)
    all_ok = True
    for wl in workloads:
        rows = []
        for seed in parse_seeds(args.seeds):
            result = run_once(wl, seed, seconds)
            if not result["correct"]:
                print("%s seed %d: correct=false" % (wl, seed))
                all_ok = False
            rows.append(result)
            with open(args.log, "a") as f:
                f.write(json.dumps({"set": args.set, "workload": wl,
                                    "seed": seed, "result": result}) + "\n")
            print("  %s seed %d done" % (wl, seed), flush=True)
        all_ok = print_table(spec, wl, summarize(spec, rows)) and all_ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
