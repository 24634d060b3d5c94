#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * an untraced run exits 0, prints error_rate 0, and its last line is the
    result JSON with correct=true and exactly the declared end-to-end
    metrics, every one a finite non-zero number;
  * a traced run prints exactly the declared per-layer metrics and the
    layer ladder;
  * with one reference answer corrupted (--corrupt), the run reports
    failures: error_rate > 0, correct=false, exit code 3;
  * a second seed reproduces the same metric set, and the geofence run
    reports the generator's lag and whether it kept its schedule.
Finally, a copy of the checkout holding only BENCHMARK.json and
perfbench/ must fail without printing a result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
CORRUPT_FOR = {"bulk_census_exact": "bulk", "geofence_fleet": "fleet",
               "churn_crossmatch": "churn"}

failures = []


def check(cond, what):
    print(("  ok    " if cond else "  FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, seed=1, trace="0", extra=(), cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed",
           str(seed), "--seconds", "2", "--trace", trace, "--tiny"]
    cmd += list(extra)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def error_rate(stdout):
    m = re.search(r"^error_rate: (\S+)", stdout, re.M)
    return float(m.group(1)) if m else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]

    for w in spec["workloads"]:
        name = w["name"]
        print("%s" % name)
        proc, res = run(name)
        check(proc.returncode == 0, "untraced run exits 0")
        check(res is not None and res.get("correct") is True
              and res.get("failed") == 0 and res.get("attempted", 0) >= 1,
              "result line: correct, nothing failed")
        check(error_rate(proc.stdout) == 0, "error_rate is 0")
        metrics = (res or {}).get("metrics", {})
        check(list(metrics) == e2e, "exactly the declared end-to-end metrics")
        check(all(isinstance(v.get("value"), (int, float))
                  and math.isfinite(v["value"]) and v["value"] != 0
                  for v in metrics.values()),
              "every end-to-end value is finite and non-zero")
        check(all(re.search(r"^\s+%s\s.*n=\d+" % re.escape(n), proc.stdout,
                            re.M) for n in e2e if n != "index_mib"),
              "every timing prints its sample count")

        proc2, res2 = run(name, seed=2)
        check(proc2.returncode == 0 and res2 is not None
              and list(res2.get("metrics", {})) == e2e,
              "another seed reproduces the same metric set")
        if name == "geofence_fleet":
            check(re.search(r"bench.generator_lag_p99_ms\s+\S+ ms",
                            proc2.stdout) is not None
                  and re.search(r"^run_valid: (true|false)", proc2.stdout,
                                re.M) is not None,
                  "generator lag and schedule validity are reported")

        proc, res = run(name, trace="1")
        check(proc.returncode == 0 and res is not None and res["correct"],
              "traced run exits 0, correct")
        check(list((res or {}).get("metrics", {})) == layers,
              "exactly the declared per-layer metrics")
        check("layer ladder" in proc.stdout and "base:" in proc.stdout,
              "the ladder prints rungs with their bases")

        proc, res = run(name, extra=["--corrupt", CORRUPT_FOR[name]])
        rate = error_rate(proc.stdout)
        check(proc.returncode == 3 and res is not None
              and res["correct"] is False and res["failed"] > 0
              and rate is not None and rate > 0,
              "a corrupted reference answer makes error_rate non-zero")

    print("isolated copy (BENCHMARK.json + perfbench/ only)")
    iso = os.path.join(ROOT, ".bench_build", "selftest-isolated")
    shutil.rmtree(iso, ignore_errors=True)
    os.makedirs(iso)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
    shutil.copytree(HERE, os.path.join(iso, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, res = run(spec["workloads"][0]["name"], cwd=iso,
                    script=os.path.join(iso, "perfbench", "run.py"))
    check(proc.returncode != 0 and res is None,
          "fails without printing a result")
    shutil.rmtree(iso, ignore_errors=True)

    print("\n%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
