#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload W --seeds 1-10 [--seconds 24]
                                [--trace 0|1] [--json OUT]

Each seed is one cold run of perfbench/run.py.  For every metric the
script prints the median, the first and third quartiles (as Python's
statistics.quantiles(values, n=4) gives them) and the spread, which is
(q3 - q1) / median.  Comparing two commits means running this on both,
with the same seeds and seconds.  --json writes the summary, with every
run's values, to OUT.
"""

import argparse
import json
import statistics
import subprocess
import sys
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    values, units, runs = {}, {}, []
    for seed in seed_list(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = out.returncode == 0 and result.get("correct") is True
        runs.append({"seed": seed, "ok": ok, "result": result})
        print("seed %d: %s %s" % (seed, "ok" if ok else "FAILED",
                                  json.dumps(result.get("metrics", {}))),
              flush=True)
        for name, m in result.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    summary = {}
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1,
                         "q3": q3, "spread": spread, "values": vs}
        print("%-28s %14.4f %-6s q1 %12.4f q3 %12.4f spread %6.3f"
              % (name, med, units[name], q1, q3, spread))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "runs": runs,
                       "summary": summary}, f, indent=1)
    return 0 if all(r["ok"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
