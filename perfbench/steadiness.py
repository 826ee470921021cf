#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of one build agree.

    python3 perfbench/steadiness.py [--runs 10]
        [--workloads compile_mix,serve_mix] [--json FILE]

Run from the repository root. Each of the two sets runs every workload
--runs times, each run with its own seed, through run.py with tracing off;
runs of the workloads are interleaved so slow periods of the host spread
over all of them. For each workload and end-to-end metric it reports, per
set, the median and quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median. The sets agree when every spread, setup_s's included,
stays within the metric's bound from BENCHMARK.json, and the two medians
differ by no more than that bound, in either direction, as a share of the
first. Exit code 0 when they agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEED_BASE = 1000


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, run.returncode))
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def drift(first, later):
    """How far `later` is from `first`, as a share of `first`."""
    return abs(later - first) / first if first else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--json", help="also write the report here")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    samples = {(s, w): [] for s in range(SETS) for w in workloads}
    for s in range(SETS):
        for i in range(args.runs):
            for w in workloads:
                seed = SEED_BASE + s * args.runs + i
                samples[(s, w)].append(run_once(w, seed, bench["run_seconds"]))
                print("set %d run %d %s done" % (s + 1, i + 1, w),
                      file=sys.stderr)

    report, agree = [], True
    for w in workloads:
        for name, spec in metrics.items():
            sets = [summary([r[name] for r in samples[(s, w)]])
                    for s in range(SETS)]
            moved = drift(sets[0]["median"], sets[1]["median"])
            ok = moved <= spec["bound"] and all(
                x["spread"] <= spec["bound"] for x in sets)
            agree &= ok
            report.append({"workload": w, "metric": name, "unit": spec["unit"],
                           "bound": spec["bound"], "sets": sets,
                           "drift": moved, "agree": ok})
            print("%-18s %-17s bound %.2f | %s | drift %.3f %s" % (
                w, name, spec["bound"], " | ".join(
                    "med %.5g q1 %.5g q3 %.5g spread %.3f" %
                    (x["median"], x["q1"], x["q3"], x["spread"])
                    for x in sets), moved, "ok" if ok else "DISAGREE"))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"runs": args.runs, "seconds": bench["run_seconds"],
                       "agree": agree, "rows": report}, f, indent=1)
    print("sets agree within bounds" if agree else "sets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
