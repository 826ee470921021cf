#!/usr/bin/env python3
"""Exact search-effort counts of the checked-in example specs.

Runs `ezrt schedule` over a fixed matrix of engine / state-class / thread
configurations and records, per run, the verdict, the trace length and the
deterministic effort counters of the run report. Every row is a serial
search or an infeasible parallel one, so each value is exact and must not
move unless a change means to move it.

    tools/search_counts.py build/tools/ezrt tools/search_counts.tsv
    tools/search_counts.py build/tools/ezrt tools/search_counts.tsv --write

The first form compares against the table and exits 1 on any difference;
the second rewrites the table.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPECS = ["mine_pump", "harmonic_u40", "uav_dual_processor"]
FIELDS = ["status", "firings", "states_visited", "transitions_fired",
          "pruned_deadline", "pruned_visited", "pruned_doomed",
          "classes_merged"]


def runs():
    """(row name, extra ezrt arguments) for every row of the table."""
    # Each spec under the default options, then the UAV spec once more in
    # complete mode, where every prune reason fires.
    matrix = [(spec, spec, []) for spec in SPECS]
    matrix.append(("uav_dual_processor/complete", "uav_dual_processor",
                   ["--complete"]))
    for name, spec, extra in matrix:
        for engine in ["dfs", "bestfirst"]:
            for classes in ["on", "off"]:
                yield (f"{name}/{engine}/classes-{classes}",
                       [spec, f"--engine={engine}",
                        f"--state-classes={classes}"] + extra)
    # An infeasible spec: every engine must exhaust the same graph, so its
    # counts agree across thread counts.
    infeasible = ["uav_dual_processor", "--sync-budget", "1", "--complete"]
    for threads in [0, 1, 2, 4]:
        yield (f"uav_dual_processor/sync-budget-1/threads-{threads}",
               infeasible + ["--threads", str(threads)])
    # With classes on, only the serial engines are exact: parallel workers
    # race on which corridor reaches a class first.
    yield ("uav_dual_processor/sync-budget-1/classes-on",
           infeasible + ["--state-classes=on"])
    for classes in ["on", "off"]:
        yield (f"uav_dual_processor/sync-budget-1/bestfirst/"
               f"classes-{classes}",
               infeasible + ["--engine=bestfirst",
                             f"--state-classes={classes}"])
    # Branch-and-bound, both objectives.
    for objective in ["makespan", "switches"]:
        yield (f"harmonic_u40/optimize-{objective}",
               ["harmonic_u40", "--optimize", objective])


def measure(ezrt, args, scratch):
    spec = os.path.join(REPO_ROOT, "examples", "specs", args[0] + ".ezspec")
    report = os.path.join(scratch, "report.json")
    subprocess.run([ezrt, "schedule", spec] + args[1:] + ["--report", report],
                   stdout=subprocess.DEVNULL, check=False)
    with open(report) as f:
        doc = json.load(f)
    values = {"status": doc["verdict"]["status"],
              "firings": doc["verdict"]["firings"]}
    for field in FIELDS[2:]:
        values[field] = doc["search"][field]
    return [str(values[f]) for f in FIELDS]


def read_table(path):
    rows = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            cells = line.rstrip("\n").split("\t")
            rows[cells[0]] = cells[1:]
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ezrt", help="path to the ezrt binary")
    parser.add_argument("table", help="tab-separated count table")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the table instead of comparing")
    opts = parser.parse_args()

    with tempfile.TemporaryDirectory() as scratch:
        measured = [(name, measure(opts.ezrt, args, scratch))
                    for name, args in runs()]

    if opts.write:
        with open(opts.table, "w") as f:
            f.write("# run\t" + "\t".join(FIELDS) + "\n")
            for name, values in measured:
                f.write(name + "\t" + "\t".join(values) + "\n")
        print(f"wrote {len(measured)} rows to {opts.table}")
        return 0

    expected = read_table(opts.table)
    failed = False
    for name, values in measured:
        want = expected.pop(name, None)
        if want != values:
            failed = True
            print(f"MISMATCH {name}: expected {want}, got {values}")
        else:
            print(f"ok {name}: {' '.join(values)}")
    for name in expected:
        failed = True
        print(f"MISSING {name}: in the table but not run")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
