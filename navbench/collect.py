#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and summarises each metric.

Run from the repository root:

    python3 navbench/collect.py --runs 10 --first-seeds 100 200 --trace 0 --out navbench/baseline.json

For every workload named in BENCHMARK.json it runs the benchmark command once
per seed of each seed set (seeds first .. first + runs - 1), with
BENCHMARK.json's run length, and records per metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread, i.e. the interquartile
range as a share of the median.

With two first seeds the two sets run interleaved, run by run (A100, B200,
A101, B201, ...), so that a host that speeds up or slows down over minutes
weighs on both sets alike, and the second set is compared with the first:
for every end-to-end metric, how far its median moved in the metric's worse
direction, against the metric's bound.

With --out it writes each set as JSON under trace<T> (the first set) and
trace<T>_repeat (the second); an existing file keeps its other sections.
Exits non-zero if any run fails or reports incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    host = next((l[2:] for l in lines if l.startswith("# host ")), "")
    return result, host


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def compare(workload, first, second, bounds):
    """Prints how far each end-to-end metric of the second set is from the first."""
    print(f"== {workload}: second set against the first")
    for name, (better, bound) in bounds.items():
        a = first["metrics"][name]
        b = second["metrics"][name]
        moved = (b["median"] - a["median"]) / a["median"]
        worse = moved if better == "lower" else -moved
        spread = max(a["spread"], b["spread"])
        flags = []
        if abs(moved) > bound:
            flags.append("medians differ by more than the bound")
        if name != "setup_s" and spread > bound:
            flags.append("spread above the bound")
        elif name != "setup_s" and spread > bound / 3:
            flags.append("spread above a third of the bound")
        print(f"{name:24s} moved {moved:+.3f} (worse by {worse:+.3f}) "
              f"spreads {a['spread']:.3f}/{b['spread']:.3f} bound {bound}"
              + "".join(f"  <- {f}" for f in flags))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seeds", type=int, nargs="+", default=[100],
                    help="first seed of each set; at most two sets")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    opts = ap.parse_args()
    if len(opts.first_seeds) > 2:
        ap.error("at most two seed sets")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    sets = [list(range(first, first + opts.runs)) for first in opts.first_seeds]
    keys = [f"trace{opts.trace}", f"trace{opts.trace}_repeat"][:len(sets)]

    sections = {key: {} for key in keys}
    host = ""
    for workload in (w["name"] for w in bench["workloads"]):
        values = [{} for _ in sets]
        units = {}
        attempted = [[] for _ in sets]
        for i in range(opts.runs):
            for s, seeds in enumerate(sets):
                result, host = run_once(bench["command"], workload, seeds[i], seconds, opts.trace)
                attempted[s].append(result["attempted"])
                for name, metric in result["metrics"].items():
                    values[s].setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
        for s, (key, seeds) in enumerate(zip(keys, sets)):
            sections[key][workload] = {
                "attempted_per_run": attempted[s],
                "metrics": {name: dict(unit=units[name], **summarise(v))
                            for name, v in values[s].items()},
            }
            print(f"== {workload} (trace {opts.trace}, seeds {seeds[0]}..{seeds[-1]}, {seconds} s runs)")
            for name, m in sections[key][workload]["metrics"].items():
                print(f"{name:32s} median {m['median']:12.6g} {m['unit']:6s} spread {m['spread']:.3f}")
        if len(sets) == 2 and opts.trace == 0:
            compare(workload, sections[keys[0]][workload], sections[keys[1]][workload], bounds)
        sys.stdout.flush()

    if opts.out:
        try:
            with open(opts.out) as f:
                doc = json.load(f)
        except FileNotFoundError:
            doc = {}
        doc["host"] = host
        doc["run_seconds"] = seconds
        for key, seeds in zip(keys, sets):
            doc[key] = {"trace": opts.trace, "seeds": seeds, "interleaved": len(sets) == 2,
                        "workloads": sections[key]}
        with open(opts.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
