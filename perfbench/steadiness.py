#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs the benchmark once per (workload, seed), reads each run's result line,
and reports per metric the median and the spread between the first and
third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them. With ``--repeat 2`` it
runs the whole set twice and also reports how far the second set's median
moved from the first's, in the metric's worse direction. End-to-end
metrics are compared with their bound from BENCHMARK.json.

    python3 perfbench/steadiness.py --seeds 1-10 --repeat 2 --out perfbench/steadiness.json

Run it from the repository root. By default it runs BENCHMARK.json's
command; ``--cmd`` replaces that (for example with a prebuilt binary).
``--combine a.json b.json`` builds the two-set report from two saved
single-set outputs instead of running anything.
"""

import argparse
import json
import shlex
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: a check failed")
    return result, wall


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
        "values": values,
    }


def run_set(cmd, workloads, seeds, seconds, trace):
    out = {"seeds": seeds, "trace": trace, "seconds": seconds, "workloads": {}}
    for w in workloads:
        per_metric, walls = {}, []
        for seed in seeds:
            result, wall = run_once(cmd, w, seed, seconds, trace)
            walls.append(wall)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)
        out["workloads"][w] = {
            "run_wall_s": summarize(walls),
            "metrics": {name: summarize(v) for name, v in per_metric.items()},
        }
    return out


def report(sets, bench):
    """Print each metric's median and spread per set, the median shift
    between the first two sets, and the worst spread-to-bound ratio. An
    end-to-end metric is flagged OK when its widest spread is within a third
    of its bound, near within the bound, OVER beyond it, and SHIFT when the
    second set's median is worse than the first's by more than the bound."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    worst = (0.0, "", "")
    for w in sets[0]["workloads"]:
        rows = [s["workloads"][w]["metrics"] for s in sets]
        print(f"\n{w}: run wall median "
              f"{sets[0]['workloads'][w]['run_wall_s']['median']:.1f} s")
        print(f"  {'metric':<34}{'median':>12}" + "".join(
            f"{'spread' + str(i + 1):>9}" for i in range(len(sets)))
            + f"{'shift':>8}{'bound':>7}")
        for name, first in rows[0].items():
            bound = bounds.get(name)
            spreads = [r[name]["spread"] for r in rows]
            shift = ""
            if len(rows) > 1:
                m1, m2 = first["median"], rows[1][name]["median"]
                worse = (m2 - m1) if better.get(name) == "lower" else (m1 - m2)
                shift = f"{worse / m1 if m1 else 0.0:>8.4f}"
            flag = ""
            if bound is not None:
                ratio = max(spreads) / bound
                worst = max(worst, (ratio, w, name))
                flag = " OK" if ratio <= 1 / 3 else (" near" if ratio <= 1 else " OVER")
                if shift and float(shift) > bound:
                    flag += " SHIFT"
            b = f"{bound:>7.2f}" if bound is not None else f"{'-':>7}"
            print(f"  {name:<34}{first['median']:>12.5g}"
                  + "".join(f"{s:>9.4f}" for s in spreads) + f"{shift:>8}{b}{flag}")
    if worst[1]:
        print(f"\nlargest spread/bound: {worst[0]:.2f} ({worst[1]} {worst[2]})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    ap.add_argument("--seeds", default="1-10", help="range such as 1-10")
    ap.add_argument("--repeat", type=int, default=1, help="how many sets to run")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--cmd", default="", help="benchmark command to run instead")
    ap.add_argument("--combine", nargs="+", default=[], help="saved sets to report on")
    ap.add_argument("--out", default="", help="write the sets as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.combine:
        sets = []
        for path in args.combine:
            with open(path) as f:
                sets.extend(json.load(f)["sets"])
    else:
        cmd = shlex.split(args.cmd) if args.cmd else bench["command"]
        workloads = ([w for w in args.workloads.split(",") if w]
                     or [w["name"] for w in bench["workloads"]])
        sets = []
        for _ in range(args.repeat):
            sets.append(run_set(cmd, workloads, parse_seeds(args.seeds),
                                bench["run_seconds"], args.trace))
            if args.out:
                with open(args.out, "w") as f:
                    json.dump({"sets": sets}, f, indent=1)
                    f.write("\n")
    report(sets, bench)


if __name__ == "__main__":
    main()
