#!/usr/bin/env python3
"""Repeats the admission benchmark over several seeds and records its spread.

    python3 admbench/steady.py --workloads tcp-interactive,durable-accept \
        --seeds 1-10 [--trace 0|1] [--out admbench/evidence/steadiness.json]

Run it from the root of the checkout. For every workload it runs
admbench/run.py once per seed, then reports for each metric its ten values,
their median and quartiles (statistics.quantiles(values, n=4)), and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
The JSON it writes is the steadiness evidence kept under admbench/evidence.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "admbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        return {"seed": seed, "exit": proc.returncode, "elapsed_s": elapsed,
                "stdout_tail": proc.stdout.splitlines()[-20:]}
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    result["seed"] = seed
    result["exit"] = 0
    result["elapsed_s"] = elapsed
    notes = [l for l in proc.stdout.splitlines()
             if l.startswith(("INVALID", "CHECK FAILED", "  dominant", "layer ladder", "  R"))]
    if notes:
        result["notes"] = notes
    return result


def summarize(runs, bounds):
    out = {}
    names = sorted({n for r in runs if r["exit"] == 0 for n in r["metrics"]})
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs
                  if r["exit"] == 0 and r["metrics"][name]["value"] is not None]
        entry = {"values": values}
        if len(values) >= 2:
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, median=med, q3=q3)
            if med:
                entry["spread"] = (q3 - q1) / abs(med)
        if name in bounds:
            entry["bound"] = bounds[name]
            if "spread" in entry:
                entry["within_third_of_bound"] = entry["spread"] < bounds[name] / 3
        out[name] = entry
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "hardware_concurrency": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            r = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(r)
            brief = {k: v["value"] for k, v in r.get("metrics", {}).items()}
            print(f"{workload} seed {seed}: exit {r['exit']} correct {r.get('correct')} "
                  f"{r['elapsed_s']:.0f}s {json.dumps(brief)}", flush=True)
        summary = summarize(runs, bounds)
        report["workloads"][workload] = {"runs": runs, "metrics": summary}
        for name, e in summary.items():
            if "spread" in e:
                print(f"  {workload:16s} {name:28s} median {e['median']:.6g} "
                      f"spread {e['spread']:.3f} bound {e.get('bound', '-')}", flush=True)
    if args.out:
        os.makedirs(os.path.dirname(args.out), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
